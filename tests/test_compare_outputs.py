import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "tools" / "compare_outputs.py"
_SPEC = importlib.util.spec_from_file_location("compare_outputs", _PATH)
compare_outputs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(compare_outputs)


def _run(workload="swiss", seed=5046, job_eps=True, values=(1.0, 2.0),
         states=((0.03, None), (0.04, 0.2)), levels=((12, 13), (14,)), assembled=(40, 41),
         quote_states=(0.021, 0.047)):
    states = [list(pair) for pair in states]
    return {
        "workload": workload, "seed": seed, "eps": 1e-7, "job_eps": job_eps,
        "quote_states": list(quote_states),
        "values": list(values),
        "states": states,
        "rates": [list(pair) for pair in states],
        "eval_levels": [list(lv) for lv in levels],
        "value_levels": [20, 21],
        "assembled": list(assembled),
    }


def test_identical_dumps_compare_clean():
    dump = {"a": _run(), "b": _run(workload="rate_sweep", job_eps=False)}
    summary = compare_outputs.compare(dump, dump)
    assert summary["failed"] == []
    assert all(diff == 0.0 for diff, _ in summary["worst"].values())
    assert set(summary["counts"].values()) == {0}
    # evaluations count seed 5046 at the job's eps only
    assert summary["evaluations"]["parent"] == {"swiss": 3}
    assert "OK" in compare_outputs.report(summary)


def test_differences_within_the_bounds_pass():
    parent = {"a": _run()}
    change = {"a": _run(values=(1.0 + 5e-14, 2.0), states=((0.03 + 4e-8, None), (0.04, 0.2)),
                        levels=((12,), (14, 15, 16)), quote_states=(0.021 + 3e-13, 0.047))}
    summary = compare_outputs.compare(parent, change)
    assert summary["failed"] == []
    assert summary["worst"]["value"] == (pytest.approx(5e-14, rel=1e-3), "a")
    assert summary["worst"]["quote_state"][0] == pytest.approx(3e-13, rel=1e-2)
    assert summary["worst"]["state"][0] == pytest.approx(4e-8)
    assert summary["counts"]["eval_levels"] == 2
    assert summary["evaluations"] == {"parent": {"swiss": 3}, "change": {"swiss": 4}}


def test_each_breach_is_reported():
    parent = {"a": _run(), "b": _run(), "c": _run(), "gone": _run()}
    change = {
        "a": _run(values=(1.0 + 1e-12, float("nan"))),
        "b": _run(states=((None, None), (0.04 + 1e-6, 0.2)), assembled=(40, 42)),
        "c": {"workload": "swiss", "seed": 5046, "eps": 1e-7, "job_eps": True,
              "error": "BracketError: put region covers the whole search interval"},
        "new": _run(),
    }
    summary = compare_outputs.compare(parent, change)
    assert summary["worst"]["value"] == (float("inf"), "a")  # NaN counts as the worst
    assert summary["counts"]["none_pattern"] == 1
    assert summary["counts"]["assembled"] == 1
    assert summary["counts"]["errors"] == 1
    assert summary["counts"]["missing"] == 2
    assert summary["failed"] == ["value", "state", "rate", "missing", "errors", "none_pattern",
                                 "assembled"]
    assert "FAILED: value" in compare_outputs.report(summary)


def test_value_differences_are_reported_in_units_of_each_runs_eps():
    # 2e-8 is 0.2 eps of a run at 1e-7; 5e-13 is 0.5 eps of a run at 1e-12
    parent = {"coarse": _run(), "fine": {**_run(), "eps": 1e-12}}
    change = {"coarse": _run(values=(1.0 + 2e-8, 2.0)),
              "fine": {**_run(values=(1.0, 2.0 + 5e-13)), "eps": 1e-12}}
    summary = compare_outputs.compare(parent, change)
    assert summary["worst"]["value"] == (pytest.approx(2e-8, rel=1e-6), "coarse")
    assert summary["worst"]["value_eps"] == (pytest.approx(0.5, rel=1e-3), "fine")
    assert summary["failed"] == ["value"]  # the bound stays on the absolute difference
    assert "max |value diff| / eps = 0.5 at fine" in compare_outputs.report(summary)


def test_quote_states_are_held_to_the_inversion_tolerance():
    # 2e-12 passes the pricer's STATE_TOL but not the inversion's xtol
    parent = {"a": _run(), "b": _run()}
    change = {"a": _run(quote_states=(0.021, 0.047 + 2e-12)), "b": _run(quote_states=(0.021,))}
    summary = compare_outputs.compare(parent, change)
    assert compare_outputs.QUOTE_STATE_TOL == 1e-12 < compare_outputs.STATE_TOL
    assert summary["worst"]["quote_state"] == (pytest.approx(2e-12, rel=1e-2), "a")
    assert summary["counts"]["quotes"] == 1
    assert summary["failed"] == ["quote_state", "quotes"]
    assert "max |quote_state diff|" in compare_outputs.report(summary)


def test_criterion_6_deviation_past_its_bound_fails():
    def criterion_6(dev):
        return {**_run(workload="criterion_6", job_eps=False), "criterion_6_dev": dev}

    parent = {"c6 cir": criterion_6(2), "c6 vasicek": criterion_6(1)}
    summary = compare_outputs.compare(parent, {"c6 cir": criterion_6(2), "c6 vasicek": criterion_6(3)})
    assert summary["criterion_6_dev"] == {"parent": 2, "change": 3}
    assert summary["failed"] == ["criterion_6"]
    assert "change 3 (bound 2)" in compare_outputs.report(summary)
    assert compare_outputs.compare(parent, parent)["failed"] == []


def test_runs_outside_the_bench_are_compared_but_not_counted():
    # the straight-bond and 3/2 runs carry no seed: their values are held
    # to the bounds, their evaluations stay out of the per-workload counts
    def extra(**kw):
        run = _run(workload="straight", **kw)
        del run["seed"], run["job_eps"]
        return run

    summary = compare_outputs.compare({"s": extra()}, {"s": extra(values=(1.0 + 1e-12, 2.0))})
    assert summary["evaluations"] == {"parent": {}, "change": {}}
    assert summary["failed"] == ["value"]
