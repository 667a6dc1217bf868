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


def test_evaluations_per_date_and_fallbacks_are_reported():
    # a parent that does not count fallbacks reads "-"
    parent = {"a": {**_run(), "fallbacks": None}, "b": {**_run(), "fallbacks": None}}
    change = {"a": {**_run(levels=((12,), (14,))), "fallbacks": 1},
              "b": {**_run(levels=((12,), (14, 15))), "fallbacks": 0}}
    summary = compare_outputs.compare(parent, change)
    assert summary["dates"] == {"parent": {"swiss": 4}, "change": {"swiss": 4}}
    assert summary["fallbacks"] == {"parent": {"swiss": None}, "change": {"swiss": 1}}
    assert ("break-even evaluations, swiss (seed 5046, job eps): 6 -> 5, "
            "per date 1.500 -> 1.250; search fallbacks - -> 1") in compare_outputs.report(summary)


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


def test_every_run_past_a_bound_is_named():
    # a known-wrong run past the value bound stays beside a real regression,
    # not hidden behind it as the worst; runs within the bounds are not named
    parent = {"wrong": _run(), "moved": _run(), "fine": _run()}
    change = {
        "wrong": _run(values=(1.0 + 3.8e-5, 2.0)),
        "moved": _run(values=(1.0, 2.0 + 1e-12), states=((0.03 + 2e-7, None), (0.04, 0.2))),
        "fine": _run(values=(1.0 + 5e-14, 2.0)),
    }
    summary = compare_outputs.compare(parent, change)
    assert summary["worst"]["value"][1] == "wrong"
    assert summary["past"] == {"value": ["moved", "wrong"], "quote_state": [],
                               "state": ["moved"], "rate": ["moved"]}
    assert summary["failed"] == ["value", "state", "rate"]
    report = compare_outputs.report(summary)
    assert "  2 run(s) past the value bound: moved; wrong" in report
    assert "  1 run(s) past the state bound: moved" in report
    assert "past the quote_state bound" not in report
    assert compare_outputs.compare(parent, parent)["past"] == dict.fromkeys(
        compare_outputs.BOUNDS, []
    )


def test_each_run_past_a_bound_reports_its_largest_output_and_relative_difference():
    # a large output that moves by rounding stands apart from a real regression
    parent = {"large": _run(values=(3.06e7, -2.0)), "moved": _run(), "fine": _run()}
    change = {
        "large": _run(values=(3.06e7 + 7.5e-9, -2.0)),
        "moved": _run(values=(1.0 + 1e-9, 2.0), states=((0.03 + 2e-7, None), (0.04, 0.2))),
        "fine": _run(values=(1.0 + 5e-14, 2.0)),
    }
    summary = compare_outputs.compare(parent, change)
    assert summary["failed"] == ["value", "state", "rate"]  # the bounds stay absolute
    assert summary["sizes"]["value"] == {
        "large": (pytest.approx(7.5e-9, rel=1e-2), 3.06e7 + 7.5e-9),
        "moved": (pytest.approx(1e-9, rel=1e-6), 2.0),
    }
    assert summary["sizes"]["state"] == {"moved": (pytest.approx(2e-7), 0.2)}
    report = compare_outputs.report(summary)
    assert "  2 run(s) past the value bound: large; moved" in report
    assert "    large: max |diff| 7.45e-09, max |value| 3.06e+07, relative 2.43e-16" in report
    assert "    moved: max |diff| 1e-09, max |value| 2, relative 5e-10" in report
    assert "    moved: max |diff| 2e-07, max |state| 0.2, relative 1e-06" in report
    assert "fine:" not in report


def test_assembly_passes_and_evaluations_per_inverted_quote_are_reported():
    # a parent without the names reads "-"; a workload that inverts no quote
    # prints no per-quote line
    parent = {"a": {**_run(workload="rate_sweep"), "assemblies": None, "inverted_quotes": 2,
                    "quote_evaluations": None},
              "b": _run(workload="long_callable")}
    change = {"a": {**_run(workload="rate_sweep"), "assemblies": 12, "inverted_quotes": 4,
                    "quote_evaluations": 22},
              "b": {**_run(workload="long_callable"), "assemblies": 3, "inverted_quotes": 0,
                    "quote_evaluations": 0}}
    summary = compare_outputs.compare(parent, change)
    assert summary["assemblies"] == {"parent": {"rate_sweep": None, "long_callable": None},
                                     "change": {"rate_sweep": 12, "long_callable": 3}}
    assert summary["failed"] == []  # the counts are reported, not bounded
    report = compare_outputs.report(summary)
    assert "assembly passes, rate_sweep: - -> 12" in report
    assert "assembly passes, long_callable: - -> 3" in report
    assert ("eigenfunctions evaluations per inverted quote, rate_sweep: "
            "- -> 5.500 (22 / 4)") in report
    assert "per inverted quote, long_callable" not in report


def test_a_priced_run_records_the_calls_it_made():
    class Engine:
        def _assemble(self):
            return 1.0

    class Subordinators:  # a module's function, looked up by its global name
        @staticmethod
        def _resolved_series():
            return 2.0

    calls = {}
    compare_outputs._count_calls(calls, "assemblies", [Engine], "_assemble")
    compare_outputs._count_calls(calls, "quote_evaluations", [Engine], "eigenfunctions")
    compare_outputs._count_calls(calls, "resolutions", [Subordinators], "_resolved_series")
    engine = Engine()
    engine._assemble()  # before the run: not the run's
    Subordinators._resolved_series()
    run = compare_outputs._priced(
        lambda: [engine._assemble(), engine._assemble(), Subordinators._resolved_series()],
        {"workload": "w"}, record=compare_outputs._outputs, calls=calls,
    )
    assert run["values"] == [1.0, 1.0, 2.0]
    assert run["assemblies"] == 2
    assert run["resolutions"] == 1
    assert run["quote_evaluations"] is None  # the revision has no such name
    failed = compare_outputs._priced(lambda: 1 / 0, {"workload": "w"})
    assert failed == {"workload": "w", "error": "ZeroDivisionError: division by zero"}


def test_recurrence_passes_are_counted_inside_and_outside_the_search():
    class Finder:
        def __init__(self, model):
            self.model = model

        def find(self):
            return self.model.series_sum() + self.model.series_sum()

        def scan_single_crossing(self):
            return self.model.series_sum()

    class Model:  # a revision without the pair
        def series_sum(self):
            return 1.0

    calls = {}
    compare_outputs._count_passes(calls, Model, Finder)
    model = Model()
    finder = Finder(model)
    run = compare_outputs._priced(
        lambda: [finder.find(), finder.scan_single_crossing(), model.series_sum()],
        {"workload": "w"}, record=compare_outputs._outputs, calls=calls,
    )
    assert run["values"] == [2.0, 1.0, 1.0]
    assert (run["search_series_sum"], run["issue_series_sum"]) == (3, 1)
    assert run["search_series_pair"] is None and run["issue_series_pair"] is None


def test_recurrence_passes_per_evaluation_and_per_issue_date_state_are_reported():
    # the parent lacks the pair and reads "-" for it; each run has 3
    # break-even evaluations and 2 issue-date states
    def passes(search_sum, search_pair, issue_sum, issue_pair, workload="rate_sweep"):
        return {**_run(workload=workload), "search_series_sum": search_sum,
                "search_series_pair": search_pair, "issue_series_sum": issue_sum,
                "issue_series_pair": issue_pair}

    parent = {"a": passes(6, None, 4, None), "b": passes(3, None, 2, None, "long_callable")}
    change = {"a": passes(0, 3, 0, 2), "b": passes(3, 0, 2, 0, "long_callable")}
    summary = compare_outputs.compare(parent, change)
    assert summary["issue_states"] == {"parent": {"rate_sweep": 2, "long_callable": 2},
                                       "change": {"rate_sweep": 2, "long_callable": 2}}
    assert summary["search_series_pair"] == {"parent": {"rate_sweep": None, "long_callable": None},
                                             "change": {"rate_sweep": 3, "long_callable": 0}}
    assert summary["failed"] == []  # the counts are reported, not bounded
    report = compare_outputs.report(summary)
    assert ("recurrence passes, rate_sweep: per break-even evaluation "
            "2.000 (series_sum 6, series_pair - / 3) -> 1.000 (series_sum 0, series_pair 3 / 3); "
            "per issue-date state "
            "2.000 (series_sum 4, series_pair - / 2) -> 1.000 (series_sum 0, series_pair 2 / 2)"
            ) in report
    assert ("recurrence passes, long_callable: per break-even evaluation "
            "1.000 (series_sum 3, series_pair - / 3) -> 1.000 (series_sum 3, series_pair 0 / 3)"
            ) in report


def test_series_resolutions_are_reported_per_workload():
    # a parent without the name reads "-"; seed 9137 and the 1e-12 runs
    # stay out of the tally
    def runs(sweep, other_seed, full_eps, long):
        return {"a": {**_run(workload="rate_sweep"), "resolutions": sweep},
                "a2": {**_run(workload="rate_sweep", seed=9137), "resolutions": other_seed},
                "a3": {**_run(workload="rate_sweep", job_eps=False), "resolutions": full_eps},
                "b": {**_run(workload="long_callable"), "resolutions": long}}

    summary = compare_outputs.compare(runs(None, None, None, None), runs(4, 4, 1, 0))
    assert summary["resolutions"] == {"parent": {"rate_sweep": None, "long_callable": None},
                                      "change": {"rate_sweep": 4, "long_callable": 0}}
    assert summary["failed"] == []  # the counts are reported, not bounded
    report = compare_outputs.report(summary)
    assert "short-rate series resolutions, rate_sweep: - -> 4" in report
    assert "short-rate series resolutions, long_callable: - -> 0" in report


def test_the_runs_behind_each_mismatch_count_are_named():
    # each count names its runs, with where each first differs: a date by
    # its position in the run's dates, an initial state, or nothing for a
    # whole-run mismatch
    parent = {"a": _run(), "b": _run(), "c": _run(), "d": _run(), "gone": _run(),
              "same": _run()}
    change = {
        "a": _run(levels=((12, 13), (14, 15))),
        "b": _run(assembled=(40, 42), states=((0.03, None), (None, 0.2))),
        "c": {"workload": "swiss", "seed": 5046, "eps": 1e-7, "job_eps": True,
              "error": "BracketError: put region covers the whole search interval"},
        "d": {**_run(levels=((11, 13), (15,))), "value_levels": [20, 22]},
        "same": _run(),
    }
    summary = compare_outputs.compare(parent, change)
    assert summary["counts"]["eval_levels"] == 3
    assert summary["where"] == {
        "missing": {"gone": None}, "errors": {"c": None}, "quotes": {}, "dates": {},
        "none_pattern": {"b": "date 1"}, "assembled": {"b": "date 1"},
        "value_levels": {"d": "state 1"}, "eval_levels": {"a": "date 1", "d": "date 0"},
    }
    report = compare_outputs.report(summary)
    assert "  eval_levels in 2 run(s): a (from date 1); d (from date 0)" in report
    assert "  errors in 1 run(s): c" in report
    assert "  missing in 1 run(s): gone" in report
    assert "  value_levels in 1 run(s): d (from state 1)" in report
    assert "quotes in" not in report and "same" not in report


def _fake_revisions(monkeypatch):
    """Make ``main`` freeze and dump nothing: each side's tree is an empty
    directory and its dump one run.  Returns the trees it was handed."""
    import sys
    import types

    trees = []

    def freeze(rev, dest):
        dest.mkdir(parents=True)
        trees.append(dest)
        return rev

    monkeypatch.setitem(sys.modules, "bench_pairs", types.SimpleNamespace(freeze=freeze))
    monkeypatch.setattr(compare_outputs, "_dump_in", lambda tree, out: {"a": _run()})
    return trees


def test_the_temporary_work_directory_is_removed(monkeypatch, tmp_path, capsys):
    import tempfile

    trees = _fake_revisions(monkeypatch)
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
    assert compare_outputs.main(["--parent", "HEAD", "--change", "."]) == 0
    assert len(trees) == 2 and not any(tree.exists() for tree in trees)
    assert list(tmp_path.iterdir()) == []
    assert "OK" in capsys.readouterr().out


def test_a_given_work_directory_is_kept(monkeypatch, tmp_path):
    trees = _fake_revisions(monkeypatch)
    workdir = tmp_path / "work"
    assert compare_outputs.main(["--parent", "HEAD", "--change", ".",
                                 "--workdir", str(workdir)]) == 0
    assert trees == [workdir / "parent", workdir / "change"]
    assert all(tree.is_dir() for tree in trees)
