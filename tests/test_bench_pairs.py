import importlib.util
import json
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"
_SPEC = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)

METRICS = [
    {"name": "pricings_per_s", "unit": "1/s", "better": "higher", "bound": 0.24},
    {"name": "pricing_ms.p50", "unit": "ms", "better": "lower", "bound": 0.24},
]


def _runs(workload, parent, change):
    """Synthetic runs: per side one list of (pricings_per_s, pricing_ms.p50)."""
    runs = []
    for side, values in (("parent", parent), ("change", change)):
        for pair, (rate, p50) in enumerate(values, start=1):
            metrics = {"pricings_per_s": {"value": rate}, "pricing_ms.p50": {"value": p50}}
            result = {"metrics": metrics, "attempted": 10, "failed": 0}
            runs.append({"workload": workload, "pair": pair, "side": side, "result": result})
    return runs


def test_summarize_applies_the_gain_and_bound_rules():
    # parent rates 10.0 .. 10.9: median 10.45, quartiles 10.225 and 10.675
    parent = [(10.0 + 0.1 * k, 100.0) for k in range(10)]
    faster = [(rate + 1.0, 100.0) for rate, _ in parent]  # 1.0 beats an IQR of 0.45
    barely = [(rate + 0.4, 100.0) for rate, _ in parent]  # 0.4 does not
    slower = [(rate, 125.0) for rate, _ in parent]  # p50 25% worse, bound 24%
    runs = _runs("fast", parent, faster) + _runs("barely", parent, barely)
    runs += _runs("slow", parent, slower)
    summary = bench_pairs.summarize(runs, ["fast", "barely", "slow"], METRICS)

    fast = summary["fast"]["end_to_end"]["pricings_per_s"]
    assert fast["parent"] == {"median": 10.45, "q1": 10.225, "q3": 10.675}
    assert fast["parent_iqr"] == pytest.approx(0.45)
    assert fast["pairs_better"] == 10 and fast["pairs_equal"] == 0
    assert fast["beats_parent_iqr"] and fast["within_bound"]

    barely = summary["barely"]["end_to_end"]["pricings_per_s"]
    assert barely["pairs_better"] == 10
    assert not barely["beats_parent_iqr"] and barely["within_bound"]

    slow = summary["slow"]["end_to_end"]
    assert slow["pricings_per_s"]["pairs_equal"] == 10
    assert not slow["pricings_per_s"]["beats_parent_iqr"]
    assert slow["pricings_per_s"]["within_bound"]
    assert slow["pricing_ms.p50"]["parent_iqr"] == 0.0
    assert not slow["pricing_ms.p50"]["within_bound"]
    assert not slow["pricing_ms.p50"]["beats_parent_iqr"]
    assert summary["slow"]["attempted"] == {"parent": 100, "change": 100}


def test_a_worsening_inside_the_bound_is_within_it():
    parent = [(10.0, 100.0)] * 10
    change = [(8.0, 123.0)] * 10  # rate 20% and p50 23% worse, bound 24%
    end_to_end = bench_pairs.summarize(_runs("w", parent, change), ["w"], METRICS)["w"]["end_to_end"]
    assert end_to_end["pricings_per_s"]["within_bound"]
    assert end_to_end["pricing_ms.p50"]["within_bound"]


_FAKE_RUN = """\
import json, os, sys
seed = sys.argv[sys.argv.index("--seed") + 1]
if os.path.basename(os.getcwd()) == "change" and seed == "2":
    print("Traceback (most recent call last):", file=sys.stderr)
    print("RuntimeError: the change's second run fails", file=sys.stderr)
    sys.exit(3)
metrics = {"pricings_per_s": {"value": 1.0}, "pricing_ms.p50": {"value": 1.0}}
print(json.dumps({"metrics": metrics, "attempted": 1, "failed": 0}))
"""


def test_a_failing_run_keeps_the_finished_runs(tmp_path, monkeypatch):
    spec = {"run_seconds": 1, "workloads": [{"name": "w"}], "end_to_end": METRICS}

    def fake_freeze(rev, dest):
        (dest / "bench").mkdir(parents=True)
        (dest / "bench" / "run.py").write_text(_FAKE_RUN)
        (dest / "BENCHMARK.json").write_text(json.dumps(spec))
        return rev

    monkeypatch.setattr(bench_pairs, "freeze", fake_freeze)
    out = tmp_path / "BENCH.json"
    argv = ["--parent", "p", "--change", "c", "--out", str(out), "--workdir", str(tmp_path / "w")]
    assert bench_pairs.main(argv) == 1

    report = json.loads(out.read_text())
    # pair 1 ran parent then change; pair 2 runs the change first, which fails
    assert [(r["pair"], r["side"]) for r in report["runs"]] == [(1, "parent"), (1, "change")]
    assert report["failed_run"] == {
        "workload": "w", "pair": 2, "side": "change", "exit_code": 3,
        "stderr_tail": ["Traceback (most recent call last):",
                        "RuntimeError: the change's second run fails"],
    }
    assert "summary" not in report
