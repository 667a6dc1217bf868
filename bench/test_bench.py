"""Tests of the benchmark itself: smoke runs, failure counting, trace sums.

Run with ``python -m pytest bench``.
"""

import io
import json
import signal
import time

import pytest

import calibrate
import run as bench

bench.import_library()

import eigenbond  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((bench.ROOT / "BENCHMARK.json").read_text())


def _run(name, trace=False, workload=None):
    out = io.StringIO()
    summary = bench.run(name, 1, seconds=0.0, trace=trace, setup_runs=1,
                        workload=workload, out=out)
    lines = out.getvalue().splitlines()
    assert json.loads(lines[-1]) == json.loads(json.dumps(summary))
    return summary, lines


@pytest.fixture(scope="module", params=workloads.WORKLOADS)
def smoke(request):
    return request.param, *_run(request.param)


def test_smoke_prints_every_end_to_end_metric_with_unit(smoke):
    name, summary, lines = smoke
    assert summary["correct"] and summary["failed"] == 0 and summary["attempted"] >= 1
    assert set(summary["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    for spec in SPEC["end_to_end"]:
        metric = summary["metrics"][spec["name"]]
        assert metric["unit"] == spec["unit"] and metric["value"] > 0.0
        assert any(line.split()[:1] == [spec["name"]] and line.split()[2] == spec["unit"]
                   for line in lines), spec["name"]
    assert any(line.split()[:1] == ["failed_ratio"] for line in lines)


def test_refusal_probes_are_reported(smoke):
    name, summary, lines = smoke
    probes = [line for line in lines if line.startswith("FAILED subcir")]
    # At this commit the library lets both probes escape untyped.
    assert len(probes) == (len(workloads.REFUSAL_PROBES) if name == "rate_sweep" else 0)


def _cheap_swiss():
    workload = workloads.build("swiss", 1)
    workload.jobs = [job for job in workload.jobs if job.label.startswith("cir ")]
    return workload


def test_perturbed_reference_counts_failures(monkeypatch):
    attach = workloads.Workload.attach_reference

    def perturbed(self):
        attach(self)
        for job in self.jobs:
            job.reference = job.reference + 1e-3

    monkeypatch.setattr(workloads.Workload, "attach_reference", perturbed)
    workload = workloads.build("rate_sweep", 1)
    workload.jobs = workload.jobs[:1]
    workload.jobs[0].quotes = workload.jobs[0].quotes[:3]
    summary, lines = _run("rate_sweep", workload=workload)
    assert not summary["correct"]
    assert summary["failed"] == summary["attempted"] == 1
    assert any("off the reference" in line for line in lines)


def test_perturbed_tables_count_failures():
    workload = _cheap_swiss()
    for job in workload.jobs:
        job.published_values = tuple(v + 1e-3 for v in job.published_values)
    summary, _ = _run("swiss", workload=workload)
    assert not summary["correct"]
    assert summary["failed"] == summary["attempted"] == len(workload.jobs)


def test_trace_self_times_fit_in_wall_time():
    workload = _cheap_swiss()
    rate_sweep = workloads.build("rate_sweep", 1)
    rate_sweep.jobs[0].quotes = rate_sweep.jobs[0].quotes[:2]
    workload.jobs.append(rate_sweep.jobs[0])
    summary, _ = _run("swiss", trace=True, workload=workload)
    metrics = summary["metrics"]
    assert set(metrics) == {m["name"] for m in SPEC["per_layer"]}
    shares = [metrics[f"{layer}.share"]["value"] for layer in tracer.LAYERS]
    assert all(share >= 0.0 for share in shares)
    assert sum(shares) <= 1.0
    assert metrics["models.eigenfunctions.calls"]["value"] > 0
    assert metrics["subordinators.rate_map.break_even.calls"]["value"] > 0


def test_tracer_restores_every_name():
    before = (eigenbond.price_bond, eigenbond.coeffs.laguerre_sequence_table,
              vars(eigenbond.models.CIRModel)["eigenfunctions"],
              eigenbond.pricer.short_rate_map, eigenbond.subordinators.short_rate_map)
    with tracer.Tracer():
        assert eigenbond.price_bond is not before[0]
        assert eigenbond.pricer.short_rate_map is not before[3]
    after = (eigenbond.price_bond, eigenbond.coeffs.laguerre_sequence_table,
             vars(eigenbond.models.CIRModel)["eigenfunctions"],
             eigenbond.pricer.short_rate_map, eigenbond.subordinators.short_rate_map)
    assert all(a is b for a, b in zip(before, after))


def test_speedometer_scales_by_the_units_around_and_inside_a_call():
    speed = calibrate.Speedometer(share=0.5, tick_s=0.02)
    speed.sample(0.0)

    def busy():
        deadline = time.perf_counter() + 0.1
        while time.perf_counter() < deadline:
            pass
        return "done"

    start = time.perf_counter()
    assert speed.timed_call(busy) == "done"
    wall = time.perf_counter() - start
    inside = list(speed.during)
    speed.sample(0.05)
    before, after = speed.bursts
    assert len(before) == 1 and sum(after) >= 0.025 and inside
    assert speed.last_net_s + sum(inside) == pytest.approx(wall, abs=1e-3)
    timings = before + inside + after
    mean_speed = sum(1.0 / t for t in timings) / len(timings)
    assert speed.last_scale() == pytest.approx(calibrate.NOMINAL_S * mean_speed)
    assert speed.units == len(timings)


def test_speedometer_restores_the_alarm_handler_when_the_call_raises():
    speed = calibrate.Speedometer(share=0.1, tick_s=0.01)
    previous = signal.getsignal(signal.SIGALRM)
    with pytest.raises(ZeroDivisionError):
        speed.timed_call(lambda: 1 / 0)
    assert signal.getsignal(signal.SIGALRM) is previous
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
