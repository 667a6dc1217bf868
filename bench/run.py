"""Run one workload of the eigenbond benchmark and print its metrics.

    python3 bench/run.py --workload swiss --seed 5046 --seconds 25 --trace 0

The library is imported from ``src/`` of the checkout this script sits in.
One closed-loop caller in this process runs as many whole passes over
the workload's jobs as fit in ``--seconds``, with reference work
(``calibrate.py``) timed between and inside pricings; end-to-end times
are scaled by it to the nominal machine speed.  With ``--trace 0`` it prints the
end-to-end metrics; with ``--trace 1`` it spends half the time untraced
and half traced and prints the per-layer metrics.  Either way the
last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``, where ``attempted`` and
``failed`` count pricings.  Refusal probes run outside the timed passes
and are reported on their own lines.
"""

from __future__ import annotations

import os

# One BLAS/OpenMP thread, and no library thread fan-out, in this process and
# in the set-up processes it starts.  Set before numpy is first imported.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
os.environ.pop("EIGENBOND_THREADS", None)

import argparse
import json
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
from scipy.special import betainc

from calibrate import NOMINAL_S, Speedometer

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"

DEFAULT_SEED = 5046
SETUP_RUNS = 5
# Reference work after each set-up process, as a share of its time.
REFERENCE_SHARE = 0.1
# The burst before the first measured piece is as long as the one after a
# set-up process of this many seconds.
FIRST_BURST_S = 1.0
# Seconds between reference units inside a pricing.
TICK_S = 0.1
# Tail percentile per workload: the highest of p50, p75, p90, p95, p99 that
# kept at least ten samples beyond it in the 25-second runs measured when the
# benchmark was written, p50 where none did.  It is fixed, not chosen per
# run, so that machine speed cannot switch a run to another percentile.
TAIL_PERCENTILE = {"swiss": 75.0, "long_callable": 50.0, "rate_sweep": 50.0}

SETUP_CODE = """\
import sys, time
start = time.perf_counter()
sys.path[:0] = [sys.argv[1], sys.argv[2]]
import workloads
workloads.build(sys.argv[3], int(sys.argv[4]))
print(time.perf_counter() - start)
"""


def import_library():
    """Import eigenbond from this checkout's ``src/``, never from elsewhere."""
    if not (SRC / "eigenbond" / "__init__.py").is_file():
        raise ImportError(f"no eigenbond package under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import eigenbond

    if SRC not in Path(eigenbond.__file__).resolve().parents:
        raise ImportError(f"eigenbond imported from {eigenbond.__file__}, not {SRC}")
    return eigenbond


def git_commit() -> str:
    """Commit of the checkout, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown"


def stamp(seed: int) -> dict:
    import scipy

    return {
        "commit": git_commit(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "seed": seed,
    }


# ---------------------------------------------------------------------------
# Measurement
# ---------------------------------------------------------------------------


def setup_seconds(name: str, seed: int, runs: int, speed: Speedometer) -> tuple:
    """Import-and-build time of the workload in fresh processes.

    Returns the times as measured and as scaled by the reference bursts
    around each process.
    """
    times, scaled = [], []
    speed.sample(FIRST_BURST_S)
    for _ in range(runs):
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-c", SETUP_CODE, str(SRC), str(BENCH_DIR), name, str(seed)],
            capture_output=True,
            text=True,
            timeout=120,
            cwd=ROOT,
        )
        speed.sample(time.perf_counter() - start)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up process failed:\n{proc.stderr}")
        times.append(float(proc.stdout.strip().splitlines()[-1]))
        scaled.append(times[-1] * speed.last_scale())
    return times, scaled


class Passes:
    """Outcome of whole passes over a workload's jobs."""

    def __init__(self):
        self.latencies: list = []  # measured seconds per completed pricing
        self.scaled: list = []  # the same, scaled to the nominal speed
        self.attempted = 0
        self.failed = 0
        self.problems: list = []
        self.value_err_eps = 0.0
        self.passes = 0
        self.wall_s = 0.0
        self.results: list = []  # (job, PricingResult) of the first pass

    @property
    def pricing_s(self) -> float:
        """Measured seconds spent inside pricings."""
        return sum(self.latencies)

    @property
    def pricings_per_s(self) -> float:
        """Completed pricings per measured second of pricing."""
        return len(self.latencies) / self.pricing_s if self.latencies else 0.0


def run_passes(workload, seconds: float, speed: Speedometer | None = None) -> Passes:
    """Whole passes, closed loop, as many as fit in ``seconds`` (at least one).

    Passes are never cut short, so every run prices the same job mix; a pass
    is not started when the previous one says it would end past ``seconds``.
    With ``speed``, reference units run before the first pricing, after
    each one and every ``TICK_S`` inside it; each pricing's time, without
    the units inside it, is also kept scaled by the units around and
    inside it.
    """
    out = Passes()
    clock = time.perf_counter
    start = clock()
    if speed is not None:
        speed.sample(FIRST_BURST_S)
    while True:
        pass_start = clock()
        for job in workload.jobs:
            out.attempted += 1
            t0 = clock()
            try:
                result = job.price() if speed is None else speed.timed_call(job.price)
            except Exception as exc:  # a failed pricing is counted, not fatal
                out.failed += 1
                out.problems.append(f"{job.label}: {type(exc).__name__}: {exc}")
                result = None
            elapsed = clock() - t0 if speed is None else speed.last_net_s
            if speed is not None:
                speed.sample(0.0)  # one unit: the ticks sampled the pricing itself
            if result is None:
                continue
            out.latencies.append(elapsed)
            if speed is not None:
                out.scaled.append(elapsed * speed.last_scale())
            found = job.problems(result)
            if found:
                out.failed += 1
                out.problems += found
            out.value_err_eps = max(out.value_err_eps, job.value_err_eps(result))
            if out.passes == 0:
                out.results.append((job, result))
        out.passes += 1
        now = clock()
        if now - start + (now - pass_start) > seconds:
            break
    out.wall_s = clock() - start
    return out


def quantile(values: list, q: float) -> float:
    """Harrell-Davis estimate of the q-quantile of the samples.

    A beta-weighted average of all order statistics.  A workload's
    pricings fall into a few clusters, one per job; the plain sample median
    then sits on a single order statistic at a cluster edge and moves with
    every slow sample, while this estimate averages the neighbourhood.
    """
    ordered = np.sort(values)
    n = ordered.size
    edges = betainc((n + 1) * q, (n + 1) * (1.0 - q), np.arange(n + 1) / n)
    return float(np.dot(np.diff(edges), ordered))


def tail(latencies: list, pct: float) -> tuple:
    """(value, samples beyond) of the given latency percentile."""
    value = quantile(latencies, pct / 100.0)
    return value, sum(1 for v in latencies if v > value)


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------


def end_to_end(setup_scaled: list, passes: Passes, tail_pct: float) -> dict:
    """End-to-end metrics from the scaled times."""
    latencies = passes.scaled or [float("nan")]
    tail_value, _ = tail(latencies, tail_pct)
    return {
        "setup_s": (statistics.median(setup_scaled), "s"),
        "pricings_per_s": (len(latencies) / sum(latencies), "1/s"),
        "pricing_ms.p50": (1e3 * quantile(latencies, 0.5), "ms"),
        "pricing_ms.tail": (1e3 * tail_value, "ms"),
        "value_err_eps": (passes.value_err_eps, "eps"),
    }


def per_layer(tracer, traced: Passes, untraced: Passes, probe_failures: int) -> dict:
    from eigenbond import coeffs
    from tracer import LAYERS

    n = traced.passes
    span = tracer.spans
    count = tracer.counts
    invert_calls = span["subordinators.invert"].calls
    dates = [d for _, r in traced.results for d in r.dates]
    diff_evals = sum(len(d.eval_levels) for d in dates)
    levels = [level for d in dates for level in d.eval_levels]
    cap_hits = sum(
        1
        for job, r in traced.results
        for d in r.dates
        if d.assembled >= coeffs.max_table_degree(job.model)
    )

    def mean(values):
        return sum(values) / len(values) if values else 0.0

    def calls(name):
        return (span[name].calls / n, "count/pass")

    def self_s(name):
        return (span[name].self_s / n, "s/pass")

    metrics = {
        "specfun.tables.calls": calls("specfun.tables"),
        "specfun.tables.self_s": self_s("specfun.tables"),
        "models.eigenfunctions.calls": calls("models.eigenfunctions"),
        "models.eigenfunctions.self_s": self_s("models.eigenfunctions"),
        "models.eigenfunctions.terms": (count["models.eigenfunctions.terms"] / n, "count/pass"),
        "models.eigenfunction_matrix.calls": calls("models.eigenfunction_matrix"),
        "models.eigenfunction_matrix.self_s": self_s("models.eigenfunction_matrix"),
        "series.stop_level.calls": calls("series.stop_level"),
        "series.self_s": (tracer.layer_self_s("series") / n, "s/pass"),
        "series.unconverged": (count["series.unconverged"] / n, "count/pass"),
        "series.used_ratio": (
            count["series.used_terms"] / max(count["series.supplied_terms"], 1.0),
            "ratio",
        ),
        "pricer.price_bond.self_s": self_s("pricer.price_bond"),
        "pricer.diff_evals": (float(diff_evals), "count/pass"),
        "pricer.diff_evals_per_date": (diff_evals / max(len(dates), 1), "count/date"),
        "pricer.eval_level.mean": (mean(levels), "level"),
        "pricer.assembled.mean": (mean([d.assembled for d in dates]), "terms"),
        "coeffs.pair_tables.calls": calls("coeffs.pair_tables"),
        "coeffs.pair_tables.self_s": self_s("coeffs.pair_tables"),
        "coeffs.exp_tables.calls": calls("coeffs.exp_tables"),
        "coeffs.exp_tables.self_s": self_s("coeffs.exp_tables"),
        "coeffs.strike_projection.calls": calls("coeffs.strike_projection"),
        "coeffs.strike_projection.self_s": self_s("coeffs.strike_projection"),
        "coeffs.table_degree.max": (float(count["coeffs.table_degree.max"]), "degree"),
        "coeffs.degree_cap_hits": (float(cap_hits), "count/pass"),
        "subordinators.invert.calls": calls("subordinators.invert"),
        "subordinators.invert.self_s": self_s("subordinators.invert"),
        "subordinators.invert.total_s": (span["subordinators.invert"].total_s / n, "s/pass"),
        "subordinators.invert.map_calls_per_quote": (
            (span["subordinators.rate_map"].calls - count["subordinators.rate_map.break_even.calls"])
            / max(invert_calls, 1),
            "count/quote",
        ),
        "subordinators.rate_map.calls": calls("subordinators.rate_map"),
        "subordinators.rate_map.self_s": self_s("subordinators.rate_map"),
        "subordinators.rate_map.break_even.calls": (
            count["subordinators.rate_map.break_even.calls"] / n,
            "count/pass",
        ),
        "subordinators.laplace_exponent.calls": calls("subordinators.laplace_exponent"),
        "subordinators.laplace_exponent.self_s": self_s("subordinators.laplace_exponent"),
    }
    for layer in LAYERS:
        metrics[f"{layer}.share"] = (tracer.layer_self_s(layer) / traced.pricing_s, "ratio")
    metrics["trace.wall_s"] = (traced.pricing_s / n, "s/pass")
    metrics["trace.overhead_pricings_per_s"] = (
        traced.pricings_per_s - untraced.pricings_per_s,
        "1/s",
    )
    metrics["probes.failed"] = (float(probe_failures), "count")
    return metrics


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def run(name: str, seed: int, seconds: float, trace: bool, setup_runs: int = SETUP_RUNS,
        workload=None, out=None) -> dict:
    """Run one workload and print the report; returns the final JSON object.

    ``workload`` substitutes prebuilt jobs (the benchmark's own tests use it).
    """
    import workloads
    from tracer import Tracer

    def say(line):
        print(line, file=out or sys.stdout)

    speed = Speedometer(REFERENCE_SHARE, TICK_S)
    setup, setup_scaled = ([], []) if trace else setup_seconds(name, seed, setup_runs, speed)
    workload = workload or workloads.build(name, seed)
    workload.attach_reference()
    probes = workload.run_probes()
    probe_failures = [p for p in probes if p is not None]

    if trace:
        untraced = run_passes(workload, seconds / 2)
        with Tracer() as tracer:
            traced = run_passes(workload, seconds / 2)
        measured = [untraced, traced]
        metrics = per_layer(tracer, traced, untraced, len(probe_failures))
    else:
        untraced = run_passes(workload, seconds, speed)
        measured = [untraced]
        metrics = end_to_end(setup_scaled, untraced, TAIL_PERCENTILE[name])

    attempted = sum(m.attempted for m in measured)
    failed = sum(m.failed for m in measured)
    say(f"eigenbond benchmark  workload={name}  trace={int(trace)}  seconds={seconds:g}")
    say("stamp  " + json.dumps(stamp(seed)))
    for m, label in zip(measured, ("untraced", "traced")):
        say(f"{label} passes: {m.passes} passes, {m.attempted} pricings in {m.wall_s:.2f} s, "
            f"{m.pricing_s:.2f} s of it pricing, {m.pricings_per_s:.4g} pricings/s as measured")
    if not trace:
        pct = TAIL_PERCENTILE[name]
        raw = untraced.latencies or [float("nan")]
        _, beyond = tail(untraced.scaled or [float("nan")], pct)
        say(f"reference work: {speed.units} units, mean {1e3 * speed.mean_s:.3f} ms "
            f"(nominal {1e3 * NOMINAL_S:g} ms); the metrics below are scaled times")
        say(f"setup_s: median of {len(setup)} fresh processes, as measured: "
            + ", ".join(f"{s:.4f}" for s in setup) + "; scaled: "
            + ", ".join(f"{s:.4f}" for s in setup_scaled))
        say(f"pricing_ms as measured: p50 {1e3 * quantile(raw, 0.5):.6g}, "
            f"p{pct:g} {1e3 * quantile(raw, pct / 100.0):.6g}")
        say(f"pricing_ms.tail is p{pct:g}: {beyond} of {len(untraced.latencies)} samples beyond it")
    for metric, (value, unit) in metrics.items():
        say(f"  {metric:44s} {value:.6g} {unit}")
    total = attempted + len(probes)
    say(f"  {'failed_ratio':44s} {(failed + len(probe_failures)) / total:.6g} ratio "
        f"({failed} of {attempted} pricings, {len(probe_failures)} of {len(probes)} refusal probes)")
    for problem in [p for m in measured for p in m.problems][:20] + probe_failures:
        say(f"FAILED {problem}")

    summary = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    say(json.dumps(summary))
    return summary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=tuple(TAIL_PERCENTILE))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        import_library()
    except ImportError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    run(args.workload, args.seed, args.seconds, bool(args.trace))
    return 0


if __name__ == "__main__":
    sys.exit(main())
