"""Compare what two revisions compute, run by run.

    python3 tools/compare_outputs.py --parent HEAD --change .

Each revision is frozen with ``bench_pairs.freeze``.  In each frozen copy a
subprocess of this script (``--dump FILE``, run in the copy) imports that copy's
``eigenbond`` and ``bench/workloads.py`` (read only) and prices:

* every job of the three bench workloads at seeds 5046 and 9137, at the
  job's eps and at 1e-12;
* the criterion-6 runs: the Swiss callable under CIR and Vasicek at the
  short rate 0.05, at eps 1e-5 .. 1e-8;
* paths the bench does not price, at the short rates 0.01 .. 0.10 and at
  eps 1e-7 and 1e-10: the straight Swiss bond (no decision dates) under the
  six benchmark configs, and the Swiss callable under
  ``ThreeHalvesModel(2, 0.06, 0.5)``.

Per run it records the job's quote states (``job.states()``, the inverted
quotes of a jump model), the values, the break-even states and short rates,
the levels of every break-even evaluation (``eval_levels``), the issue-date
levels (``value_levels``) and the assembled lengths, or the error raised.
The comparison prints the largest differences (of values also in units of
each run's eps), the mismatch counts, the break-even evaluations per
workload (seed 5046, the job's eps) and the criterion-6 deviation of each
side.  It exits 1 when values differ by more
than ``VALUE_TOL``, quote states by more than ``QUOTE_STATE_TOL``,
break-even states or rates by more than ``STATE_TOL``, the None pattern,
the assembled lengths, the dates, the quote counts or the errors differ, or
the change's criterion-6 deviation exceeds ``CRITERION_6_BOUND``.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

TOOLS = Path(__file__).resolve().parent
SEEDS = (5046, 9137)
FULL_EPS = 1e-12
CRITERION_6_EPS = (1e-5, 1e-6, 1e-7, 1e-8)
EXTRA_EPS = (1e-7, 1e-10)
VALUE_TOL = 1e-13
STATE_TOL = 1e-7  # the pricer's TOL_X
QUOTE_STATE_TOL = 1e-12  # Brent's xtol of the quote inversion
CRITERION_6_BOUND = 2  # the truncation profile's +-2 of the acceptance suite


# ---------------------------------------------------------------------------
# dump: runs inside a frozen copy, on that copy's eigenbond
# ---------------------------------------------------------------------------


def _record(result) -> dict:
    return {
        "values": [float(v) for v in result.values],
        "states": [list(pair) for pair in result.break_even_states],
        "rates": [list(pair) for pair in result.break_even_short_rates],
        "eval_levels": [list(d.eval_levels) for d in result.dates],
        "value_levels": list(result.value_levels),
        "assembled": [d.assembled for d in result.dates],
    }


def _priced(price, meta: dict, quote_states=list) -> dict:
    try:
        out = {"quote_states": [float(x) for x in quote_states()], **_record(price())}
    except Exception as exc:  # the dump records whatever the pricer raises
        out = {"error": f"{type(exc).__name__}: {exc}"}
    return {**meta, **out}


def dump(tree: Path) -> dict:
    """Every run of the comparison, priced by the eigenbond of ``tree``."""
    sys.path[:0] = [str(tree / "src"), str(tree / "bench")]
    import workloads
    from eigenbond import BondSchedule, SubordinatorSpec, ThreeHalvesModel, benchmark, price_bond
    from eigenbond.subordinators import invert_short_rate

    runs = {}
    for name in workloads.WORKLOADS:
        for seed in SEEDS:
            for job in workloads.build(name, seed).jobs:
                for eps in (job.eps, FULL_EPS):
                    meta = {"workload": name, "seed": seed, "eps": eps, "job_eps": eps == job.eps}
                    label = f"{name} {seed} {job.label} @ {eps:g}"
                    runs[label] = _priced(lambda: job.price(eps), meta, job.states)
    for config in ("cir", "vasicek"):
        model = benchmark.benchmark_model(config)
        sub = benchmark.benchmark_subordinator(config)
        schedule = benchmark.swiss1987_schedule()
        for eps in CRITERION_6_EPS:
            meta = {"workload": "criterion_6", "config": config, "eps": eps}
            runs[f"criterion_6 {config} @ {eps:g}"] = _priced(
                lambda: price_bond(model, sub, schedule, [0.05], eps=eps), meta
            )
            reference = benchmark.MAX_TRUNCATION[config].get(eps)
            run = runs[f"criterion_6 {config} @ {eps:g}"]
            if reference is not None and "error" not in run:
                mine = [max(levels, default=0) for levels in run["eval_levels"]]
                mine = mine[::-1] + run["value_levels"][:1]
                run["criterion_6_dev"] = max(abs(m - r) for m, r in zip(mine, reference))

    swiss = benchmark.swiss1987_schedule()
    straight = BondSchedule(
        coupon=swiss.coupon,
        coupon_times=swiss.coupon_times,
        protection_index=swiss.n_coupons,
        notice_delta=swiss.notice_delta,
    )
    extra = [(f"straight {config}", benchmark.benchmark_model(config),
              benchmark.benchmark_subordinator(config), straight)
             for config in benchmark.BENCHMARK_CONFIGS]
    extra.append(("three_halves callable", ThreeHalvesModel(2.0, 0.06, 0.5),
                  SubordinatorSpec.none(), swiss))
    for name, model, sub, schedule in extra:
        @functools.cache
        def quote_states(model=model, sub=sub):
            if sub.is_trivial:
                return benchmark.RATES
            return tuple(invert_short_rate(model, sub, rate) for rate in benchmark.RATES)

        for eps in EXTRA_EPS:
            meta = {"workload": name.split()[0], "eps": eps}
            runs[f"{name} @ {eps:g}"] = _priced(
                lambda: price_bond(model, sub, schedule, quote_states(), eps=eps),
                meta, quote_states,
            )
    return runs


# ---------------------------------------------------------------------------
# comparison
# ---------------------------------------------------------------------------


def _max_diff(worst: dict, key: str, a: float, b: float, label: str) -> None:
    diff = abs(a - b)
    if not diff <= worst[key][0]:  # NaN counts as the worst
        worst[key] = (diff if not math.isnan(diff) else math.inf, label)


def compare(parent: dict, change: dict) -> dict:
    """Largest differences and mismatch counts of two dumps."""
    worst = {key: (0.0, None) for key in ("value", "value_eps", "quote_state", "state", "rate")}
    counts = dict.fromkeys(
        ("missing", "errors", "quotes", "dates", "none_pattern", "assembled", "value_levels",
         "eval_levels"), 0
    )
    evaluations: dict[str, dict[str, int]] = {"parent": {}, "change": {}}
    criterion_6 = {"parent": 0, "change": 0}
    for side, runs in (("parent", parent), ("change", change)):
        for run in runs.values():
            if "error" in run:
                continue
            if run["workload"] == "criterion_6":
                criterion_6[side] = max(criterion_6[side], run.get("criterion_6_dev", 0))
            elif run.get("seed") == SEEDS[0] and run["job_eps"]:
                total = sum(len(levels) for levels in run["eval_levels"])
                evaluations[side][run["workload"]] = evaluations[side].get(run["workload"], 0) + total

    for label in sorted(set(parent) | set(change)):
        if label not in parent or label not in change:
            counts["missing"] += 1
            continue
        a, b = parent[label], change[label]
        if ("error" in a) or ("error" in b):
            counts["errors"] += a.get("error") != b.get("error")
            continue
        for x, y in zip(a["values"], b["values"]):
            _max_diff(worst, "value", x, y, label)
            _max_diff(worst, "value_eps", x / a["eps"], y / a["eps"], label)
        quotes_a, quotes_b = a.get("quote_states", []), b.get("quote_states", [])
        counts["quotes"] += len(quotes_a) != len(quotes_b)
        for x, y in zip(quotes_a, quotes_b):
            _max_diff(worst, "quote_state", x, y, label)
        counts["value_levels"] += sum(x != y for x, y in zip(a["value_levels"], b["value_levels"]))
        if len(a["states"]) != len(b["states"]):
            counts["dates"] += 1
            continue
        for key in ("states", "rates"):
            for pair_a, pair_b in zip(a[key], b[key]):
                for x, y in zip(pair_a, pair_b):
                    if (x is None) != (y is None):
                        counts["none_pattern"] += key == "states"
                    elif x is not None:
                        _max_diff(worst, key[:-1], x, y, label)
        counts["assembled"] += sum(x != y for x, y in zip(a["assembled"], b["assembled"]))
        counts["eval_levels"] += sum(x != y for x, y in zip(a["eval_levels"], b["eval_levels"]))

    failed = [
        name
        for name, bad in (
            ("value", worst["value"][0] > VALUE_TOL),
            ("quote_state", worst["quote_state"][0] > QUOTE_STATE_TOL),
            ("state", worst["state"][0] > STATE_TOL),
            ("rate", worst["rate"][0] > STATE_TOL),
            ("criterion_6", criterion_6["change"] > CRITERION_6_BOUND),
            *((name, counts[name] > 0)
              for name in ("missing", "errors", "quotes", "dates", "none_pattern", "assembled")),
        )
        if bad
    ]
    return {
        "worst": worst,
        "counts": counts,
        "evaluations": evaluations,
        "criterion_6_dev": criterion_6,
        "failed": failed,
    }


def report(summary: dict) -> str:
    lines = []
    bounds = (("value", VALUE_TOL), ("quote_state", QUOTE_STATE_TOL), ("state", STATE_TOL),
              ("rate", STATE_TOL))
    for key, tol in bounds:
        diff, label = summary["worst"][key]
        lines.append(f"max |{key} diff| = {diff:.3g} (bound {tol:g}) at {label}")
    diff, label = summary["worst"]["value_eps"]
    lines.append(f"max |value diff| / eps = {diff:.3g} at {label}")
    counts = summary["counts"]
    lines.append("mismatches: " + ", ".join(f"{k} {v}" for k, v in counts.items()))
    for workload in sorted(set(summary["evaluations"]["parent"]) | set(summary["evaluations"]["change"])):
        p = summary["evaluations"]["parent"].get(workload)
        c = summary["evaluations"]["change"].get(workload)
        lines.append(f"break-even evaluations, {workload} (seed {SEEDS[0]}, job eps): {p} -> {c}")
    dev = summary["criterion_6_dev"]
    lines.append(f"criterion-6 max deviation: parent {dev['parent']}, change {dev['change']} "
                 f"(bound {CRITERION_6_BOUND})")
    lines.append("FAILED: " + ", ".join(summary["failed"]) if summary["failed"] else "OK")
    return "\n".join(lines)


def _dump_in(tree: Path, out: Path) -> dict:
    env = dict(os.environ)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--dump", str(out)],
        cwd=tree, env=env, check=True,
    )
    return json.loads(out.read_text())


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", help="commit, or . for the working tree")
    parser.add_argument("--change", help="commit, or . for the working tree")
    parser.add_argument("--workdir", default=None, help="where the frozen copies go")
    parser.add_argument("--dump", help=argparse.SUPPRESS)  # run in a frozen copy
    args = parser.parse_args(argv)

    if args.dump:
        Path(args.dump).write_text(json.dumps(dump(Path.cwd())))
        return 0
    if not (args.parent and args.change):
        parser.error("--parent and --change are required")

    sys.path.insert(0, str(TOOLS))
    from bench_pairs import freeze

    workdir = Path(args.workdir or tempfile.mkdtemp(prefix="compare_outputs_"))
    dumps = {}
    for side in ("parent", "change"):
        tree = workdir / side
        name = freeze(getattr(args, side), tree)
        print(f"{side}: {name}", flush=True)
        dumps[side] = _dump_in(tree, workdir / f"{side}.json")
    summary = compare(dumps["parent"], dumps["change"])
    print(report(summary))
    return 1 if summary["failed"] else 0


if __name__ == "__main__":
    sys.exit(main())
