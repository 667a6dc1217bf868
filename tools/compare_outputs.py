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
  ``ThreeHalvesModel(2, 0.06, 0.5)``; and under all seven, the two ends of
  the recursion's stage loop: the Swiss bond callable at 1.0 on its last
  decision date only (``protection_index=20``) and on every date
  (``protection_index=1``, no protected coupon);
* under the same seven models and clocks, at the same eps, the public
  entry points besides ``price_bond`` that read the model's spectrum:
  ``zero_coupon_price`` at maturities 0.1666, 1 and 5 at the states of
  those short rates, and ``strike_projection`` (degrees 0 .. 20, notice
  period 0.1666) over [``state_lo``, the state of the rate 0.05];
* under the same seven models, once (it takes no eps), ``overlap_matrix``
  (degree 20) over [``state_lo``, x], [x, ``state_hi``] and [x, x'], with x
  and x' the states of the rates 0.05 and 0.08: the public overlap, on the
  3/2 model's reversed coordinate too.

The outputs of these functions other than ``price_bond`` are the runs'
values, held to the same bound.

Per run it records the job's quote states (``job.states()``, the inverted
quotes of a jump model), the values, the break-even states and short rates,
the levels of every break-even evaluation (``eval_levels``), the issue-date
levels (``value_levels``), the assembled lengths and the searches that took
a bracketing step (``search_fallbacks``, summed over the dates; absent on
revisions without the count), the assembly passes (calls of
``_Engine._assemble``), the quotes inverted (calls of
``eigenbond.invert_short_rate``), the model classes' ``eigenfunctions``
evaluations, whose one caller is the quote inversion, the short-rate series
resolutions (calls of ``subordinators._resolved_series``), and the recurrence
passes of ``series_sum`` and of ``series_pair``, counted apart inside a
break-even search (``_RootFinder``'s ``find`` and sign scan) and outside
one (the issue-date values) (each absent on a revision without the name),
or the error raised.  The comparison prints
the largest differences (of values also in units of each run's eps), the
name of every run past each bound (``BOUNDS``) with that run's largest
difference, its largest |output| and their ratio (a difference past an
absolute bound may be rounding of a large output), the mismatch counts, the
break-even evaluations per workload (seed 5046, the job's eps) in total and
per decision date with the workload's fallbacks, its assembly passes and,
where it inverts quotes, its ``eigenfunctions`` evaluations per inverted
quote, its short-rate series resolutions, its recurrence passes per
break-even evaluation and per issue-date state, and the criterion-6
deviation of each side.  It
exits 1 when values differ by more than ``VALUE_TOL``, quote states by more
than ``QUOTE_STATE_TOL``, break-even states or rates by more than
``STATE_TOL``, the None pattern, the assembled lengths, the dates, the
quote counts or the errors differ, or the change's criterion-6 deviation
exceeds ``CRITERION_6_BOUND``.
"""

from __future__ import annotations

import argparse
import dataclasses
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
ZERO_COUPON_TIMES = (0.1666, 1.0, 5.0)
STRIKE_DEGREES = 20
OVERLAP_DEGREE = 20
OVERLAP_RATES = (0.05, 0.08)  # x and x' of the overlap intervals
VALUE_TOL = 1e-13
STATE_TOL = 1e-7  # the pricer's TOL_X
QUOTE_STATE_TOL = 1e-12  # the quote inversion's closing tolerance on the state
CRITERION_6_BOUND = 2  # the truncation profile's +-2 of the acceptance suite
BOUNDS = {"value": VALUE_TOL, "quote_state": QUOTE_STATE_TOL, "state": STATE_TOL,
          "rate": STATE_TOL}
# the model's series evaluators, each one recurrence pass a call
PASSES = ("series_sum", "series_pair")
# per-run call counts, summed per workload like the fallbacks
TALLIES = ("fallbacks", "assemblies", "inverted_quotes", "quote_evaluations", "resolutions",
           *(f"{phase}_{name}" for phase in ("search", "issue") for name in PASSES))


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
        # None where the revision does not count them
        "fallbacks": (
            sum(d.search_fallbacks for d in result.dates)
            if all(hasattr(d, "search_fallbacks") for d in result.dates) else None
        ),
    }


def _outputs(values) -> dict:
    """A run of a function other than ``price_bond``: its outputs, no dates."""
    return {"values": [float(v) for v in values], "states": [], "rates": [],
            "eval_levels": [], "value_levels": [], "assembled": []}


def _priced(price, meta: dict, quote_states=list, record=_record, calls=None) -> dict:
    """The run's record, with the calls counted in ``calls`` while it ran."""
    calls = {} if calls is None else calls
    before = dict(calls)
    try:
        out = {"quote_states": [float(x) for x in quote_states()], **record(price())}
    except Exception as exc:  # the dump records whatever the pricer raises
        return {**meta, "error": f"{type(exc).__name__}: {exc}"}
    made = {key: None if count is None else count - before[key] for key, count in calls.items()}
    return {**meta, **out, **made}


def _count_calls(calls: dict, key: str, owners, name: str) -> None:
    """Make ``name`` on each owner add its calls to ``calls[key]``, which
    stays None when no owner has the name."""
    found = [owner for owner in owners if hasattr(owner, name)]
    calls[key] = 0 if found else None
    for owner in found:
        def counted(*args, _original=getattr(owner, name), **kwargs):
            calls[key] += 1
            return _original(*args, **kwargs)

        setattr(owner, name, counted)


def _count_passes(calls: dict, model_class, finder_class) -> None:
    """Count the calls of each ``PASSES`` name on ``model_class`` in
    ``calls["search_<name>"]`` while a ``find`` or ``scan_single_crossing``
    of ``finder_class`` runs, else in ``calls["issue_<name>"]``; both stay
    None when the class lacks the name."""
    searching = [0]
    for method in ("find", "scan_single_crossing"):
        def scoped(*args, _original=getattr(finder_class, method), **kwargs):
            searching[0] += 1
            try:
                return _original(*args, **kwargs)
            finally:
                searching[0] -= 1

        setattr(finder_class, method, scoped)
    for name in PASSES:
        found = hasattr(model_class, name)
        for phase in ("search", "issue"):
            calls[f"{phase}_{name}"] = 0 if found else None
        if found:
            def counted(*args, _original=getattr(model_class, name), _name=name, **kwargs):
                calls[f"{'search' if searching[0] else 'issue'}_{_name}"] += 1
                return _original(*args, **kwargs)

            setattr(model_class, name, counted)


def dump(tree: Path) -> dict:
    """Every run of the comparison, priced by the eigenbond of ``tree``."""
    sys.path[:0] = [str(tree / "src"), str(tree / "bench")]
    import workloads

    import eigenbond
    from eigenbond import BondSchedule, SubordinatorSpec, ThreeHalvesModel, benchmark, price_bond
    from eigenbond.coeffs import overlap_matrix, strike_projection
    from eigenbond.models import DiffusionModel
    from eigenbond.pricer import zero_coupon_price
    from eigenbond.subordinators import invert_short_rate

    calls: dict[str, int | None] = {}  # None where the revision lacks the name
    _count_calls(calls, "assemblies", [getattr(eigenbond.pricer, "_Engine", None)], "_assemble")
    # the bench jobs invert through the package's name
    _count_calls(calls, "inverted_quotes", [eigenbond], "invert_short_rate")
    _count_calls(calls, "quote_evaluations", DiffusionModel.__subclasses__(), "eigenfunctions")
    _count_calls(calls, "resolutions", [eigenbond.subordinators], "_resolved_series")
    _count_passes(calls, DiffusionModel, eigenbond.pricer._RootFinder)
    priced = functools.partial(_priced, calls=calls)

    runs = {}
    for name in workloads.WORKLOADS:
        for seed in SEEDS:
            for job in workloads.build(name, seed).jobs:
                for eps in (job.eps, FULL_EPS):
                    meta = {"workload": name, "seed": seed, "eps": eps, "job_eps": eps == job.eps}
                    label = f"{name} {seed} {job.label} @ {eps:g}"
                    runs[label] = priced(lambda: job.price(eps), meta, job.states)
    for config in ("cir", "vasicek"):
        model = benchmark.benchmark_model(config)
        sub = benchmark.benchmark_subordinator(config)
        schedule = benchmark.swiss1987_schedule()
        for eps in CRITERION_6_EPS:
            meta = {"workload": "criterion_6", "config": config, "eps": eps}
            runs[f"criterion_6 {config} @ {eps:g}"] = priced(
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
    one_date = dataclasses.replace(swiss, protection_index=swiss.n_coupons - 1, call_prices=(1.0,))
    every_date = dataclasses.replace(
        swiss, protection_index=1, call_prices=(1.0,) * (swiss.n_coupons - 1)
    )
    models = [(config, benchmark.benchmark_model(config), benchmark.benchmark_subordinator(config))
              for config in benchmark.BENCHMARK_CONFIGS]
    models.append(("three_halves", ThreeHalvesModel(2.0, 0.06, 0.5), SubordinatorSpec.none()))
    for config, model, sub in models:
        @functools.cache
        def quote_states(model=model, sub=sub):
            if sub.is_trivial:
                return benchmark.RATES
            return tuple(invert_short_rate(model, sub, rate) for rate in benchmark.RATES)

        schedules = (
            ("three_halves callable", swiss) if config == "three_halves"
            else (f"straight {config}", straight),
            (f"one_date {config}", one_date),
            (f"every_date {config}", every_date),
        )
        for eps in EXTRA_EPS:
            for name, schedule in schedules:
                meta = {"workload": name.split()[0], "eps": eps}
                runs[f"{name} @ {eps:g}"] = priced(
                    lambda: price_bond(model, sub, schedule, quote_states(), eps=eps),
                    meta, quote_states,
                )
            meta = {"workload": "zero_coupon", "eps": eps}
            for t in ZERO_COUPON_TIMES:
                runs[f"zero_coupon {config} t={t:g} @ {eps:g}"] = priced(
                    lambda: [zero_coupon_price(model, sub, t, x, eps=eps) for x in quote_states()],
                    meta, quote_states, record=_outputs,
                )
            meta = {"workload": "strike_projection", "eps": eps}
            runs[f"strike_projection {config} @ {eps:g}"] = priced(
                lambda: strike_projection(
                    model, sub, STRIKE_DEGREES, model.state_lo,
                    quote_states()[benchmark.RATES.index(0.05)], swiss.notice_delta, eps=eps,
                ),
                meta, quote_states, record=_outputs,
            )

        def overlaps(model=model, quote_states=quote_states):
            x, x2 = (quote_states()[benchmark.RATES.index(rate)] for rate in OVERLAP_RATES)
            intervals = ((model.state_lo, x), (x, model.state_hi), tuple(sorted((x, x2))))
            return [v for lo, hi in intervals
                    for v in overlap_matrix(model, OVERLAP_DEGREE, lo, hi).ravel()]

        # eps 1: the value bound reads the raw difference of the entries
        runs[f"overlap_matrix {config}"] = priced(
            overlaps, {"workload": "overlap_matrix", "eps": 1.0}, quote_states, record=_outputs,
        )
    return runs


# ---------------------------------------------------------------------------
# comparison
# ---------------------------------------------------------------------------


def _max_diff(worst: dict, past: dict, sizes: dict, key: str, a: float, b: float,
              label: str) -> None:
    """Keep the largest difference of ``key`` and name every run past its bound;
    under a bound, keep each run's largest difference and largest |output|."""
    diff = abs(a - b)
    if math.isnan(diff):  # NaN counts as the worst
        diff = math.inf
    if not diff <= worst[key][0]:
        worst[key] = (diff, label)
    if key in past and not diff <= BOUNDS[key] and label not in past[key]:
        past[key].append(label)
    if key in sizes:
        largest_diff, largest = sizes[key].get(label, (0.0, 0.0))
        sizes[key][label] = (max(largest_diff, diff), max(largest, abs(a), abs(b)))


def compare(parent: dict, change: dict) -> dict:
    """Largest differences and mismatch counts of two dumps."""
    worst = {key: (0.0, None) for key in ("value", "value_eps", "quote_state", "state", "rate")}
    past: dict[str, list[str]] = {key: [] for key in BOUNDS}  # the runs past each bound
    # per bound and run: (largest difference, largest |output|)
    sizes: dict[str, dict[str, tuple[float, float]]] = {key: {} for key in BOUNDS}
    counts = dict.fromkeys(
        ("missing", "errors", "quotes", "dates", "none_pattern", "assembled", "value_levels",
         "eval_levels"), 0
    )
    evaluations: dict[str, dict[str, int]] = {"parent": {}, "change": {}}
    dates: dict[str, dict[str, int]] = {"parent": {}, "change": {}}
    issue_states: dict[str, dict[str, int]] = {"parent": {}, "change": {}}
    tallies: dict[str, dict[str, dict[str, int | None]]] = {
        key: {"parent": {}, "change": {}} for key in TALLIES
    }
    criterion_6 = {"parent": 0, "change": 0}
    for side, runs in (("parent", parent), ("change", change)):
        for run in runs.values():
            if "error" in run:
                continue
            if run["workload"] == "criterion_6":
                criterion_6[side] = max(criterion_6[side], run.get("criterion_6_dev", 0))
            elif run.get("seed") == SEEDS[0] and run["job_eps"]:
                workload = run["workload"]
                total = sum(len(levels) for levels in run["eval_levels"])
                evaluations[side][workload] = evaluations[side].get(workload, 0) + total
                dates[side][workload] = dates[side].get(workload, 0) + len(run["eval_levels"])
                issue_states[side][workload] = (issue_states[side].get(workload, 0)
                                                + len(run["value_levels"]))
                for key, tally in tallies.items():
                    count, so_far = run.get(key), tally[side].get(workload, 0)
                    tally[side][workload] = None if None in (count, so_far) else so_far + count

    for label in sorted(set(parent) | set(change)):
        if label not in parent or label not in change:
            counts["missing"] += 1
            continue
        a, b = parent[label], change[label]
        if ("error" in a) or ("error" in b):
            counts["errors"] += a.get("error") != b.get("error")
            continue
        for x, y in zip(a["values"], b["values"]):
            _max_diff(worst, past, sizes, "value", x, y, label)
            _max_diff(worst, past, sizes, "value_eps", x / a["eps"], y / a["eps"], label)
        quotes_a, quotes_b = a.get("quote_states", []), b.get("quote_states", [])
        counts["quotes"] += len(quotes_a) != len(quotes_b)
        for x, y in zip(quotes_a, quotes_b):
            _max_diff(worst, past, sizes, "quote_state", x, y, label)
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
                        _max_diff(worst, past, sizes, key[:-1], x, y, label)
        counts["assembled"] += sum(x != y for x, y in zip(a["assembled"], b["assembled"]))
        counts["eval_levels"] += sum(x != y for x, y in zip(a["eval_levels"], b["eval_levels"]))

    failed = [
        name
        for name, bad in (
            *((key, bool(past[key])) for key in BOUNDS),
            ("criterion_6", criterion_6["change"] > CRITERION_6_BOUND),
            *((name, counts[name] > 0)
              for name in ("missing", "errors", "quotes", "dates", "none_pattern", "assembled")),
        )
        if bad
    ]
    return {
        "worst": worst,
        "past": past,
        "sizes": {key: {label: sizes[key][label] for label in past[key]} for key in BOUNDS},
        "counts": counts,
        "evaluations": evaluations,
        "dates": dates,
        "issue_states": issue_states,
        **tallies,
        "criterion_6_dev": criterion_6,
        "failed": failed,
    }


def report(summary: dict) -> str:
    lines = []
    for key, tol in BOUNDS.items():
        diff, label = summary["worst"][key]
        lines.append(f"max |{key} diff| = {diff:.3g} (bound {tol:g}) at {label}")
        past = summary["past"][key]
        if past:
            lines.append(f"  {len(past)} run(s) past the {key} bound: " + "; ".join(past))
            # a difference past an absolute bound may still be rounding of a large output
            for label in past:
                diff, largest = summary["sizes"][key][label]
                relative = diff / largest if largest > 0.0 else math.inf
                lines.append(f"    {label}: max |diff| {diff:.3g}, max |{key}| {largest:.3g}, "
                             f"relative {relative:.3g}")
    diff, label = summary["worst"]["value_eps"]
    lines.append(f"max |value diff| / eps = {diff:.3g} at {label}")
    counts = summary["counts"]
    lines.append("mismatches: " + ", ".join(f"{k} {v}" for k, v in counts.items()))
    for workload in sorted(set(summary["evaluations"]["parent"]) | set(summary["evaluations"]["change"])):
        per_side = {}
        for side in ("parent", "change"):
            total = summary["evaluations"][side].get(workload)
            n_dates = summary["dates"][side].get(workload)
            per_date = f"{total / n_dates:.3f}" if total is not None and n_dates else "-"
            counted = summary["fallbacks"][side].get(workload)
            per_side[side] = (total, per_date, "-" if counted is None else counted)
        (p, p_date, p_fall), (c, c_date, c_fall) = per_side["parent"], per_side["change"]
        lines.append(
            f"break-even evaluations, {workload} (seed {SEEDS[0]}, job eps): {p} -> {c}, "
            f"per date {p_date} -> {c_date}; search fallbacks {p_fall} -> {c_fall}"
        )
        lines.append(f"assembly passes, {workload}: " + _tally(summary, "assemblies", workload))
        per_quote = []
        for side in ("parent", "change"):
            quotes = summary["inverted_quotes"][side].get(workload)
            evaluations = summary["quote_evaluations"][side].get(workload)
            per_quote.append(f"{evaluations / quotes:.3f} ({evaluations} / {quotes})"
                             if quotes and evaluations is not None else "-")
        if per_quote != ["-", "-"]:
            lines.append(f"eigenfunctions evaluations per inverted quote, {workload}: "
                         + " -> ".join(per_quote))
        lines.append(f"short-rate series resolutions, {workload}: "
                     + _tally(summary, "resolutions", workload))
        lines.append(f"recurrence passes, {workload}: per break-even evaluation "
                     + _passes(summary, workload, "search", "evaluations")
                     + "; per issue-date state "
                     + _passes(summary, workload, "issue", "issue_states"))
    dev = summary["criterion_6_dev"]
    lines.append(f"criterion-6 max deviation: parent {dev['parent']}, change {dev['change']} "
                 f"(bound {CRITERION_6_BOUND})")
    lines.append("FAILED: " + ", ".join(summary["failed"]) if summary["failed"] else "OK")
    return "\n".join(lines)


def _tally(summary: dict, key: str, workload: str) -> str:
    """The workload's count of ``key``, parent -> change ("-" where the
    revision lacks the name)."""
    counts = [summary[key][side].get(workload) for side in ("parent", "change")]
    return " -> ".join("-" if n is None else str(n) for n in counts)


def _passes(summary: dict, workload: str, phase: str, per: str) -> str:
    """The workload's recurrence passes in ``phase`` per count of ``per``,
    parent -> change, each with its calls by name ("-" where the revision
    lacks the name)."""
    sides = []
    for side in ("parent", "change"):
        made = {name: summary[f"{phase}_{name}"][side].get(workload) for name in PASSES}
        total = sum(n for n in made.values() if n is not None)
        count = summary[per][side].get(workload)
        ratio = f"{total / count:.3f}" if count else "-"
        sides.append(ratio + " (" + ", ".join(
            f"{name} {'-' if n is None else n}" for name, n in made.items()) + f" / {count})")
    return " -> ".join(sides)


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
