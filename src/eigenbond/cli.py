"""Command-line front end: price bonds and reproduce the published tables.

Subcommands
-----------
price       value a bond from a JSON config or the built-in Swiss 1987 bond
reproduce   recompute a published benchmark table with abs-diff columns

Exit codes: 0 success, 2 invalid input/config, 3 numerical failure.
Table columns are priced one after another in a single thread.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time

from . import __version__, benchmark
from .errors import EigenbondError, ValidationError
from .models import DiffusionModel, make_model
from .pricer import BondSchedule, PricingResult, price_bond
from .subordinators import SubordinatorSpec, invert_short_rate

_TABLE_IDS = ("T3", "T4", "T5", "T6", "T7", "T9", "T10")

_EPS_VALUES = 1e-7  # value tables (criterion tolerance is stated at this eps)
_EPS_VALUES_SUB = 1e-8  # subordinated/putable value tables
_EPS_ROOTS = 1e-10  # break-even tables


# ---------------------------------------------------------------------------
# Config handling
# ---------------------------------------------------------------------------

_MODEL_KEYS = {"kind", "kappa", "theta", "sigma"}
_SUB_KEYS = {"family", "drift", "mu", "nu_var", "c", "p", "eta"}
_SCHEDULE_KEYS = {
    "coupon",
    "coupon_times",
    "protection_index",
    "notice_delta",
    "call_prices",
    "put_prices",
}
_RUN_KEYS = {"rates", "eps", "output", "format"}
_TOP_KEYS = {"model", "subordinator", "schedule", "run"}


def _reject_unknown(block: dict, allowed: set, where: str) -> None:
    if not isinstance(block, dict):
        raise ValidationError(f"{where} must be a JSON object, got {block!r}")
    unknown = set(block) - allowed
    if unknown:
        raise ValidationError(f"unknown keys in {where}: {sorted(unknown)}")


def _number(value, where: str) -> float:
    """``float(value)``, refused as a ValidationError naming ``where`` (a
    JSON true or false too, which ``float`` would read as 1 or 0)."""
    if not isinstance(value, bool):
        try:
            return float(value)
        except (TypeError, ValueError):
            pass
    raise ValidationError(f"{where} must be a number, got {value!r}")


def _integer(value, where: str) -> int:
    """An integral number (3 or 3.0), refused as a ValidationError naming
    ``where`` when it has a fraction."""
    number = _number(value, where)
    if not number.is_integer():
        raise ValidationError(f"{where} must be an integer, got {value!r}")
    return int(number)


def _numbers(values, where: str) -> tuple:
    """A list of numbers, each read by ``_number`` and named by its index."""
    if not isinstance(values, (list, tuple)):
        raise ValidationError(f"{where} must be a list of numbers, got {values!r}")
    return tuple(_number(value, f"{where}[{i}]") for i, value in enumerate(values))


def parse_config(doc: dict) -> dict:
    """Validate the four-block config document and build typed objects."""
    if not isinstance(doc, dict):
        raise ValidationError("config must be a JSON object")
    _reject_unknown(doc, _TOP_KEYS, "config")
    for block in ("model", "schedule", "run"):
        if block not in doc:
            raise ValidationError(f"config missing required block {block!r}")

    model_block = doc["model"]
    _reject_unknown(model_block, _MODEL_KEYS, "model block")
    for key in ("kind", "kappa", "theta", "sigma"):
        if key not in model_block:
            raise ValidationError(f"model block missing {key!r}")
    model = make_model(
        model_block["kind"],
        *(_number(model_block[key], f"model {key}") for key in ("kappa", "theta", "sigma")),
    )

    sub_block = doc.get("subordinator") or {"family": "none"}
    _reject_unknown(sub_block, _SUB_KEYS, "subordinator block")
    sub = SubordinatorSpec(
        family=sub_block.get("family", "none"),
        drift=_number(sub_block.get("drift", 0.0), "subordinator drift"),
        **{
            key: _number(sub_block[key], f"subordinator {key}")
            for key in ("mu", "nu_var", "c", "p", "eta")
            if sub_block.get(key) is not None
        },
    )

    sched_block = doc["schedule"]
    _reject_unknown(sched_block, _SCHEDULE_KEYS, "schedule block")
    for key in ("coupon", "coupon_times", "protection_index", "notice_delta"):
        if key not in sched_block:
            raise ValidationError(f"schedule block missing {key!r}")
    schedule = BondSchedule(
        coupon=_number(sched_block["coupon"], "schedule coupon"),
        coupon_times=_numbers(sched_block["coupon_times"], "schedule coupon_times"),
        protection_index=_integer(sched_block["protection_index"], "schedule protection_index"),
        notice_delta=_number(sched_block["notice_delta"], "schedule notice_delta"),
        call_prices=_numbers(sched_block["call_prices"], "schedule call_prices")
        if sched_block.get("call_prices") is not None
        else None,
        put_prices=_numbers(sched_block["put_prices"], "schedule put_prices")
        if sched_block.get("put_prices") is not None
        else None,
    )

    run_block = doc["run"]
    _reject_unknown(run_block, _RUN_KEYS, "run block")
    rates = list(_numbers(run_block.get("rates", []), "run rates"))
    if not rates:
        raise ValidationError("run block must list at least one initial rate")
    eps = _number(run_block.get("eps", 1e-7), "run eps")
    fmt = run_block.get("format", "table")
    if fmt not in ("csv", "table"):
        raise ValidationError(f"format must be 'csv' or 'table', got {fmt!r}")
    return {
        "model": model,
        "sub": sub,
        "schedule": schedule,
        "rates": rates,
        "eps": eps,
        "output": run_block.get("output"),
        "format": fmt,
    }


def preset_config(model_name: str, include_put: bool = False) -> dict:
    """Config document of the built-in Swiss 1987 bond under a benchmark model."""
    if model_name not in benchmark.BENCHMARK_CONFIGS:
        raise ValidationError(
            f"unknown benchmark model {model_name!r}; expected one of "
            f"{benchmark.BENCHMARK_CONFIGS}"
        )
    model = benchmark.benchmark_model(model_name)
    sub = benchmark.benchmark_subordinator(model_name)
    sched = benchmark.swiss1987_schedule(include_put=include_put)
    doc = {
        "model": {
            "kind": model.kind,
            "kappa": model.kappa,
            "theta": model.theta,
            "sigma": model.sigma,
        },
        "subordinator": {"family": sub.family}
        if sub.is_trivial
        else {
            "family": sub.family,
            "drift": sub.drift,
            "mu": sub.mu,
            "nu_var": sub.nu_var,
        },
        "schedule": {
            "coupon": sched.coupon,
            "coupon_times": list(sched.coupon_times),
            "protection_index": sched.protection_index,
            "notice_delta": sched.notice_delta,
            "call_prices": list(sched.call_prices) if sched.call_prices else None,
            "put_prices": list(sched.put_prices) if sched.put_prices else None,
        },
        "run": {
            "rates": [0.01 * i for i in range(1, 11)],
            "eps": 1e-7,
            "format": "table",
        },
    }
    return doc


# ---------------------------------------------------------------------------
# Output helpers
# ---------------------------------------------------------------------------


def _fmt(value, digits=8) -> str:
    if value is None or (isinstance(value, float) and math.isnan(value)):
        return "n.a."
    return f"{value:.{digits}f}"


def _emit(lines: list[str], output: str | None) -> None:
    text = "\n".join(lines) + "\n"
    if output:
        with open(output, "w") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


def _csv_header(title: str, eps: float) -> str:
    return f"# eigenbond {__version__} {title} eps={eps:.1e}"


# ---------------------------------------------------------------------------
# price
# ---------------------------------------------------------------------------


def _initial_states(model: DiffusionModel, sub: SubordinatorSpec, rates) -> list[float]:
    """Map quoted short rates to states; inverts r_phi for jump models."""
    return [invert_short_rate(model, sub, float(r)) for r in rates]


def _price_lines(cfg: dict) -> list[str]:
    model, sub, sched = cfg["model"], cfg["sub"], cfg["schedule"]
    states = _initial_states(model, sub, cfg["rates"])
    result = price_bond(model, sub, sched, states, eps=cfg["eps"])
    recs = sorted(result.dates, key=lambda d: -d.index)
    if cfg["format"] == "csv":
        header = ["rate", "value", "issue_level"]
        for rec in recs:
            header += [f"call_rate_{rec.index}", f"put_rate_{rec.index}"]
        lines = [_csv_header(f"price model={model.kind} sub={sub.family}", cfg["eps"])]
        lines.append(",".join(header))
        for rate, value, lvl in zip(cfg["rates"], result.values, result.value_levels):
            row = [f"{rate:.6f}", f"{value:.6f}", str(lvl)]
            for rec in recs:
                row += [_fmt(rec.call_rate), _fmt(rec.put_rate)]
            lines.append(",".join(row))
        return lines
    lines = [f"bond values (model={model.kind}, subordinator={sub.family}, eps={cfg['eps']:.1e})"]
    lines.append(f"{'rate':>8}  {'value':>10}")
    for rate, value in zip(cfg["rates"], result.values):
        lines.append(f"{rate:8.4f}  {value:10.6f}")
    if recs:
        lines.append("")
        lines.append("break-even short rates per decision date")
        lines.append(f"{'date':>6} {'tau':>9} {'call':>12} {'put':>12} {'avg N':>7} {'max N':>6}")
        for rec in recs:
            lines.append(
                f"{rec.index:>6} {rec.decision_time:9.4f} {_fmt(rec.call_rate):>12} "
                f"{_fmt(rec.put_rate):>12} {rec.average_level:7.1f} {rec.max_level:>6}"
            )
    return lines


def cmd_price(args) -> int:
    if args.config:
        with open(args.config) as handle:
            doc = json.load(handle)
    else:
        doc = preset_config(args.model, include_put=args.include_put)
    # a config without a run block is refused by parse_config, options or not
    run = doc.get("run") if isinstance(doc, dict) else None
    if isinstance(run, dict):
        if args.rates is not None:
            run["rates"] = [tok for tok in args.rates.split(",") if tok]
        if args.eps is not None:
            run["eps"] = args.eps
        if args.format:
            run["format"] = args.format
        if args.output:
            run["output"] = args.output
    cfg = parse_config(doc)
    _emit(_price_lines(cfg), cfg["output"])
    return 0


# ---------------------------------------------------------------------------
# reproduce
# ---------------------------------------------------------------------------


def _run_config(config: str, include_put: bool, rates, eps: float) -> PricingResult:
    model = benchmark.benchmark_model(config)
    sub = benchmark.benchmark_subordinator(config)
    sched = benchmark.swiss1987_schedule(include_put=include_put)
    states = _initial_states(model, sub, rates)
    return price_bond(model, sub, sched, states, eps=eps)


def _value_table_lines(table_id: str) -> list[str]:
    include_put = table_id == "T10"
    configs = {
        "T5": ("cir",),
        "T6": ("vasicek",),
        "T7": ("subcir_jd", "subcir_pj", "subvasicek_jd", "subvasicek_pj"),
        "T10": benchmark.BENCHMARK_CONFIGS,
    }[table_id]
    eps = _EPS_VALUES if table_id in ("T5", "T6") else _EPS_VALUES_SUB
    rates = list(benchmark.RATES)
    results = [_run_config(c, include_put, rates, eps).values for c in configs]
    published = [benchmark.published_values(c, include_put) for c in configs]
    lines = [_csv_header(f"reproduce {table_id}", eps)]
    header = ["rate"]
    for config in configs:
        header += [config, f"{config}_absdiff"]
    lines.append(",".join(header))
    for i, rate in enumerate(rates):
        row = [f"{rate:.2f}"]
        for values, refs in zip(results, published):
            row += [f"{values[i]:.6f}", f"{abs(values[i] - refs[i]):.2e}"]
        lines.append(",".join(row))
    return lines


def _break_even_lines(table_id: str) -> list[str]:
    include_put = table_id == "T9"
    configs = benchmark.BENCHMARK_CONFIGS
    results = [_run_config(c, include_put, [0.05], _EPS_ROOTS) for c in configs]
    published = [benchmark.published_break_even(c, include_put) for c in configs]
    lines = [_csv_header(f"reproduce {table_id}", _EPS_ROOTS)]
    blocks = ("call", "put") if include_put else ("call",)
    for side, block in enumerate(blocks):
        header = ["date"]
        for config in configs:
            header += [f"{config}_{block}", f"{config}_{block}_absdiff"]
        lines.append(",".join(header))
        for pos in range(10):
            index = 20 - pos
            row = [f"tau_{index}"]
            for res, refs in zip(results, published):
                rec = next(d for d in res.dates if d.index == index)
                mine = rec.call_rate if block == "call" else rec.put_rate
                ref = refs[pos][side]
                if mine is None and (ref is None or math.isnan(ref)):
                    row += ["n.a.", "0"]
                elif mine is None or ref is None or math.isnan(ref):
                    row += [_fmt(mine), "mismatch"]
                else:
                    row += [f"{mine:.8f}", f"{abs(mine - ref):.2e}"]
            lines.append(",".join(row))
    return lines


def _profile_lines() -> list[str]:
    lines = [f"# eigenbond {__version__} reproduce T4 (eps per row)"]
    lines.append(
        "# avg_N is bracket-dependent and matched in order of magnitude only"
    )
    lines.append("config,eps,pricing_error_est,max_N_per_date,avg_N_per_date,ms")
    for config in benchmark.BENCHMARK_CONFIGS:
        model = benchmark.benchmark_model(config)
        sub = benchmark.benchmark_subordinator(config)
        sched = benchmark.swiss1987_schedule()
        states = _initial_states(model, sub, [0.05])
        prev_value = None
        for eps in (1e-5, 1e-6, 1e-7, 1e-8):
            start = time.perf_counter()
            res = price_bond(model, sub, sched, states, eps=eps)
            elapsed = 1e3 * (time.perf_counter() - start)
            if prev_value is not None:
                err = abs(prev_value - res.values[0])
                recs = sorted(prev_res.dates, key=lambda d: -d.index)
                max_n = [r.max_level for r in recs] + [prev_res.value_levels[0]]
                avg_n = [round(r.average_level, 1) for r in recs] + [
                    prev_res.value_levels[0]
                ]
                lines.append(
                    ",".join(
                        [
                            config,
                            f"{prev_eps:.0e}",
                            f"{err:.1e}",
                            ";".join(str(v) for v in max_n),
                            ";".join(str(v) for v in avg_n),
                            f"{prev_ms:.1f}",
                        ]
                    )
                )
            prev_value, prev_res, prev_eps, prev_ms = res.values[0], res, eps, elapsed
    return lines


def cmd_reproduce(args) -> int:
    table_id = args.table.upper()
    if table_id not in _TABLE_IDS:
        raise ValidationError(f"unknown table {args.table!r}; expected one of {_TABLE_IDS}")
    if table_id in ("T5", "T6", "T7", "T10"):
        lines = _value_table_lines(table_id)
    elif table_id in ("T3", "T9"):
        lines = _break_even_lines(table_id)
    else:
        lines = _profile_lines()
    _emit(lines, args.output)
    return 0


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="eigenbond",
        description="Callable/putable bond pricing by eigenfunction expansions",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_price = sub.add_parser("price", help="value a bond")
    p_price.add_argument("--config", help="JSON config path")
    p_price.add_argument(
        "--model",
        default="cir",
        help="benchmark model of the built-in swiss1987 bond "
        f"({', '.join(benchmark.BENCHMARK_CONFIGS)})",
    )
    p_price.add_argument("--include-put", action="store_true", help="add the put ladder")
    p_price.add_argument("--rates", help="comma-separated initial short rates")
    p_price.add_argument("--eps", type=float, help="relative series tolerance")
    p_price.add_argument("--format", choices=("csv", "table"))
    p_price.add_argument("--output", help="write to file instead of stdout")
    p_price.set_defaults(func=cmd_price)

    p_rep = sub.add_parser("reproduce", help="recompute a published table as CSV")
    p_rep.add_argument("--table", required=True, help=f"one of {', '.join(_TABLE_IDS)}")
    p_rep.add_argument("--output", help="write CSV to file instead of stdout")
    p_rep.set_defaults(func=cmd_reproduce)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValidationError, OSError, json.JSONDecodeError, UnicodeDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except EigenbondError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
