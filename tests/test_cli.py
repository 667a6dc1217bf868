import json
import re
import shlex
from pathlib import Path

import pytest

from eigenbond import benchmark
from eigenbond.cli import build_parser, main, parse_config, preset_config
from eigenbond.errors import ValidationError
from eigenbond.pricer import price_bond


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# config handling
# ---------------------------------------------------------------------------


def test_preset_round_trip():
    doc = preset_config("cir")
    cfg = parse_config(doc)
    sched = benchmark.swiss1987_schedule()
    assert cfg["model"].kind == "cir"
    assert cfg["model"].kappa == benchmark.MODEL_PARAMS["cir"]["kappa"]
    assert cfg["sub"].is_trivial
    assert cfg["schedule"] == sched
    assert cfg["eps"] == 1e-7
    # serializing and re-parsing yields the identical schedule again
    cfg2 = parse_config(json.loads(json.dumps(doc)))
    assert cfg2["schedule"] == sched


def test_preset_with_put_and_jump_model():
    doc = preset_config("subvasicek_pj", include_put=True)
    cfg = parse_config(doc)
    assert cfg["sub"].family == "ig"
    assert cfg["sub"].drift == 0.0
    assert cfg["schedule"].put_prices is not None


def test_unknown_keys_rejected():
    doc = preset_config("cir")
    doc["model"]["vol_of_vol"] = 0.3
    with pytest.raises(ValidationError):
        parse_config(doc)
    doc = preset_config("cir")
    doc["extras"] = {}
    with pytest.raises(ValidationError):
        parse_config(doc)


def test_seed_key_and_flag_are_gone(capsys):
    doc = preset_config("cir")
    doc["run"]["seed"] = 7
    with pytest.raises(ValidationError):
        parse_config(doc)
    with pytest.raises(SystemExit) as exc:
        run_cli(capsys, "price", "--seed", "7")
    assert exc.value.code == 2


def test_empty_rates_rejected():
    doc = preset_config("cir")
    doc["run"]["rates"] = []
    with pytest.raises(ValidationError):
        parse_config(doc)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def test_price_table_output(capsys):
    code, out, err = run_cli(
        capsys, "price", "--model", "cir", "--rates", "0.05", "--eps", "1e-6"
    )
    assert code == 0 and not err
    assert "0.8498" in out
    assert "n.a." in out  # rootless dates of the call-only benchmark


def test_price_csv_is_bit_stable(capsys):
    args = ("price", "--model", "cir", "--rates", "0.03,0.05", "--eps", "1e-6", "--format", "csv")
    code1, out1, _ = run_cli(capsys, *args)
    code2, out2, _ = run_cli(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2
    header = out1.splitlines()[1].split(",")
    assert header[:3] == ["rate", "value", "issue_level"]
    assert "," in out1 and ";" not in out1.splitlines()[2]


def test_price_empty_rates_is_validation_error(capsys):
    code, _, err = run_cli(capsys, "price", "--model", "cir", "--rates", "")
    assert code == 2
    assert "rate" in err


def test_price_bad_config_path(capsys):
    code, _, err = run_cli(capsys, "price", "--config", "/nonexistent/cfg.json")
    assert code == 2


def test_price_numerical_failure_exit_code(tmp_path, capsys):
    # a put region over Vasicek's whole search interval, which stops short
    # of the state space (on CIR it reaches the boundary, and prices)
    doc = preset_config("vasicek")
    doc["schedule"] = {
        "coupon": 0.0,
        "coupon_times": [1.0, 2.0, 3.0],
        "protection_index": 1,
        "notice_delta": 0.1,
        "put_prices": [5.0, 5.0],
    }
    doc["run"]["rates"] = [0.05]
    path = tmp_path / "degenerate.json"
    path.write_text(json.dumps(doc))
    code, _, err = run_cli(capsys, "price", "--config", str(path))
    assert code == 3
    assert "put region" in err


def test_price_quote_below_the_lowest_short_rate_is_refused(capsys):
    # r_phi(0) = 0.00592 under subcir_jd: no state has the quote
    code, out, err = run_cli(capsys, "price", "--model", "subcir_jd", "--rates", "0.004")
    assert code == 3 and out == ""
    assert err.startswith("error: short rate 0.004 lies below r_phi")
    assert "Traceback" not in err


def test_price_three_halves_rate_below_the_issue_series_floor_is_refused(tmp_path, capsys):
    # the issue-date series of the 3/2 Swiss callable resolves from 0.00786
    # on: 0.002 read -3.28e44 before it was refused
    doc = preset_config("cir")
    doc["model"] = {"kind": "three_halves", "kappa": 2.0, "theta": 0.05, "sigma": 0.5}
    doc["run"]["rates"] = [0.002]
    path = tmp_path / "three_halves_low.json"
    path.write_text(json.dumps(doc))
    code, out, err = run_cli(capsys, "price", "--config", str(path))
    assert code == 2 and not out
    assert "initial state 0.002 lies below 0.007856" in err
    assert "Traceback" not in err


def test_price_nan_coupon_time_is_validation_error(tmp_path, capsys):
    doc = preset_config("cir")
    doc["schedule"]["coupon_times"][0] = float("nan")
    path = tmp_path / "nan_time.json"
    path.write_text(json.dumps(doc))  # written as the JSON extension NaN
    code, out, err = run_cli(capsys, "price", "--config", str(path))
    assert code == 2 and not out
    assert "coupon times must be finite" in err


@pytest.mark.parametrize(
    "block,key,bad,named",
    (
        ("model", "kappa", "abc", "model kappa"),
        ("subordinator", "mu", "x", "subordinator mu"),
        ("run", "rates", [0.05, "five"], "run rates[1]"),
        ("run", "eps", None, "run eps"),
        ("schedule", "coupon_times", [0.5, "one"], "schedule coupon_times[1]"),
        ("model", "sigma", True, "model sigma"),
        ("run", "rates", [False], "run rates[0]"),
    ),
    ids=("kappa", "mu", "rate", "eps", "coupon_time", "bool_sigma", "bool_rate"),
)
def test_price_non_numeric_config_value_is_validation_error(tmp_path, capsys, block, key, bad,
                                                            named):
    doc = preset_config("subcir_jd")
    doc[block][key] = bad
    with pytest.raises(ValidationError, match=rf"{re.escape(named)} must be a number"):
        parse_config(doc)
    path = tmp_path / "bad_value.json"
    path.write_text(json.dumps(doc))
    code, out, err = run_cli(capsys, "price", "--config", str(path))
    assert code == 2 and not out
    assert f"{named} must be a number" in err


@pytest.mark.parametrize(
    "block,key,bad,refusal",
    (
        (None, "model", 5, "model block must be a JSON object"),
        ("run", "rates", 0.05, "run rates must be a list of numbers"),
        ("schedule", "call_prices", 1.0, "schedule call_prices must be a list of numbers"),
    ),
    ids=("model_block", "rates", "call_prices"),
)
def test_misshapen_config_is_validation_error(block, key, bad, refusal):
    doc = preset_config("cir")
    (doc if block is None else doc[block])[key] = bad
    with pytest.raises(ValidationError, match=refusal):
        parse_config(doc)


def test_price_non_numeric_rates_option_is_validation_error(capsys):
    code, out, err = run_cli(capsys, "price", "--model", "cir", "--rates", "0.05,abc")
    assert code == 2 and not out
    assert "run rates[1] must be a number, got 'abc'" in err


def test_price_non_string_model_kind_is_validation_error(tmp_path, capsys):
    doc = preset_config("cir")
    doc["model"]["kind"] = 5
    path = tmp_path / "kind.json"
    path.write_text(json.dumps(doc))
    code, out, err = run_cli(capsys, "price", "--config", str(path))
    assert code == 2 and not out
    assert "unknown model kind 5" in err


@pytest.mark.parametrize("option", (("--rates", "0.05"), ("--eps", "1e-7")), ids=("rates", "eps"))
def test_price_options_on_a_config_without_run_block(tmp_path, capsys, option):
    doc = preset_config("cir")
    del doc["run"]
    path = tmp_path / "no_run.json"
    path.write_text(json.dumps(doc))
    code, out, err = run_cli(capsys, "price", "--config", str(path), *option)
    assert code == 2 and not out
    assert "config missing required block 'run'" in err


@pytest.mark.parametrize("kind", ("directory", "not_utf8"))
def test_price_config_that_cannot_be_read(tmp_path, capsys, kind):
    path = tmp_path
    if kind == "not_utf8":
        path = tmp_path / "latin1.json"
        path.write_bytes(b'\xff\xfe{"model": {}}')
    code, out, err = run_cli(capsys, "price", "--config", str(path))
    assert code == 2 and not out
    assert err.startswith("error: ")


@pytest.mark.parametrize(
    "bad,refusal",
    ((1.7, "an integer"), ("1.5", "an integer"), (float("inf"), "an integer"), (True, "a number")),
    ids=("float", "str", "inf", "bool"),
)
def test_price_non_integral_protection_index_is_validation_error(tmp_path, capsys, bad, refusal):
    # 1.7 was read through int(): the bond priced with index 1 and exit 0
    doc = preset_config("cir")
    doc["schedule"]["protection_index"] = bad
    with pytest.raises(ValidationError, match=f"schedule protection_index must be {refusal}"):
        parse_config(doc)
    path = tmp_path / "index.json"
    path.write_text(json.dumps(doc))  # inf written as the JSON extension Infinity
    code, out, err = run_cli(capsys, "price", "--config", str(path))
    assert code == 2 and not out
    assert f"protection_index must be {refusal}" in err


def test_integral_protection_index_reads_as_an_integer():
    doc = preset_config("cir")
    index = doc["schedule"]["protection_index"]
    doc["schedule"]["protection_index"] = float(index)
    schedule = parse_config(doc)["schedule"]
    assert schedule.protection_index == index and type(schedule.protection_index) is int


def test_price_cir_b250_prints_the_library_value(tmp_path, capsys):
    # b = 250: Gamma(b + n) overflows at every degree
    doc = preset_config("cir")
    doc["model"] = {"kind": "cir", "kappa": 1.0, "theta": 0.05, "sigma": 0.02}
    doc["run"]["rates"] = [0.05]
    path = tmp_path / "b250.json"
    path.write_text(json.dumps(doc))
    code, out, err = run_cli(capsys, "price", "--config", str(path))
    assert code == 0 and not err
    cfg = parse_config(doc)
    value = price_bond(cfg["model"], cfg["sub"], cfg["schedule"], [0.05], eps=cfg["eps"]).values[0]
    assert f"  0.0500    {value:.6f}" in out.splitlines()


def test_reproduce_t5_matches_reference(capsys):
    code, out, _ = run_cli(capsys, "reproduce", "--table", "T5")
    assert code == 0
    rows = [line for line in out.splitlines() if not line.startswith("#")]
    assert rows[0].split(",")[:2] == ["rate", "cir"]
    diffs = [float(r.split(",")[2]) for r in rows[1:]]
    assert len(diffs) == 10
    assert max(diffs) <= 5e-6


def test_reproduce_t3_has_na_cells(capsys):
    code, out, _ = run_cli(capsys, "reproduce", "--table", "T3")
    assert code == 0
    assert "n.a." in out
    # the CIR column keeps five roots and five absent cells
    rows = [line for line in out.splitlines() if line.startswith("tau_")]
    cir_cells = [r.split(",")[1] for r in rows]
    assert cir_cells.count("n.a.") == 5


def test_reproduce_unknown_table(capsys):
    code, _, err = run_cli(capsys, "reproduce", "--table", "T8")
    assert code == 2


def test_bench_subcommand_is_gone(capsys):
    with pytest.raises(SystemExit) as exc:
        run_cli(capsys, "bench", "--model", "cir")
    assert exc.value.code == 2


def test_preset_flag_is_gone(capsys):
    # swiss1987 was its only legal value; --model picks the benchmark model
    with pytest.raises(SystemExit) as exc:
        run_cli(capsys, "price", "--preset", "swiss1987", "--model", "cir")
    assert exc.value.code == 2


def test_readme_cli_lines_parse():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("\n## CLI\n", 1)[1].split("```")[1]
    commands = [
        shlex.split(line, comments=True)
        for line in block.splitlines()
        if line.startswith("eigenbond ")
    ]
    assert commands
    parser = build_parser()
    for argv in commands:
        try:
            parser.parse_args(argv[1:])
        except SystemExit:
            pytest.fail(f"README command does not parse: {' '.join(argv)}")
