import csv
import json
import math
import os
import tempfile
import time
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from supportlab import bounds
from supportlab import cli
from supportlab.cli import load_instance, main, save_instance
from supportlab.model import (
    DesignMatrix,
    ProblemInstance,
    SparseSignal,
    flat_signal,
    gaussian_design,
    make_pattern,
    synthesize_observation,
)


def run(args):
    return main(list(args))


# -------------------------------------------------------------------- decode


def test_decode_noiseless_recovers_planted_support(tmp_path):
    out = tmp_path / "decode.json"
    code = run(["decode", "--n", "8", "--p", "10", "--k", "2", "--seed", "3",
                "--noiseless", "--out", str(out)])
    assert code == 0
    record = json.loads(out.read_text())
    assert record["declared_support"] == record["true_support"] == [1, 2]
    assert record["recovered"] is True
    assert record["candidates_scored"] == math.comb(10, 2)


def test_decode_same_config_identical_bytes(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    args = ["decode", "--n", "8", "--p", "10", "--k", "2", "--seed", "11", "--out"]
    assert run(args + [str(a)]) == 0
    assert run(args + [str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_decode_k_above_p_usage_error(capsys):
    assert run(["decode", "--n", "4", "--p", "3", "--k", "5", "--seed", "0"]) == 2
    assert "error:" in capsys.readouterr().err


def test_decode_budget_exit(tmp_path):
    code = run(["decode", "--n", "8", "--p", "24", "--k", "8", "--seed", "0",
                "--cap-candidates", "100", "--out", str(tmp_path / "x.json")])
    assert code == 2


def test_decode_instance_file_roundtrip(tmp_path):
    design = gaussian_design(8, 9, seed=5)
    sig = flat_signal(make_pattern([2, 6], 9), 1.5)
    y = synthesize_observation(design, sig, noise_seed=5, noiseless=True)
    inst = ProblemInstance(design=design, signal=sig, observation=y)
    path = tmp_path / "instance.json"
    save_instance(str(path), inst)
    loaded = load_instance(str(path))
    assert loaded.true_pattern.indices == (2, 6)
    assert np.allclose(loaded.observation, inst.observation)

    out = tmp_path / "decoded.json"
    assert run(["decode", "--instance", str(path), "--out", str(out)]) == 0
    record = json.loads(out.read_text())
    assert record["declared_support"] == [3, 7]  # 1-based
    assert record["recovered"] is True


_FINITE = st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def _instances(draw):
    n = draw(st.integers(1, 6))
    p = draw(st.integers(1, 6))
    k = draw(st.integers(1, p))
    design = draw(hnp.arrays(float, (n, p), elements=_FINITE))
    support = draw(st.lists(st.integers(0, p - 1), min_size=k, max_size=k, unique=True))
    values = draw(hnp.arrays(float, k, elements=_FINITE.filter(lambda v: v != 0.0)))
    observation = draw(hnp.arrays(float, n, elements=_FINITE))
    return ProblemInstance(
        design=DesignMatrix(entries=design),
        signal=SparseSignal(pattern=make_pattern(support, p), values=values),
        observation=observation,
    )


@settings(max_examples=200, deadline=None)
@given(inst=_instances())
def test_instance_file_roundtrips_bit_for_bit(inst):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "instance.json")
        save_instance(path, inst)
        loaded = load_instance(path)
    assert loaded.true_pattern == inst.true_pattern
    for got, want in [(loaded.design.entries, inst.design.entries),
                      (loaded.signal.values, inst.signal.values),
                      (loaded.observation, inst.observation)]:
        assert got.shape == want.shape and got.tobytes() == want.tobytes()


# -------------------------------------------------------------------- bounds


def test_bound_pairwise_vacuous_warning(tmp_path, capsys):
    out = tmp_path / "b.json"
    code = run(["bound", "pairwise", "--n", "8", "--p", "10", "--k", "2",
                "--seed", "4", "--wrong", "1,2", "--out", str(out)])
    assert code == 0
    assert "vacuous" in capsys.readouterr().err
    assert json.loads(out.read_text())["probability"] == 1.0


def test_bound_union_closed_requires_p_above_2k(capsys):
    code = run(["bound", "union-closed", "--n", "100", "--p", "4", "--k", "2",
               "--beta-min-sq", "1.0", "--C", "9"])
    assert code == 2
    assert "p > 2k" in capsys.readouterr().err


def test_bound_union_sum_matches_library(tmp_path):
    out = tmp_path / "u.json"
    assert run(["bound", "union-sum", "--n", "40", "--p", "12", "--k", "2",
                "--beta-min-sq", "1.0", "--out", str(out)]) == 0
    record = json.loads(out.read_text())
    lib = bounds.union_error_bound_sum(40, 12, 2, 1.0)
    assert record["log_bound"] == lib.log_bound
    assert record["probability"] == lib.probability


def test_bound_averaged_and_mgf(tmp_path):
    out = tmp_path / "a.json"
    assert run(["bound", "averaged", "--n", "10", "--k", "1", "--d", "1",
                "--miss-energy", "1.0", "--out", str(out)]) == 0
    assert json.loads(out.read_text())["log_bound"] == pytest.approx(
        -0.2125623271916872, abs=1e-12
    )
    out2 = tmp_path / "m.json"
    assert run(["bound", "mgf", "--n", "8", "--p", "10", "--k", "2", "--seed", "4",
                "--wrong", "2,3", "--t", "0.1", "--out", str(out2)]) == 0
    assert "log_mgf" in json.loads(out2.read_text())


# ---------------------------------------------------------------- conditions


def test_conditions_single_point(tmp_path):
    out = tmp_path / "c.csv"
    assert run(["conditions", "--point", "100:2:1.0", "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0].startswith("p,k,beta_min_sq,convexity_ok,sufficient_n,necessary_n,gap_ratio")
    assert len(lines) == 2
    fields = lines[1].split(",")
    assert float(fields[5]) == pytest.approx(13.835637846058212, rel=1e-9)


def test_conditions_degenerate_point_reports_row_error(tmp_path):
    out = tmp_path / "c.csv"
    assert run(["conditions", "--point", "100:2:1.0", "--point", "100:2:0.0",
                "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert len(lines) == 3
    assert "positive" in lines[2]


def test_conditions_all_rows_failing_is_an_error(tmp_path):
    out = tmp_path / "c.csv"
    assert run(["conditions", "--point", "100:2:0.0", "--out", str(out)]) == 2


def test_conditions_regime_shorthand(tmp_path):
    out = tmp_path / "r.csv"
    assert run(["conditions", "--regime", "linear_unit", "--p-grid", "64,128,256",
                "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0].startswith("regime,p,k,beta_min_sq")
    assert len(lines) == 4
    assert lines[1].startswith("linear_unit,64,16,")


@pytest.mark.parametrize("b2", ["1e154", "1e160", "1e300"])
def test_large_finite_beta_min_sq_gives_a_value(b2, tmp_path):
    # (1 + k b^2)^2 would overflow a float: each condition is evaluated with
    # its terms divided by powers of b^2.
    out = tmp_path / "c.csv"
    assert run(["conditions", "--point", f"100:2:{b2}", "--out", str(out)]) == 0
    [row] = csv.DictReader(out.read_text().splitlines())
    # Taken at n = ceil(sufficient_n) = 3; for large b^2 it needs n - k > 4k.
    assert (row["convexity_ok"], row["error"]) == ("False", "")
    out = tmp_path / "u.json"
    assert run(["bound", "union-closed", "--n", "400", "--p", "100", "--k", "1",
                "--beta-min-sq", b2, "--out", str(out)]) == 0
    # The closed form depends on b^2 only through its preconditions.
    assert json.loads(out.read_text())["log_bound"] == pytest.approx(2.5 - 2 * math.log(99))


@pytest.mark.parametrize("args, message", [
    (["--point", "1:2"], "--point needs p:k:beta_min_sq, got '1:2'"),
    ([], "conditions needs --point p:k:beta_min_sq (repeatable) or --regime"),
], ids=["malformed-point", "no-point-or-regime"])
def test_conditions_without_a_well_formed_point_is_a_usage_error(args, message, capsys):
    assert run(["conditions"] + args) == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")


@pytest.mark.parametrize("args, error", [
    (["--regime", "linear_unit", "--p-grid", "64,32"], "p grid must be strictly increasing"),
    (["--regime", "linear_unit", "--C", "1e308"],
     "sufficient sample size overflows double precision"),
], ids=["decreasing-grid", "overflowed-threshold"])
def test_conditions_regime_error_row_exits_2(args, error, tmp_path):
    out = tmp_path / "r.csv"
    assert run(["conditions"] + args + ["--out", str(out)]) == 2
    assert out.read_text().splitlines()[1:] == [f"linear_unit,,,,,,,,,{error}"]


def test_conditions_point_whose_threshold_overflows_reports_row_error(tmp_path):
    out = tmp_path / "c.csv"
    assert run(["conditions", "--point", "100:2:1e-320", "--point", "100:2:1",
                "--out", str(out)]) == 0
    rows = list(csv.DictReader(out.read_text().splitlines()))
    assert [row["error"] for row in rows] == [
        "sufficient sample size overflows double precision", ""]


# ------------------------------------------------------------------------ mc


def test_mc_seeded_runs_are_byte_identical(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    args = ["mc", "pairwise", "--n", "8", "--p", "12", "--k", "2", "--seed", "21",
            "--wrong", "2,3", "--trials", "4000", "--out"]
    assert run(args + [str(a)]) == 0
    assert run(args + [str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_mc_worker_flag_does_not_change_bytes(tmp_path):
    a, b = tmp_path / "w1.csv", tmp_path / "w5.csv"
    base = ["mc", "recover", "--n", "12", "--p", "7", "--k", "2", "--seed", "9",
            "--trials", "300"]
    assert run(base + ["--workers", "1", "--out", str(a)]) == 0
    assert run(base + ["--workers", "5", "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_mc_domination_column(tmp_path):
    out = tmp_path / "mc.csv"
    assert run(["mc", "pairwise", "--n", "10", "--p", "10", "--k", "2", "--seed", "2",
                "--wrong", "2,3", "--trials", "2000", "--level", "0.99",
                "--out", str(out)]) == 0
    header, row = out.read_text().splitlines()
    fields = dict(zip(header.split(","), row.split(",")))
    assert fields["dominated"] == "True"
    assert fields["error"] == ""


# --------------------------------------------------------------------- sweep


def test_sweep_empty_values_gives_header_only(tmp_path):
    out = tmp_path / "s.csv"
    assert run(["sweep", "--target", "pairwise", "--n", "8", "--p", "10", "--k", "2",
                "--seed", "5", "--wrong", "2,3", "--vary", "n", "--values", "",
                "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert len(lines) == 1 and lines[0].startswith("target,")


def test_sweep_deterministic_and_continues_past_bad_rows(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    args = ["sweep", "--target", "pairwise", "--p", "10", "--k", "2", "--seed", "5",
            "--wrong", "2,3", "--trials", "400", "--vary", "n",
            "--values", "6,0,12", "--out"]
    assert run(args + [str(a), "--workers", "1"]) == 0
    assert run(args + [str(b), "--workers", "3"]) == 0
    assert a.read_bytes() == b.read_bytes()
    lines = a.read_text().splitlines()
    assert len(lines) == 4
    assert "n >= 1" in lines[2]  # bad row reported in place, sweep continued


def test_sweep_rows_check_their_own_patterns(tmp_path):
    # --wrong is checked against each row's p, not the base --p: rows that
    # vary p past it run, and rows at a fixed p too small report in place.
    out = tmp_path / "s.csv"
    args = ["sweep", "--target", "pairwise", "--n", "8", "--p", "5", "--k", "2",
            "--seed", "5", "--wrong", "7,8", "--trials", "50", "--out", str(out)]
    assert run(args + ["--vary", "p", "--values", "10,20"]) == 0
    rows = list(csv.DictReader(out.read_text().splitlines()))
    assert [(r["p"], r["d"], r["error"]) for r in rows] == [("10", "2", ""), ("20", "2", "")]
    assert run(args + ["--vary", "n", "--values", "8,12"]) == 0
    rows = list(csv.DictReader(out.read_text().splitlines()))
    assert [(r["n"], r["d"], r["error"]) for r in rows] == [
        ("8", "", "index 6 outside [0, 5)"), ("12", "", "index 6 outside [0, 5)")]


# -------------------------------------------------------------------- config


@pytest.mark.parametrize("command", [
    pytest.param(["mc", "pairwise", "--n", "9", "--p", "11", "--k", "2", "--seed", "33",
                  "--wrong", "3,4", "--trials", "1500"], id="mc-pairwise"),
    pytest.param(["decode", "--n", "8", "--p", "10", "--k", "2", "--seed", "3",
                  "--noiseless"], id="decode"),
    pytest.param(["bound", "pairwise", "--n", "8", "--p", "10", "--k", "2", "--seed", "4",
                  "--wrong", "2,3"], id="bound-pairwise"),
    pytest.param(["conditions", "--point", "100:2:1.0", "--point", "200:3:0.5"],
                 id="conditions-point"),
    pytest.param(["mc", "recover", "--n", "12", "--p", "7", "--k", "2", "--seed", "9",
                  "--trials", "50"], id="mc-recover"),
    pytest.param(["sweep", "--target", "pairwise", "--p", "10", "--k", "2", "--seed", "5",
                  "--wrong", "2,3", "--trials", "200", "--vary", "n", "--values", "6,8"],
                 id="sweep"),
    pytest.param(["decode", "--n", "8", "--p", "10", "--k", "2", "--seed", "3",
                  "--beta=-1.5,2"], id="negative-beta"),
])
def test_emit_config_round_trip(command, tmp_path):
    cfg = tmp_path / "cfg.json"
    first = tmp_path / "first.out"
    second = tmp_path / "second.out"
    words = [w for w in command[:2] if not w.startswith("-")]
    assert run(command + ["--emit-config", str(cfg), "--out", str(first)]) == 0
    data = json.loads(cfg.read_text())
    assert data["command"] == words
    assert run(words + ["--config", str(cfg), "--out", str(second)]) == 0
    # --out came from the command line; every other parameter from the config
    assert first.read_bytes() == second.read_bytes()


def test_config_explicit_flags_override(tmp_path):
    cfg = tmp_path / "cfg.json"
    assert run(["decode", "--n", "8", "--p", "10", "--k", "2", "--seed", "3",
                "--noiseless", "--emit-config", str(cfg),
                "--out", str(tmp_path / "x.json")]) == 0
    out = tmp_path / "y.json"
    assert run(["decode", "--config", str(cfg), "--seed", "4", "--out", str(out)]) == 0
    record = json.loads(out.read_text())
    assert record["recovered"] is True  # still noiseless via config, new seed


# -------------------------------------------------------------------- verify


def test_verify_passes_and_fault_injection_fails(capsys):
    assert run(["verify"]) == 0
    capsys.readouterr()
    assert run(["verify", "--inject-fault"]) == 1
    failed = [line for line in capsys.readouterr().out.splitlines() if line.startswith("FAIL")]
    assert [line.split(":")[0] for line in failed] == ["FAIL chernoff-constants"]


def test_verify_verbose_prints_residuals(capsys):
    assert run(["verify", "--verbose"]) == 0
    out = capsys.readouterr().out
    assert "chernoff-constants" in out
    assert "worst" in out or "err" in out


# ------------------------------------------------------- boundary validation


def exit_code(args):
    """main's return code, or argparse's exit code for a rejected flag value."""
    try:
        return run(args)
    except SystemExit as exc:
        return exc.code


MC_PAIRWISE = ["mc", "pairwise", "--n", "8", "--p", "10", "--k", "2", "--wrong", "2,3",
               "--trials", "50"]


@pytest.mark.parametrize("value", ["0", "-3"])
@pytest.mark.parametrize("command", [
    MC_PAIRWISE,
    ["mc", "recover", "--n", "8", "--p", "6", "--k", "2", "--trials", "5"],
    ["sweep", "--p", "10", "--k", "2", "--wrong", "2,3", "--trials", "50",
     "--vary", "n", "--values", "8"],
])
def test_workers_below_one_is_a_usage_error(command, value, tmp_path, capsys):
    out = tmp_path / "out.csv"
    assert run(command + ["--workers", value, "--out", str(out)]) == 2
    assert "--workers" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("seed", ["-1", "18446744073709551616"])
@pytest.mark.parametrize("command", [
    MC_PAIRWISE,
    ["mc", "recover", "--n", "8", "--p", "6", "--k", "2", "--trials", "5"],
    ["sweep", "--p", "10", "--k", "2", "--wrong", "2,3", "--trials", "50",
     "--vary", "n", "--values", "8"],
    ["decode", "--n", "8", "--p", "10", "--k", "2"],
    ["bound", "pairwise", "--n", "8", "--p", "10", "--k", "2", "--wrong", "2,3"],
    ["verify"],
])
def test_seed_outside_64_bits_is_a_usage_error(command, seed, capsys):
    assert run(command + ["--seed", seed]) == 2
    assert "master seed must be in [0, 2**64)" in capsys.readouterr().err


def test_largest_64_bit_seed_is_accepted(tmp_path):
    out = tmp_path / "d.json"
    assert run(["decode", "--n", "8", "--p", "10", "--k", "2",
                "--seed", "18446744073709551615", "--out", str(out)]) == 0
    assert json.loads(out.read_text())["candidates_scored"] == 45


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_non_finite_float_flag_is_a_usage_error(value, capsys):
    args = ["bound", "union-sum", "--n", "40", "--p", "12", "--k", "2",
            f"--beta-min-sq={value}"]
    assert exit_code(args) == 2
    err = capsys.readouterr().err
    assert "--beta-min-sq" in err and value in err


@pytest.mark.parametrize("args", [
    ["conditions", "--point", "100:2:inf"],
    ["conditions", "--point", "100:2:nan"],
    ["decode", "--n", "8", "--p", "10", "--k", "2", "--beta", "1.0,nan"],
    ["sweep", "--p", "10", "--k", "2", "--wrong", "2,3", "--trials", "50",
     "--vary", "beta_min", "--values", "1.0,inf"],
])
def test_non_finite_list_and_point_values_are_usage_errors(args, capsys):
    assert exit_code(args) == 2
    captured = capsys.readouterr()
    assert "expected a finite number" in captured.err
    assert captured.out == ""


def test_missing_instance_file_names_the_path(tmp_path, capsys):
    path = tmp_path / "missing.json"
    assert run(["decode", "--instance", str(path)]) == 2
    assert str(path) in capsys.readouterr().err


@pytest.mark.parametrize("text", [
    "{not json",
    '{"design": [[1.0, 2.0]], "support": [1]}',
    '{"design": [[1.0, 2.0]], "support": [1], "values": [NaN], "observation": [1.0]}',
    "[1, 2, 3]",
])
def test_malformed_instance_file_names_the_path(text, tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(text)
    assert run(["decode", "--instance", str(path)]) == 2
    assert str(path) in capsys.readouterr().err


def test_config_naming_an_unknown_command_is_a_usage_error(tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"command": ["bound", "frobnicate"], "params": {}}))
    assert run(["bound", "union-sum", "--config", str(path)]) == 2
    assert capsys.readouterr().err == (
        f"error: config {path} names unknown command ['bound', 'frobnicate']\n")


def test_missing_config_file_names_the_path(tmp_path, capsys):
    path = tmp_path / "missing_cfg.json"
    assert run(["mc", "pairwise", "--config", str(path)]) == 2
    assert str(path) in capsys.readouterr().err


@pytest.mark.parametrize("text", ["{not json", "[1]",
                                  '{"command": ["bound", "union-sum"], '
                                  '"params": {"n": 40, "p": 12, "k": 2, "beta_min_sq": NaN}}',
                                  '{"command": "bound", "params": {}}',
                                  '{"params": [1, 2], "command": ["bound", "union-sum"]}',
                                  '{"command": ["mc", "recover"], '
                                  '"params": {"n": 40, "p": 12, "k": 2}}'])
def test_malformed_config_file_names_the_path(text, tmp_path, capsys):
    path = tmp_path / "bad_cfg.json"
    path.write_text(text)
    assert exit_code(["bound", "union-sum", "--config", str(path)]) == 2
    assert str(path) in capsys.readouterr().err


MC_RECOVER = ["mc", "recover", "--n", "12", "--p", "7", "--k", "2", "--seed", "9",
              "--trials", "20"]


@pytest.mark.parametrize("key, value, message", [
    ("n", 8.5, "argument --n: invalid int value: '8.5'"),
    ("trials", 2.0, "argument --trials: invalid int value: '2.0'"),
    ("support", 5, "--support has 1 indices, need k=2"),
    ("format", "xml", "argument --format: invalid choice: 'xml'"),
    ("n", True, "argument --n: invalid int value: 'true'"),
])
def test_config_values_go_through_their_flags_parsers(key, value, message, tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    assert run(MC_RECOVER + ["--emit-config", str(cfg), "--out", str(tmp_path / "a.csv")]) == 0
    data = json.loads(cfg.read_text())
    data["params"][key] = value
    cfg.write_text(json.dumps(data))
    capsys.readouterr()
    out = tmp_path / "b.csv"
    assert exit_code(["mc", "recover", "--config", str(cfg), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert f"error: config {cfg}: {message}" in err
    assert not out.exists()


@pytest.mark.parametrize("key, value, flag, message", [
    ("support", 5, ["--support", "5", "--k", "2"], "--support has 1 indices, need k=2"),
    ("support", 5, ["--supp=5", "--k=2"], "--support has 1 indices, need k=2"),
    ("workers", 0, ["--workers", "0"], "--workers must be >= 1, got 0"),
])
def test_cross_flag_check_names_the_config_only_for_its_own_value(key, value, flag, message,
                                                                  tmp_path, capsys):
    # A value that parses but fails a check made after parsing is blamed on
    # the config only when the config gave it; the same values typed as flags
    # (in full or abbreviated; the --support check also compares k) read as
    # they do without a config.
    cfg = tmp_path / "cfg.json"
    assert run(MC_RECOVER + ["--emit-config", str(cfg), "--out", str(tmp_path / "a.csv")]) == 0
    data = json.loads(cfg.read_text())
    bad, good = tmp_path / "bad.json", tmp_path / "good.json"
    data["params"][key] = value
    bad.write_text(json.dumps(data))
    data["params"][key] = None
    good.write_text(json.dumps(data))
    out = tmp_path / "b.csv"
    for argv, expected in [
        (["--config", str(bad)], f"error: config {bad}: {message}\n"),
        (["--config", str(bad)] + flag, f"error: {message}\n"),
        (["--config", str(good)] + flag, f"error: {message}\n"),
        (MC_RECOVER[2:] + flag, f"error: {message}\n"),
    ]:
        capsys.readouterr()
        assert run(["mc", "recover"] + argv + ["--out", str(out)]) == 2
        assert capsys.readouterr().err == expected
    assert not out.exists()


@pytest.mark.parametrize("words, base, params, message", [
    (["mc", "recover"], ["--p", "7", "--trials", "5"], {"n": 2, "k": 3},
     "need n > k, got n=2, k=3"),
    (["mc", "recover"], ["--p", "7", "--trials", "5"], {"support": "0,1"},
     "indices at the CLI are 1-based; got 0"),
    (["mc", "pairwise"], ["--p", "7", "--trials", "5"], {"wrong": "1,2,3"},
     "wrong pattern has 3 indices, need k=2"),
    (["bound", "union-sum"], ["--p", "7", "--beta-min-sq", "1"], {"n": 2, "k": 3},
     "need n > k, got n=2, k=3"),
    (["bound", "union-closed"], ["--n", "40", "--p", "12", "--beta-min-sq", "1"], {"k": 6},
     "hypothesis violated: p > 2k (p=12, k=6)"),
    (["mc", "recover"], ["--p", "7", "--trials", "5"], {"support": "9,1"},
     "index 8 outside [0, 7)"),
    (["mc", "pairwise"], ["--p", "7", "--trials", "5"], {"wrong": "9,1"},
     "index 8 outside [0, 7)"),
    (["bound", "pairwise"], ["--p", "7"], {"wrong": "2,9"}, "index 8 outside [0, 7)"),
    (["decode"], ["--p", "7"], {"beta": "1,0"},
     "signal values must be exactly nonzero on the support"),
    (["mc", "recover"], ["--p", "7", "--trials", "5"], {"beta": "1,0"},
     "signal values must be exactly nonzero on the support"),
    (["bound", "mgf"], ["--p", "7", "--wrong", "3,4"], {"t": 0.7},
     "log-MGF defined for |t| < 1/2, got t=0.7"),
    (["decode"], ["--p", "7"], {"cap_candidates": 3},
     "exhaustive decode needs C(7,2) = 21 candidates, exceeding the budget of 3"),
    (["mc", "recover"], ["--p", "7", "--trials", "5"], {"cap_candidates": 3},
     "each decode scores C(7,2) = 21 candidates, exceeding the budget of 3"),
    (["bound", "pairwise"], ["--p", "7"], {"wrong": "1,2,3"}, "--wrong has 3 indices, need k=2"),
    (["bound", "mgf"], ["--p", "7", "--t", "0.2"], {"wrong": "1,2,3"},
     "--wrong has 3 indices, need k=2"),
    (["sweep"], ["--wrong", "2,3", "--trials", "5", "--values", "8"], {"vary": "q"},
     "--vary must be one of n,p,k,trials,beta_min, got 'q'"),
], ids=["recover-n-k", "recover-support", "pairwise-wrong", "union-sum-n-k", "union-closed-k",
        "recover-support-range", "pairwise-wrong-range", "bound-pairwise-wrong-range",
        "decode-beta-zero", "recover-beta-zero", "mgf-t", "decode-cap", "recover-cap",
        "bound-pairwise-wrong-size", "mgf-wrong-size", "sweep-vary"])
def test_failed_check_names_the_config_when_a_value_it_compares_came_from_it(
        words, base, params, message, tmp_path, capsys):
    # The message need not start with a flag: the config is named when any
    # value the failed check compares came from it, and only then.
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"command": words, "params": params}))
    flags = [tok for key, value in params.items()
             for tok in (f"--{key.replace('_', '-')}", str(value))]
    cases = [
        (["--config", str(cfg)], f"error: config {cfg}: {message}\n"),
        (flags, f"error: {message}\n"),
        (["--config", str(cfg)] + flags, f"error: {message}\n"),
    ]
    if set(params) == {"n", "k"}:
        # Mixed: n from the config and k from a flag, or the other way round.
        for key in params:
            mixed = tmp_path / f"{key}.json"
            mixed.write_text(json.dumps({"command": words, "params": {key: params[key]}}))
            other = [tok for k, v in params.items() if k != key for tok in (f"--{k}", str(v))]
            cases.append((["--config", str(mixed)] + other, f"error: config {mixed}: {message}\n"))
    out = tmp_path / "out.csv"
    for argv, expected in cases:
        capsys.readouterr()
        assert run(words + base + argv + ["--out", str(out)]) == 2
        assert capsys.readouterr().err == expected
    assert not out.exists()


@pytest.mark.parametrize("words, typed, message", [
    (["bound", "union-sum"], ["--p", "12", "--k", "20", "--beta-min-sq", "1"],
     "need p > k >= 1, got p=12, k=20"),
    (["bound", "union-closed"], ["--p", "12", "--k", "6", "--beta-min-sq", "1"],
     "hypothesis violated: p > 2k (p=12, k=6)"),
    (["bound", "averaged"], ["--k", "2", "--d", "3", "--miss-energy", "1"],
     "need 1 <= d <= k, got d=3, k=2"),
    (["decode"], ["--p", "7", "--cap-candidates", "3"],
     "exhaustive decode needs C(7,2) = 21 candidates, exceeding the budget of 3"),
    (["mc", "recover"], ["--p", "7", "--trials", "5", "--cap-candidates", "3"],
     "each decode scores C(7,2) = 21 candidates, exceeding the budget of 3"),
], ids=["union-sum", "union-closed", "averaged", "decode-cap", "recover-cap"])
def test_failed_check_on_typed_values_reads_plain_beside_a_config(words, typed, message,
                                                                  tmp_path, capsys):
    # The config gives only n, which none of these checks compares.
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"command": words, "params": {"n": 40}}))
    out = tmp_path / "out.csv"
    capsys.readouterr()
    assert run(words + ["--config", str(cfg)] + typed + ["--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


def test_budget_check_on_a_loaded_instance_ignores_config_p_and_k(tmp_path, capsys):
    # A loaded instance's p and k come from its file, not from the config.
    inst, cfg = tmp_path / "inst.json", tmp_path / "cfg.json"
    assert run(["decode", "--p", "7", "--save-instance", str(inst),
                "--out", str(tmp_path / "a.json")]) == 0
    cfg.write_text(json.dumps({"command": ["decode"], "params": {"p": 7, "k": 2}}))
    capsys.readouterr()
    assert run(["decode", "--config", str(cfg), "--instance", str(inst),
                "--cap-candidates", "3"]) == 2
    assert capsys.readouterr().err == (
        "error: exhaustive decode needs C(7,2) = 21 candidates, exceeding the budget of 3\n")


@pytest.mark.parametrize("flag, message", [
    (["--n", "8.5"], "argument --n: invalid int value: '8.5'"),
    (["--format", "xml"], "argument --format: invalid choice: 'xml'"),
])
def test_rejected_flag_value_keeps_argparse_text_beside_a_config(flag, message, tmp_path,
                                                                 capsys):
    # Only a value that came from the config is blamed on it: a bad value
    # typed on the command line reads the same with or without a config.
    cfg = tmp_path / "cfg.json"
    assert run(MC_RECOVER + ["--emit-config", str(cfg), "--out", str(tmp_path / "a.csv")]) == 0
    out = tmp_path / "b.csv"
    for argv in (MC_RECOVER, ["mc", "recover", "--config", str(cfg)]):
        capsys.readouterr()
        assert exit_code(argv + flag + ["--out", str(out)]) == 2
        last = capsys.readouterr().err.splitlines()[-1]
        assert last.startswith(f"supportlab mc recover: error: {message}")
    assert not out.exists()


def test_repeated_config_is_a_usage_error(tmp_path, capsys):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    base = ["bound", "union-sum", "--p", "12", "--k", "2", "--beta-min-sq", "1.0"]
    assert run(base + ["--n", "50", "--emit-config", str(a)]) == 0
    assert run(base + ["--n", "60", "--emit-config", str(b)]) == 0
    capsys.readouterr()
    for argv, message in [
        (["--config", str(a), "--config", str(b)], "--config given more than once"),
        ([f"--config={a}", "--config", str(b)], "--config given more than once"),
        (["--config", str(a), "--conf", str(b)], "--config must be spelled out in full"),
    ]:
        assert run(["bound", "union-sum"] + argv) == 2
        captured = capsys.readouterr()
        assert message in captured.err
        assert captured.out == ""


def test_parser_is_built_once_across_main_calls(monkeypatch, tmp_path):
    calls = []
    build = cli.build_parser

    def counting_build():
        calls.append(1)
        return build()

    monkeypatch.setattr(cli, "_PARSER", None)
    monkeypatch.setattr(cli, "build_parser", counting_build)
    for i in range(3):
        assert run(["bound", "union-sum", "--n", "40", "--p", "12", "--k", "2",
                    "--beta-min-sq", "1.0", "--out", str(tmp_path / f"u{i}.json")]) == 0
        assert run(["conditions", "--point", "100:2:1.0",
                    "--out", str(tmp_path / f"c{i}.csv")]) == 0
    assert len(calls) == 1


def test_config_values_do_not_leak_into_later_calls(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    assert run(["bound", "union-sum", "--n", "40", "--p", "12", "--k", "2",
                "--beta-min-sq", "1.0", "--emit-config", str(cfg)]) == 0
    assert run(["bound", "union-sum", "--config", str(cfg)]) == 0
    capsys.readouterr()
    assert exit_code(["bound", "union-sum", "--n", "40"]) == 2
    assert "required: --p, --k, --beta-min-sq" in capsys.readouterr().err


def test_plain_config_plain_sequence_matches_each_run_alone(monkeypatch, tmp_path):
    cfg = tmp_path / "cfg.json"
    assert run(["decode", "--n", "9", "--p", "8", "--k", "2", "--seed", "6", "--noiseless",
                "--beta=-1.5,2", "--emit-config", str(cfg),
                "--out", str(tmp_path / "emit.json")]) == 0
    sequence = [
        ["decode", "--n", "8", "--p", "10", "--k", "2", "--seed", "3"],
        ["decode", "--config", str(cfg), "--seed", "4"],
        ["decode", "--n", "8", "--p", "10", "--k", "2", "--seed", "3"],
    ]

    def outputs(tag, fresh_parser):
        result = []
        for i, argv in enumerate(sequence):
            if fresh_parser:
                monkeypatch.setattr(cli, "_PARSER", None)
            out = tmp_path / f"{tag}{i}.json"
            assert run(argv + ["--out", str(out)]) == 0
            result.append(out.read_bytes())
        return result

    together, alone = outputs("together", False), outputs("alone", True)
    assert together == alone
    assert together[0] == together[2] != together[1]


@pytest.mark.parametrize("command", [
    ["decode", "--n", "8", "--p", "10", "--k", "2"],
    ["bound", "pairwise", "--n", "8", "--p", "10", "--k", "2", "--wrong", "2,3"],
    MC_PAIRWISE,
    MC_RECOVER,
])
def test_support_size_must_equal_k(command, capsys):
    assert run(command + ["--support", "5"]) == 2
    captured = capsys.readouterr()
    assert "--support has 1 indices, need k=2" in captured.err
    assert captured.out == ""


OVERFLOW = ["--n", "8", "--p", "10", "--k", "2"]
Z_OVERFLOW = "pairwise statistic Z_F overflows double precision"
MC_OVERFLOW = ["mc", "pairwise", "--wrong", "3,4", "--beta", "1e300,1e300", "--trials", "5"]


G_OVERFLOW = "projection energy g overflows double precision"
MGF_OVERFLOW = "log-MGF overflows double precision"
Y_OVERFLOW = "observation overflows double precision"


@pytest.mark.parametrize("command, message", [
    (["decode", "--beta", "1e300,1e300"], "observation energy y.y overflows double precision"),
    (["mc", "recover", "--beta", "1e300,1e300", "--trials", "5"],
     "observation energy y.y overflows double precision"),
    (["bound", "pairwise", "--wrong", "3,4", "--beta", "1e155,1"], G_OVERFLOW),
    (["bound", "pairwise", "--wrong", "3,4", "--beta", "1e155,1", "--format", "csv"],
     G_OVERFLOW),
    (["bound", "mgf", "--wrong", "3,4", "--beta", "1e200,1", "--t", "0.3"], MGF_OVERFLOW),
    (MC_OVERFLOW, Z_OVERFLOW),
    (MC_OVERFLOW + ["--design-mode", "fresh"], Z_OVERFLOW),
    (MC_OVERFLOW + ["--noiseless"], Z_OVERFLOW),
    (["decode", "--beta", "1e308,1e308"], Y_OVERFLOW),
    (["mc", "recover", "--beta", "1e308,1e308", "--trials", "5"], Y_OVERFLOW),
    (["bound", "pairwise", "--wrong", "3,4", "--beta", "1e308,1"], G_OVERFLOW),
    (["bound", "mgf", "--wrong", "3,4", "--beta", "1e308,1", "--t", "0.3"], MGF_OVERFLOW),
], ids=["decode", "mc-recover", "bound-pairwise", "bound-pairwise-csv", "bound-mgf",
        "mc-pairwise", "mc-pairwise-fresh", "mc-pairwise-noiseless", "decode-1e308",
        "mc-recover-1e308", "bound-pairwise-1e308", "bound-mgf-1e308"])
def test_finite_inputs_that_overflow_double_precision_are_usage_errors(command, message,
                                                                       tmp_path, capsys):
    # Each value is finite, but y.y, g, Z_F or the log-MGF overflows: no
    # traceback, no numpy warning, no JSON error, no inf written to a CSV row,
    # and no overflowed trial counted as one without an error.
    out = tmp_path / "out"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert run(command + OVERFLOW + ["--out", str(out)]) == 2
    assert [str(w.message) for w in caught] == []
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


def test_pairwise_sweep_reports_an_overflowed_statistic_in_its_row(tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert run(["sweep", "--target", "pairwise", "--wrong", "3,4", "--beta", "1e300,1e300",
                    "--trials", "5", "--vary", "n", "--values", "8,9"]
                   + OVERFLOW + ["--out", str(out)]) == 0
    assert [str(w.message) for w in caught] == []
    assert capsys.readouterr().err == ""
    rows = list(csv.DictReader(out.read_text().splitlines()))
    assert [(row["n"], row["errors"], row["error"]) for row in rows] == [
        ("8", "", Z_OVERFLOW), ("9", "", Z_OVERFLOW)]


def test_decode_p_equals_k_emits_valid_json(tmp_path):
    out = tmp_path / "d.json"
    assert run(["decode", "--n", "6", "--p", "3", "--k", "3", "--seed", "2",
                "--out", str(out)]) == 0
    record = json.loads(out.read_text())  # strict parse: no Infinity literal
    assert record["runner_up_score"] is None
    assert "Infinity" not in out.read_text()


def test_verify_seed_116_passes(capsys):
    assert run(["verify", "--seed", "116"]) == 0
    assert "9/9 checks passed" in capsys.readouterr().out


def test_bound_preconditions_fail_before_any_trial(capsys):
    # A million trials would take minutes; the n > k check must come first.
    start = time.perf_counter()
    assert run(["mc", "recover", "--n", "2", "--p", "4", "--k", "3",
                "--trials", "1000000"]) == 2
    assert time.perf_counter() - start < 5.0
    assert "need n > k, got n=2, k=3" in capsys.readouterr().err


@pytest.mark.parametrize("args, value", [
    (["conditions", "--point", "100:x:1"], "'x'"),
    (["conditions", "--point", "100.5:2:1"], "'100.5'"),
    (["conditions", "--regime", "sublinear_unit", "--p-grid", "64,1.5"], "'1.5'"),
    (["decode", "--support", "1,two"], "'two'"),
    (["sweep", "--p", "10", "--k", "2", "--wrong", "2,3", "--trials", "50",
      "--vary", "n", "--values", "8.7"], "'8.7'"),
])
def test_non_integer_values_are_usage_errors(args, value, capsys):
    assert run(args) == 2
    captured = capsys.readouterr()
    assert f"expected an integer, got {value}" in captured.err
    assert captured.out == ""


def test_sweep_accepts_integral_number_spellings(tmp_path):
    out = tmp_path / "s.csv"
    assert run(["sweep", "--p", "10", "--k", "2", "--wrong", "2,3", "--trials", "50",
                "--vary", "n", "--values", "8.0,1e1", "--out", str(out)]) == 0
    rows = out.read_text().splitlines()[1:]
    assert [row.split(",")[2] for row in rows] == ["8", "10"]
