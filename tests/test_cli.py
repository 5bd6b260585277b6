"""Command-line front end: configs, exit codes, file outputs, exact prints."""

import json
import math
import os
import re
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import mpmath
import numpy as np
import pytest

import fracfund
from fracfund import (GridFn, checks, cli, fundamental, gamma, gridfn,
                      read_csv, special, write_csv)
from fracfund.cli import main
from fracfund.quadrules import jacobi_rule_01


def _write_config(tmp_path, name="cfg.json", **overrides):
    cfg = {
        "alpha": 0.5,
        "theta": 1.0,
        "n": 1,
        "A": {"preset": "zero"},
        "b": {"preset": "constant", "vector": [1.0]},
        "history": {"w0": [0.0]},
        "grid_N": 64,
    }
    cfg.update(overrides)
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return path


# ----------------------------------------------------------------- mlf


def test_mlf_exponential_digits(capsys):
    assert main(["mlf", "--alpha", "1", "--z", "1"]) == 0
    assert capsys.readouterr().out.strip() == "2.71828182845905"


def test_mlf_reciprocal_sqrt_pi(capsys):
    assert main(["mlf", "--alpha", "0.5", "--beta", "0.5", "--z", "0"]) == 0
    assert capsys.readouterr().out.strip() == "0.564189583547756"


def test_mlf_half_order_at_minus_one(capsys):
    assert main(["mlf", "--alpha", "0.5", "--z", "-1"]) == 0
    got = float(capsys.readouterr().out)
    assert abs(got - 0.42758357615580700441) <= 1e-13


# ------------------------------------------------------------ exit codes


def test_missing_config(tmp_path):
    rc = main(["solve", "--config", str(tmp_path / "nope.json"),
               "--method", "direct", "--out", str(tmp_path / "o.csv")])
    assert rc == 2


def test_malformed_json_writes_nothing(tmp_path):
    cfg = tmp_path / "broken.json"
    cfg.write_text('{"alpha": 0.5,')
    out = tmp_path / "o.csv"
    assert main(["solve", "--config", str(cfg), "--method", "direct",
                 "--out", str(out)]) == 2
    assert not out.exists()


def test_grid_too_coarse(tmp_path):
    cfg = _write_config(tmp_path, grid_N=7)
    assert main(["solve", "--config", str(cfg), "--method", "direct",
                 "--out", str(tmp_path / "o.csv")]) == 2


@pytest.mark.parametrize("overrides", [
    {"history": {"w0": [math.nan]}},
    {"A": {"preset": "constant", "matrix": [[math.inf]]}},
    {"theta": math.inf},
    {"grid_N": 64.7},
    {"A": "x"},
    {"b": [1.0]},
    {"history": [1, 2]},
], ids=["nan-w0", "inf-matrix", "inf-theta", "fractional-grid_N",
        "string-A", "list-b", "list-history"])
def test_non_finite_or_fractional_input_rejected(tmp_path, overrides):
    cfg = _write_config(tmp_path, **overrides)
    out = tmp_path / "o.csv"
    assert main(["solve", "--config", str(cfg), "--method", "direct",
                 "--out", str(out)]) == 2
    assert not out.exists()


@pytest.mark.parametrize("config, key", [
    ([0.5, 1.0], "config"),
    ({"history": {"generator": [1], "t_star": 0.5}}, "history.generator"),
], ids=["list-config", "list-generator"])
def test_misshapen_section_named(tmp_path, capsys, config, key):
    if isinstance(config, dict):
        cfg = _write_config(tmp_path, **config)
    else:
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
    assert main(["fundamental", "--config", str(cfg),
                 "--out", str(tmp_path / "F.csv")]) == 2
    assert key in capsys.readouterr().err


@pytest.mark.parametrize("kind", ["samples", "w_star_csv", "caputo_csv",
                                  "phi_csv"])
def test_non_finite_csv_rejected(tmp_path, kind):
    # one NaN value in the CSV the config names; the segment is [0, 0.5]
    theta = 1.0 if kind == "samples" else 0.5
    N = 64 if kind == "samples" else 32
    vals = np.ones((N + 1, 1))
    write_csv(GridFn(0.0, theta, N, vals), tmp_path / "good.csv")
    vals[5, 0] = np.nan
    write_csv(GridFn(0.0, theta, N, vals), tmp_path / "bad.csv")
    overrides = {
        "samples": {"b": {"preset": "samples", "path": "bad.csv"}},
        "w_star_csv": {"history": {"w_star_csv": "bad.csv", "t_star": 0.5}},
        "caputo_csv": {"history": {"w_star_csv": "good.csv",
                                   "caputo_csv": "bad.csv", "t_star": 0.5}},
        "phi_csv": {"history": {"generator": {"phi_csv": "bad.csv",
                                              "w0": [0.0]},
                                "t_star": 0.5}},
    }[kind]
    cfg = _write_config(tmp_path, **overrides)
    out = tmp_path / "o.csv"
    assert main(["solve", "--config", str(cfg), "--method", "direct",
                 "--out", str(out)]) == 2
    assert not out.exists()


def test_rotation_needs_two_dims(tmp_path):
    cfg = _write_config(tmp_path, n=3, A={"preset": "rotation"},
                        b={"preset": "zero"}, history={"w0": [0.0, 0.0, 0.0]})
    assert main(["solve", "--config", str(cfg), "--method", "direct",
                 "--out", str(tmp_path / "o.csv")]) == 2


def test_rotation_is_no_forcing_preset(tmp_path, capsys):
    cfg = _write_config(tmp_path, n=2, A={"preset": "zero"},
                        b={"preset": "rotation"}, history={"w0": [0.0, 0.0]})
    assert main(["solve", "--config", str(cfg), "--method", "direct",
                 "--out", str(tmp_path / "o.csv")]) == 2
    assert "unknown forcing preset 'rotation'" in capsys.readouterr().err


def test_unknown_method_is_usage_error(tmp_path):
    cfg = _write_config(tmp_path)
    with pytest.raises(SystemExit) as exc:
        main(["solve", "--config", str(cfg), "--method", "magic",
              "--out", str(tmp_path / "o.csv")])
    assert exc.value.code == 2


def test_repr_pc_needs_collapsed_history(tmp_path):
    seg = GridFn(0.0, 0.5, 8, np.ones((9, 1)))
    seg_path = tmp_path / "seg.csv"
    write_csv(seg, seg_path)
    cfg = _write_config(
        tmp_path, history={"w_star_csv": "seg.csv", "t_star": 0.5}
    )
    rc = main(["solve", "--config", str(cfg), "--method", "repr-pc",
               "--out", str(tmp_path / "o.csv")])
    assert rc == 4


@pytest.mark.parametrize("command", [["fundamental"],
                                     ["solve", "--method", "repr-pc"]],
                         ids=["fundamental", "repr-pc"])
def test_tiny_order_is_a_numerical_error(tmp_path, capsys, command):
    # alpha - 1 rounds to -1, and the Gauss-Jacobi rule divides by zero
    cfg = _write_config(tmp_path, alpha=1e-300)
    out = tmp_path / "o.csv"
    assert main([*command, "--config", str(cfg), "--out", str(out)]) == 3
    assert "fracfund: error:" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", [["fundamental"],
                                     ["solve", "--method", "direct"]],
                         ids=["fundamental", "direct"])
def test_overflowing_span_is_a_config_error(tmp_path, capsys, command):
    # both ends are finite, theta - t0 is not
    cfg = _write_config(tmp_path, t0=-1e308, theta=1e308)
    out = tmp_path / "o.csv"
    assert main([*command, "--config", str(cfg), "--out", str(out)]) == 2
    assert "theta - t0" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == [cfg]


def test_non_finite_solution_is_not_written(tmp_path, capsys):
    # W b overflows: the direct solve ends in inf
    cfg = _write_config(tmp_path, A={"preset": "constant", "matrix": [[-1.0]]},
                        b={"preset": "constant", "vector": [1e308]}, grid_N=16)
    out = tmp_path / "o.csv"
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        rc = main(["solve", "--config", str(cfg), "--method", "direct",
                   "--out", str(out)])
    assert rc == 3
    assert "grid_N = 16" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == [cfg]


# ----------------------------------------------------------------- solve


def test_solve_direct_known_solution(tmp_path):
    cfg = _write_config(tmp_path)
    out = tmp_path / "sol.csv"
    assert main(["solve", "--config", str(cfg), "--method", "direct",
                 "--out", str(out)]) == 0
    x = read_csv(out)
    want = x.t ** 0.5 / gamma(1.5)
    np.testing.assert_allclose(x.values, want, atol=1e-12)
    side = json.loads((tmp_path / "sol.csv.meta.json").read_text())
    assert side["method"] == "direct"
    assert side["N"] == 64
    assert side["residual"] < 1e-10
    assert side["write_procs"] >= 1 and side["csv_bytes"] == out.stat().st_size


def test_gc_routes_collapse_to_pc_bytes(tmp_path):
    cfg = _write_config(
        tmp_path, n=2,
        A={"preset": "cosine", "matrix": [[0.0, 1.0], [-1.0, 0.0]], "omega": 4.0},
        b={"preset": "zero"}, history={"w0": [1.0, 0.0]}, grid_N=32,
    )
    outs = {}
    for method in ("repr-pc", "repr-gc", "repr-gc-compact"):
        out = tmp_path / f"{method}.csv"
        assert main(["solve", "--config", str(cfg), "--method", method,
                     "--out", str(out)]) == 0
        outs[method] = out.read_bytes()
    assert outs["repr-gc"] == outs["repr-pc"]
    assert outs["repr-gc-compact"] == outs["repr-pc"]


def test_solution_feeds_back_as_history(tmp_path):
    cfg = _write_config(
        tmp_path, n=2, A={"preset": "rotation"},
        b={"preset": "cosine", "vector": [0.0, 1.0], "omega": 2.0},
        history={"w0": [1.0, 0.0]}, grid_N=64,
    )
    full = tmp_path / "full.csv"
    assert main(["solve", "--config", str(cfg), "--method", "direct",
                 "--out", str(full)]) == 0

    cfg2 = _write_config(
        tmp_path, name="restart.json", n=2, A={"preset": "rotation"},
        b={"preset": "cosine", "vector": [0.0, 1.0], "omega": 2.0},
        history={"w_star_csv": "full.csv", "t_star": 0.5}, grid_N=64,
    )
    out = tmp_path / "restarted.csv"
    assert main(["solve", "--config", str(cfg2), "--method", "direct",
                 "--out", str(out)]) == 0

    ref = read_csv(full, value_shape=(2,))
    got = read_csv(out, value_shape=(2,))
    # the prescribed segment survives the CSV round trip bit for bit
    assert np.array_equal(got.values[:33], ref.values[:33])
    # the recomputed tail stays near the one-shot run
    assert np.abs(got.values[33:] - ref.values[33:]).max() < 5e-3


def test_generator_history_config(tmp_path):
    phi = GridFn(0.0, 0.5, 8, np.ones((9, 1)))
    write_csv(phi, tmp_path / "phi.csv")
    cfg = _write_config(
        tmp_path, b={"preset": "zero"},
        history={"generator": {"w0": [0.0], "phi_csv": "phi.csv"}},
    )
    out = tmp_path / "gen.csv"
    assert main(["solve", "--config", str(cfg), "--method", "direct",
                 "--out", str(out)]) == 0
    x = read_csv(out)
    assert x.values[32] == pytest.approx(0.5 ** 0.5 / gamma(1.5), rel=1e-14)


def test_samples_presets(tmp_path):
    t = np.linspace(0.0, 1.0, 5)
    Avals = t[:, None, None] * np.eye(2)
    write_csv(GridFn(0.0, 1.0, 4, Avals), tmp_path / "A.csv")
    bvals = np.stack([np.zeros_like(t), t], axis=1)
    write_csv(GridFn(0.0, 1.0, 4, bvals), tmp_path / "b.csv")
    cfg = _write_config(
        tmp_path, n=2,
        A={"preset": "samples", "path": "A.csv"},
        b={"preset": "samples", "path": "b.csv"},
        history={"w0": [1.0, 0.0]}, grid_N=32,
    )
    out = tmp_path / "s.csv"
    assert main(["solve", "--config", str(cfg), "--method", "direct",
                 "--out", str(out)]) == 0
    side = json.loads((tmp_path / "s.csv.meta.json").read_text())
    assert side["residual"] < 1e-10


@pytest.mark.parametrize("key", ["A", "b"])
def test_samples_short_of_the_window_rejected(tmp_path, capsys, key):
    # samples on [0, 0.5] for a problem on [0, 1] are not extrapolated
    t = np.linspace(0.0, 0.5, 9)
    vals = (1.0 + t).reshape(9, 1, 1) if key == "A" else (1.0 + t)[:, None]
    write_csv(GridFn(0.0, 0.5, 8, vals), tmp_path / "short.csv")
    cfg = _write_config(tmp_path, **{key: {"preset": "samples",
                                           "path": "short.csv"}})
    out = tmp_path / "o.csv"
    assert main(["solve", "--config", str(cfg), "--method", "direct",
                 "--out", str(out)]) == 2
    assert "[0.0, 0.5]" in capsys.readouterr().err
    assert not out.exists()


def _unit_density_run(tmp_path, theta, N):
    """w = t^alpha / Gamma(1 + alpha) and its Caputo density 1 on [0, theta]."""
    t = np.linspace(0.0, theta, N + 1)
    write_csv(GridFn(0.0, theta, N, t[:, None] ** 0.5 / gamma(1.5)),
              tmp_path / "w.csv")
    write_csv(GridFn(0.0, theta, N, np.ones((N + 1, 1))), tmp_path / "phi.csv")


@pytest.mark.parametrize("history", [
    {"w_star_csv": "w.csv", "t_star": 0.75},
    {"w_star_csv": "w.csv", "t_star": 0.3},
    {"generator": {"w0": [0.0], "phi_csv": "phi.csv"}, "t_star": 0.75},
], ids=["past-end-csv", "off-node-csv", "past-end-generator"])
def test_t_star_off_the_history_rejected(tmp_path, capsys, history):
    # the CSVs span [0, 0.5] in 32 steps: t_star 0.3 is no node of them
    _unit_density_run(tmp_path, 0.5, 32)
    cfg = _write_config(tmp_path, b={"preset": "zero"}, history=history)
    out = tmp_path / "o.csv"
    assert main(["solve", "--config", str(cfg), "--method", "direct",
                 "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "history.t_star" in err and "[0.0, 0.5]" in err
    assert not out.exists()


def test_segment_without_t_star_rejected(tmp_path, capsys):
    # cut at t0, the segment would shrink to its first row without a word
    _unit_density_run(tmp_path, 0.5, 32)
    cfg = _write_config(tmp_path, history={"w_star_csv": "w.csv",
                                           "caputo_csv": "phi.csv"})
    out = tmp_path / "o.csv"
    assert main(["solve", "--config", str(cfg), "--method", "direct",
                 "--out", str(out)]) == 2
    assert "history.t_star" in capsys.readouterr().err
    assert not out.exists()


def test_generator_cut_at_t_star(tmp_path):
    # a density on [0, 0.5] cut at t_star 0.25 gives the very bytes of a
    # density that stops at 0.25
    write_csv(GridFn(0.0, 0.5, 32, np.cos(np.linspace(0.0, 0.5, 33))[:, None]),
              tmp_path / "phi.csv")
    write_csv(GridFn(0.0, 0.25, 16, np.cos(np.linspace(0.0, 0.25, 17))[:, None]),
              tmp_path / "phi_short.csv")
    outs = []
    for name, history in [
            ("cut", {"generator": {"w0": [1.0], "phi_csv": "phi.csv"},
                     "t_star": 0.25}),
            ("short", {"generator": {"w0": [1.0], "phi_csv": "phi_short.csv"}})]:
        cfg = _write_config(tmp_path, name=f"{name}.json",
                            A={"preset": "constant", "matrix": [[-1.0]]},
                            history=history)
        outs.append(tmp_path / f"{name}.csv")
        assert main(["solve", "--config", str(cfg), "--method", "direct",
                     "--out", str(outs[-1])]) == 0
    assert outs[0].read_bytes() == outs[1].read_bytes()


def test_full_run_segment_and_density_cut_together(tmp_path):
    # both full-run CSVs are cut at t_star, so they still share one grid; with
    # b = 1 the solution goes on as w
    _unit_density_run(tmp_path, 1.0, 64)
    cfg = _write_config(tmp_path, history={
        "w_star_csv": "w.csv", "caputo_csv": "phi.csv", "t_star": 0.5})
    out = tmp_path / "o.csv"
    assert main(["solve", "--config", str(cfg), "--method", "direct",
                 "--out", str(out)]) == 0
    x = read_csv(out)
    np.testing.assert_allclose(x.values, x.t ** 0.5 / gamma(1.5),
                               rtol=0, atol=1e-12)


# ----------------------------------------------------------- fundamental


def test_fundamental_zero_coefficient(tmp_path):
    cfg = _write_config(tmp_path, grid_N=8)
    out = tmp_path / "field.csv"
    assert main(["fundamental", "--config", str(cfg), "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "t,s,F_11"
    assert len(lines) == 9 * 10 // 2 + 1
    vals = {float(line.split(",")[2]) for line in lines[1:]}
    assert vals == {1.0 / gamma(0.5)}
    side = json.loads((tmp_path / "field.csv.meta.json").read_text())
    assert side["alpha"] == 0.5 and side["method"] == "march"
    assert 0.0 <= side["factor_s"] <= side["march_s"]
    assert 0.0 <= side["solves_s"] <= side["march_s"]
    assert side["write_s"] >= 0.0 and side["write_procs"] >= 1
    assert side["csv_bytes"] == out.stat().st_size


def test_failed_field_export_exits_2(tmp_path, monkeypatch, capsys):
    # a forked child formats the rows from 24 on, and fails
    parent, format_rows = os.getpid(), gridfn._format_rows

    def failing(fh, rows, r0, r1, formats):
        if os.getpid() != parent:
            raise ValueError("formatting failed in the child")
        format_rows(fh, rows, r0, r1, formats)

    monkeypatch.setattr(gridfn, "_CSV_ROWS", 8)
    monkeypatch.setattr(gridfn, "_csv_procs", lambda nblocks: 2)
    monkeypatch.setattr(gridfn, "_format_rows", failing)
    cfg = _write_config(tmp_path, grid_N=8)
    out = tmp_path / "field.csv"
    assert main(["fundamental", "--config", str(cfg), "--out", str(out)]) == 2
    assert "formatting CSV rows 24..44 failed" in capsys.readouterr().err
    assert not out.exists()
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_fundamental_csv_is_repeatable(tmp_path):
    # two runs in one process write the same bytes
    cfg = _write_config(
        tmp_path, n=2,
        A={"preset": "cosine", "matrix": [[0.2, 1.0], [-1.0, 0.1]], "omega": 3.0},
        b={"preset": "zero"}, history={"w0": [1.0, 0.0]}, grid_N=32,
    )
    blobs = []
    for run in range(2):
        out = tmp_path / f"f{run}.csv"
        assert main(["fundamental", "--config", str(cfg), "--out", str(out)]) == 0
        blobs.append(out.read_bytes())
    assert blobs[0] == blobs[1]


def test_out_of_memory_is_a_numerical_error(tmp_path, monkeypatch, capsys):
    def exhausted(problem, grid):
        raise MemoryError

    monkeypatch.setattr(cli, "solve_F", exhausted)
    cfg = _write_config(tmp_path, grid_N=4096)
    out = tmp_path / "field.csv"
    assert main(["fundamental", "--config", str(cfg), "--out", str(out)]) == 3
    assert "grid_N = 4096" in capsys.readouterr().err
    assert not out.exists()


def test_non_finite_field_is_not_written(tmp_path, capsys):
    # F grows like E_{1/2}(15 t^{1/2}) and overflows long before theta = 5
    cfg = _write_config(tmp_path, theta=5.0,
                        A={"preset": "constant", "matrix": [[15.0]]},
                        grid_N=512)
    out = tmp_path / "field.csv"
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        rc = main(["fundamental", "--config", str(cfg), "--out", str(out)])
    assert rc == 3
    assert "grid_N = 512" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == [cfg]


# ---------------------------------------------------------------- verify


def test_verify_clean_problem(tmp_path):
    cfg = _write_config(tmp_path, b={"preset": "zero"},
                        history={"w0": [1.0]}, grid_N=128)
    report = tmp_path / "report.json"
    assert main(["verify", "--config", str(cfg), "--report", str(report)]) == 0
    doc = json.loads(report.read_text())
    assert doc["all_pass"] is True
    assert doc["grid_N"] == 128
    for rec in doc["checks"]:
        assert set(rec) == {"name", "residual", "threshold", "margin", "pass"}
        assert rec["pass"] is True
        assert rec["margin"] == rec["threshold"] - rec["residual"] >= 0.0
    env = doc["environment"]
    assert set(env) == {"python", "numpy", "mpmath"}
    assert env["python"] == ".".join(map(str, sys.version_info[:3]))
    assert env["numpy"] == np.__version__
    assert env["mpmath"] == mpmath.__version__
    by_name = {r["name"]: r for r in doc["checks"]}
    assert by_name["duality"]["residual"] <= 1e-12  # zero coefficient: exact


def test_verify_report_phases(tmp_path):
    cfg = _write_config(tmp_path, b={"preset": "zero"},
                        history={"w0": [1.0]}, grid_N=64)
    report = tmp_path / "report.json"
    assert main(["verify", "--config", str(cfg), "--report", str(report)]) == 0
    phases = json.loads(report.read_text())["phases"]
    assert list(phases) == ["special", "operators", "field", "dual",
                            "solutions", "restart"]
    for seconds in phases.values():
        assert math.isfinite(seconds) and seconds >= 0.0


def test_verify_runs_r_operator_once(tmp_path, monkeypatch):
    calls = []
    r_operator = checks.r_operator

    def counted(*args, **kwargs):
        calls.append(args)
        return r_operator(*args, **kwargs)

    monkeypatch.setattr(checks, "r_operator", counted)
    cfg = _write_config(tmp_path, grid_N=64)
    report = tmp_path / "report.json"
    assert main(["verify", "--config", str(cfg), "--report", str(report)]) == 0
    assert len(calls) == 1


# the config of the README's "Command line" section
README_CONFIG = {
    "alpha": 0.5, "t0": 0.0, "theta": 1.0, "n": 2,
    "A": {"preset": "cosine", "matrix": [[0, 1], [-1, 0]], "omega": 4.0},
    "b": {"preset": "constant", "vector": [0.0, 1.0]},
    "history": {"w0": [1.0, 0.0]}, "grid_N": 512,
}


def test_verify_marches_one_field(tmp_path, monkeypatch):
    calls = []
    march = fundamental._field_march

    def counted(*args):
        calls.append(args)
        return march(*args)

    monkeypatch.setattr(fundamental, "_field_march", counted)
    cfg = _write_config(tmp_path, **README_CONFIG)
    report = tmp_path / "report.json"
    assert main(["verify", "--config", str(cfg), "--report", str(report)]) == 0
    assert len(calls) == 1


def test_march_defect_fails_duality(monkeypatch):
    # a defect in the march itself, which a second (dual) march would share
    problem, N = cli.load_problem(README_CONFIG, ".")

    def duality():
        records, _ = checks.run_suite(problem, N)
        return {r["name"]: r for r in records}["duality"]

    assert duality()["pass"]  # measured 3.8e-4
    march = fundamental._field_march

    def scaled(*args):
        planes, phases = march(*args)
        planes[:, :, ~np.eye(planes.shape[-1], dtype=bool)] *= 1.03
        return planes, phases

    monkeypatch.setattr(fundamental, "_field_march", scaled)
    assert not duality()["pass"]  # measured 1.7e-2


def test_verify_fails_non_finite_solutions(tmp_path):
    # the field and every solution hold inf and NaN; no maximum may drop them
    cfg = _write_config(tmp_path, theta=5.0, b={"preset": "zero"},
                        A={"preset": "cosine", "matrix": [[15.0]],
                           "omega": 0.01},
                        history={"w0": [1.0]}, grid_N=512)
    report = tmp_path / "report.json"
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        rc = main(["verify", "--config", str(cfg), "--report", str(report)])
    assert rc == 1
    by_name = {r["name"]: r for r in json.loads(report.read_text())["checks"]}
    for name in ("method_equivalence", "duality", "bound_field_hoelder"):
        assert not by_name[name]["pass"]


def test_verify_roundtrip_is_scale_free(tmp_path):
    # a correct problem on a long window: the quadratic probe of the
    # round trip I^alpha D^alpha is scaled to the window
    cfg = _write_config(tmp_path, theta=5.0, b={"preset": "zero"},
                        history={"w0": [1.0]}, grid_N=512)
    report = tmp_path / "report.json"
    assert main(["verify", "--config", str(cfg), "--report", str(report)]) == 0
    by_name = {r["name"]: r for r in json.loads(report.read_text())["checks"]}
    # measured 4.44e-5, the residual of the same probe on [0, 1]
    assert by_name["op_roundtrip_quadratic"]["residual"] <= 1e-4


def _field_checks_reference(problem, field, apb):
    """field_checks as it was before its row-sum norms were summed column
    by column: every (N+1)(N+2)/2 matrix gathered, norms by axis sums."""
    def opnorm(mats):
        return np.abs(mats).sum(axis=-1).max(axis=-1)

    alpha, N, vals = problem.alpha, field.grid.N, field.values
    diag = vals[np.arange(N + 1), np.arange(N + 1)]
    out = [checks._record("field_diagonal", np.abs(
        diag - np.eye(problem.n) / gamma(alpha)).max(), 1e-12)]
    ii, jj = np.tril_indices(N + 1)
    out.append(checks._record("bound_field_norm", opnorm(vals[ii, jj]).max()
                              - checks.SLACK * apb.M_F, 0.0))
    pts = checks._lattice_points(N)
    near = []
    for k in range(0, N, max(1, N // 64)):
        near.append([k + 1, k])
        if k >= 1:
            near.append([k + 1, k - 1])
    pts = np.concatenate([pts, np.array(near)], axis=0)
    Fp = vals[pts[:, 0], pts[:, 1]]
    tp = field.grid.t[pts]
    worst = -np.inf
    for lo in range(0, len(pts), 256):
        sl = slice(lo, lo + 256)
        lhs = opnorm(Fp[sl, None] - Fp[None, :])
        sep = (np.abs(tp[sl, None, 0] - tp[None, :, 0]) ** alpha
               + np.abs(tp[sl, None, 1] - tp[None, :, 1]) ** alpha)
        allowed = np.full(sep.shape, np.inf)
        pos = sep > 0.0
        allowed[pos] = checks.SLACK * apb.H_F * sep[pos]
        worst = np.maximum(worst, (lhs - allowed).max())
    out.append(checks._record("bound_field_hoelder", worst, 0.0))
    return out


@pytest.mark.parametrize("N", [7, 64, 130])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_field_checks_match_reference(N, n):
    rng = np.random.default_rng(10 * N + n)
    A = fracfund.Coefficient.cosine(rng.uniform(-2.0, 2.0, (n, n)), 3.0)
    problem = fracfund.CauchyProblem.from_initial_value(
        0.6, 0.0, 1.0, A, fracfund.Forcing.zero(n), np.ones(n))
    field = fundamental.solve_F(problem, fundamental.TriangleGrid(0.0, 1.0, N))
    apb = fundamental.bounds(problem)
    assert checks.field_checks(problem, field, apb) == \
        _field_checks_reference(problem, field, apb)
    # a NaN inside the triangle fails the sup bound
    field.planes[n - 1, 0, N, N - 3] = np.nan
    got = checks.field_checks(problem, field, apb)
    assert got == _field_checks_reference(problem, field, apb)
    assert not got[1]["pass"]


def test_field_checks_memory():
    problem, N = cli.load_problem(README_CONFIG, ".")
    field = fundamental.solve_F(problem, fundamental.TriangleGrid(0.0, 1.0, N))
    apb = fundamental.bounds(problem)
    tracemalloc.start()
    try:
        checks.field_checks(problem, field, apb)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the gather of every matrix of the triangle peaked at 21.73 MB
    assert peak <= 21.7e6  # measured 14.6 MB


def test_ml_exp_identity_evaluates_the_series(monkeypatch):
    # a series that is off by 1e-8 relative must fail the exponential check
    series = special.mittag_leffler

    def wrong(params, Z):
        return series(params, Z) * (1.0 + 1e-8)

    for module in (special, checks):
        monkeypatch.setattr(module, "mittag_leffler", wrong)
    by_name = {r["name"]: r for r in checks.special_checks(0.5)}
    assert not by_name["ml_exp_identity"]["pass"]


def test_verify_generator_history_without_warnings(tmp_path):
    # the cauchy exponent pair (-alpha, alpha - 1) once made SciPy warn
    phi = GridFn(0.0, 0.5, 64, np.ones((65, 1)))
    write_csv(phi, tmp_path / "phi.csv")
    cfg = _write_config(
        tmp_path, alpha=0.55, b={"preset": "zero"}, grid_N=128,
        history={"generator": {"w0": [0.0], "phi_csv": "phi.csv"},
                 "t_star": 0.5},
    )
    report = tmp_path / "report.json"
    jacobi_rule_01.cache_clear()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["verify", "--config", str(cfg), "--report", str(report)])
    assert code == 0
    assert json.loads(report.read_text())["all_pass"] is True


def test_verify_reports_failures(tmp_path):
    # stiff configuration on a crude grid: several invariants must fail
    cfg = _write_config(tmp_path, n=2, A={"preset": "rotation", "scale": 8.0},
                        b={"preset": "zero"}, history={"w0": [1.0, 0.0]},
                        grid_N=8)
    report = tmp_path / "report.json"
    assert main(["verify", "--config", str(cfg), "--report", str(report)]) == 1
    doc = json.loads(report.read_text())
    assert doc["all_pass"] is False
    assert any(not r["pass"] for r in doc["checks"])


# ------------------------------------------------------------ import path


def _child_env():
    src = str(Path(fracfund.__file__).resolve().parents[1])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))


def _run_child(code, *args):
    return subprocess.run([sys.executable, "-c", code, *args],
                          capture_output=True, text=True, timeout=120,
                          env=_child_env())


def test_import_loads_no_scipy():
    proc = _run_child(
        "import sys\n"
        "def scipy_modules():\n"
        "    return sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')\n"
        "import fracfund\n"
        "print(scipy_modules())\n"
        "import fracfund.cli\n"
        "print(scipy_modules())\n")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split("\n")[:2] == ["[]", "[]"]


_NO_SCIPY = """
import importlib.abc, math, sys

class NoScipy(importlib.abc.MetaPathFinder):
    def find_spec(self, name, path=None, target=None):
        if name.split(".")[0] == "scipy":
            raise ModuleNotFoundError(f"no {name} in this process")
        return None

sys.meta_path.insert(0, NoScipy())
from fracfund.cli import main
cfg, out = sys.argv[1], sys.argv[2]
codes = [main(["fundamental", "--config", cfg, "--out", out + "/field.csv"])]
for method in ("direct", "repr-pc", "repr-gc", "repr-gc-compact"):
    codes.append(main(["solve", "--config", cfg, "--method", method,
                       "--out", f"{out}/{method}.csv"]))
codes.append(main(["verify", "--config", cfg, "--report", out + "/report.json"]))
from fracfund.oracle import QuadSpec, adaptive_quad
quad = adaptive_quad(QuadSpec(lambda u: u ** -0.45 * (1.0 - u) ** -0.55, (0.0, 1.0),
                              exponents=(-0.45, -0.55), tol=1e-13))
print(abs(float(quad) / (math.pi / math.sin(0.45 * math.pi)) - 1.0) < 1e-14)
print(codes)
"""


def test_field_and_solves_run_without_scipy(tmp_path):
    cfg = _write_config(tmp_path, n=2, A={"preset": "rotation"},
                        b={"preset": "constant", "vector": [1.0, 0.0]},
                        history={"w0": [1.0, 0.0]}, grid_N=128)
    proc = _run_child(_NO_SCIPY, str(cfg), str(tmp_path))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-2:] == ["True", "[0, 0, 0, 0, 0, 0]"]
    field = np.loadtxt(tmp_path / "field.csv", delimiter=",", skiprows=1)
    assert field.shape[0] == 129 * 130 // 2 and np.isfinite(field).all()
    for method in ("direct", "repr-pc", "repr-gc", "repr-gc-compact"):
        sol = read_csv(tmp_path / f"{method}.csv", value_shape=(2,))
        assert sol.N == 128 and np.isfinite(sol.values).all()
    assert json.loads((tmp_path / "report.json").read_text())["all_pass"] is True


# ---------------------------------------------------------- console script


def _console_script_target():
    """The `module:function` that pyproject.toml declares as `fracfund`."""
    text = (Path(__file__).resolve().parents[1] / "pyproject.toml").read_text()
    try:
        import tomllib
    except ModuleNotFoundError:  # Python 3.10: match the one-line entry
        section = text.split("[project.scripts]", 1)[1].split("\n[", 1)[0]
        found = re.search(r'^fracfund\s*=\s*"([^"]+)"', section, re.MULTILINE)
        assert found, "no fracfund entry under [project.scripts]"
        return found.group(1)
    return tomllib.loads(text)["project"]["scripts"]["fracfund"]


def test_console_script_runs():
    # Run the declared target the way pip's generated `fracfund` wrapper
    # does, in a fresh interpreter that imports the package under test.
    module, func = _console_script_target().split(":")
    wrapper = (f"import sys; from {module} import {func}; "
               f"sys.argv[0] = 'fracfund'; sys.exit({func}())")
    proc = _run_child(wrapper, "mlf", "--alpha", "1", "--z", "1")
    assert proc.returncode == 0
    assert proc.stdout.strip() == "2.71828182845905"
