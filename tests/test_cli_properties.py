"""Exit codes over generated configs: a well-formed config exits 0 with finite
output on every command, and one corrupted field exits 2 with a message and
no output."""

import contextlib
import io
import json
import math
import os
import tempfile

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from fracfund.cli import main  # noqa: E402

COMMANDS = [["fundamental"]] + [["solve", "--method", m] for m in
                                ("direct", "repr-pc", "repr-gc",
                                 "repr-gc-compact")]



def _fixed(examples):
    """The same examples on every run, and no example database."""
    return settings(derandomize=True, database=None, deadline=None,
                    max_examples=examples)

ENTRY = st.floats(-10.0, 10.0, allow_nan=False)


def _entries(draw, shape):
    return np.array(draw(st.lists(ENTRY, min_size=math.prod(shape),
                                  max_size=math.prod(shape)))).reshape(shape).tolist()


@st.composite
def node_function(draw, n, key):
    presets = ["zero", "constant", "cosine"]
    if key == "matrix" and n == 2:
        presets.append("rotation")
    preset = draw(st.sampled_from(presets))
    shape = (n, n) if key == "matrix" else (n,)
    if preset == "zero":
        return {"preset": "zero"}
    if preset == "rotation":
        return {"preset": "rotation", "scale": draw(ENTRY)}
    spec = {"preset": preset, key: _entries(draw, shape)}
    if preset == "cosine":
        spec["omega"] = draw(ENTRY)
    return spec


@st.composite
def config(draw):
    n = draw(st.integers(1, 3))
    t0 = draw(st.floats(-5.0, 5.0))
    return {
        "alpha": draw(st.floats(0.05, 0.95)),
        "t0": t0,
        "theta": t0 + draw(st.floats(0.1, 5.0)),
        "n": n,
        "A": draw(node_function(n, "matrix")),
        "b": draw(node_function(n, "vector")),
        "history": {"w0": _entries(draw, (n,))},
        "grid_N": draw(st.integers(8, 24)),
    }


def _run(cfg, command):
    """Exit code, stderr, the files left beside the config, and the output
    CSV's numbers (None unless the command exited 0)."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "cfg.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(cfg, fh)
        out = os.path.join(tmp, "out.csv")
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = main([*command, "--config", path, "--out", out])
        values = (np.loadtxt(out, delimiter=",", skiprows=1, ndmin=2)
                  if code == 0 else None)
        return code, err.getvalue(), sorted(os.listdir(tmp)), values


@_fixed(100)
@given(config())
def test_well_formed_config_exits_0_with_finite_output(cfg):
    for command in COMMANDS:
        code, err, files, values = _run(cfg, command)
        assert code == 0, (command, err)
        assert np.isfinite(values).all(), command


def _corrupt(draw, cfg):
    n = cfg["n"]
    field = draw(st.sampled_from(["A", "b", "w0"]))
    kind = draw(st.sampled_from(
        ["shape", "junk", "preset", "missing", "nonfinite"]))
    key = {"A": "matrix", "b": "vector", "w0": None}[field]
    shape = (n, n) if field == "A" else (n,)
    good = np.zeros(shape)
    if kind == "shape":
        value = np.zeros(shape[:-1] + (n + 1,)).tolist()
    elif kind == "junk":
        value = draw(st.sampled_from(["junk", {}, None, True, [["x"]]]))
    elif kind == "nonfinite":
        flat = good.reshape(-1)
        flat[draw(st.integers(0, flat.size - 1))] = draw(
            st.sampled_from([math.nan, math.inf, -math.inf]))
        value = good.tolist()
    if field == "w0":
        if kind == "preset":
            cfg["history"] = {"w00": good.tolist()}
        elif kind == "missing":
            cfg["history"] = {"w_star_csv": "missing.csv", "t_star": cfg["t0"]}
        else:
            cfg["history"] = {"w0": value}
    elif kind == "preset":
        cfg[field] = {"preset": draw(st.sampled_from(
            ["bogus", "Zero", "" if field == "A" else "rotation"]))}
    elif kind == "missing":
        cfg[field] = {"preset": "samples", "path": "missing.csv"}
    else:
        cfg[field] = {"preset": draw(st.sampled_from(["constant", "cosine"])),
                      key: value}
    return cfg


@_fixed(100)
@given(st.data())
def test_corrupted_config_exits_2_and_writes_nothing(data):
    cfg = _corrupt(data.draw, data.draw(config()))
    for command in COMMANDS:
        code, err, files, _ = _run(cfg, command)
        assert code == 2, (command, cfg)
        assert "fracfund: error:" in err
        assert files == ["cfg.json"]
