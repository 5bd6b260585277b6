"""Grid container: construction rules, sampling, prefixing, CSV round trips."""

import numpy as np
import pytest

from fracfund import DomainError, GridFn, GridMismatchError, read_csv, write_csv


def test_basic_properties():
    g = GridFn(0.0, 2.0, 4, np.arange(5.0))
    assert g.h == 0.5
    np.testing.assert_array_equal(g.t, [0.0, 0.5, 1.0, 1.5, 2.0])
    assert g.value_shape == ()
    assert g.components == 1


def test_matrix_values():
    vals = np.zeros((3, 2, 2))
    g = GridFn(0.0, 1.0, 2, vals)
    assert g.value_shape == (2, 2)
    assert g.components == 4


def test_construction_rejects():
    with pytest.raises(GridMismatchError):
        GridFn(0.0, 1.0, 4, np.zeros(4))  # one node short
    with pytest.raises(DomainError):
        GridFn(1.0, 0.0, 4, np.zeros(5))
    with pytest.raises(DomainError):
        GridFn(0.0, 1.0, 0, np.zeros(1))  # N = 0 needs a == b
    with pytest.raises(DomainError):
        GridFn(0.0, 1.0, -1, np.zeros(0))


def test_sample_linear_between_nodes():
    g = GridFn(0.0, 1.0, 2, np.array([0.0, 1.0, 0.0]))
    assert g.sample(0.25) == pytest.approx(0.5)
    assert g.sample(0.75) == pytest.approx(0.5)
    np.testing.assert_allclose(g.sample(np.array([0.0, 0.5, 1.0])), [0.0, 1.0, 0.0])


def test_sample_vector_values():
    vals = np.array([[0.0, 1.0], [2.0, 3.0]])
    g = GridFn(0.0, 1.0, 1, vals)
    out = g.sample(np.array([0.5]))
    np.testing.assert_allclose(out, [[1.0, 2.0]])


def test_sample_degenerate_broadcasts():
    g = GridFn(1.0, 1.0, 0, np.array([[3.0, 4.0]]))
    out = g.sample(np.array([1.0, 1.0, 1.0]))
    assert out.shape == (3, 2)
    assert np.all(out == [3.0, 4.0])


def test_sample_outside_the_interval_raises():
    g = GridFn(0.0, 1.0, 4, np.arange(5.0))
    with pytest.raises(DomainError, match=r"\[0.0, 1.0\]"):
        g.sample(np.array([0.5, 1.0 + g.h / 2]))
    with pytest.raises(DomainError):
        g.sample(-g.h / 2)
    assert g.sample(1.0) == 4.0
    np.testing.assert_array_equal(g.sample(np.linspace(0.0, 1.0, 5)), g.values)
    # a point that misses the end by a rounding error is still inside
    assert g.sample(1.0 + 1e-15) == pytest.approx(4.0)


def test_prefix_cuts_on_node():
    g = GridFn(0.0, 1.0, 4, np.arange(5.0))
    p = g.prefix(0.5)
    assert p.N == 2
    assert p.b == 0.5
    np.testing.assert_array_equal(p.values, [0.0, 1.0, 2.0])
    # prefix owns its data
    p.values[0] = 99.0
    assert g.values[0] == 0.0


def test_prefix_to_base_point():
    g = GridFn(0.0, 1.0, 4, np.arange(5.0))
    p = g.prefix(0.0)
    assert p.N == 0 and p.a == p.b == 0.0


def test_prefix_off_node_rejected():
    g = GridFn(0.0, 1.0, 4, np.arange(5.0))
    with pytest.raises(GridMismatchError):
        g.prefix(0.3)


def test_csv_roundtrip_exact(tmp_path):
    rng = np.random.default_rng(7)
    vals = rng.standard_normal((9, 2))
    vals[2, 0], vals[4, 1] = -0.0, 5e-324
    g = GridFn(0.25, 1.75, 8, vals)
    path = tmp_path / "vec.csv"
    write_csv(g, path)
    want = "t,v_1,v_2\n" + "".join(
        ",".join("%.17g" % v for v in (ti, *row)) + "\n"
        for ti, row in zip(g.t, vals))
    assert path.read_bytes() == want.encode("ascii")
    back = read_csv(path)
    assert back.N == 8 and back.a == 0.25 and back.b == 1.75
    np.testing.assert_array_equal(back.values, vals)  # bit-exact via 17 digits


def test_csv_label_controls_header(tmp_path):
    g = GridFn(0.0, 1.0, 1, np.zeros((2, 2)))
    p1 = tmp_path / "x.csv"
    g.to_csv(p1, label="x")
    assert p1.read_text().splitlines()[0] == "t,x_1,x_2"
    p2 = tmp_path / "v.csv"
    g.to_csv(p2)
    assert p2.read_text().splitlines()[0] == "t,v_1,v_2"


def test_csv_matrix_shape_roundtrip(tmp_path):
    vals = np.arange(12.0).reshape(3, 2, 2)
    g = GridFn(0.0, 1.0, 2, vals)
    path = tmp_path / "mat.csv"
    write_csv(g, path)
    back = read_csv(path, value_shape=(2, 2))
    np.testing.assert_array_equal(back.values, vals)
    with pytest.raises(DomainError):
        read_csv(path, value_shape=(3,))


def test_csv_rejects_foreign_header(tmp_path):
    p = tmp_path / "bad.csv"
    p.write_text("time,u\n0,1\n")
    with pytest.raises(DomainError):
        read_csv(p)


def test_csv_rejects_nonuniform(tmp_path):
    p = tmp_path / "warp.csv"
    p.write_text("t,v_1\n0.0,1.0\n0.1,1.0\n0.3,1.0\n")
    with pytest.raises(GridMismatchError):
        read_csv(p)


def test_csv_ragged_row(tmp_path):
    p = tmp_path / "ragged.csv"
    p.write_text("t,v_1,v_2\n0.0,1.0,2.0\n1.0,1.0\n")
    with pytest.raises(DomainError):
        read_csv(p)
