"""Problem data classes: coefficient/forcing factories, history, validation."""

import numpy as np
import pytest

from fracfund import (
    CauchyProblem,
    Coefficient,
    Forcing,
    GridFn,
    History,
    ProblemSpecError,
    caputo_derivative,
    fractional_integral,
)


def test_constant_coefficient():
    A0 = np.array([[1.0, 2.0], [3.0, 4.0]])
    A = Coefficient.constant(A0)
    assert A.n == 2 and A.label == "constant"
    out = A.at(np.array([0.0, 1.0, 5.0]))
    assert out.shape == (3, 2, 2)
    assert np.all(out == A0)


def test_rotation_preset():
    A = Coefficient.rotation(scale=2.0)
    out = A.at(np.array([0.7]))[0]
    np.testing.assert_array_equal(out, [[0.0, 2.0], [-2.0, 0.0]])
    assert A.label == "rotation"


def test_cosine_coefficient():
    A0 = np.eye(2)
    A = Coefficient.cosine(A0, omega=4.0)
    t = np.array([0.0, 0.25])
    out = A.at(t)
    np.testing.assert_allclose(out, np.cos(4.0 * t)[:, None, None] * A0)


def test_coefficient_from_samples_interpolates():
    vals = np.zeros((3, 2, 2))
    vals[:, 0, 0] = [0.0, 1.0, 2.0]
    A = Coefficient.from_samples(GridFn(0.0, 1.0, 2, vals))
    assert A.at(np.array([0.25]))[0, 0, 0] == pytest.approx(0.5)


def test_coefficient_from_callable_scalar_fn():
    A = Coefficient.from_callable(2, lambda t: t * np.eye(2))
    out = A.at(np.array([0.5, 2.0]))
    np.testing.assert_allclose(out[1], 2.0 * np.eye(2))


def test_coefficient_rejects():
    with pytest.raises(ProblemSpecError):
        Coefficient.constant(np.zeros((2, 3)))
    with pytest.raises(ProblemSpecError):
        Coefficient.constant(np.zeros(2))
    with pytest.raises(ProblemSpecError):
        Coefficient.cosine(np.zeros(3), 1.0)
    with pytest.raises(ProblemSpecError):
        Coefficient.from_samples(GridFn(0.0, 1.0, 1, np.zeros((2, 3))))
    with pytest.raises(ProblemSpecError):
        Coefficient(0, lambda t: t)


def test_coefficient_shape_check_fires_on_eval():
    A = Coefficient(2, lambda t: np.zeros((t.size, 3, 3)))
    with pytest.raises(ProblemSpecError):
        A.at(np.array([0.0]))


def test_forcing_factories():
    b = Forcing.constant(np.array([1.0, -1.0]))
    np.testing.assert_array_equal(b.at(np.array([0.0, 9.0])), [[1.0, -1.0]] * 2)
    z = Forcing.zero(3)
    assert np.all(z.at(np.array([1.0])) == 0.0)
    c = Forcing.cosine(np.array([2.0]), omega=3.0)
    assert c.at(np.array([0.5]))[0, 0] == pytest.approx(2.0 * np.cos(1.5))


def test_forcing_rejects():
    with pytest.raises(ProblemSpecError):
        Forcing.constant(np.zeros((2, 2)))
    with pytest.raises(ProblemSpecError):
        Forcing.from_samples(GridFn(0.0, 1.0, 1, np.zeros((2, 2, 2))))


# ------------------------------------------------------------------ history


def test_history_point():
    hist = History.point(0.5, [1.0, 2.0])
    assert hist.t_star == 0.5
    assert hist.n == 2
    assert hist.w_star.N == 0
    np.testing.assert_array_equal(hist.caputo_w.values, [[0.0, 0.0]])


def test_history_from_generator_fixes_derivative():
    # segment w0 + I^alpha(phi) stores phi as its Caputo derivative verbatim
    alpha = 0.5
    t = np.linspace(0.0, 0.5, 9)
    phi = GridFn(0.0, 0.5, 8, np.stack([np.cos(t), t], axis=1))
    hist = History.from_generator(alpha, [1.0, 0.0], phi)
    got = hist.caputo_samples(alpha)
    assert got is phi
    want = fractional_integral(phi, alpha).values + np.array([1.0, 0.0])
    np.testing.assert_array_equal(hist.w_star.values, want)


def test_history_caputo_fallback_is_l1():
    t = np.linspace(0.0, 1.0, 5)
    seg = GridFn(0.0, 1.0, 4, (2.0 * t)[:, None])
    hist = History.from_samples(seg)
    got = hist.caputo_samples(0.5)
    want = caputo_derivative(seg, 0.5)
    np.testing.assert_array_equal(got.values, want.values)


def test_history_caputo_fallback_needs_nodes():
    seg = GridFn(0.0, 0.0, 0, np.array([[1.0]]))
    hist = History.from_samples(seg)
    with pytest.raises(ProblemSpecError):
        hist.caputo_samples(0.5)


def test_history_rejects_mismatched_caputo_grid():
    seg = GridFn(0.0, 1.0, 4, np.zeros((5, 2)))
    off = GridFn(0.0, 1.0, 2, np.zeros((3, 2)))
    with pytest.raises(ProblemSpecError):
        History.from_samples(seg, off)


def test_history_rejects_matrix_segment():
    with pytest.raises(ProblemSpecError):
        History.from_samples(GridFn(0.0, 1.0, 1, np.zeros((2, 2, 2))))


def test_history_generator_dimension_guard():
    phi = GridFn(0.0, 1.0, 2, np.zeros((3, 2)))
    with pytest.raises(ProblemSpecError):
        History.from_generator(0.5, [1.0, 2.0, 3.0], phi)


# ------------------------------------------------------------------ problem


def _valid_problem(**kw):
    args = dict(
        alpha=0.5,
        t0=0.0,
        theta=1.0,
        A=Coefficient.rotation(),
        b=Forcing.zero(2),
        history=History.point(0.0, [1.0, 0.0]),
    )
    args.update(kw)
    return CauchyProblem(**args)


def test_problem_accessors():
    p = _valid_problem()
    assert p.n == 2
    assert p.t_star == 0.0
    np.testing.assert_array_equal(p.w0, [1.0, 0.0])


def test_from_initial_value():
    p = CauchyProblem.from_initial_value(
        0.6, 0.0, 2.0, Coefficient.zero(1), Forcing.zero(1), [3.0]
    )
    assert p.t_star == 0.0
    assert p.w0[0] == 3.0


def test_problem_validation():
    with pytest.raises(ProblemSpecError):
        _valid_problem(alpha=1.0)
    with pytest.raises(ProblemSpecError):
        _valid_problem(theta=0.0)
    with pytest.raises(ProblemSpecError):
        _valid_problem(b=Forcing.zero(3))
    with pytest.raises(ProblemSpecError):
        _valid_problem(history=History.point(0.5, [1.0, 0.0]))  # starts past t0
    with pytest.raises(ProblemSpecError):
        # t_star must stay strictly below theta
        seg = GridFn(0.0, 1.0, 4, np.zeros((5, 2)))
        _valid_problem(history=History.from_samples(seg))


def test_problem_rejects_overflowing_span():
    # both ends are finite, theta - t0 is not
    with pytest.raises(ProblemSpecError):
        _valid_problem(t0=-1e308, theta=1e308,
                       history=History.point(-1e308, [1.0, 0.0]))


def test_problem_with_interior_segment():
    seg = GridFn(0.0, 0.5, 4, np.ones((5, 2)))
    p = _valid_problem(history=History.from_samples(seg))
    assert p.t_star == 0.5
