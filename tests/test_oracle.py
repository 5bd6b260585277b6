"""Reference-side tools: adaptive quadrature, constant-coefficient field,
order estimation, arbitrary-precision pins."""

import math

import mpmath
import numpy as np
import pytest

from fracfund import (
    CauchyProblem,
    Coefficient,
    DomainError,
    Forcing,
    ToleranceNotMetError,
    TriangleGrid,
    gamma,
    ml_scalar,
    mittag_leffler,
    MLParams,
    solve_F,
)
from fracfund.oracle import (
    QuadSpec,
    adaptive_quad,
    constant_coeff_F,
    convergence_order,
    _panel_rule,
    gamma_reference,
    ml_reference,
)


def test_quad_left_singularity():
    spec = QuadSpec(lambda x: x ** -0.5, (0.0, 1.0), exponents=(-0.5, 0.0), tol=1e-13)
    assert float(adaptive_quad(spec)) == pytest.approx(2.0, abs=1e-12)


def test_quad_beta_integral():
    spec = QuadSpec(
        lambda x: x ** 0.5 * (1.0 - x) ** -0.5,
        (0.0, 1.0),
        exponents=(0.5, -0.5),
        tol=1e-13,
    )
    assert float(adaptive_quad(spec)) == pytest.approx(math.pi / 2.0, abs=1e-12)


@pytest.mark.parametrize("n", [16, 32])
@pytest.mark.parametrize("e_lo, e_hi", [(0.0, 0.0), (-0.5, 0.0), (0.0, -0.7),
                                        (-0.45, -0.55), (0.3, -0.95)])
def test_panel_rule_exact_for_polynomials(n, e_lo, e_hi):
    # the weight is (1+x)^e_lo (1-x)^e_hi on [-1, 1], so (1+x)^k integrates
    # to 2^(e_lo+e_hi+k+1) B(e_lo+k+1, e_hi+1) for every k < 2n
    x, w = _panel_rule(n, e_lo, e_hi)
    for k in range(2 * n):
        with mpmath.workdps(30):
            exact = float(mpmath.mpf(2) ** (e_lo + e_hi + k + 1)
                          * mpmath.beta(e_lo + k + 1, e_hi + 1))
        assert np.dot(w, (1.0 + x) ** k) == pytest.approx(exact, rel=1e-13)


@pytest.mark.parametrize("alpha", [0.3, 0.45, 0.55])
def test_quad_representation_kernel(alpha):
    # u^(-alpha) (1-u)^(alpha-1): the exponents sum to -1
    spec = QuadSpec(lambda u: u ** -alpha * (1.0 - u) ** (alpha - 1.0), (0.0, 1.0),
                    exponents=(-alpha, alpha - 1.0), tol=1e-13)
    exact = math.pi / math.sin(math.pi * alpha)
    assert float(adaptive_quad(spec)) == pytest.approx(exact, rel=1e-14)


def test_quad_polynomial_exact():
    spec = QuadSpec(lambda x: 3.0 * x ** 2 - 2.0 * x + 1.0, (0.0, 1.0), tol=1e-12)
    assert float(adaptive_quad(spec)) == pytest.approx(1.0, abs=1e-13)


def test_quad_vector_integrand():
    spec = QuadSpec(lambda x: np.array([x, x ** 2]), (0.0, 1.0), tol=1e-12)
    np.testing.assert_allclose(adaptive_quad(spec), [0.5, 1.0 / 3.0], atol=1e-12)


def test_quad_budget_exhaustion():
    # tolerance below roundoff: the panel budget must end in a clean error
    spec = QuadSpec(lambda x: math.sin(x), (0.0, 1.0), tol=1e-30)
    with pytest.raises(ToleranceNotMetError):
        adaptive_quad(spec)


def test_quad_spec_validation():
    with pytest.raises(DomainError):
        adaptive_quad(QuadSpec(lambda x: x, (1.0, 0.0)))
    with pytest.raises(DomainError):
        adaptive_quad(QuadSpec(lambda x: x, (0.0, 1.0), exponents=(-1.0, 0.0)))


# -------------------------------------------------- constant-coefficient F


def test_constant_F_at_zero_gap():
    A0 = np.array([[0.0, 1.0], [-1.0, 0.0]])
    out = constant_coeff_F(A0, 0.5, 0.0)
    np.testing.assert_allclose(out, np.eye(2) / gamma(0.5), atol=1e-15)


def test_constant_F_zero_matrix():
    out = constant_coeff_F(np.zeros((2, 2)), 0.4, 0.7)
    np.testing.assert_allclose(out, np.eye(2) / gamma(0.4), atol=1e-15)


def test_constant_F_order_one_is_expm():
    A0 = np.array([[0.1, 1.0], [-1.0, 0.2]])
    dt = 0.8
    out = constant_coeff_F(A0, 1.0, dt)
    expm = np.array(mpmath.expm(mpmath.matrix(dt * A0)).tolist(), dtype=float)
    np.testing.assert_allclose(out, expm, atol=1e-10)


def test_constant_F_rejects():
    with pytest.raises(DomainError):
        constant_coeff_F(np.zeros((2, 3)), 0.5, 1.0)
    with pytest.raises(DomainError):
        constant_coeff_F(np.zeros((2, 2)), 0.5, -1.0)


# --------------------------------------------------------- order estimation


def test_convergence_order_exact_halving():
    order = convergence_order({64: 1e-2, 128: 5e-3, 256: 2.5e-3})
    assert order == pytest.approx(1.0, abs=1e-12)


def test_convergence_order_sqrt():
    order = convergence_order([(64, 0.125), (256, 0.0625)])
    assert order == pytest.approx(0.5, abs=1e-12)


def test_convergence_order_rejects():
    with pytest.raises(DomainError):
        convergence_order({64: 1e-2})
    with pytest.raises(DomainError):
        convergence_order({64: 1e-2, 128: 0.0})
    with pytest.raises(DomainError):
        convergence_order([(64, 1e-2), (64, 1e-2)])


def test_field_march_first_order():
    # measured error slope vs the constant-coefficient reference
    A0 = np.array([[0.0, 1.0], [-1.0, 0.0]])
    p = CauchyProblem.from_initial_value(
        0.5, 0.0, 1.0, Coefficient.rotation(), Forcing.zero(2), [1.0, 0.0]
    )
    errs = {}
    for N in (64, 128, 256):
        F = solve_F(p, TriangleGrid(0.0, 1.0, N))
        h = 1.0 / N
        errs[N] = max(
            np.abs(F.at(i, 0) - constant_coeff_F(A0, 0.5, i * h)).max()
            for i in range(1, N + 1)
        )
    order = convergence_order(errs)
    assert 0.7 < order < 1.3


# ------------------------------------------------------- high-precision pins


def test_ml_reference_agrees_with_series():
    for a, b, z in [(0.5, 0.5, 1.0), (0.7, 1.0, -2.5), (0.9, 0.9, 3.0)]:
        ref = ml_reference(a, b, z)
        got = ml_scalar(a, z, beta=b)
        assert got == pytest.approx(ref, rel=1e-12)


@pytest.mark.parametrize("x", [6.0, 15.0, 20.0])
def test_ml_reference_negative_half_order(x):
    # E_{1/2}(-x) = erfcx(x) and E_{1/2,1/2}(-x) = 1/sqrt(pi) - x erfcx(x);
    # the second loses digits in doubles, so both sides come from mpmath
    with mpmath.workdps(60):
        erfcx = mpmath.exp(mpmath.mpf(x) ** 2) * mpmath.erfc(x)
        half_half = 1 / mpmath.sqrt(mpmath.pi) - x * erfcx
    assert ml_reference(0.5, 1.0, -x) == pytest.approx(float(erfcx), rel=1e-13)
    assert ml_reference(0.5, 0.5, -x) == pytest.approx(float(half_half), rel=1e-13)


def test_ml_reference_matrix_consistency():
    Z = np.array([[0.3, 0.1], [0.0, 0.2]])
    out = mittag_leffler(MLParams(0.6, 0.8), Z)
    # triangular argument: diagonal entries are scalar evaluations
    assert out[0, 0] == pytest.approx(ml_reference(0.6, 0.8, 0.3), rel=1e-12)
    assert out[1, 1] == pytest.approx(ml_reference(0.6, 0.8, 0.2), rel=1e-12)


def test_gamma_reference_pins_gamma():
    for x in (0.5, 1.0, 4.37, 170.5):
        assert gamma(x) == pytest.approx(gamma_reference(x), rel=1e-12)
