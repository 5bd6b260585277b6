"""Operator family: fractional integrals, Caputo L1, kernel profile, R and J."""

import math
import warnings

import mpmath
import numpy as np
import pytest

from fracfund import (
    CauchyProblem,
    Coefficient,
    DomainError,
    Forcing,
    GridFn,
    GridMismatchError,
    History,
    TriangleGrid,
    caputo_derivative,
    fractional_integral,
    gamma,
    j_operator,
    kernel_K,
    op_constants,
    r_operator,
    represent_gc,
    solve_F,
)
from fracfund.operators import _kernel_profile, beta_sym
from fracfund.oracle import QuadSpec, adaptive_quad
from fracfund.quadrules import (
    first_interval_moments,
    hat_moment_tables,
    jacobi_rule_01,
    left_moment_weights,
    left_moments_at,
)

# mpmath, 30 digits
OP_CONSTANTS_QUARTER = {
    "H_I": 2.206525302641674,
    "M_R": 0.9003163161571061,
    "M_J": 1.900316316157106,
    "H_J": 4.193096034623469,
}

# profile endpoint E(1) = alpha*pi/sin(alpha*pi), frozen per order
KERNEL_E1 = {
    0.3: 1.16496662323528,
    0.5: 1.5707963267948966,
    0.7: 2.7182554542156527,
}

# limit E(0+) = 1/(1-alpha)
KERNEL_E0 = {0.3: 1.4285714285714286, 0.5: 2.0, 0.7: 3.3333333333333335}


def _grid(a, b, N, fn):
    t = np.linspace(a, b, N + 1)
    return GridFn(a, b, N, fn(t))


# ---------------------------------------------------------------- constants


def test_op_constants_frozen():
    oc = op_constants(0.25)
    for name, want in OP_CONSTANTS_QUARTER.items():
        assert getattr(oc, name) == pytest.approx(want, rel=1e-12)


def test_op_constants_relations():
    oc = op_constants(0.37)
    assert oc.M_J == 1.0 + oc.M_R
    assert oc.H_J == oc.M_J * oc.H_I
    assert oc.H_I == pytest.approx(2.0 / gamma(1.37), rel=1e-14)


@pytest.mark.parametrize("bad", [0.0, 1.0, -0.2, 1.5])
def test_op_constants_rejects_order(bad):
    with pytest.raises(DomainError):
        op_constants(bad)


def test_beta_sym_half_is_pi():
    assert beta_sym(0.5) == pytest.approx(math.pi, rel=1e-12)


# ------------------------------------------------------------------- kernel


@pytest.mark.parametrize("alpha", [0.3, 0.5, 0.7])
def test_kernel_profile_endpoint(alpha):
    got = _kernel_profile(np.array([1.0]), alpha)[0]
    assert got == pytest.approx(KERNEL_E1[alpha], rel=1e-12)


@pytest.mark.parametrize("alpha", [0.3, 0.5, 0.7])
def test_kernel_profile_zero_limit(alpha):
    # E(s) -> 1/(1-alpha) with an O(s^(1-alpha)) defect
    for s in (1e-5, 1e-7):
        got = _kernel_profile(np.array([s]), alpha)[0]
        assert abs(got - KERNEL_E0[alpha]) <= 3.0 * s ** (1.0 - alpha)


@pytest.mark.parametrize("alpha", [0.25, 0.5, 0.75])
def test_kernel_profile_vs_mpmath(alpha):
    # both hypergeometric forms of E at 30 digits: the Pfaff form
    # 2F1(a, 1-a; 2; 1-s) and s^(-a) 2F1(a, 1+a; 2; 1-1/s)
    with mpmath.workdps(30):
        a = mpmath.mpf(alpha)
        pref = a * mpmath.pi / mpmath.sin(a * mpmath.pi)
        for s in (1e-12, 1e-6, 0.0199, 0.02, 0.05, 0.5, 1.0):
            got = _kernel_profile(np.array([s]), alpha)[0]
            sm = mpmath.mpf(s)
            pfaff = pref * mpmath.hyp2f1(a, 1 - a, 2, 1 - sm)
            euler = pref * sm ** (-a) * mpmath.hyp2f1(a, 1 + a, 2, 1 - 1 / sm)
            for want in (pfaff, euler):
                assert abs(got - want) <= 1e-13 * abs(want), (s, got, want)


@pytest.mark.parametrize("alpha", [0.05, 0.3, 0.5, 0.77, 0.95])
def test_kernel_profile_series_vs_mpmath(alpha):
    # a log grid over [1e-12, 1] and the seam of the two series at s = 1/2
    s = np.concatenate([np.logspace(-12.0, 0.0, 49),
                        [0.5 - 1e-12, 0.5, 0.5 + 1e-12]])
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        got = _kernel_profile(s, alpha)
    with mpmath.workdps(30):
        a = mpmath.mpf(alpha)
        pref = a * mpmath.pi / mpmath.sin(a * mpmath.pi)
        want = [pref * mpmath.hyp2f1(a, 1 - a, 2, 1 - mpmath.mpf(x)) for x in s]
    for x, g, w in zip(s, got, want):
        assert abs(g - w) <= 1e-14 * abs(w), (x, g, w)


@pytest.mark.parametrize("tau", [0.5, 0.01])
def test_kernel_vs_adaptive_quad(tau):
    alpha = 0.5
    xi = 1.0
    s = tau / xi

    def integrand(eta):
        return eta ** alpha * (1.0 - eta) ** (-alpha) * (s + eta * (1.0 - s)) ** (-alpha)

    ref = adaptive_quad(
        QuadSpec(integrand, (0.0, 1.0), exponents=(alpha, -alpha), tol=1e-12)
    )
    want = tau ** (alpha - 1.0) * xi ** (-alpha) * float(ref)
    assert kernel_K(xi, tau, alpha) == pytest.approx(want, abs=1e-10)


def test_kernel_scale_invariance():
    alpha = 0.4
    base = kernel_K(1.0, 0.3, alpha)
    for c in (3.7, 0.05):
        assert kernel_K(c * 1.0, c * 0.3, alpha) == pytest.approx(base / c, rel=1e-13)


def test_kernel_domain():
    with pytest.raises(DomainError):
        kernel_K(1.0, 1.0, 0.5)
    with pytest.raises(DomainError):
        kernel_K(1.0, 0.0, 0.5)
    with pytest.raises(DomainError):
        kernel_K(0.0, -0.5, 0.5)


# ------------------------------------------------- fractional integral / L1


def test_fractional_integral_affine_exact():
    a, b, N, alpha = 0.5, 1.5, 37, 0.3
    phi = _grid(a, b, N, lambda t: 2.0 + 3.0 * (t - a))
    out = fractional_integral(phi, alpha)
    t = np.linspace(a, b, N + 1)
    want = (
        2.0 * (t - a) ** alpha / gamma(alpha + 1.0)
        + 3.0 * (t - a) ** (alpha + 1.0) / gamma(alpha + 2.0)
    )
    np.testing.assert_allclose(out.values, want, atol=1e-13)


def test_fractional_integral_right_constant():
    a, b, N, alpha = 0.0, 2.0, 25, 0.6
    phi = _grid(a, b, N, lambda t: np.ones_like(t))
    out = fractional_integral(phi, alpha, side="right")
    t = np.linspace(a, b, N + 1)
    want = (b - t) ** alpha / gamma(alpha + 1.0)
    np.testing.assert_allclose(out.values, want, atol=1e-13)


def test_fractional_integral_degenerate():
    phi = GridFn(1.0, 1.0, 0, np.array([[4.0, 5.0]]))
    out = fractional_integral(phi, 0.5)
    assert np.all(out.values == 0.0)


def test_fractional_integral_rejects():
    phi = _grid(0.0, 1.0, 4, lambda t: t)
    with pytest.raises(DomainError):
        fractional_integral(phi, 1.0)
    with pytest.raises(DomainError):
        fractional_integral(phi, 0.5, side="up")


def test_caputo_affine_exact():
    a, b, N, alpha = 0.0, 1.0, 41, 0.45
    x = _grid(a, b, N, lambda t: -1.0 + 2.5 * t)
    out = caputo_derivative(x, alpha)
    t = np.linspace(a, b, N + 1)
    want = 2.5 * t ** (1.0 - alpha) / gamma(2.0 - alpha)
    np.testing.assert_allclose(out.values[1:], want[1:], atol=1e-12)
    # node 0 carries the first computed value
    assert out.values[0] == out.values[1]


@pytest.mark.parametrize("N", [1, 2, 7, 300])
def test_caputo_matches_row_loop(N):
    # reference: the L1 sum as one dot product per target row
    alpha, a, b = 0.45, 0.2, 1.7
    t = np.linspace(a, b, N + 1)
    flat = np.stack([np.sin(3.0 * t), t ** 2, np.exp(-t), t * np.cos(t)], 1)
    got = caputo_derivative(GridFn(a, b, N, flat.reshape(N + 1, 2, 2)), alpha)
    dx = np.diff(flat, axis=0)
    g = np.diff(np.arange(N + 1, dtype=float) ** (1.0 - alpha))
    scale = ((b - a) / N) ** (-alpha) / gamma(2.0 - alpha)
    want = np.empty_like(flat)
    for k in range(1, N + 1):
        want[k] = scale * (g[k - 1::-1] @ dx[:k])
    want[0] = want[1]
    got = got.values.reshape(N + 1, 4)
    assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()


def test_caputo_kills_constants():
    x = _grid(0.0, 1.0, 16, lambda t: 7.0 * np.ones_like(t))
    out = caputo_derivative(x, 0.5)
    np.testing.assert_allclose(out.values, 0.0, atol=1e-14)


def test_caputo_needs_two_nodes():
    x = GridFn(0.0, 0.0, 0, np.array([1.0]))
    with pytest.raises(GridMismatchError):
        caputo_derivative(x, 0.5)


def test_caputo_vector_shape():
    a, b, N = 0.0, 1.0, 8
    t = np.linspace(a, b, N + 1)
    vals = np.stack([t, 1.0 - t], axis=1)
    out = caputo_derivative(GridFn(a, b, N, vals), 0.5)
    assert out.values.shape == (N + 1, 2)


# ------------------------------------------------------------------ R and J


def test_r_constant_is_flat():
    # scale invariance makes R of a constant the same number at every node
    alpha = 0.5
    phi = _grid(0.25, 1.25, 64, lambda t: np.ones_like(t))
    out = r_operator(phi, alpha)
    want = math.pi / 2.0 - 1.0
    np.testing.assert_allclose(out.values, want, atol=5e-13)


def test_r_degenerate_right_limit():
    alpha = 0.6
    phi = GridFn(0.3, 0.3, 0, np.array([2.0]))
    out = r_operator(phi, alpha)
    want = (alpha * beta_sym(alpha) - 1.0) * 2.0
    assert out.values[0] == pytest.approx(want, rel=1e-14)


def test_r_vector_shape():
    a, b, N = 0.0, 1.0, 12
    t = np.linspace(a, b, N + 1)
    vals = np.stack([np.cos(t), np.sin(t)], axis=1)
    out = r_operator(GridFn(a, b, N, vals), 0.4)
    assert out.values.shape == (N + 1, 2)


def _r_operator_rows(phi, alpha):
    """The R operator row by row, sampling phi at every quadrature node: the
    reference for the blocked weight build, left side."""
    N = phi.N
    c_alpha = (1.0 - alpha) * math.sin(alpha * math.pi) / math.pi
    gl_u, gl_w = jacobi_rule_01(8, 0.0, 0.0)
    tail_u, tail_w = jacobi_rule_01(4, alpha - 1.0, 0.0)
    sm_u, sm_w = jacobi_rule_01(10, 0.0, 0.0)
    out = np.empty_like(phi.values)
    out[0] = (alpha * beta_sym(alpha) - 1.0) * phi.values[0]
    for k in range(1, N + 1):
        us, ws = [], []
        upper = 1.0 / k
        for _ in range(20):
            lower = upper / 2.0
            uu = lower + (upper - lower) * gl_u
            us.append(uu)
            ws.append(gl_w * (upper - lower) * uu ** (alpha - 1.0))
            upper = lower
        us.append(upper * tail_u)
        ws.append(tail_w * upper ** alpha)
        if k > 1:
            j = np.arange(1, k, dtype=float)[:, None]
            uu = (j + sm_u[None, :]) / k
            us.append(uu.ravel())
            ws.append((sm_w[None, :] / k * uu ** (alpha - 1.0)).ravel())
        u_all = np.concatenate(us)
        w_all = np.concatenate(ws) * _kernel_profile(u_all, alpha)
        samples = phi.sample(phi.a + (k * phi.h) * u_all)
        out[k] = c_alpha * np.tensordot(w_all, samples, axes=(0, 0))
    return GridFn(phi.a, phi.b, N, out)


@pytest.mark.parametrize("N", [1, 2, 3, 17, 64, 130, 512])
@pytest.mark.parametrize("alpha", [0.05, 0.25, 0.5, 0.75, 0.95])
def test_r_operator_matches_row_loop(N, alpha):
    a, b = 0.2, 1.7
    t = np.linspace(a, b, N + 1)
    for vals in (np.cos(3.0 * t), np.stack([np.cos(3.0 * t), t * np.exp(t)], 1)):
        phi = GridFn(a, b, N, vals)
        for side in ("left", "right"):
            if side == "left":
                want = _r_operator_rows(phi, alpha).values
            else:
                want = _r_operator_rows(GridFn(a, b, N, vals[::-1]), alpha).values[::-1]
            got = r_operator(phi, alpha, side).values
            assert got.shape == want.shape
            assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()


def test_j_constant_closed_form():
    alpha, a, b, N = 0.35, 0.0, 1.0, 48
    phi = _grid(a, b, N, lambda t: np.ones_like(t))
    out = j_operator(phi, alpha)
    t = np.linspace(a, b, N + 1)
    want = t ** alpha * gamma(alpha) / gamma(2.0 * alpha)
    np.testing.assert_allclose(out.values, want, atol=1e-10)


def test_j_anchor_zero():
    phi = _grid(0.0, 1.0, 16, lambda t: np.cos(t))
    assert j_operator(phi, 0.5).values[0] == 0.0
    assert j_operator(phi, 0.5, side="right").values[-1] == 0.0


@pytest.mark.parametrize("alpha", [0.25, 0.6])
def test_j_transfer_identity(alpha):
    # J phi = I^alpha (phi + R phi) up to the two schemes' discretization error
    N = 256
    phi = _grid(0.0, 1.0, N, lambda t: np.cos(3.0 * t))
    lhs = j_operator(phi, alpha)
    inner = GridFn(0.0, 1.0, N, phi.values + r_operator(phi, alpha).values)
    rhs = fractional_integral(inner, alpha)
    assert np.abs(lhs.values - rhs.values).max() < 1e-5


# ------------------------------------------------------------ weight tables


def test_left_moment_weights_row_sums():
    alpha, N, h = 0.5, 20, 0.05
    W = left_moment_weights(alpha, N, h)
    k = np.arange(1, N + 1)
    want = (k * h) ** alpha / alpha
    np.testing.assert_allclose(W[1:].sum(axis=1), want, rtol=1e-12)
    assert np.all(W[0] == 0.0)
    assert np.all(np.triu(W, 1) == 0.0)


def test_left_moments_at_matches_table():
    alpha, N, h = 0.35, 12, 0.1
    W = left_moment_weights(alpha, N, h)
    for k in (1, 5, 12):
        nodes = h * np.arange(k + 1)
        w = left_moments_at(alpha, nodes, nodes[-1])
        np.testing.assert_allclose(w, W[k, : k + 1], rtol=1e-12, atol=1e-15)


def test_hypersingular_tail_vs_quad():
    alpha = 0.5
    nodes = np.linspace(0.0, 0.5, 11)
    t = 0.7
    w = left_moments_at(-alpha, nodes, t)
    got = w @ nodes  # affine data, exact for the weights

    ref = adaptive_quad(
        QuadSpec(lambda x: x * (t - x) ** (-1.0 - alpha), (0.0, 0.5), tol=1e-12)
    )
    assert got == pytest.approx(float(ref), abs=1e-10)


def test_hat_tables_partition_of_unity():
    alpha = 0.3
    tables = hat_moment_tables(8, alpha - 1.0, alpha - 1.0)
    want = beta_sym(alpha)  # hats sum to one, so rows sum to the full moment
    for k in range(1, 9):
        assert tables[k].sum() == pytest.approx(want, rel=1e-10)


@pytest.mark.parametrize("N, M", [(40, 17), (64, 63)])
@pytest.mark.parametrize("alpha, eL, eR", [(0.35, -0.35, -0.65),
                                           (0.6, -0.4, -0.4)])
def test_table_rows_do_not_depend_on_table_size(N, M, alpha, eL, eR):
    # one table at the grid's N serves every M <= N, bit for bit
    big, small = hat_moment_tables(N, eL, eR), hat_moment_tables(M, eL, eR)
    assert np.array_equal(big[:M + 1, :M + 1], small)
    for b, s in zip(first_interval_moments(N, eL, eR),
                    first_interval_moments(M, eL, eR)):
        assert np.array_equal(b[:M + 1], s)
    h = 1.0 / N
    assert np.array_equal(left_moment_weights(alpha, N, h)[:M + 1, :M + 1],
                          left_moment_weights(alpha, M, h))


# the row-by-row builders the dense tables replaced, kept as references


def _reference_first_subinterval(k, eL, eR):
    if k == 1:
        v, base = jacobi_rule_01(32, eL, eR)
    else:
        v, wv = jacobi_rule_01(32, eL, 0.0)
        base = wv * (1.0 - v / k) ** eR * k ** (-1.0 - eL)
    return np.sum(base * (1.0 - v)), np.sum(base * v)


def _reference_hat_row(k, eL, eR):
    omega = np.zeros(k + 1)
    omega[0], omega[1] = _reference_first_subinterval(k, eL, eR)
    if k == 1:
        return omega
    v, wv = jacobi_rule_01(32, eR, 0.0)
    u_last = 1.0 - v / k
    base = wv * u_last ** eL * k ** (-1.0 - eR)
    omega[k - 1] += np.sum(base * v)
    omega[k] += np.sum(base * (1.0 - v))
    if k > 2:
        s, ws = jacobi_rule_01(16, 0.0, 0.0)
        m = np.arange(1, k - 1)[:, None]
        u_mid = (m + s[None, :]) / k
        f = ws[None, :] * u_mid ** eL * (1.0 - u_mid) ** eR / k
        omega[1:k - 1] += np.sum(f * (1.0 - s[None, :]), axis=1)
        omega[2:k] += np.sum(f * s[None, :], axis=1)
    return omega


def _reference_left_weights(alpha, N, h):
    W = np.zeros((N + 1, N + 1))
    ap1 = alpha + 1.0
    for k in range(1, N + 1):
        d = np.arange(k, 0, -1, dtype=float)
        sig_a = (d * h) ** alpha
        sig_b = ((d - 1.0) * h) ** alpha
        m0 = (sig_a - sig_b) / alpha
        m1 = (d * h) * m0 - ((d * h) ** ap1 - ((d - 1.0) * h) ** ap1) / ap1
        W[k, :k] += m0 - m1 / h
        W[k, 1:k + 1] += m1 / h
    return W


def _reference_left_at(alpha, nodes, t):
    w = np.zeros(len(nodes))
    if len(nodes) < 2:
        return w
    h = nodes[1] - nodes[0]
    sig_a, sig_b = t - nodes[:-1], t - nodes[1:]
    ap1 = alpha + 1.0
    m0 = (sig_a ** alpha - sig_b ** alpha) / alpha
    m1 = sig_a * m0 - (sig_a ** ap1 - sig_b ** ap1) / ap1
    w[:-1] += m0 - m1 / h
    w[1:] += m1 / h
    return w


def _reference_tail(alpha, nodes, t):
    w = np.zeros(len(nodes))
    if len(nodes) < 2:
        return w
    h = nodes[1] - nodes[0]
    sig_a, sig_b = t - nodes[:-1], t - nodes[1:]
    m0 = (sig_b ** (-alpha) - sig_a ** (-alpha)) / alpha
    inner = (sig_a ** (1.0 - alpha) - sig_b ** (1.0 - alpha)) / (1.0 - alpha)
    m1 = sig_a * m0 - inner
    w[:-1] += m0 - m1 / h
    w[1:] += m1 / h
    return w


@pytest.mark.parametrize("N", [1, 2, 3, 64, 300])
@pytest.mark.parametrize("alpha", [0.25, 0.5, 0.75])
def test_weight_tables_match_row_builders(N, alpha):
    for eL, eR in ((alpha - 1.0, alpha - 1.0), (-alpha, alpha - 1.0)):
        T = hat_moment_tables(N, eL, eR)
        sig0, sig1 = first_interval_moments(N, eL, eR)
        assert T.shape == (N + 1, N + 1)
        assert np.all(np.triu(T, 1) == 0.0) and np.all(T[0] == 0.0)
        assert np.array_equal(T[:, 0], sig0)
        for k in range(1, N + 1):
            np.testing.assert_allclose(T[k, :k + 1], _reference_hat_row(k, eL, eR),
                                       rtol=1e-14, atol=0.0)
            np.testing.assert_allclose(
                (sig0[k], sig1[k]), _reference_first_subinterval(k, eL, eR),
                rtol=1e-14, atol=0.0)
    h = 0.7 / N
    assert np.array_equal(left_moment_weights(alpha, N, h),
                          _reference_left_weights(alpha, N, h))
    nodes = 0.1 + h * np.arange(N + 1)
    targets = nodes[-1] + h * np.array([0.3, 1.0, 2.5, 17.0])
    block_at = left_moments_at(alpha, nodes, targets)
    block_tail = left_moments_at(-alpha, nodes, targets)
    for i, t in enumerate(targets):
        for got in (left_moments_at(alpha, nodes, t), block_at[i]):
            assert np.array_equal(got, _reference_left_at(alpha, nodes, t))
        for got in (left_moments_at(-alpha, nodes, t), block_tail[i]):
            assert np.array_equal(got, _reference_tail(alpha, nodes, t))
    assert np.array_equal(left_moments_at(alpha, nodes, nodes[-1]),
                          _reference_left_at(alpha, nodes, nodes[-1]))


@pytest.mark.parametrize("N", [1, 2, 3, 64, 300])
@pytest.mark.parametrize("alpha", [0.25, 0.5, 0.75])
def test_j_operator_matches_row_loop(N, alpha):
    t = np.linspace(0.2, 1.3, N + 1)
    phi = GridFn(0.2, 1.3, N, np.stack([np.cos(3.0 * t), t ** 2], axis=1))
    rows = [_reference_hat_row(k, alpha - 1.0, alpha - 1.0) for k in range(1, N + 1)]
    want = np.zeros_like(phi.values)
    for k in range(1, N + 1):
        want[k] = ((k * phi.h) ** alpha / gamma(alpha)) * (rows[k - 1] @ phi.values[:k + 1])
    got = j_operator(phi, alpha).values
    assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()


def test_cached_weight_tables_are_read_only():
    W = left_moment_weights(0.5, 8, 0.125)
    with pytest.raises(ValueError):
        W[1, 0] = 1.0
    with pytest.raises(ValueError):
        hat_moment_tables(8, -0.5, -0.5)[3][0] = 1.0
    with pytest.raises(ValueError):
        first_interval_moments(8, -0.5, -0.5)[0][1] = 1.0


@pytest.mark.parametrize("alpha", [0.25, 0.3, 0.55])
def test_jacobi_rule_with_exponent_sum_minus_one_is_silent(alpha):
    # the cauchy exponent pair (-alpha, alpha - 1), built past the cache;
    # beta_1 of the recurrence is 0/0 there unless written cancelled
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        u, w = jacobi_rule_01.__wrapped__(32, -alpha, alpha - 1.0)
    assert np.all(np.isfinite(u)) and np.all(np.isfinite(w))
    assert w.sum() == pytest.approx(math.gamma(1.0 - alpha) * math.gamma(alpha), rel=1e-13)


def test_restarts_share_one_table_per_grid():
    A = Coefficient.rotation()
    b = Forcing.constant([1.0, 0.0])
    N = 64
    p = CauchyProblem.from_initial_value(0.5, 0.0, 1.0, A, b, [1.0, 0.0])
    fld = solve_F(p, TriangleGrid(0.0, 1.0, N))
    hat_moment_tables.cache_clear()
    first_interval_moments.cache_clear()
    for k0 in (20, 40):
        t = np.linspace(0.0, k0 / N, k0 + 1)
        seg = GridFn(0.0, k0 / N, k0, np.stack([np.cos(t), t], axis=1))
        represent_gc(CauchyProblem(0.5, 0.0, 1.0, A, b,
                                   History.from_samples(seg)), fld)
    assert hat_moment_tables.cache_info().misses == 1
    assert first_interval_moments.cache_info().misses == 1
