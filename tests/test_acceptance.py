"""End-to-end acceptance gates.

Each test pins one library-level contract at its stated tolerance on the
configurations the package documents: constant and time-varying coefficients,
collapsed and interior start segments, the operator identities, the a-priori
bound suite, the special-function reductions, and the degenerate cases.
"""

import math

import numpy as np
import pytest

from fracfund import (
    CauchyProblem,
    Coefficient,
    Forcing,
    GridFn,
    History,
    MLParams,
    TriangleGrid,
    b_star,
    bounds,
    caputo_derivative,
    fractional_integral,
    gamma,
    gc_compact_identity_residual,
    j_operator,
    mittag_leffler,
    psi_star,
    r_operator,
    represent_gc,
    represent_gc_compact,
    represent_pc,
    solve_F,
    solve_G_dual,
    solve_direct,
)
from fracfund.checks import all_pass, field_checks, operator_bound_checks
from fracfund.oracle import constant_coeff_F

ROT = np.array([[0.0, 1.0], [-1.0, 0.0]])


def _col0_error(field, A0, alpha):
    h = field.grid.h
    N = field.grid.N
    return max(
        np.abs(field.at(i, 0) - constant_coeff_F(A0, alpha, i * h)).max()
        for i in range(1, N + 1)
    )


@pytest.fixture(scope="module")
def rotation_problem():
    return CauchyProblem.from_initial_value(
        0.5, 0.0, 1.0, Coefficient.constant(ROT), Forcing.zero(2), [1.0, 0.0]
    )


@pytest.fixture(scope="module")
def rotation_field_1024(rotation_problem):
    return solve_F(rotation_problem, TriangleGrid(0.0, 1.0, 1024))


@pytest.fixture(scope="module")
def cosine_problem():
    A = Coefficient.cosine(ROT, 4.0)
    b = Forcing.from_callable(2, lambda t: np.array([np.sin(t), 1.0]))
    return CauchyProblem.from_initial_value(0.5, 0.0, 1.0, A, b, [1.0, 0.0])


@pytest.fixture(scope="module")
def cosine_field_512(cosine_problem):
    return solve_F(cosine_problem, TriangleGrid(0.0, 1.0, 512))


@pytest.fixture(scope="module")
def direct_512(cosine_problem):
    return solve_direct(cosine_problem, 512)


@pytest.fixture(scope="module")
def restart_problem(cosine_problem, direct_512):
    hist = History.from_samples(direct_512.x.prefix(205 / 512))
    return CauchyProblem(0.5, 0.0, 1.0, cosine_problem.A, cosine_problem.b, hist)


# 1. constant-coefficient field matches the special-function solution, at a
#    practical wall time, and tightens under refinement


def test_constant_field_accuracy(rotation_field_1024):
    err = _col0_error(rotation_field_1024, ROT, 0.5)
    assert err <= 5e-3  # measured 2.4e-4
    assert rotation_field_1024.meta["wall_time"] <= 60.0


def test_constant_field_refinement(rotation_problem, rotation_field_1024):
    err_1024 = _col0_error(rotation_field_1024, ROT, 0.5)
    F2 = solve_F(rotation_problem, TriangleGrid(0.0, 1.0, 2048))
    err_2048 = _col0_error(F2, ROT, 0.5)
    assert err_1024 / err_2048 >= 1.3  # measured 2.0


# 2. left and right marches produce the same field


def test_duality(cosine_problem, cosine_field_512):
    G = solve_G_dual(cosine_problem, TriangleGrid(0.0, 1.0, 512))
    dev = np.nanmax(np.abs(cosine_field_512.values - G.values))
    assert dev <= 5e-3  # measured 3.0e-4


# 3. representation formula vs the direct march, collapsed segment


def test_representation_collapsed(cosine_problem, cosine_field_512, direct_512):
    pc = represent_pc(cosine_problem, cosine_field_512)
    assert np.abs(pc.x.values - direct_512.x.values).max() <= 5e-3  # 1.4e-3


# 4. representation formula vs the direct march from an interior segment,
#    improving under refinement


def test_representation_restart(restart_problem, cosine_field_512, direct_512):
    k0 = 205
    gc = represent_gc(restart_problem, cosine_field_512)
    err_512 = np.abs(gc.x.values[k0:] - direct_512.x.values[k0:]).max()
    assert err_512 <= 1e-2  # measured 1.1e-3

    N2 = 1024
    ref2 = solve_direct(restart_problem, N2)
    fld2 = solve_F(restart_problem, TriangleGrid(0.0, 1.0, N2))
    gc2 = represent_gc(restart_problem, fld2)
    err_1024 = np.abs(gc2.x.values[2 * k0:] - ref2.x.values[2 * k0:]).max()
    assert err_1024 < err_512  # measured 5.6e-4 vs 1.1e-3


# 5. the compact form agrees with the subtracted form, and the integral
#    identity behind it holds on the grid


def test_compact_form(restart_problem, cosine_field_512):
    k0 = 205
    gc = represent_gc(restart_problem, cosine_field_512)
    cp = represent_gc_compact(restart_problem, cosine_field_512)
    assert np.abs(cp.x.values[k0:] - gc.x.values[k0:]).max() <= 5e-3  # 3.4e-4

    M = 512 - k0
    ks = sorted({max(1, M // 64), M // 16, M // 8, M // 4,
                 3 * M // 8, M // 2, 3 * M // 4, M})
    resid = np.max(gc_compact_identity_residual(restart_problem,
                                                cosine_field_512, ks))
    assert resid <= 5e-3  # measured 7.8e-4


# 6. operator identities on the grid


@pytest.mark.parametrize("alpha", [0.3, 0.5, 0.7])
def test_derivative_inverts_integral(alpha):
    N, a, b = 512, 0.0, 1.0
    t = np.linspace(a, b, N + 1)
    phi = GridFn(a, b, N, (t - a) ** 2)
    back = caputo_derivative(fractional_integral(phi, alpha), alpha)
    assert np.abs(back.values - phi.values).max() <= 1e-3  # measured 4.4e-5


def test_transfer_identity():
    alpha, N = 0.5, 512
    t = np.linspace(0.0, 1.0, N + 1)
    phi = GridFn(0.0, 1.0, N, np.cos(3.0 * t))
    lhs = j_operator(phi, alpha)
    inner = GridFn(0.0, 1.0, N, phi.values + r_operator(phi, alpha).values)
    rhs = fractional_integral(inner, alpha)
    assert np.abs(lhs.values - rhs.values).max() <= 1e-4  # measured 1.7e-7


# 7. a-priori bounds hold with 5% slack on every acceptance configuration


def test_bound_suite(rotation_problem, cosine_problem, restart_problem,
                     cosine_field_512, rotation_field_1024):
    records = []
    for prob, field in ((rotation_problem, rotation_field_1024),
                        (cosine_problem, cosine_field_512),
                        (restart_problem, cosine_field_512)):
        N = field.grid.N
        records += operator_bound_checks(prob, min(N, 512))
        records += field_checks(prob, field, bounds(prob))
    assert all_pass(records), [r for r in records if not r["pass"]]


# 8. special-function reductions


def test_series_reduces_to_exp():
    # exercised through the series path: 1x1 matrix, no scalar shortcut
    params = MLParams(1.0, 1.0)
    for x in np.linspace(-5.0, 5.0, 101):
        got = mittag_leffler(params, np.array([[x]]))[0, 0]
        assert abs(got - math.exp(x)) <= 1e-10 * max(1.0, math.exp(x))


def test_series_at_zero():
    pairs = [(a, b) for a in (0.3, 0.5, 0.7, 1.0) for b in (0.5, 1.0, 1.7)]
    assert len(pairs) == 12
    for a, b in pairs:
        got = mittag_leffler(MLParams(a, b), np.zeros((2, 2)))
        np.testing.assert_allclose(got, np.eye(2) / gamma(b), atol=1e-13)


# 9. degenerate contracts


def test_zero_coefficient_field_is_diagonal():
    p = CauchyProblem.from_initial_value(
        0.5, 0.0, 1.0, Coefficient.zero(2), Forcing.zero(2), [1.0, 0.0]
    )
    F = solve_F(p, TriangleGrid(0.0, 1.0, 64))
    ii, jj = np.tril_indices(65)
    dev = np.abs(F.values[ii, jj] - np.eye(2) / gamma(0.5)).max()
    assert dev <= 1e-12  # exact


def test_flat_history_keeps_forcing():
    seg = GridFn(0.0, 0.5, 64, np.full((65, 2), 2.5))
    hist = History.from_samples(seg, GridFn(0.0, 0.5, 64, np.zeros((65, 2))))
    b = Forcing.cosine(np.array([1.0, -1.0]), omega=3.0)
    p = CauchyProblem(0.5, 0.0, 1.0, Coefficient.zero(2), b, hist)
    target = GridFn(0.5, 1.0, 32, np.zeros((33, 2)))
    psi = psi_star(hist.caputo_samples(0.5), 0.5, target)
    bs = b_star(p, psi)
    assert np.abs(bs.values - b.at(target.t)).max() <= 1e-12  # exact


def test_collapsed_segment_csv_identical(cosine_problem, tmp_path):
    field = solve_F(cosine_problem, TriangleGrid(0.0, 1.0, 128))
    pc = represent_pc(cosine_problem, field)
    gc = represent_gc(cosine_problem, field)
    p1, p2 = tmp_path / "pc.csv", tmp_path / "gc.csv"
    pc.write_csv(p1)
    gc.write_csv(p2)
    assert p1.read_bytes() == p2.read_bytes()
