"""Fundamental field solvers: march, fixed point, dual march, a-priori bounds."""

import math
import multiprocessing
import os
import re
import tempfile
import time
import tracemalloc
import warnings

import numpy as np
import pytest

from fracfund import (
    CauchyProblem,
    Coefficient,
    DomainError,
    Forcing,
    GridMismatchError,
    NonConvergenceError,
    SingularSystemError,
    TriangleGrid,
    bounds,
    gamma,
    solve_F,
    solve_F_picard,
    solve_G_dual,
    z_value,
)
from fracfund import fundamental, gridfn, quadrules
from fracfund.cauchy import restart_grid
from fracfund.fundamental import (FundamentalField, _factor, _field_weights,
                                  _march, _substitute, dual_residual)
from fracfund.operators import op_constants
from fracfund.oracle import constant_coeff_F
from fracfund.problem import History
from fracfund.quadrules import hat_moment_tables, hat_table_rows


def _ivp(A, n=2, alpha=0.5, theta=1.0, w0=None):
    if w0 is None:
        w0 = np.zeros(n)
        w0[0] = 1.0
    return CauchyProblem.from_initial_value(alpha, 0.0, theta, A, Forcing.zero(n), w0)


def test_triangle_grid():
    g = TriangleGrid(0.0, 2.0, 4)
    assert g.h == 0.5
    np.testing.assert_array_equal(g.t, [0.0, 0.5, 1.0, 1.5, 2.0])
    with pytest.raises(DomainError):
        TriangleGrid(1.0, 1.0, 4)
    with pytest.raises(DomainError):
        TriangleGrid(0.0, 1.0, 0)


def test_zero_coefficient_all_routes_exact():
    # with A = 0 every route reduces to the diagonal value identically
    p = _ivp(Coefficient.zero(2), alpha=0.35)
    g = TriangleGrid(0.0, 1.0, 24)
    diag = np.eye(2) / gamma(0.35)
    for F in (solve_F(p, g), solve_G_dual(p, g), solve_F_picard(p, g)):
        ii, jj = np.tril_indices(25)
        assert np.array_equal(F.values[ii, jj], np.broadcast_to(diag, (ii.size, 2, 2)))


def _upper_is_zero(values):
    # exactly +0.0 above the diagonal: the causal extension F(t, s) = 0, s > t
    upper = values[np.triu_indices(values.shape[0], 1)]
    return np.all(upper == 0.0) and not np.signbit(upper).any()


def test_diagonal_and_mask():
    p = _ivp(Coefficient.cosine(np.array([[0.0, 1.0], [-1.0, 0.0]]), 4.0))
    g = TriangleGrid(0.0, 1.0, 16)
    diag = np.eye(2) / gamma(0.5)
    for F in (solve_F(p, g), solve_G_dual(p, g), solve_F_picard(p, g)):
        for i in range(17):
            np.testing.assert_array_equal(F.at(i, i), diag)
        assert _upper_is_zero(F.values)


def test_diagonal_is_the_identity_over_gamma():
    # Id / Gamma(alpha) to the last bit, with Gamma from the standard library
    p = _ivp(Coefficient.rotation(), alpha=0.3)
    F = solve_F(p, TriangleGrid(0.0, 1.0, 16))
    diag = np.eye(2) / math.gamma(0.3)
    for i in range(17):
        assert np.array_equal(F.at(i, i), diag)


def test_at_and_z_value_guards():
    p = _ivp(Coefficient.zero(1), n=1)
    F = solve_F(p, TriangleGrid(0.0, 1.0, 8))
    with pytest.raises(DomainError):
        F.at(2, 5)
    with pytest.raises(DomainError):
        z_value(F, 3, 3)
    # A = 0 makes the normalized value Id/(gamma(alpha) dt^(1-alpha))
    got = z_value(F, 6, 2)[0, 0]
    assert got == pytest.approx(1.0 / (gamma(0.5) * 0.5 ** 0.5), rel=1e-14)


def test_constant_scalar_matches_ml_oracle():
    lam, alpha, N = 0.8, 0.6, 256
    p = _ivp(Coefficient.constant([[lam]]), n=1, alpha=alpha)
    g = TriangleGrid(0.0, 1.0, N)
    F = solve_F(p, g)
    A0 = np.array([[lam]])
    dev = max(
        abs(F.at(i, 0)[0, 0] - constant_coeff_F(A0, alpha, i * g.h)[0, 0])
        for i in range(N + 1)
    )
    assert dev < 2e-3  # measured 6.0e-4


def test_march_vs_picard():
    p = _ivp(Coefficient.rotation())
    g = TriangleGrid(0.0, 1.0, 96)
    Fm = solve_F(p, g)
    Fp = solve_F_picard(p, g, tol=1e-12)
    assert np.nanmax(np.abs(Fm.values - Fp.values)) < 1e-7  # measured 6.7e-9
    assert Fp.meta["iterations"] > 1
    assert Fp.meta["update_norm"] <= 1e-12
    # every route stores component planes; values is a view of them
    assert all(np.shares_memory(f.values, f.planes)
               for f in (Fm, Fp, solve_G_dual(p, g)))


def test_duality_cross_check():
    # left and right discretizations of the same field agree to scheme error
    A = Coefficient.cosine(np.array([[0.0, 1.0], [-1.0, 0.0]]), 4.0)
    p = _ivp(A)
    g = TriangleGrid(0.0, 1.0, 128)
    F = solve_F(p, g)
    G = solve_G_dual(p, g)
    assert np.nanmax(np.abs(F.values - G.values)) < 5e-3  # measured 1.2e-3


def test_dual_residual_checks_its_columns():
    # the dual march solves the dual equation, so its residual is rounding;
    # column -1 would wrap to the last node's diagonal and read 0.0, so it is
    # refused with the columns past N and an empty list
    p = _ivp(Coefficient.cosine(np.array([[0.0, 1.0], [-1.0, 0.0]]), 4.0))
    G = solve_G_dual(p, TriangleGrid(0.0, 1.0, 16))
    assert dual_residual(p, G, [0, 8, 16]) < 1e-14
    for columns in ([-1], [4, 17], []):
        with pytest.raises(DomainError, match=re.escape(
                f"need columns in 0..16, got {columns}")):
            dual_residual(p, G, columns)


def test_march_is_repeatable():
    # two runs in one process give the same bytes (the last bits may still
    # depend on the BLAS thread count, which is fixed within a process)
    A = Coefficient.cosine(np.array([[0.2, 1.0], [-1.0, 0.1]]), 3.0)
    p = _ivp(A)
    g = TriangleGrid(0.0, 1.0, 200)
    for solve in (solve_F, solve_G_dual):
        first, second = solve(p, g).planes, solve(p, g).planes
        assert first.tobytes() == second.tobytes()


def _reference_F(problem, grid):
    # the unblocked march: one GEMV over the whole history per step, with
    # the small systems solved as the march solves them, so that only the
    # summation order differs
    alpha, N, h, n = problem.alpha, grid.N, grid.h, problem.n
    Anodes = problem.A.at(grid.t)
    tables = hat_moment_tables(N, alpha - 1.0, alpha - 1.0)
    eye = np.eye(n)
    diag = eye / gamma(alpha)
    ck = (np.arange(N + 1) * h) ** alpha / gamma(alpha)
    values = np.zeros((N + 1, N + 1, n, n))
    values[np.arange(N + 1), np.arange(N + 1)] = diag
    AF = np.empty((N + 1, N + 1, n, n))
    AF[0] = Anodes / gamma(alpha)
    for k in range(1, N + 1):
        w, cols = tables[k], np.arange(N + 1 - k)
        rhs = diag + ck[k] * np.einsum(
            "m,mjab->jab", w[:k], AF[:k, :N + 1 - k], optimize=False)
        Fk = _solve_small(eye - (ck[k] * w[k]) * Anodes[k:], rhs)
        values[cols + k, cols] = Fk
        AF[k, :N + 1 - k] = Anodes[k:] @ Fk
    return values


def _reference_G(problem, grid):
    # the backward march in the second argument, systems solved from the right
    alpha, N, h, n = problem.alpha, grid.N, grid.h, problem.n
    Anodes = problem.A.at(grid.t)
    tables = hat_moment_tables(N, alpha - 1.0, alpha - 1.0)
    eye = np.eye(n)
    diag = eye / gamma(alpha)
    ck = (np.arange(N + 1) * h) ** alpha / gamma(alpha)
    values = np.zeros((N + 1, N + 1, n, n))
    values[np.arange(N + 1), np.arange(N + 1)] = diag
    GA = np.empty((N + 1, N + 1, n, n))  # GA[m, i] = G(t_i, t_{i-m}) A(t_{i-m})
    GA[0] = diag @ Anodes
    for k in range(1, N + 1):
        w, rows = tables[k], np.arange(k, N + 1)
        rhs = diag + ck[k] * np.einsum(
            "m,miab->iab", w[k:0:-1], GA[:k, k:], optimize=False)
        sys = eye - (ck[k] * w[0]) * Anodes[:N + 1 - k]
        Gk = _solve_small(sys.transpose(0, 2, 1),
                          rhs.transpose(0, 2, 1)).transpose(0, 2, 1)
        values[rows, rows - k] = Gk
        GA[k, k:] = Gk @ Anodes[:N + 1 - k]
    return values


def _drifting(n):
    # time-varying, non-symmetric and not a scalar multiple of one matrix,
    # so the mirror and the transpose of the dual march both matter
    A0 = np.array([[0.2, 1.0], [-1.3, 0.1]])[:n, :n]
    A1 = np.array([[-0.4, 0.3], [0.5, 0.6]])[:n, :n]
    return Coefficient(n, lambda t: (np.cos(3.0 * t)[:, None, None] * A0
                                     + t[:, None, None] * A1))


@pytest.mark.parametrize("alpha", [0.3, 0.7])
@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("N", [1, 2, 63, 64, 65, 130, 200])
def test_blocked_march_matches_unblocked(N, n, alpha):
    # the grid sizes straddle the edges of the 64-step blocks
    w0 = np.ones(n)
    p = CauchyProblem.from_initial_value(alpha, 0.2, 1.7, _drifting(n),
                                         Forcing.zero(n), w0)
    g = TriangleGrid(0.2, 1.7, N)
    for got, ref in ((solve_F(p, g).values, _reference_F(p, g)),
                     (solve_G_dual(p, g).values, _reference_G(p, g))):
        assert _upper_is_zero(got) and _upper_is_zero(ref)
        assert np.abs(got - ref).max() <= 1e-14


def test_singular_self_weight_system():
    # A = diag(a, 0) with c_1 w_1[1] a == 1 exactly: every step-1 system
    # I - c_1 w_1[1] A is diag(0, 1), an exact zero pivot
    alpha, N = 0.5, 16
    g = TriangleGrid(0.0, 1.0, N)
    c1 = ((np.arange(N + 1) * g.h) ** alpha / gamma(alpha))[1]
    x = c1 * hat_moment_tables(N, alpha - 1.0, alpha - 1.0)[1][1]
    a = 1.0 / x
    while 1.0 - x * a != 0.0:
        a = np.nextafter(a, np.inf if x * a < 1.0 else -np.inf)
    assert 1.0 - x * a == 0.0
    p = _ivp(Coefficient.constant([[a, 0.0], [0.0, 0.0]]), alpha=alpha)
    with pytest.raises(SingularSystemError, match="at step 1;"):
        solve_F(p, g)
    with pytest.raises(SingularSystemError, match="at step 1;"):
        solve_G_dual(p, g)


def test_singular_system_inside_a_sub_block_names_its_step():
    # as above, but only the step-11 systems are singular: the systems of
    # steps 9-16 are factored together, and the error names step 11
    alpha, N, k = 0.5, 40, 11
    g = TriangleGrid(0.0, 1.0, N)
    ck = ((np.arange(N + 1) * g.h) ** alpha / gamma(alpha))[k]
    x = ck * hat_moment_tables(N, alpha - 1.0, alpha - 1.0)[k][k]
    a = 1.0 / x
    while 1.0 - x * a != 0.0:
        a = np.nextafter(a, np.inf if x * a < 1.0 else -np.inf)
    p = _ivp(Coefficient.constant([[a, 0.0], [0.0, 0.0]]), alpha=alpha)
    for solve in (solve_F, solve_G_dual):
        with pytest.raises(SingularSystemError, match=f"at step {k};"):
            solve(p, g)


def test_substitution_failure_names_its_step():
    # the step-1 systems factor, but a right-hand side infinite in both
    # components makes forward elimination compute inf - inf
    K, alpha = 2, 0.5
    tables = hat_moment_tables(K, alpha - 1.0, alpha - 1.0)
    c = (np.arange(K + 1) / K) ** alpha / gamma(alpha)
    Anodes = np.broadcast_to([[0.0, 0.0], [-1.0, 0.0]], (K + 1, 2, 2))
    rhs = np.full((K + 1, 2, 1), np.inf)
    with pytest.raises(SingularSystemError, match="at step 1;"):
        _march(Anodes, lambda k0, k1: tables[k0:k1, :k1], c, rhs,
               np.zeros((K + 1, 2, 1, 1)), lambda k, X: None)


@pytest.mark.parametrize("N", [65, 130])
def test_march_with_row_swaps_matches_unblocked(N):
    # a large lower-left entry makes many self-weight systems pivot on their
    # second row (1195 and 4200 members at N = 65 and 130)
    A0 = np.array([[0.2, 1.0], [-8.0, 0.1]])
    A1 = np.array([[-0.4, 0.3], [0.5, 0.6]])
    A = Coefficient(2, lambda t: (np.cos(3.0 * t)[:, None, None] * A0
                                  + t[:, None, None] * A1))
    alpha = 0.3
    p = CauchyProblem.from_initial_value(alpha, 0.2, 1.7, A, Forcing.zero(2),
                                         np.ones(2))
    g = TriangleGrid(0.2, 1.7, N)
    c1 = (g.h ** alpha / gamma(alpha)
          * hat_moment_tables(N, alpha - 1.0, alpha - 1.0)[1, 1])
    step1 = np.eye(2) - c1 * A.at(g.t)[1:]
    assert (np.abs(step1[:, 1, 0]) > np.abs(step1[:, 0, 0])).sum() > 10
    for got, ref in ((solve_F(p, g).values, _reference_F(p, g)),
                     (solve_G_dual(p, g).values, _reference_G(p, g))):
        assert _upper_is_zero(got) and _upper_is_zero(ref)
        assert np.abs(got - ref).max() <= 1e-14 * np.abs(ref).max()


def _separate_state_march(Anodes, alpha, grid):
    # the field march with the state in an array of its own, apart from
    # the planes
    N, n = grid.N, Anodes.shape[-1]
    table, c, ga = _field_weights(grid, alpha)
    tables = hat_moment_tables(*table)
    planes = np.zeros((n, n, N + 1, N + 1))
    diag = np.arange(N + 1)
    planes[:, :, diag, diag] = (np.eye(n) / ga)[:, :, None]
    AX = np.zeros((N + 1, n, n, N + 1))
    AX[0] = Anodes.transpose(1, 2, 0) / ga

    def store(k, X):
        j = np.arange(X.shape[-1])
        planes[:, :, j + k, j] = X

    _march(Anodes, lambda k0, k1: tables[k0:k1, :k1], c,
           np.broadcast_to(np.eye(n) / ga, (N + 1, n, n)), AX, store)
    return planes


@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("N", [1, 2, 63, 64, 65, 130])
def test_state_in_the_zero_half_matches_a_separate_state(N, n):
    # the state lies in the planes' upper half; at the edges of the 64-step
    # blocks the GEMMs' overshoot lands in the padding columns, and the
    # upper half is +0.0 again when the march ends
    p = CauchyProblem.from_initial_value(0.7, 0.2, 1.7, _drifting(n),
                                         Forcing.zero(n), np.ones(n))
    g = TriangleGrid(0.2, 1.7, N)
    Anodes = p.A.at(g.t)
    ref = _separate_state_march(Anodes, p.alpha, g)
    assert solve_F(p, g).planes.tobytes() == ref.tobytes()
    mirrored = _separate_state_march(np.swapaxes(Anodes[::-1], 1, 2),
                                     p.alpha, g)
    ref = np.ascontiguousarray(mirrored.transpose(1, 0, 3, 2)[:, :, ::-1, ::-1])
    G = solve_G_dual(p, g)
    assert G.planes.tobytes() == ref.tobytes()
    assert G.values.tobytes() == ref.transpose(2, 3, 0, 1).tobytes()


@pytest.mark.parametrize("solve", [solve_F, solve_G_dual])
def test_field_peak_memory(solve):
    # one buffer holds the planes and the march's state; G is a view of
    # it. The traced peak was 1.92 x (planes + hat table) with a separate
    # state, and with a contiguous copy of G
    N, n = 1024, 2
    p = CauchyProblem.from_initial_value(0.6, 0.0, 1.0, _drifting(n),
                                         Forcing.zero(n), np.ones(n))
    g = TriangleGrid(0.0, 1.0, N)
    hat_moment_tables.cache_clear()
    tracemalloc.start()
    try:
        field = solve(p, g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert field.meta["field_bytes"] == n * n * (N + 2) * (N + 65) * 8
    table_bytes = (N + 1) ** 2 * 8
    assert peak <= 1.25 * (field.planes.nbytes + table_bytes)  # measured 1.17


def _restart_problem(N, k0, alpha=0.6, n=2):
    # a history up to node k0 of an N + k0 step grid with step 1/N, so
    # that restart_grid(problem, N + k0) is an N step field on [t_star, theta]
    theta = (N + k0) / N
    t = np.linspace(0.0, theta, N + k0 + 1)[:k0 + 1]
    seg = gridfn.GridFn(0.0, t[-1], k0, np.stack([np.cos(t), t], axis=1)[:, :n])
    return CauchyProblem(alpha, 0.0, theta, _drifting(n), Forcing.zero(n),
                         History.from_samples(seg))


def test_march_holds_no_dense_table():
    # the march builds its hat-table rows a tile row at a time and caches
    # no (N+1)^2 table: from cleared caches, the traced peak above the
    # field's buffer stays below one such table (8.4 MB) for F, G and a
    # restart field (measured 5.9 MB; a march that builds and caches the
    # whole table reads 13.3 MB)
    N, n, k0 = 1024, 2, 256
    p = CauchyProblem.from_initial_value(0.6, 0.0, 1.0, _drifting(n),
                                         Forcing.zero(n), np.ones(n))
    g = TriangleGrid(0.0, 1.0, N)
    restart = _restart_problem(N, k0)
    for run in (lambda: solve_F(p, g), lambda: solve_G_dual(p, g),
                lambda: solve_F(restart, restart_grid(restart, N + k0))):
        for cache in (hat_moment_tables, quadrules.first_interval_moments,
                      quadrules.jacobi_rule_01):
            cache.cache_clear()
        tracemalloc.start()
        try:
            field = run()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert field.grid.N == N
        assert peak - field.meta["field_bytes"] < (N + 1) ** 2 * 8
        assert hat_moment_tables.cache_info().currsize == 0


def _solve_small(M, R):
    # M[b] X[b] = R[b] for a batch of small systems: the march's _factor,
    # then _substitute, on batch-last copies
    LU, X = M.transpose(1, 2, 0).copy(), R.transpose(1, 2, 0).copy()
    _substitute(LU, _factor(LU), X)
    return np.ascontiguousarray(X.transpose(2, 0, 1))


def _permuted_batch(rng, B, n, m):
    # P (I + E) with small E and a random row permutation P: well
    # conditioned, but the leading entry is often small, so rows must be
    # swapped; a quarter of the members get an exact zero there, a quarter
    # a tiny one
    E = rng.standard_normal((B, n, n)) * (0.2 / n)
    perm = rng.permuted(np.tile(np.arange(n), (B, 1)), axis=1)
    M = np.take_along_axis(np.eye(n) + E, perm[:, :, None], axis=1)
    moved = perm[:, 0] != 0
    M[moved & (np.arange(B) % 4 == 0), 0, 0] = 0.0
    M[moved & (np.arange(B) % 4 == 1), 0, 0] = 1e-300
    return M, rng.standard_normal((B, n, m))


@pytest.mark.parametrize("n", [1, 2, 3, 5])
def test_solve_small_matches_lapack(n):
    rng = np.random.default_rng(90 + n)
    for m in (1, n):
        M, R = _permuted_batch(rng, 400, n, m)
        if n > 1:  # the batch needs row swaps
            assert (np.abs(M[:, 0, 0]) < np.abs(M[:, 1:, 0]).max(axis=1)).sum() > 100
            assert (M[:, 0, 0] == 0.0).any()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = _solve_small(M, R)
        ref = np.linalg.solve(M, R)
        assert got.shape == ref.shape
        err = np.abs(got - ref).max(axis=(1, 2)) / np.abs(ref).max(axis=(1, 2))
        assert err.max() <= 1e-14


@pytest.mark.parametrize("bad", [
    [[0.0, 1.0], [0.0, 3.0]],  # zero pivot column
    [[1.0, 2.0], [2.0, 4.0]],  # second pivot exactly 0 after the swap
])
def test_solve_small_singular_member(bad):
    M, R = _permuted_batch(np.random.default_rng(5), 50, 2, 2)
    M[17] = bad
    with pytest.raises(np.linalg.LinAlgError):
        np.linalg.solve(M, R)
    with pytest.raises(np.linalg.LinAlgError):
        _solve_small(M, R)


def test_solve_small_invalid_operation_raises():
    # eliminating column 0 computes inf - inf in the second row
    M, R = _permuted_batch(np.random.default_rng(6), 50, 2, 1)
    M[3] = [[1.0, np.inf], [1.0, np.inf]]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(np.linalg.LinAlgError):
            _solve_small(M, R)


def test_field_csv_layout(tmp_path):
    p = _ivp(Coefficient.rotation())
    N = 12
    F = solve_F(p, TriangleGrid(0.0, 1.0, N))
    F.values[3, 1, 0, 1] = -0.0
    F.values[7, 2, 1, 0] = 5e-324  # subnormal
    path = tmp_path / "field.csv"
    F.write_csv(path)
    lines = path.read_text().splitlines()
    assert lines[0] == "t,s,F_11,F_12,F_21,F_22"
    assert len(lines) == (N + 1) * (N + 2) // 2 + 1
    t = F.grid.t
    want = "t,s,F_11,F_12,F_21,F_22\n" + "".join(
        ",".join("%.17g" % v for v in (t[i], t[j], *F.values[i, j].ravel()))
        + "\n" for i in range(N + 1) for j in range(i + 1))
    assert path.read_bytes() == want.encode("ascii")


def test_field_csv_spans_blocks(tmp_path):
    # 5151 lines: the writer gathers them in two blocks, the seam inside row 90
    p = _ivp(Coefficient.rotation())
    N = 100
    F = solve_F(p, TriangleGrid(0.0, 1.0, N))
    path = tmp_path / "field.csv"
    F.write_csv(path)
    t = F.grid.t
    want = "t,s,F_11,F_12,F_21,F_22\n" + "".join(
        ",".join("%.17g" % v for v in (t[i], t[j], *F.values[i, j].ravel()))
        + "\n" for i in range(N + 1) for j in range(i + 1))
    assert path.read_bytes() == want.encode("ascii")


def _csv_reference(F):
    # the per-value %.17g bytes of test_field_csv_spans_blocks
    t, N = F.grid.t, F.grid.N
    return ("t,s,F_11,F_12,F_21,F_22\n" + "".join(
        ",".join("%.17g" % v for v in (t[i], t[j], *F.values[i, j].ravel()))
        + "\n" for i in range(N + 1) for j in range(i + 1))).encode("ascii")


def _no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("procs", [1, 2, 3])
def test_field_csv_same_bytes_on_any_process_count(tmp_path, monkeypatch,
                                                   procs):
    # 5151 lines in 21 blocks of 256; the cuts sit at lines 1792, 2560, 3584
    monkeypatch.setattr(gridfn, "_CSV_ROWS", 256)
    monkeypatch.setattr(gridfn, "_csv_procs", lambda nblocks: procs)
    F = solve_F(_ivp(Coefficient.rotation()), TriangleGrid(0.0, 1.0, 100))
    i, j = np.tril_indices(101)
    for cut in (1792, 2560, 3584):
        F.values[i[cut - 1], j[cut - 1], 0, 1] = -0.0
        F.values[i[cut], j[cut], 1, 0] = 5e-324
        F.values[i[cut], j[cut], 1, 1] = -0.0
        F.values[i[cut - 1], j[cut - 1], 0, 0] = 5e-324
    path = tmp_path / "field.csv"
    assert F.write_csv(path) == procs
    assert path.read_bytes() == _csv_reference(F)
    _no_child_left()


def test_field_csv_peak_memory(tmp_path):
    # each line's (i, j) comes from the N + 1 row starts, not from an index
    # of the whole triangle (8.4 MB here); measured 1.6 MB
    N, n = 1024, 2
    F = FundamentalField(TriangleGrid(0.0, 1.0, N), 0.5,
                         np.zeros((n, n, N + 1, N + 1)))
    tracemalloc.start()
    try:
        F.write_csv(tmp_path / "field.csv")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2.5e6


def test_csv_process_count_follows_the_affinity_mask():
    cpus = len(os.sched_getaffinity(0))
    assert gridfn._csv_procs(0) == 1
    assert gridfn._csv_procs(2 * gridfn._PROC_BLOCKS - 1) == 1
    assert gridfn._csv_procs(10 ** 6) == cpus


def test_failed_csv_child_leaves_nothing(tmp_path, monkeypatch):
    # the child formatting rows 64.. raises; the parent's own rows do not
    monkeypatch.setattr(gridfn, "_CSV_ROWS", 8)
    monkeypatch.setattr(gridfn, "_csv_procs", lambda nblocks: 2)
    scratch = tmp_path / "tmp"
    scratch.mkdir()
    monkeypatch.setattr(tempfile, "tempdir", str(scratch))
    table = np.arange(256.0).reshape(128, 2)

    def rows(r0, r1):
        if r0 >= 64:
            raise ValueError("no rows here")
        return table[r0:r1]

    path = tmp_path / "table.csv"
    with pytest.raises(OSError, match="rows 64..127"):
        gridfn.write_table(path, "a,b", 128, rows)
    assert not path.exists()
    assert not any(scratch.iterdir())
    _no_child_left()


def test_failed_csv_parent_stops_its_children(tmp_path, monkeypatch):
    # the parent's own rows raise; its child must not outlive the call
    monkeypatch.setattr(gridfn, "_CSV_ROWS", 8)
    monkeypatch.setattr(gridfn, "_csv_procs", lambda nblocks: 2)
    table = np.arange(256.0).reshape(128, 2)

    def rows(r0, r1):
        if r0 < 64:
            raise ValueError("no rows here")
        return table[r0:r1]

    path = tmp_path / "table.csv"
    with pytest.raises(ValueError, match="no rows here"):
        gridfn.write_table(path, "a,b", 128, rows)
    assert not path.exists()
    _no_child_left()


def test_parallel_csv_from_a_daemonic_worker(tmp_path, monkeypatch):
    # a pool worker is daemonic, and multiprocessing refuses it children of
    # its own; the writer's forked children must not depend on that
    monkeypatch.setattr(gridfn, "_CSV_ROWS", 8)
    monkeypatch.setattr(gridfn, "_csv_procs", lambda nblocks: 2)
    table = np.arange(256.0).reshape(128, 2)
    path = tmp_path / "table.csv"
    worker = multiprocessing.get_context("fork").Process(
        target=gridfn.write_table, daemon=True,
        args=(path, "a,b", 128, lambda r0, r1: table[r0:r1]))
    worker.start()
    worker.join(timeout=60)
    assert worker.exitcode == 0
    assert path.read_text() == "a,b\n" + "".join(
        "%.17g,%.17g\n" % tuple(row) for row in table)
    _no_child_left()


def test_grid_interval_must_match():
    # a grid ends at theta and starts no earlier than t0
    p = _ivp(Coefficient.rotation())
    with pytest.raises(GridMismatchError):
        solve_F(p, TriangleGrid(0.0, 2.0, 16))
    with pytest.raises(GridMismatchError):
        solve_F(p, TriangleGrid(-0.5, 1.0, 16))
    assert solve_F(p, TriangleGrid(0.5, 1.0, 8)).grid.N == 8


def test_picard_budget():
    p = _ivp(Coefficient.rotation())
    with pytest.raises(NonConvergenceError):
        solve_F_picard(p, TriangleGrid(0.0, 1.0, 32), max_iter=1)


def test_meta_contents():
    p = _ivp(Coefficient.rotation())
    g = TriangleGrid(0.0, 1.0, 16)
    m = solve_F(p, g).meta
    assert m["method"] == "march" and m["N"] == 16 and m["wall_time"] >= 0.0
    d = solve_G_dual(p, g).meta
    assert d["method"] == "dual_march"
    for meta in (m, d):
        assert meta["tables_s"] > 0.0 and meta["march_s"] >= 0.0
        assert meta["tables_s"] + meta["march_s"] <= meta["wall_time"]
        assert 0.0 <= meta["solves_s"] <= meta["march_s"]
        assert 0.0 <= meta["factor_s"] <= meta["march_s"]
        assert meta["factor_s"] + meta["solves_s"] <= meta["march_s"]


def test_tables_s_holds_every_tile_row(monkeypatch):
    # each tile row costs a 0.02 s sleep more: tables_s holds the sleeps
    # of the rows the march builds as it goes, and since tables_s + march_s
    # stays within the wall time, march_s holds none of them
    delay, N = 0.02, 300

    def slow_rows(*args):
        for row in hat_table_rows(*args):
            time.sleep(delay)
            yield row

    p = _ivp(Coefficient.rotation())
    restart = _restart_problem(N, 40)
    runs = ((solve_F, p, TriangleGrid(0.0, 1.0, N)),
            (solve_G_dual, p, TriangleGrid(0.0, 1.0, N)),
            (solve_F, restart, restart_grid(restart, N + 40)))
    monkeypatch.setattr(fundamental, "hat_table_rows", slow_rows)
    for solve, problem, g in runs:
        meta = solve(problem, g).meta
        assert meta["tables_s"] >= 3 * delay  # three tile rows at N = 300
        assert 0.0 <= meta["march_s"]
        assert meta["tables_s"] + meta["march_s"] <= meta["wall_time"]


# ------------------------------------------------------------------- bounds


def test_bounds_zero_coefficient():
    p = _ivp(Coefficient.zero(2), alpha=0.4)
    apb = bounds(p)
    assert apb.M_A == 0.0
    assert apb.kappa == 1.0
    assert apb.M_F == pytest.approx(math.exp(1.0) / gamma(0.4), rel=1e-14)
    assert apb.H_F == 0.0


def test_bounds_rotation_structure():
    alpha, scale = 0.5, 2.0
    p = _ivp(Coefficient.rotation(scale), alpha=alpha)
    apb = bounds(p)
    assert apb.M_A == scale  # max row sum of the skew block
    c = op_constants(alpha)
    assert apb.kappa == pytest.approx((2.0 * scale * c.M_J) ** (1.0 / alpha), rel=1e-14)
    assert apb.M_F > 1.0 / gamma(alpha)
    assert np.isfinite(apb.H_F) and apb.H_F > 0.0


def test_bounds_overflow_guard():
    # growth exponent past the double range degrades to inf, never raises
    p = _ivp(Coefficient.rotation(9.0))
    apb = bounds(p)
    assert math.isinf(apb.M_F)
    assert math.isinf(apb.H_F)


@pytest.mark.parametrize("scale", [20.0, 100.0])
def test_bounds_large_coefficient_is_infinite(scale):
    # the growth exponent overflows, so H_F is inf without evaluating the
    # Mittag-Leffler factor, whose series cannot settle at this argument
    p = _ivp(Coefficient.constant(scale * np.eye(2)), alpha=0.5)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        apb = bounds(p)
        # the fixed-point sweep's weighted norm would stop it after one
        # sweep with a wrong field; it refuses instead
        with pytest.raises(NonConvergenceError):
            solve_F_picard(p, TriangleGrid(0.0, 1.0, 16))
    assert math.isinf(apb.M_F)
    assert math.isinf(apb.H_F)


def _reference_picard(problem, grid, max_iter=80, tol=1e-10):
    # one weighted sum per step count k and sweep, over the live columns
    alpha, N, h, n = problem.alpha, grid.N, grid.h, problem.n
    Anodes = problem.A.at(grid.t)
    tables = hat_moment_tables(N, alpha - 1.0, alpha - 1.0)
    diag = np.eye(n) / gamma(alpha)
    ck = (np.arange(N + 1) * h) ** alpha / gamma(alpha)
    cur = np.broadcast_to(diag, (N + 1, N + 1, n, n)).copy()
    A_shift = np.zeros((N + 1, N + 1, n, n))  # A_shift[m, j] = A_{m+j}
    for m in range(N + 1):
        A_shift[m, :N + 1 - m] = Anodes[m:]
    for it in range(1, max_iter + 1):
        AP = np.matmul(A_shift, cur)
        nxt = np.empty_like(cur)
        nxt[0] = diag
        update = 0.0
        for k in range(1, N + 1):
            upd = diag + ck[k] * np.einsum(
                "m,mjab->jab", tables[k, :k + 1], AP[:k + 1, :N + 1 - k],
                optimize=False)
            dk = np.abs(upd - cur[k, :N + 1 - k]).sum(axis=-1).max()
            update = max(update, dk)
            nxt[k, :N + 1 - k] = upd
        cur = nxt
        if update <= tol:
            break
    else:
        raise NonConvergenceError("reference sweep did not converge")
    values = np.zeros((N + 1, N + 1, n, n))
    for k in range(N + 1):
        cols = np.arange(N + 1 - k)
        values[cols + k, cols] = cur[k, :N + 1 - k]
    return values, it


@pytest.mark.parametrize("N", [1, 64])
def test_picard_stops_on_the_unweighted_update(N):
    # kappa (theta - t0) = 30.7 here: an exp(-kappa (t - t0)) weighted stop
    # test accepted a field 8.6e-7 (N = 64) and 0.08 (N = 1, one sweep)
    # away from the march's solution of the same discrete equation
    p = CauchyProblem.from_initial_value(0.3, 0.2, 1.7, _drifting(1),
                                         Forcing.zero(1), np.ones(1))
    g = TriangleGrid(0.2, 1.7, N)
    got = solve_F_picard(p, g)
    assert got.meta["iterations"] > 1
    assert got.meta["update_norm"] <= 1e-10
    assert np.nanmax(np.abs(got.values - solve_F(p, g).values)) <= 1e-9


@pytest.mark.parametrize("alpha", [0.3, 0.7])
@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("N", [1, 2, 3, 64, 130])
def test_picard_sweep_matches_step_loop(N, n, alpha):
    p = CauchyProblem.from_initial_value(alpha, 0.2, 1.7, _drifting(n),
                                         Forcing.zero(n), np.ones(n))
    g = TriangleGrid(0.2, 1.7, N)
    if math.isinf(bounds(p).M_F):  # n = 2 at alpha = 0.3
        with pytest.raises(NonConvergenceError):
            solve_F_picard(p, g)
        return
    try:
        ref, iterations = _reference_picard(p, g)
    except NonConvergenceError:  # a coarse grid need not contract
        with pytest.raises(NonConvergenceError):
            solve_F_picard(p, g)
        return
    got = solve_F_picard(p, g)
    assert got.meta["iterations"] == iterations
    assert _upper_is_zero(got.values) and _upper_is_zero(ref)
    assert np.abs(got.values - ref).max() <= 1e-14
