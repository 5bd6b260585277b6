"""Cauchy solvers: direct march, representation formulas, history functionals."""

import json
import math
import tracemalloc

import numpy as np
import pytest

from fracfund import (
    CauchyProblem,
    Coefficient,
    DomainError,
    Forcing,
    FundamentalField,
    GridFn,
    GridMismatchError,
    History,
    PreconditionError,
    SingularSystemError,
    TriangleGrid,
    b_star,
    equation_residual,
    fractional_integral,
    gamma,
    gc_compact_identity_residual,
    ml_scalar,
    psi_star,
    represent_gc,
    represent_gc_compact,
    represent_pc,
    solve_F,
    solve_direct,
)
from fracfund import cauchy, checks, gridfn
from fracfund.cauchy import (METHOD_DIRECT, _formula_rows, _psi_defining,
                             _psi_from_history)
from fracfund.cli import main
from fracfund.fundamental import _ROWS
from fracfund.quadrules import (SINGULAR_NODES, first_interval_moments,
                                hat_moment_tables, jacobi_rule_01,
                                left_moment_weights, left_moments_at)

# frozen with mpmath (30 digits): modified forcing for the segment
# w(tau) = tau^0.5 / gamma(1.5) on [0, 0.5], zero base forcing, alpha = 0.5
B_STAR_FROZEN = {0.6: -0.73227952719877, 0.8: -0.5804306232551663, 1.0: -0.5}

# frozen with mpmath: continuation functional for density cos(3 tau) on
# [0, 0.5], alpha = 0.5, evaluated past the segment
PSI_FROZEN = {0.55: 0.1681394717715572, 0.75: 0.10182533791708806,
              1.0: 0.06978237503530237}


def _cosine_problem(t0=0.0, theta=1.0):
    A = Coefficient.cosine(np.array([[0.0, 1.0], [-1.0, 0.0]]), 4.0)
    b = Forcing.from_callable(2, lambda t: np.array([np.sin(t), 1.0]))
    return CauchyProblem.from_initial_value(0.5, t0, theta, A, b, [1.0, 0.0])


def _dense_left_weights(alpha, N, h):
    # the left-moment table as one (N+1)^2 matrix: a copy of its Toeplitz
    # view with column 0 set from its first column
    first, T = left_moment_weights(alpha, N, h)
    W = T.copy()
    W[:, 0] = first
    return W


# ------------------------------------------------------------- direct march


def test_direct_pure_forcing_exact():
    # A = 0, b = 1: solution t^alpha / gamma(1 + alpha), exact for the scheme
    alpha = 0.5
    p = CauchyProblem.from_initial_value(
        alpha, 0.0, 1.0, Coefficient.zero(1), Forcing.constant([1.0]), [0.0]
    )
    sol = solve_direct(p, 64)
    want = sol.x.t ** alpha / gamma(1.0 + alpha)
    np.testing.assert_allclose(sol.x.values[:, 0], want, atol=1e-14)


def test_direct_no_dynamics_keeps_start():
    p = CauchyProblem.from_initial_value(
        0.3, 0.0, 1.0, Coefficient.zero(2), Forcing.zero(2), [2.0, -1.0]
    )
    sol = solve_direct(p, 32)
    assert np.all(sol.x.values == [2.0, -1.0])


def test_direct_scalar_ml_solution():
    lam, alpha = 0.8, 0.6
    p = CauchyProblem.from_initial_value(
        alpha, 0.0, 1.0, Coefficient.constant([[lam]]), Forcing.zero(1), [1.0]
    )
    sol = solve_direct(p, 256)
    want = np.array([ml_scalar(alpha, lam * t ** alpha) for t in sol.x.t])
    assert np.abs(sol.x.values[:, 0] - want).max() < 5e-4  # measured 1.0e-4


def test_direct_meta_and_residual():
    p = _cosine_problem()
    sol = solve_direct(p, 128)
    assert sol.method == METHOD_DIRECT
    assert sol.meta["N"] == 128
    assert sol.meta["residual"] < 1e-10  # march satisfies its own equation
    assert equation_residual(p, sol.x) == sol.meta["residual"]


def test_direct_rejects():
    p = _cosine_problem()
    with pytest.raises(DomainError):
        solve_direct(p, 0)
    seg = GridFn(0.0, 0.3, 3, np.zeros((4, 2)))
    off = CauchyProblem(0.5, 0.0, 1.0, p.A, p.b, History.from_samples(seg))
    with pytest.raises(GridMismatchError):
        solve_direct(off, 7)  # t_star = 0.3 missing from the 1/7 grid


@pytest.mark.parametrize("N", [0, -4])
def test_grids_without_a_step_are_refused(N):
    # the three public entries that place t_star on the N grid
    p = _cosine_problem()
    for call in (solve_direct, cauchy.restart_grid, cauchy.check_pc):
        with pytest.raises(DomainError, match="need N >= 1"):
            call(p, N)


def _reference_direct(problem, N):
    # the direct solve as a step loop: the history sum W[k, :k] @ v[:k] row
    # by row, then one np.linalg.solve per step
    alpha, n = problem.alpha, problem.n
    t = np.linspace(problem.t0, problem.theta, N + 1)
    k0 = cauchy._star_index(problem, N)
    hist = cauchy._history_integrals(problem.history.caputo_samples(alpha),
                                     alpha, t[k0 + 1:])
    A, b = problem.A.at(t), problem.b.at(t)
    ga = gamma(alpha)
    W = _dense_left_weights(alpha, N, (problem.theta - problem.t0) / N)
    xv = np.empty((N + 1, n))
    xv[:k0 + 1] = cauchy._prefix_values(problem, t, k0)
    v = np.empty((N - k0 + 1, n))
    v[0] = A[k0] @ xv[k0] + b[k0]
    for k in range(1, N - k0 + 1):
        i = k0 + k
        rhs = problem.w0 + hist[k - 1] + (W[k, :k] @ v[:k] + W[k, k] * b[i]) / ga
        xv[i] = np.linalg.solve(np.eye(n) - (W[k, k] / ga) * A[i], rhs)
        v[k] = A[i] @ xv[i] + b[i]
    return xv


@pytest.mark.parametrize("k0", [0, 5])
@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("M", [1, 2, 7, 8, 9, 63, 64, 65, 130])
def test_direct_march_matches_step_loop(M, n, k0):
    # M = N - k0 steps straddle the edges of the march's 8-step sub-blocks
    # and 64-step blocks; a large lower-left entry makes about half of the
    # 2 x 2 step systems pivot on their second row
    alpha, N = 0.3, M + k0
    base = _drifting_problem(n, alpha, k0, N)
    A0 = np.array([[0.2, 1.0], [-8.0, 0.1]])[:n, :n]
    A1 = np.array([[-0.4, 0.3], [0.5, 0.6]])[:n, :n]
    A = Coefficient(n, lambda t: (np.cos(3.0 * t)[:, None, None] * A0
                                  + t[:, None, None] * A1))
    p = CauchyProblem(alpha, 0.2, 1.7, A, base.b, base.history)
    if n == 2 and M > 1:
        t = np.linspace(0.2, 1.7, N + 1)[k0 + 1:]
        W = _dense_left_weights(alpha, N, 1.5 / N)
        steps = np.eye(2) - W[1, 1] / gamma(alpha) * A.at(t)
        assert (np.abs(steps[:, 1, 0]) > np.abs(steps[:, 0, 0])).any()
    ref = _reference_direct(p, N)
    got = solve_direct(p, N).x.values
    assert np.abs(got - ref).max() <= 1e-14 * np.abs(ref).max()


def test_direct_solve_builds_no_dense_table():
    # the march reads a Toeplitz view of the left-moment profile and every
    # W v is fractional_integral's convolution: no (N+1)^2 table is built
    # (the dense table at N = 4096 alone is 134 MB; 136.4 MB peak with it)
    p, N = _cosine_problem(), 4096
    tracemalloc.start()
    try:
        sol = solve_direct(p, N)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4e6  # measured 2.2 MB
    assert sol.meta["residual"] < 1e-10


@pytest.fixture(scope="module")
def stored_field():
    # a stored N = 1024 field, a start at t0 on it and a restart from a
    # segment up to t_star = 307/1024
    alpha, N, k0 = 0.5, 1024, 307
    A = Coefficient.cosine(np.array([[0.0, 1.0], [-1.0, 0.0]]), 4.0)
    b = Forcing.constant([0.0, 1.0])
    p = CauchyProblem.from_initial_value(alpha, 0.0, 1.0, A, b, [1.0, 0.0])
    field = solve_F(p, TriangleGrid(0.0, 1.0, N))
    seg = GridFn(0.0, k0 / N, k0, solve_direct(p, N).x.values[:k0 + 1])
    r = CauchyProblem(alpha, 0.0, 1.0, A, b, History.from_samples(seg))
    return p, r, field, N - k0


def _formula_peaks(field, calls):
    # tracemalloc peak of each call, with the hat tables it reads prebuilt
    alpha, N = field.alpha, field.grid.N
    hat_moment_tables(N, -alpha, alpha - 1.0)
    first_interval_moments(N, -alpha, alpha - 1.0)
    peaks = []
    for call in calls:
        tracemalloc.start()
        try:
            call()
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    return peaks


def test_formulas_build_no_dense_table(stored_field):
    # the field-row sums read the left-moment table as its first column and
    # Toeplitz view: no (N+1)^2 table is built (the dense one at N = 1024 is
    # 8.4 MB; each call below peaked at 9.9-10.7 MB with it)
    p, r, field, M = stored_field
    peaks = _formula_peaks(field, [
        lambda: represent_pc(p, field), lambda: represent_gc(r, field),
        lambda: represent_gc_compact(r, field),
        lambda: gc_compact_identity_residual(r, field, [1, M])])
    assert max(peaks) <= 4e6  # measured 0.1-1.7 MB


def test_field_row_sums_hold_no_block_products(stored_field):
    # each term adds to a block of target rows in one fused pass: no block
    # of field times weights is written (with one, 128 x up to 1025
    # doubles, these calls peaked at 2.3 and 1.5 MB)
    p, r, field, M = stored_field
    peaks = _formula_peaks(field, [
        lambda: represent_pc(p, field),
        lambda: gc_compact_identity_residual(r, field, [1, M])])
    assert max(peaks) <= 5e5  # measured 0.20 and 0.12 MB


def test_singular_direct_step_is_named(tmp_path):
    # every step k >= 1 has the self weight x = c_k W[k, k] (W[k, k] does
    # not depend on k), and 1 - x a == 0 exactly: with the constant a every
    # step system is singular; with a only at node k0 + 11, only step 11
    # is, inside the sub-block of steps 9-16
    alpha, N, k0 = 0.5, 64, 8
    W11 = _dense_left_weights(alpha, N, 1.0 / N)[1, 1]
    x = (1.0 / gamma(alpha)) * W11
    a = gamma(alpha) / W11
    while 1.0 - x * a != 0.0:
        a = np.nextafter(a, np.inf if x * a < 1.0 else -np.inf)
    p = CauchyProblem.from_initial_value(alpha, 0.0, 1.0,
                                         Coefficient.constant([[a]]),
                                         Forcing.zero(1), [1.0])
    with pytest.raises(SingularSystemError, match="at step 1;"):
        solve_direct(p, N)
    samples = np.zeros((N + 1, 1, 1))
    samples[k0 + 11] = a
    A = Coefficient.from_samples(GridFn(0.0, 1.0, N, samples))
    assert np.array_equal(A.at(np.linspace(0.0, 1.0, N + 1)), samples)
    seg = GridFn(0.0, k0 / N, k0, np.ones((k0 + 1, 1)))
    p = CauchyProblem(alpha, 0.0, 1.0, A, Forcing.zero(1),
                      History.from_samples(seg))
    with pytest.raises(SingularSystemError, match="at step 11;"):
        solve_direct(p, N)
    gridfn.write_csv(GridFn(0.0, 1.0, N, samples), tmp_path / "A.csv")
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "alpha": alpha, "theta": 1.0, "n": 1, "grid_N": N,
        "A": {"preset": "samples", "path": "A.csv"},
        "b": {"preset": "zero"}, "history": {"w0": [1.0]}}))
    assert main(["solve", "--config", str(cfg), "--method", "direct",
                 "--out", str(tmp_path / "x.csv")]) == 3


def test_solution_csv_and_sidecar(tmp_path):
    p = _cosine_problem()
    sol = solve_direct(p, 16)
    path = tmp_path / "sol.csv"
    sol.write_csv(path)
    assert path.read_text().splitlines()[0] == "t,x_1,x_2"
    side = sol.sidecar()
    assert side["method"] == "direct"
    assert set(side) >= {"method", "N", "residual", "residual_s", "wall_time",
                         "factor_s", "solves_s"}
    assert 0.0 <= side["residual_s"] <= side["wall_time"]
    assert 0.0 <= side["factor_s"] + side["solves_s"] <= side["wall_time"]


def test_representation_sidecar_records_the_row_sum():
    # every formula records rows_s, its seconds in the field-row sum, at a
    # start at t0 and on a restart field from t_star
    N = 32
    at_t0 = _drifting_problem(2, 0.55, 0, N)
    restart = _drifting_problem(2, 0.55, 9, N)
    solves = [(formula, at_t0, TriangleGrid(0.2, 1.7, N))
              for formula in (represent_pc, represent_gc, represent_gc_compact)]
    solves += [(formula, restart, cauchy.restart_grid(restart, N))
               for formula in (represent_gc, represent_gc_compact)]
    for formula, problem, grid in solves:
        side = formula(problem, solve_F(problem, grid)).sidecar()
        assert 0.0 <= side["rows_s"] <= side["wall_time"]


# ------------------------------------------------- continuation functionals


def _unit_density_history(alpha=0.5, M=8):
    # density 1 generates the segment w0 + tau^alpha / gamma(1 + alpha)
    phi = GridFn(0.0, 0.5, M, np.ones((M + 1, 1)))
    return History.from_generator(alpha, [0.0], phi)


def test_psi_anchor_closed_form():
    # both evaluation routes must hit 2 sqrt(0.5) / pi at the segment end
    hist = _unit_density_history()
    want = 2.0 * math.sqrt(0.5) / math.pi
    d = _psi_defining(hist.caputo_w, 0.5, np.array([0.5]))[0, 0]
    f = _psi_from_history(hist.w_star, 0.5, np.array([0.5]))[0, 0]
    assert d == pytest.approx(want, rel=1e-12)
    assert f == pytest.approx(want, rel=1e-12)


def test_psi_defining_frozen_values():
    M = 256
    tau = np.linspace(0.0, 0.5, M + 1)
    phi = GridFn(0.0, 0.5, M, np.cos(3.0 * tau)[:, None])
    target = GridFn(0.5, 1.0, 10, np.zeros((11, 1)))
    psi = psi_star(phi, 0.5, target)
    for t, want in PSI_FROZEN.items():
        k = round((t - 0.5) / 0.05)
        assert psi.values[k, 0] == pytest.approx(want, abs=1e-5)  # measured 4.8e-7


def test_psi_route_agreement():
    # defining quadrature vs proper-integral identity, away from the seam
    alpha, M = 0.5, 256
    tau = np.linspace(0.0, 0.5, M + 1)
    phi = GridFn(0.0, 0.5, M, np.cos(3.0 * tau)[:, None])
    hist = History.from_generator(alpha, [0.2], phi)
    ts = np.array([0.6, 0.75, 0.9])
    d = _psi_defining(phi, alpha, ts)
    f = _psi_from_history(hist.w_star, alpha, ts)
    assert np.abs(d - f).max() < 1e-4  # measured 4.4e-6


def _history_functionals(seg, alpha, ts):
    return (cauchy._history_integrals(seg, alpha, ts),
            _psi_from_history(seg, alpha, ts), _psi_defining(seg, alpha, ts))


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("k0", [1, 2, 3, 77])
@pytest.mark.parametrize("alpha", [0.3, 0.6, 0.9])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_lattice_history_sums_match_per_entry(n, alpha, k0, monkeypatch):
    # a restart's history on the first k0 steps of the grid, targets t_star +
    # k h from k = 0.  The step is dyadic, so both paths see the same
    # distances and differ only in the order of summation; at other steps
    # the per-entry distances t - tau carry their own rounding, which the
    # closed form's cancellation at large distances amplifies
    N = 128
    t = np.linspace(0.0, 1.0, N + 1)
    vals = (np.cos(np.outer(t[:k0 + 1], np.arange(1.0, n + 1.0)))
            + t[:k0 + 1, None] ** alpha)
    seg, ts = GridFn(0.0, t[k0], k0, vals), t[k0:]
    assert cauchy._lattice_start(seg, ts) == 0
    lattice = _history_functionals(seg, alpha, ts)
    monkeypatch.setattr(cauchy, "_lattice_start", lambda seg, ts: None)
    for got, want in zip(lattice, _history_functionals(seg, alpha, ts)):
        assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("alpha", [0.3, 0.6, 0.9])
@pytest.mark.parametrize("n", [1, 2])
def test_half_step_psi_matches_per_entry(n, alpha, monkeypatch):
    # psi on the doubled grid from t_star, as the history checks of verify
    # ask for it: the even targets on the segment's lattice, the odd ones on
    # it shifted by h/2, two convolutions per Legendre node
    N, k0 = 128, 45
    t = np.linspace(0.0, 1.0, N + 1)
    vals = (np.cos(np.outer(t[:k0 + 1], np.arange(1.0, n + 1.0)))
            + t[:k0 + 1, None] ** alpha)
    seg = GridFn(0.0, t[k0], k0, vals)
    ts = np.linspace(t[k0], 1.0, 2 * (N - k0) + 1)
    assert cauchy._lattice_start(seg, ts) is None
    assert cauchy._lattice_start(seg, ts[1::2]) == 0.5
    lattice = _psi_defining(seg, alpha, ts)
    monkeypatch.setattr(cauchy, "_lattice_start", lambda seg, ts: None)
    want = _psi_defining(seg, alpha, ts)
    assert np.abs(lattice - want).max() <= 1e-14 * np.abs(want).max()


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("alpha", [0.3, 0.6, 0.9])
def test_lattice_history_sums_round_as_an_fft(alpha, monkeypatch):
    # the lattice sums are FFT convolutions, whose rounding scales with the
    # 2-norms of kernel and data rather than entry by entry.  The history
    # integrals and psi's defining form stay at 1e-14 of the per-entry sums;
    # psi's proper-integral form weighs the data by (t - xi)^(-1-alpha),
    # whose first taps dominate that norm, and its error grows as eps N^alpha:
    # measured 1.3e-15, 1.3e-14 and 8.5e-14 at alpha = 0.3, 0.6 and 0.9,
    # bound five times the last
    N, k0, n = 2048, 614, 2
    t = np.linspace(0.0, 1.0, N + 1)
    vals = (np.cos(np.outer(t[:k0 + 1], np.arange(1.0, n + 1.0)))
            + t[:k0 + 1, None] ** alpha)
    seg, ts = GridFn(0.0, t[k0], k0, vals), t[k0:]
    lattice = _history_functionals(seg, alpha, ts)
    monkeypatch.setattr(cauchy, "_lattice_start", lambda seg, ts: None)
    want = _history_functionals(seg, alpha, ts)
    for got, ref, tol in zip(lattice, want, (1e-14, 4.3e-13, 1e-14)):
        assert np.abs(got - ref).max() <= tol * np.abs(ref).max()


def test_history_sums_call_no_numpy_convolve(stored_field, monkeypatch):
    # every Toeplitz sum outside the march is quadrules.convolve: the direct
    # solve of a restart whose history has no Caputo samples (the L1
    # derivative, the history integrals, the forcing and the residual), both
    # general formulas on the lattice (psi in both forms), the doubled-grid
    # psi of verify's history checks, and a matrix-valued fractional integral
    p, r, field, M = stored_field
    assert r.history.caputo_w is None

    def refuse(*args, **kwargs):
        raise AssertionError("np.convolve called")

    monkeypatch.setattr(np, "convolve", refuse)
    N = field.grid.N
    assert solve_direct(r, N).meta["residual"] < 1e-10
    for formula in (represent_gc, represent_gc_compact):
        assert np.isfinite(formula(r, field).x.values).all()
    assert all(rec["pass"] for rec in checks.history_functional_checks(r, N))
    phi = GridFn(0.0, 1.0, 64, np.random.default_rng(0).random((65, 2, 2)))
    assert fractional_integral(phi, 0.5).values.shape == (65, 2, 2)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("alpha", [0.3, 0.9])
def test_off_lattice_history_sums_per_entry(alpha):
    # a history on the N/2 grid against targets on the N grid: every weight
    # is its own closed form, as before the lattice sums existed
    N, k0 = 128, 40
    t = np.linspace(0.0, 1.0, N // 2 + 1)[:k0 // 2 + 1]
    seg = GridFn(0.0, t[-1], k0 // 2, np.stack([np.cos(t), t ** alpha], 1))
    ts = np.linspace(t[-1], 1.0, N - k0 + 1)
    assert cauchy._lattice_start(seg, ts) is None
    assert cauchy._lattice_start(seg, ts[1:]) is None
    np.testing.assert_array_equal(
        cauchy._history_integrals(seg, alpha, ts),
        left_moments_at(alpha, seg.t, ts) @ seg.values / gamma(alpha))
    dw = seg.values - seg.values[0]
    tail = left_moments_at(-alpha, seg.t, ts[1:]) @ dw
    psi = _psi_from_history(seg, alpha, ts)
    np.testing.assert_array_equal(psi[0], dw[-1] / gamma(1.0 - alpha))
    np.testing.assert_array_equal(
        psi[1:], alpha / gamma(1.0 - alpha)
        * (ts[1:] - t[-1])[:, None] ** alpha * tail)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("alpha", [0.3, 0.6, 0.9])
def test_restart_from_a_segment_on_another_grid(alpha):
    # a segment cut from a direct solve on the 64 grid restarts a problem on
    # the 128 grid; t_star = 0.375 is a node of both
    c = _cosine_problem()
    p = CauchyProblem.from_initial_value(alpha, 0.0, 1.0, c.A, c.b, [1.0, 0.0])
    seg = solve_direct(p, 64).x.prefix(0.375)
    pr = CauchyProblem(alpha, 0.0, 1.0, c.A, c.b, History.from_samples(seg))
    # the direct solve meets the very equation the residual checks
    assert solve_direct(pr, 128).meta["residual"] <= 1e-13  # measured 4.4e-16
    # psi(t_star) among off-lattice targets, summed per entry, against
    # psi(t_star) alone, on the lattice path
    phi = pr.history.caputo_samples(alpha)
    ts = np.linspace(0.0, 1.0, 129)[48:]
    assert cauchy._lattice_start(phi, ts) is None
    assert cauchy._lattice_start(phi, ts[:1]) == 0
    at_star = _psi_defining(phi, alpha, ts[:1])[0]
    got = _psi_defining(phi, alpha, ts)[0]
    assert np.abs(got - at_star).max() <= 1e-14 * np.abs(at_star).max()


def test_psi_star_guards():
    hist = _unit_density_history()
    bad_target = GridFn(0.6, 1.0, 4, np.zeros((5, 1)))
    with pytest.raises(DomainError):
        psi_star(hist.caputo_w, 0.5, bad_target)


def test_psi_star_degenerate_history_is_zero():
    hist = History.point(0.0, [1.0])
    target = GridFn(0.0, 1.0, 4, np.zeros((5, 1)))
    psi = psi_star(hist.caputo_w, 0.5, target)
    assert np.all(psi.values == 0.0)


def test_b_star_frozen_values():
    hist = _unit_density_history()
    p = CauchyProblem(0.5, 0.0, 1.0, Coefficient.zero(1), Forcing.zero(1), hist)
    target = GridFn(0.5, 1.0, 5, np.zeros((6, 1)))
    psi = psi_star(hist.caputo_w, 0.5, target)
    bs = b_star(p, psi)
    for t, want in B_STAR_FROZEN.items():
        k = round((t - 0.5) / 0.1)
        assert bs.values[k, 0] == pytest.approx(want, abs=1e-10)


def test_b_star_constant_history_reduces_to_forcing():
    # a flat segment has zero density, so the modified forcing is the forcing
    seg = GridFn(0.0, 0.5, 4, np.full((5, 2), 3.0))
    hist = History.from_samples(seg, GridFn(0.0, 0.5, 4, np.zeros((5, 2))))
    b = Forcing.cosine(np.array([1.0, -2.0]), omega=2.0)
    p = CauchyProblem(0.5, 0.0, 1.0, Coefficient.zero(2), b, hist)
    target = GridFn(0.5, 1.0, 8, np.zeros((9, 2)))
    psi = psi_star(hist.caputo_samples(0.5), 0.5, target)
    bs = b_star(p, psi)
    np.testing.assert_array_equal(bs.values, b.at(target.t))


def test_b_star_guards():
    hist = _unit_density_history()
    p = CauchyProblem(0.5, 0.0, 1.0, Coefficient.zero(1), Forcing.zero(1), hist)
    with pytest.raises(DomainError):
        b_star(p, GridFn(0.6, 1.0, 4, np.zeros((5, 1))))  # starts past t_star
    with pytest.raises(DomainError):
        b_star(p, GridFn(0.5, 0.5, 0, np.zeros((1, 1))))


# ------------------------------------------------------------ representation


def test_pc_requires_collapsed_segment():
    p = _cosine_problem()
    seg = GridFn(0.0, 0.5, 8, np.zeros((9, 2)))
    pr = CauchyProblem(0.5, 0.0, 1.0, p.A, p.b, History.from_samples(seg))
    fld = solve_F(pr, TriangleGrid(0.0, 1.0, 16))
    with pytest.raises(PreconditionError):
        represent_pc(pr, fld)


def test_pc_matches_direct():
    p = _cosine_problem()
    N = 256
    ref = solve_direct(p, N)
    fld = solve_F(p, TriangleGrid(0.0, 1.0, N))
    pc = represent_pc(p, fld)
    assert np.abs(pc.x.values - ref.x.values).max() < 1e-2  # measured 2.8e-3
    assert pc.meta["residual"] < 5e-2


def test_gc_compact_collapse_to_pc():
    # with a collapsed segment all three formulas share one code path
    p = _cosine_problem()
    N = 64
    fld = solve_F(p, TriangleGrid(0.0, 1.0, N))
    pc = represent_pc(p, fld)
    gc = represent_gc(p, fld)
    cp = represent_gc_compact(p, fld)
    assert np.array_equal(gc.x.values, pc.x.values)
    assert np.array_equal(cp.x.values, pc.x.values)
    assert gc.method == "repr_gc" and cp.method == "repr_gc_compact"


def test_restart_representations():
    p = _cosine_problem()
    N, k0 = 256, 102
    ref = solve_direct(p, N)
    fld = solve_F(p, TriangleGrid(0.0, 1.0, N))
    hist = History.from_samples(ref.x.prefix(k0 / N))
    pr = CauchyProblem(0.5, 0.0, 1.0, p.A, p.b, hist)

    gc = represent_gc(pr, fld)
    cp = represent_gc_compact(pr, fld)
    assert np.abs(gc.x.values[k0:] - ref.x.values[k0:]).max() < 1e-2  # 2.2e-3
    assert np.abs(cp.x.values[k0:] - gc.x.values[k0:]).max() < 5e-3  # 7.2e-4
    # both reproduce the prescribed segment verbatim
    np.testing.assert_array_equal(gc.x.values[: k0 + 1], hist.w_star.values)
    np.testing.assert_array_equal(cp.x.values[: k0 + 1], hist.w_star.values)
    # and both leave a small equation residual past the restart point
    assert gc.meta["residual"] < 5e-2
    assert cp.meta["residual"] < 5e-2

    M = N - k0
    ks = sorted({max(1, M // 64), M // 8, M // 2, M})
    resid = np.max(gc_compact_identity_residual(pr, fld, ks))
    assert resid < 1e-2  # measured 1.6e-3


def test_identity_residual_guards():
    p = _cosine_problem()
    fld = solve_F(p, TriangleGrid(0.0, 1.0, 16))
    with pytest.raises(DomainError):
        gc_compact_identity_residual(p, fld, [0])
    with pytest.raises(DomainError):
        gc_compact_identity_residual(p, fld, [17])


def test_field_problem_compatibility_enforced():
    p = _cosine_problem()
    other = CauchyProblem.from_initial_value(
        0.4, 0.0, 1.0, Coefficient.zero(2), Forcing.zero(2), [1.0, 0.0]
    )
    fld = solve_F(other, TriangleGrid(0.0, 1.0, 16))
    with pytest.raises(GridMismatchError):
        represent_pc(p, fld)  # alpha differs


# ------------------------------------------- field-row sums vs row loops


def _reference_affine_part(problem, field, k0, base_vec):
    # one field row per target, summed with the left-moment weights
    grid = field.grid
    g = problem.A.at(grid.t) @ base_vec + problem.b.at(grid.t)
    W = _dense_left_weights(problem.alpha, grid.N, grid.h)
    M = grid.N - k0
    out = np.empty((M + 1, base_vec.size))
    out[0] = base_vec
    for k in range(1, M + 1):
        i = k0 + k
        Fg = np.einsum("mab,mb->ma", field.values[i, k0:i + 1], g[k0:i + 1])
        out[k] = base_vec + W[k, :k + 1] @ Fg
    return out


def _reference_memory_term(field, k0, alpha, g_nodes, g_first1, g_first2):
    # per row: the table row with its first panel removed, plus the Jacobi
    # sum over the first subinterval with F interpolated linearly there
    values = field.values
    N = field.grid.N
    M = N - k0
    tabs = hat_moment_tables(N, -alpha, alpha - 1.0)
    sig0, sig1 = first_interval_moments(N, -alpha, alpha - 1.0)
    v1, w1 = jacobi_rule_01(SINGULAR_NODES, -alpha, alpha - 1.0)
    v2, w2 = jacobi_rule_01(SINGULAR_NODES, -alpha, 0.0)
    out = np.zeros((M + 1, g_nodes.shape[1]))
    for k in range(1, M + 1):
        i = k0 + k
        w = tabs[k, :k + 1].copy()
        w[0] -= sig0[k]
        w[1] -= sig1[k]
        Frow = values[i, k0:i + 1]
        term = np.einsum("m,mab,mb->a", w, Frow, g_nodes[:k + 1])
        if k == 1:
            vq, wq, gq = v1, w1, g_first1
        else:
            vq, wq, gq = v2, w2 * (k - v2) ** (alpha - 1.0), g_first2
        FPL = ((1.0 - vq)[:, None, None] * Frow[0]
               + vq[:, None, None] * Frow[1])
        out[k] = term + np.einsum("q,qab,qb->a", wq, FPL, gq)
    return out


def _reference_identity_residual(problem, field, k0, steps):
    # residuals per step, and the largest entry of the identity's left side
    alpha = problem.alpha
    N = field.grid.N
    Anodes = problem.A.at(field.grid.t)
    W = _dense_left_weights(alpha, N, field.grid.h)
    tabs = hat_moment_tables(N, -alpha, alpha - 1.0)
    eye = np.eye(problem.n)
    out, scale = [], 0.0
    for k in steps:
        i = k0 + k
        Frow = field.values[i, k0:i + 1]
        lhs = eye + np.einsum("m,mab->ab",
                              W[k, :k + 1], np.matmul(Frow, Anodes[k0:i + 1]))
        rhs = np.einsum("m,mab->ab", tabs[k, :k + 1], Frow) / gamma(1.0 - alpha)
        out.append(float(np.abs(lhs - rhs).max()))
        scale = max(scale, float(np.abs(lhs).max()))
    return out, scale


def _drifting_problem(n, alpha, k0, N, t0=0.2, theta=1.7):
    # time-varying, non-symmetric coefficient, nonzero forcing, and a start
    # segment ending at node k0 of the N grid on [t0, theta]
    A0 = np.array([[0.2, 1.0, 0.4], [-1.3, 0.1, 0.0],
                   [0.3, -0.6, -0.2]])[:n, :n]
    A1 = np.array([[-0.4, 0.3, 0.1], [0.5, 0.6, -0.2],
                   [0.0, 0.7, 0.3]])[:n, :n]
    A = Coefficient(n, lambda t: (np.cos(3.0 * t)[:, None, None] * A0
                                  + t[:, None, None] * A1))
    b = Forcing.from_callable(
        n, lambda t: np.array([np.sin(t), 1.0, np.cos(t)])[:n])
    if k0 == 0:
        return CauchyProblem.from_initial_value(alpha, t0, theta, A, b,
                                                np.ones(n))
    t_star = t0 + (theta - t0) * k0 / N
    seg = GridFn(t0, t_star, k0,
                 np.cos(np.linspace(t0, t_star, k0 + 1))[:, None]
                 * np.ones(n))
    return CauchyProblem(alpha, t0, theta, A, b, History.from_samples(seg))


def _rel(got, ref):
    return np.abs(got - ref).max() / np.abs(ref).max()


def _smooth(t, n):
    # node data of the kind the memory term integrates: one smooth function,
    # sampled at the nodes and at the first subinterval's Jacobi points
    return np.column_stack([np.cos(2.0 * t), 1.0 + t, np.sin(t)])[:, :n]


@pytest.mark.parametrize("alpha", [0.3, 0.7])
@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("N", [1, 2, 3, 64, 130])
def test_field_row_sums_match_row_loops(N, n, alpha):
    # the row sum runs in blocks of _ROWS rows: at N = 130, k0 = 2 and 3
    # give _ROWS + 1 and _ROWS target rows; the identity residual's terms
    # carry a matrix-valued g
    rng = np.random.default_rng(N * 10 + n)
    base = _drifting_problem(n, alpha, 0, N)
    field = solve_F(base, TriangleGrid(0.2, 1.7, N))
    t, h = field.grid.t, field.grid.h
    v1, _ = jacobi_rule_01(SINGULAR_NODES, -alpha, alpha - 1.0)
    v2, _ = jacobi_rule_01(SINGULAR_NODES, -alpha, 0.0)
    for k0 in sorted({0, 1, N // 3, N - 1, N - _ROWS, N + 1 - _ROWS}
                     & set(range(N))):
        problem = _drifting_problem(n, alpha, k0, N)
        start = rng.standard_normal(n)
        affine = _reference_affine_part(problem, field, k0, start)
        assert _rel(_formula_rows(problem, field, k0, start)[0],
                    affine) <= 1e-14
        g = _smooth(t[k0:], n)
        g1, g2 = _smooth(t[k0] + h * v1, n), _smooth(t[k0] + h * v2, n)
        memory = _reference_memory_term(field, k0, alpha, g, g1, g2)
        got, _ = _formula_rows(problem, field, k0, start, g,
                               lambda ts: _smooth(ts, n))
        assert _rel(got, affine + memory) <= 1e-14
        steps = list(range(1, N - k0 + 1))
        ref, scale = _reference_identity_residual(problem, field, k0, steps)
        got = gc_compact_identity_residual(problem, field, steps)
        assert np.abs(np.subtract(got, ref)).max() <= 1e-14 * scale
    # a single target row: the field's last node alone
    start = rng.standard_normal(n)
    assert _rel(_formula_rows(base, field, N, start)[0],
                _reference_affine_part(base, field, N, start)) <= 1e-14


@pytest.mark.parametrize("n", [1, 2])
def test_identity_residual_sums_only_requested_rows(n, monkeypatch):
    N, k0 = 130, 43
    problem = _drifting_problem(n, 0.55, k0, N)
    field = solve_F(problem, TriangleGrid(0.2, 1.7, N))
    every = gc_compact_identity_residual(problem, field, range(1, N - k0 + 1))
    rows = []
    field_rows = cauchy._field_rows

    def counted(*args, **kwargs):
        out = field_rows(*args, **kwargs)
        rows.append(out.shape[0])
        return out

    monkeypatch.setattr(cauchy, "_field_rows", counted)
    assert gc_compact_identity_residual(problem, field, [1, 3]) == [every[0],
                                                                   every[2]]
    assert rows == [4]


# --------------------------------------------- the field from t_star on


@pytest.mark.parametrize("span", [(0.0, 1.0), (0.2, 1.7)],
                         ids=["dyadic", "non-dyadic"])
@pytest.mark.parametrize("n", [1, 2])
def test_restart_grid_field_is_the_full_fields_sub_triangle(n, span):
    # k0 = 63, 64, 65 put t_star on either side of the march's first block
    # edge; the formulas read the restart field where they read the full one
    N, alpha = 130, 0.55
    start = _drifting_problem(n, alpha, 0, N, *span)
    full = solve_F(start, TriangleGrid(*span, N))
    assert cauchy.restart_grid(start, N) == full.grid
    t = full.grid.t
    for k0 in (1, 63, 64, 65, N - 1):
        problem = _drifting_problem(n, alpha, k0, N, *span)
        grid = cauchy.restart_grid(problem, N)
        assert grid == TriangleGrid(float(t[k0]), span[1], N - k0)
        field = solve_F(problem, grid)
        ref = full.planes[:, :, k0:, k0:]
        assert _rel(field.planes, ref) <= 1e-14
        assert field.meta["N"] == N - k0
        for formula in (represent_gc, represent_gc_compact):
            want, got = formula(problem, full), formula(problem, field)
            assert got.meta["N"] == N
            assert _rel(got.x.values, want.x.values) <= 1e-14
            assert np.array_equal(got.x.values[:k0 + 1],
                                  problem.history.w_star.values)
        steps = list(range(1, N - k0 + 1))
        _, scale = _reference_identity_residual(problem, full, k0, steps)
        got = gc_compact_identity_residual(problem, field, steps)
        want = gc_compact_identity_residual(problem, full, steps)
        assert np.abs(np.subtract(got, want)).max() <= 1e-14 * scale


def test_restart_grid_field_mismatches_raise():
    N, k0 = 64, 24
    problem = _drifting_problem(2, 0.55, k0, N)
    t, h = np.linspace(0.2, 1.7, N + 1), 1.5 / N
    grids = [TriangleGrid(float(t[k0 + 1]), 1.7, N - k0 - 1),  # after t_star
             TriangleGrid(float(t[k0]) - 0.5 * h, 1.7, N - k0),  # off lattice
             TriangleGrid(float(t[k0]), float(t[N - 1]), N - k0 - 1),  # short
             TriangleGrid(0.1, 1.7, N)]  # before t0
    for grid in grids:
        field = FundamentalField(grid, problem.alpha,
                                 np.zeros((2, 2, grid.N + 1, grid.N + 1)))
        for formula in (represent_gc, represent_gc_compact, represent_pc):
            with pytest.raises(GridMismatchError):
                formula(problem, field)
        with pytest.raises(GridMismatchError):
            gc_compact_identity_residual(problem, field, [1])
    # the march refuses the last two grids itself
    for grid in grids[2:]:
        with pytest.raises(GridMismatchError):
            solve_F(problem, grid)


def test_represent_pc_needs_a_field_from_t0():
    N, k0 = 64, 24
    restart = _drifting_problem(2, 0.55, k0, N)
    start = _drifting_problem(2, 0.55, 0, N)
    field = solve_F(restart, cauchy.restart_grid(restart, N))
    with pytest.raises(PreconditionError):
        represent_pc(restart, field)  # the problem's segment is no point
    with pytest.raises(GridMismatchError):
        represent_pc(start, field)  # the field starts after t_star = t0
    for formula in (represent_gc, represent_gc_compact):
        with pytest.raises(GridMismatchError):
            formula(start, field)


@pytest.mark.parametrize("k0", [0, 5])
@pytest.mark.parametrize("n", [1, 2])
def test_equation_residual_matches_the_dense_table(n, k0):
    # the residual's convolution against W[1:] @ v with the dense table
    N, alpha = 130, 0.3
    problem = _drifting_problem(n, alpha, k0, N)
    x = solve_direct(problem, N).x
    x.values[k0 + 1:] += np.random.default_rng(n).standard_normal(
        (N - k0, n)) * 1e-3
    kk, _, h, A, b, start = cauchy._equation(problem, N)
    W = _dense_left_weights(alpha, N, h)[:N - k0 + 1, :N - k0 + 1]
    rhs = start + (W[1:] @ (np.einsum("mab,mb->ma", A, x.values[k0:]) + b)
                   ) / gamma(alpha)
    want = np.abs(x.values[k0 + 1:] - rhs).max()
    assert kk == k0 and want > 1e-4
    assert abs(equation_residual(problem, x) - want) <= 1e-14 * np.abs(rhs).max()
