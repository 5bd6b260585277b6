"""Config-driven invariant suite behind the verify command.

Every check returns a record {name, residual, threshold, margin, pass}
with margin = threshold - residual.  Inequality checks (operator bounds,
field bounds) multiply their right-hand side by a fixed 1.05 slack for
discretization and report the worst signed excess, so a pass means the
bound holds with margin on every probed point.

duality is fundamental.dual_residual. The constant-coefficient oracle runs
when A's node samples are all equal; at t_star = t0 one formula is solved.
"""

from __future__ import annotations

import time
from itertools import combinations

import numpy as np

from .cauchy import (METHOD_DIRECT, _star_index, b_star, psi_star,
                     represent_gc, represent_gc_compact, represent_pc,
                     solve_direct)
from .fundamental import TriangleGrid, bounds, dual_residual, solve_F
from .gridfn import GridFn
from .operators import (caputo_derivative, fractional_integral, j_operator,
                        op_constants, r_operator)
from .oracle import constant_coeff_F
from .problem import CauchyProblem, History
from .special import MLParams, gamma, mittag_leffler, ml_scalar

SLACK = 1.05
# rows of the triangle, and probe points of the Hoelder pass, per block
_CHUNK = 256

DIRECT_RESIDUAL_TOL = 1e-10
REPR_RESIDUAL_TOL = 5e-2
EQUIV_TOL_PC = 5e-3
EQUIV_TOL_GC = 1e-2


def _record(name, residual, threshold):
    residual = float(residual)
    threshold = float(threshold)
    if np.isnan(residual):
        ok = False
        residual = 1e308
    else:
        # clamp so reports stay strict-JSON serializable
        residual = float(np.clip(residual, -1e308, 1e308))
        ok = residual <= threshold
    return {"name": name, "residual": residual, "threshold": threshold,
            "margin": threshold - residual, "pass": ok}


def special_checks(alpha):
    out = []
    z = np.linspace(-5.0, 5.0, 101)
    # the series itself (ml_scalar takes E_{1,1} from math.exp), on diag(z)
    e = np.diag(mittag_leffler(MLParams(1.0, 1.0), np.diag(z)))
    out.append(_record("ml_exp_identity", np.abs(e - np.exp(z)).max(), 1e-10))
    pairs = [(a, b) for a in (0.3, 0.5, alpha, 1.0)
             for b in (0.5, 1.0, alpha + 0.5)]
    dev = np.max([abs(ml_scalar(a, 0.0, b) - 1.0 / gamma(b)) for a, b in pairs])
    out.append(_record("ml_at_zero", dev, 1e-13))
    return out


def operator_checks(problem, N):
    """The two operator-identity records, then the four operator-bound ones.

    Both groups probe phi = cos 3t, so R phi and J phi are computed once.
    """
    alpha = problem.alpha
    oc = op_constants(alpha)
    t = np.linspace(problem.t0, problem.theta, N + 1)
    out = []
    # scale-free: the round trip's error is the same on every window
    x = GridFn(problem.t0, problem.theta, N,
               ((t - problem.t0) / (problem.theta - problem.t0)) ** 2)
    back = fractional_integral(caputo_derivative(x, alpha), alpha)
    out.append(_record(
        "op_roundtrip_quadratic",
        np.abs(back.values - (x.values - x.values[0])).max(), 1e-3))
    phi = GridFn(problem.t0, problem.theta, N, np.cos(3.0 * t))
    rv = r_operator(phi, alpha).values
    jv = j_operator(phi, alpha).values
    inner = GridFn(problem.t0, problem.theta, N, phi.values + rv)
    rhs = fractional_integral(inner, alpha)
    out.append(_record("op_transfer_identity",
                       np.abs(jv - rhs.values).max(), 1e-4))

    absphi = np.abs(phi.values)
    runmax = np.maximum.accumulate(absphi)
    supphi = absphi.max()
    out.append(_record("bound_r_node",
                       (np.abs(rv) - SLACK * oc.M_R * runmax).max(), 0.0))

    dt_pow = np.abs(t[:, None] - t[None, :]) ** alpha
    iv = fractional_integral(phi, alpha).values
    excess = np.abs(iv[:, None] - iv[None, :]) - SLACK * oc.H_I * supphi * dt_pow
    np.fill_diagonal(excess, -1.0)
    out.append(_record("bound_i_hoelder", excess.max(), 0.0))

    excess = np.abs(jv[:, None] - jv[None, :]) - SLACK * oc.H_J * supphi * dt_pow
    np.fill_diagonal(excess, -1.0)
    out.append(_record("bound_j_hoelder", excess.max(), 0.0))

    rhs = SLACK * oc.M_J * fractional_integral(
        GridFn(problem.t0, problem.theta, N, runmax), alpha).values
    out.append(_record("bound_j_integral",
                       (np.abs(jv)[1:] - rhs[1:]).max(), 0.0))
    return out


def operator_bound_checks(problem, N):
    return operator_checks(problem, N)[2:]


def _lattice_points(N, target=33):
    stride = max(1, N // (target - 1))
    idx = np.arange(0, N + 1, stride)
    if idx[-1] != N:
        idx = np.append(idx, N)
    ii, jj = np.meshgrid(idx, idx, indexing="ij")
    keep = ii >= jj
    return np.stack([ii[keep], jj[keep]], axis=1)


def _rowsum_norms(F):
    """Row-sum norms of the matrices F[:, :, ...] (n x n leading axes): the
    n columns of |F| added in order, then the maximum over the n rows; a
    NaN entry gives a NaN norm."""
    out = None
    for row in F:
        s = np.abs(row[0])
        for col in row[1:]:
            s += np.abs(col)
        out = s if out is None else np.maximum(out, s, out=out)
    return out


def field_checks(problem, field, apb):
    alpha = problem.alpha
    N = field.grid.N
    vals = field.values
    out = []

    diag = vals[np.arange(N + 1), np.arange(N + 1)]
    dev = np.abs(diag - np.eye(problem.n) / gamma(alpha)).max()
    out.append(_record("field_diagonal", dev, 1e-12))

    # _CHUNK rows of the triangle at a time; the block's square tip above the
    # diagonal holds zeros, and a NaN inside the triangle fails the record
    top = -np.inf
    for r0 in range(0, N + 1, _CHUNK):
        norms = _rowsum_norms(field.planes[:, :, r0:r0 + _CHUNK, :r0 + _CHUNK])
        top = np.maximum(top, norms.max())
    out.append(_record("bound_field_norm", top - SLACK * apb.M_F, 0.0))

    pts = _lattice_points(N)
    near = []
    for k in range(0, N, max(1, N // 64)):
        near.append([k + 1, k])
        if k >= 1:
            near.append([k + 1, k - 1])
    pts = np.concatenate([pts, np.array(near)], axis=0)
    Fp = field.planes[:, :, pts[:, 0], pts[:, 1]]
    # |t_p - t_q|^alpha over the distinct node indices of the points
    nodes, at = np.unique(pts, return_inverse=True)
    at = at.reshape(pts.shape)
    tn = field.grid.t[nodes]
    dt_pow = np.abs(tn[:, None] - tn[None, :]) ** alpha
    worst = -np.inf
    for lo in range(0, len(pts), _CHUNK):
        sl = slice(lo, lo + _CHUNK)
        lhs = _rowsum_norms(Fp[:, :, sl, None] - Fp[:, :, None, :])
        sep = (dt_pow[at[sl, None, 0], at[None, :, 0]]
               + dt_pow[at[sl, None, 1], at[None, :, 1]])
        # self-pairs excluded; masking keeps inf * 0 out when H_F overflows
        allowed = np.full(sep.shape, np.inf)
        pos = sep > 0.0
        allowed[pos] = SLACK * apb.H_F * sep[pos]
        worst = np.maximum(worst, (lhs - allowed).max())
    out.append(_record("bound_field_hoelder", worst, 0.0))
    return out


def run_suite(problem: CauchyProblem, grid_N: int):
    """Full invariant sweep for one configured problem; returns the records
    and the wall seconds of each check group."""
    N = int(grid_N)
    alpha = problem.alpha
    phases = {}
    marks = [time.perf_counter()]

    def lap(phase):
        marks.append(time.perf_counter())
        phases[phase] = phases.get(phase, 0.0) + marks[-1] - marks[-2]

    records = []
    records += special_checks(alpha)
    lap("special")
    records += operator_checks(problem, N)
    lap("operators")

    grid = TriangleGrid(problem.t0, problem.theta, N)
    field = solve_F(problem, grid)
    apb = bounds(problem)
    records += field_checks(problem, field, apb)
    lap("field")

    dual = dual_residual(problem, field, (0, N // 4, N // 2, 3 * N // 4))
    records.append(_record("duality", dual, 5e-3))
    lap("dual")

    Anodes = problem.A.at(grid.t)
    if (Anodes == Anodes[0]).all():
        idx = np.unique(np.linspace(0, N, 65).astype(int))
        dev = np.max([
            np.abs(field.values[i, 0]
                   - constant_coeff_F(Anodes[0], alpha, i * grid.h)).max()
            for i in idx])
        records.append(_record("field_vs_constant_oracle", dev, 5e-3))
    lap("field")

    at_start = problem.t_star == problem.t0
    formulas = ((represent_pc,) if at_start
                else (represent_gc, represent_gc_compact))
    sols = {sol.method: sol for sol in [solve_direct(problem, N)]
            + [formula(problem, field) for formula in formulas]}

    k0 = _star_index(problem, N)
    xs = [sol.x.values[k0:] for sol in sols.values()]
    worst = np.max([np.abs(x - y).max() for x, y in combinations(xs, 2)])
    records.append(_record("method_equivalence", worst,
                           EQUIV_TOL_PC if at_start else EQUIV_TOL_GC))

    for name, sol in sols.items():
        thr = DIRECT_RESIDUAL_TOL if name == METHOD_DIRECT else REPR_RESIDUAL_TOL
        records.append(_record(f"residual_{name}", sol.meta["residual"], thr))

    t = np.linspace(problem.t0, problem.theta, N + 1)
    prefix_ref = problem.history.w_star.sample(t[:k0 + 1])
    dev = np.max([np.abs(sol.x.values[:k0 + 1] - prefix_ref).max()
                  for sol in sols.values()])
    records.append(_record("initial_condition_prefix", dev, 1e-12))
    lap("solutions")

    if at_start:
        k_cut = max(1, round(0.4 * N))
        base = sols[METHOD_DIRECT]
        hist = History.from_samples(base.x.prefix(float(t[k_cut])))
        restarted = CauchyProblem(alpha, problem.t0, problem.theta,
                                  problem.A, problem.b, hist)
        re_sol = represent_gc(restarted, field)
        dev = np.abs(re_sol.x.values[k_cut:] - base.x.values[k_cut:]).max()
        records.append(_record("restart_consistency", dev, EQUIV_TOL_GC))
        lap("restart")
    else:
        records += history_functional_checks(problem, N)
        lap("history")
    return records, phases


def history_functional_checks(problem, N):
    """Continuity modulus of the continuation functional and boundedness of
    the weighted modified forcing, both under grid doubling."""
    alpha = problem.alpha
    phi = problem.history.caputo_samples(alpha)
    moduli, weighted = [], []
    for mult in (1, 2):
        M = (N - _star_index(problem, N)) * mult
        carrier = GridFn(problem.t_star, problem.theta, M,
                         np.zeros((M + 1, 1)))
        psi = psi_star(phi, alpha, carrier)
        h = carrier.h
        moduli.append(np.abs(np.diff(psi.values, axis=0)).max() / h ** alpha)
        bs = b_star(problem, psi)
        steps = (np.arange(1, M + 1) * h) ** alpha
        weighted.append(
            (np.abs(bs.values[1:]).max(axis=1) * steps).max())
    tiny = 1e-300
    return [_record("psi_modulus_stable", moduli[1] / (moduli[0] + tiny), 1.5),
            _record("b_star_weighted_bounded",
                    weighted[1] / (weighted[0] + tiny), 1.5)]


def all_pass(records) -> bool:
    return all(r["pass"] for r in records)
