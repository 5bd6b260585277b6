"""Cauchy problems with an intermediate start segment.

The solution is prescribed on [t0, t_star] and continued to (t_star, theta].
Four routes produce it: a direct march of the equivalent integral equation,
which is the field's march with one column, and three representation
formulas driven by the fundamental field.  The march and the residual that
checks every route read one assembly of that equation, _equation.
The history enters the formulas through the continuation functional psi and
the modified forcing b_star; psi's difference against its value at t_star is
alpha-Hoelder at t_star, so the first subinterval of every memory integral is
integrated with exact point values at the nodes of
quadrules.first_interval_rule, whose hat moments are the table's first panel,
instead of the piecewise-linear shortcut, which would lose the cusp.  Each
formula, and the identity check that links the two general ones, is one pass
of the field's row sum fundamental._field_rows: every weighted term, the
left-moment table's as its O(N) first column and Toeplitz view, is summed
against the field rows, one fused einsum per block of target rows and term,
and the exact first subinterval enters as a per-target head on the nodes at
t_star and one step later.  A formula's meta times that pass (rows_s) and its
lookups (tables_s).

The formulas read F(t, s) for t_star <= s <= t only, where F depends on A
only on [s, t].  So they take the problem's field on its N grid, or on any
tail of it that starts at a node at or before t_star: restart_grid gives the
one from t_star, whose march and tables cost (N - k0)^3 and (N - k0)^2, not
N^3 and N^2.  The solution comes back on the N grid with the segment's
values up to t_star.  represent_pc, whose segment is t0, needs the full grid.

The history functionals (the segment's memory integral, psi in either form)
are quadrules.convolve on the segment's lattice, and one closed-form weight
per (target, node) entry elsewhere (_moment_sums, _smooth_panel_sums).
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, GridMismatchError, PreconditionError
from .fundamental import (FundamentalField, TriangleGrid, _check_grid,
                          _field_rows, _march)
from .gridfn import GridFn
from .operators import fractional_integral
from .problem import CauchyProblem
from .quadrules import (SINGULAR_NODES, SMOOTH_NODES, convolve,
                        first_interval_rule, hat_moment_tables,
                        jacobi_rule_01, lattice_hat_moments,
                        left_moment_weights, left_moments_at)
from .special import gamma

METHOD_DIRECT = "direct"
METHOD_PC = "repr_pc"
METHOD_GC = "repr_gc"
METHOD_GC_COMPACT = "repr_gc_compact"
METHODS = (METHOD_DIRECT, METHOD_PC, METHOD_GC, METHOD_GC_COMPACT)

_PSI_CHUNK = 256
# targets within this many steps of a lattice point count as on it; the grid
# check of _star_index accepts t_star on the same terms
_LATTICE_TOL = 1e-8


@dataclass
class Solution:
    x: GridFn
    method: str
    meta: dict

    def write_csv(self, path):
        return self.x.to_csv(path, label="x")

    def sidecar(self):
        """Metadata record for the companion file next to the CSV."""
        out = {"method": self.method}
        out.update(self.meta)
        return out


def _star_index(problem, N):
    if N < 1:
        raise DomainError("need N >= 1")
    h = (problem.theta - problem.t0) / N
    kf = (problem.t_star - problem.t0) / h
    k0 = int(round(kf))
    if abs(kf - k0) > _LATTICE_TOL:
        raise GridMismatchError(
            f"t_star={problem.t_star} is not a node of the N={N} grid")
    return k0


def _field_star_index(problem, field):
    """t_star's node index k0 on the field's grid, and the N of the problem's
    grid whose tail that grid is.

    The field must be the problem's, on a grid that ends at theta, has the
    step of the problem's N grid and starts at one of its nodes at or before
    t_star: the N grid itself, or restart_grid(problem, N).
    """
    grid = field.grid
    _check_grid(problem, grid)
    if field.n != problem.n or field.alpha != problem.alpha:
        raise GridMismatchError("field dimension or order differs from the problem's")
    lead = (grid.t0 - problem.t0) / grid.h
    N = grid.N + int(round(lead))
    if abs(lead - (N - grid.N)) > _LATTICE_TOL:
        raise GridMismatchError(
            f"the field's grid starts at {grid.t0}, off the lattice of step "
            f"{grid.h} from t0 = {problem.t0}")
    k0 = _star_index(problem, N) - (N - grid.N)
    if k0 < 0:
        raise GridMismatchError(f"the field's grid starts at {grid.t0}, "
                                f"after t_star = {problem.t_star}")
    return k0, N


def restart_grid(problem, N):
    """The grid of the field that the representation formulas read for the
    problem on the N grid: its nodes from t_star to theta, N - k0 steps.
    For t_star = t0 it is the N grid itself."""
    k0 = _star_index(problem, N)
    t = np.linspace(problem.t0, problem.theta, N + 1)
    return TriangleGrid(float(t[k0]), problem.theta, N - k0)


def _prefix_values(problem, t, k0):
    seg = problem.history.w_star
    if seg.N == k0:
        return seg.values.copy()
    return seg.sample(t[:k0 + 1])


def _lattice_start(seg: GridFn, ts):
    """Offset k when ts = seg.b + (k + i) seg.h for i = 0, 1, ..., with
    k >= 0 a whole number of steps or, on the lattice shifted by seg.h/2, a
    half one; None when the targets are off both."""
    if seg.N < 1 or len(ts) == 0:
        return None
    pos = (ts - seg.b) / seg.h
    k = round(2.0 * float(pos[0])) / 2.0
    if k < 0 or np.abs(pos - (k + np.arange(len(ts)))).max() > _LATTICE_TOL:
        return None
    return k


def _moment_sums(p, seg: GridFn, ts, values):
    """Hat-moment integrals of (t - tau)^(p-1) against values over the
    segment's nodes, one row per target t >= seg.b (t > seg.b for p <= 0).

    On the segment's lattice a weight depends only on the distance in steps:
    the end nodes take one interval weight each, and an interior node the far
    weight behind it plus the near weight in front, so the interior sums are
    one convolve.  Elsewhere each (target, node) weight is its own closed form.
    """
    k = _lattice_start(seg, ts)
    if k is None or k % 1 or (k == 0 and p <= 0):
        out = np.empty((len(ts), values.shape[1]))
        for lo in range(0, len(ts), _PSI_CHUNK):
            w = left_moments_at(p, seg.t, ts[lo:lo + _PSI_CHUNK])
            out[lo:lo + _PSI_CHUNK] = w @ values
        return out
    K, nt, k = seg.N, len(ts), int(k)
    # entry e of the profile is the interval whose far node is k + 1 + e
    # steps before the first target
    far, near = lattice_hat_moments(p, seg.h, K + k + nt - 1, k)
    out = near[:nt, None] * values[-1] + far[K - 1:, None] * values[0]
    if K > 1:
        out += convolve(far[:-1] + near[1:], values[1:K])[K - 2:2 - K or None]
    return out


def _history_integrals(phi: GridFn, alpha, ts):
    """(1/Gamma(alpha)) * integral over the start segment of the memory kernel
    (t - tau)^(alpha-1) against phi, one value per requested t."""
    return _moment_sums(alpha, phi, ts, phi.values) / gamma(alpha)


def _equation(problem, N):
    """The direct solve's equation past t_star on the N grid, x_k = w0 + H_k
    + I(A x + b)(t_k), with H the memory integral of the history's Caputo
    density and I fractional_integral from t_star.  Returns k0, the nodes,
    the step h from t_star on, then A and b on those nodes, and w0 + H."""
    alpha = problem.alpha
    k0 = _star_index(problem, N)
    t = np.linspace(problem.t0, problem.theta, N + 1)
    phi = problem.history.caputo_samples(alpha)
    start = problem.w0 + _history_integrals(phi, alpha, t[k0 + 1:])
    return (k0, t, float(problem.theta - t[k0]) / (N - k0),
            problem.A.at(t[k0:]), problem.b.at(t[k0:]), start)


def equation_residual(problem, x: GridFn):
    """Max residual of the discretized integral equation over nodes past t_star.

    The equation states x(t) = w(t0) + history integral + memory integral of
    A x + b from t_star to t, as solve_direct assembles and solves it; the
    memory integral is fractional_integral's, which builds no dense table.
    """
    k0, t, _, Anodes, bnodes, start = _equation(problem, x.N)
    v = np.einsum("mab,mb->ma", Anodes, x.values[k0:]) + bnodes
    memory = fractional_integral(GridFn(t[k0], problem.theta, x.N - k0, v),
                                 problem.alpha)
    return float(np.abs(x.values[k0 + 1:] - (start + memory.values[1:])).max())


def solve_direct(problem: CauchyProblem, N: int) -> Solution:
    """Implicit product-integration march of the equivalent integral equation.

    The field's march, fundamental._march, with one column and O(N) memory:
    T is left_moment_weights' Toeplitz view, O(N), c_k = 1/Gamma(alpha),
    and R_k gathers w0, the history's memory integral (of its Caputo
    density) and fractional_integral of b and of the known A x at t_star.
    The state's row 0 stays zero, so the view's column 0 is never used.
    meta records the seconds of the factorisations (factor_s) and the
    substitutions (solves_s).
    """
    t_start = time.perf_counter()
    k0, t, h, Anodes, bnodes, start = _equation(problem, N)
    alpha, M = problem.alpha, N - k0
    xv = np.empty((N + 1, problem.n))
    xv[:k0 + 1] = _prefix_values(problem, t, k0)
    known = GridFn(t[k0], problem.theta, M, bnodes.copy())
    known.values[0] += Anodes[0] @ xv[k0]
    rhs = np.zeros((M + 1, problem.n, 1))
    rhs[1:, :, 0] = start + fractional_integral(known, alpha).values[1:]
    T = left_moment_weights(alpha, M, h)[1]

    def store(k, X):
        xv[k0 + k] = X[:, 0, 0]

    phases = _march(Anodes, lambda k0, k1: T[k0:k1, :k1],
                    np.full(M + 1, 1.0 / gamma(alpha)), rhs,
                    np.zeros((M + 1, problem.n, 1, 1)), store)
    return _assemble(problem, xv, METHOD_DIRECT, t_start, **phases)


def _psi_defining(phi: GridFn, alpha, ts):
    """Continuation functional from its defining quadrature, at points ts.

    psi(t) = (sin(pi alpha)/pi) * integral over the start segment of
    (t_star - tau)^alpha phi(tau) / (t - tau).  All targets share one
    smooth-panel sum, _smooth_panel_sums.  The cusp factor on the last
    interval is carried by a Jacobi weight; at t == t_star the kernel gains
    an extra power and a matching rule takes over.  Accuracy degrades when
    0 < t - t_star << h; callers use the proper-integral form for such
    points instead.
    """
    ts = np.asarray(ts, dtype=float)
    vals = _smooth_panel_sums(phi, alpha, ts)
    if phi.N == 0:
        return vals
    tstar, hh = phi.b, phi.h
    at_star = np.abs(ts - tstar) <= 1e-12 * max(tstar - phi.a, 1.0)
    u, w = jacobi_rule_01(SINGULAR_NODES, 0.0, alpha)
    pts = tstar - hh * (1.0 - u)
    vals[~at_star] += (w * hh ** (1.0 + alpha)
                       / (ts[~at_star, None] - pts)) @ phi.sample(pts)
    # kernel power drops by one at the segment end; dedicated rule
    u, w = jacobi_rule_01(SINGULAR_NODES, 0.0, alpha - 1.0)
    vals[at_star] += (w * hh ** alpha) @ phi.sample(tstar - hh * (1.0 - u))
    return math.sin(alpha * math.pi) / math.pi * vals


def _smooth_panel_sums(phi: GridFn, alpha, ts):
    """The smooth panels' part of _psi_defining at targets ts: panels
    i = 0..Nh-2 of a segment of Nh steps, SMOOTH_NODES Legendre nodes each.

    On the segment's lattice, ts = t_star + (k + r) hh for r = 0..nt-1, node
    u_q of panel i lies m - u_q steps before target r, m = Nh + k + r - i, so
    the sum is one convolve of the kernels 1/((m - u_q) hh) with the weighted
    values.  k may be a half step: targets hh/2 apart are two runs, even and
    odd.  Elsewhere each entry is summed on its own, _PSI_CHUNK targets at a
    time.
    """
    Nh, hh, n = phi.N, phi.h, phi.value_shape[0]
    out = np.zeros((len(ts), n))
    if Nh < 2:
        return out
    u, w = jacobi_rule_01(SMOOTH_NODES, 0.0, 0.0)
    base = phi.a + (np.arange(Nh - 1)[:, None] + u[None, :]) * hh
    wts = w[None, :] * hh * (phi.b - base) ** alpha
    fvals = phi.sample(base)
    runs = [(slice(None), _lattice_start(phi, ts))]
    if runs[0][1] is None and len(ts) > 1:
        runs = [(slice(s, None, 2), _lattice_start(phi, ts[s::2])) for s in (0, 1)]
    if any(k is None for _, k in runs):
        pts, wts, fvals = base.ravel(), wts.ravel(), fvals.reshape(-1, n)
        for lo in range(0, len(ts), _PSI_CHUNK):
            # the kernel is built in place: one block-sized temporary
            kern = ts[lo:lo + _PSI_CHUNK, None] - pts
            np.divide(wts, kern, out=kern)
            out[lo:lo + _PSI_CHUNK] = kern @ fvals
        return out
    data = wts[..., None] * fvals
    for sl, k in runs:
        m = k + 2 + np.arange(Nh + len(out[sl]) - 2, dtype=float)
        kern = 1.0 / ((m[:, None] - u) * hh)
        out[sl] += convolve(kern, data)[Nh - 2:2 - Nh or None]
    return out


def _psi_from_history(w_star: GridFn, alpha, ts):
    """Continuation functional from the proper-integral identity.

    psi(t) = (t - t_star)^alpha * (alpha/Gamma(1-alpha)) * integral over the
    segment of (w(xi) - w(t0)) (t - xi)^(-1-alpha).  The hat moments of the
    inner kernel are elementary, so the only error is the segment's own
    piecewise-linear representation; the form stays accurate arbitrarily
    close to t_star, where the defining quadrature does not.
    """
    ts = np.asarray(ts, dtype=float)
    out = np.empty((len(ts), w_star.value_shape[0]))
    dw = w_star.values - w_star.values[0]
    tstar = w_star.b
    pref = alpha / gamma(1.0 - alpha)
    at_star = ts - tstar <= 1e-12 * max(tstar - w_star.a, 1.0)
    out[at_star] = dw[-1] / gamma(1.0 - alpha)
    away = ~at_star
    out[away] = (pref * (ts[away] - tstar)[:, None] ** alpha
                 * _moment_sums(-alpha, w_star, ts[away], dw))
    return out


def psi_star(phi: GridFn, alpha, target: GridFn) -> GridFn:
    """Continuation functional on a target grid starting at the segment end."""
    if abs(target.a - phi.b) > 1e-12 * max(abs(phi.b), 1.0):
        raise DomainError("target grid must start at the segment end")
    return GridFn(target.a, target.b, target.N,
                  _psi_defining(phi, alpha, target.t))


def b_star(problem: CauchyProblem, psi: GridFn) -> GridFn:
    """Modified forcing from the difference-quotient form.

    At the segment end the quotient is taken one-sided from the first
    subinterval; past it the subtraction removes the memory singularity
    analytically.
    """
    tstar = problem.t_star
    if abs(psi.a - tstar) > 1e-12 * max(abs(tstar), 1.0):
        raise DomainError("psi must live on [t_star, theta]")
    if psi.N < 1:
        raise DomainError("need at least one subinterval past t_star")
    t = psi.t
    h = psi.h
    alpha = problem.alpha
    bn = problem.b.at(t)
    dq = np.empty_like(psi.values)
    dq[0] = (psi.values[1] - psi.values[0]) / h ** alpha
    steps = (np.arange(1, psi.N + 1) * h) ** alpha
    dq[1:] = (psi.values[1:] - psi.values[0]) / steps[:, None]
    return GridFn(psi.a, psi.b, psi.N, dq + bn)


def _formula_rows(problem, field, k0, start_vec, g_nodes=None, g_at=None):
    """A representation formula on targets t_star + k h, k = 0..M = N - k0,
    in one pass over the field rows, with the left-moment weights up to M:
    start_vec + memory integral of F (A start_vec + b), plus, when g_nodes
    is given, the memory term integral of F(t,.) g(.) (t-.)^(alpha-1)
    (.-t_star)^(-alpha).  Returns the values and the seconds of the weight
    lookups and the row sum (tables_s, rows_s) for every formula's meta.

    g is piecewise linear on the grid except on the first subinterval, where
    exact point values g_at(ts) at the nodes of quadrules.first_interval_rule
    replace it; F itself stays piecewise linear throughout.  The rule's hat
    moments are the table's columns 0 and 1, so the head, the first
    subinterval's weight on the field at t_star and one step later, is the
    rule's sum of g - g_0 and of g - g_1: it swaps the table's linear g on
    that panel for the exact values, with no moment subtracted.
    """
    grid = field.grid
    alpha, N, M = problem.alpha, grid.N, grid.N - k0
    t = grid.t[k0:]
    t_tables = time.perf_counter()
    W = left_moment_weights(alpha, M, grid.h)
    if g_nodes is not None:
        v, wq = first_interval_rule(M, -alpha, alpha - 1.0)
        H = hat_moment_tables(N, -alpha, alpha - 1.0)
    tables_s = time.perf_counter() - t_tables
    terms = [(W, problem.A.at(t) @ start_vec + problem.b.at(t))]
    head = None
    if g_nodes is not None:
        g_first = g_at(problem.t_star + grid.h * v)
        head = np.stack([(wq * (1.0 - v)) @ (g_first - g_nodes[0]),
                         (wq * v) @ (g_first - g_nodes[1])], axis=1)
        terms.append(((H[:, 0], H), g_nodes))
    t_rows = time.perf_counter()
    rows = start_vec + _field_rows(field, k0, terms, head)
    return rows, {"tables_s": tables_s, "rows_s": time.perf_counter() - t_rows}


def _assemble(problem, xv, method, t_start, **phases):
    x = GridFn(problem.t0, problem.theta, xv.shape[0] - 1, xv)
    t_res = time.perf_counter()
    residual = equation_residual(problem, x)
    meta = {"N": xv.shape[0] - 1, **phases, "residual": residual,
            "residual_s": time.perf_counter() - t_res,
            "wall_time": time.perf_counter() - t_start}
    return Solution(x, method, meta)


def _formula_at_t0(problem, field, method, t_start):
    """Either formula when the start segment collapses to t0: no memory."""
    xv, phases = _formula_rows(problem, field, 0, problem.w0)
    return _assemble(problem, xv, method, t_start, **phases)


def check_pc(problem, N):
    """represent_pc's precondition on the N grid, before any march."""
    if _star_index(problem, N):
        raise PreconditionError(
            "this formula requires the start segment to collapse to t0")


def represent_pc(problem: CauchyProblem, field: FundamentalField) -> Solution:
    """Representation formula for a start value given at t0 itself, against
    the field on the problem's full grid [t0, theta]."""
    check_pc(problem, _field_star_index(problem, field)[1])
    return _formula_at_t0(problem, field, METHOD_PC, time.perf_counter())


def _general_formula(problem, field, k0, N, psi_nodes, anchor, start_vec,
                     method, t_start):
    """Shared tail of the two general formulas past t_star, on the problem's
    N grid; k0 is t_star's index on the field's grid.

    The memory term integrates psi - anchor, with its first subinterval from
    the proper-integral form of psi; the affine part starts from start_vec;
    nodes up to t_star come from the start segment on the problem's grid.
    """
    w_seg = problem.history.w_star
    k_star = N - field.grid.N + k0
    xv = np.empty((N + 1, problem.n))
    xv[k_star:], phases = _formula_rows(
        problem, field, k0, start_vec, psi_nodes - anchor,
        lambda ts: _psi_from_history(w_seg, problem.alpha, ts) - anchor)
    xv[:k_star + 1] = _prefix_values(
        problem, np.linspace(problem.t0, problem.theta, N + 1), k_star)
    return _assemble(problem, xv, method, t_start, **phases)


def represent_gc(problem: CauchyProblem, field: FundamentalField) -> Solution:
    """General representation: memory enters through the split modified
    forcing, with the continuation functional's cusp handled exactly.

    Past t0 the field may start at t_star (restart_grid); at t_star = t0
    this is represent_pc."""
    t_start = time.perf_counter()
    k0, N = _field_star_index(problem, field)
    if (k0, N) == (0, field.grid.N):
        return _formula_at_t0(problem, field, METHOD_GC, t_start)
    phi = problem.history.caputo_samples(problem.alpha)
    psi_nodes = _psi_defining(phi, problem.alpha, field.grid.t[k0:])
    return _general_formula(problem, field, k0, N, psi_nodes, psi_nodes[0],
                            problem.history.w_star.values[-1], METHOD_GC,
                            t_start)


def represent_gc_compact(problem: CauchyProblem,
                         field: FundamentalField) -> Solution:
    """Compact representation: consumes only the segment itself, never its
    Caputo density.  The middle term is not continuous at t_star, so that
    node is set from the start segment, not from the formula.  The field is
    as for represent_gc."""
    t_start = time.perf_counter()
    k0, N = _field_star_index(problem, field)
    if (k0, N) == (0, field.grid.N):
        return _formula_at_t0(problem, field, METHOD_GC_COMPACT, t_start)
    psi_nodes = _psi_from_history(problem.history.w_star, problem.alpha,
                                  field.grid.t[k0:])
    return _general_formula(problem, field, k0, N, psi_nodes, 0.0, problem.w0,
                            METHOD_GC_COMPACT, t_start)


def gc_compact_identity_residual(problem, field, steps):
    """Residual of the kernel identity linking the two general formulas.

    Id + integral of F A (t-.)^(alpha-1) must match 1/Gamma(1-alpha) times
    the integral of F (t-.)^(alpha-1) (.-t_star)^(-alpha); returns the max
    entry residual at each requested step count past t_star.  Only the
    field rows up to the largest step are summed.  The field is as for
    represent_gc.
    """
    k0, _ = _field_star_index(problem, field)
    alpha, N, K = problem.alpha, field.grid.N, max(steps, default=0)
    for k in steps:
        if not 1 <= k <= N - k0:
            raise DomainError(f"step {k} outside 1..{N - k0}")
    t = field.grid.t[k0:k0 + K + 1]
    eye = np.eye(problem.n)
    H = hat_moment_tables(N, -alpha, alpha - 1.0)
    terms = [(left_moment_weights(alpha, K, field.grid.h), problem.A.at(t)),
             ((H[:, 0], H),
              np.broadcast_to(-eye / gamma(1.0 - alpha), t.shape + eye.shape))]
    resid = np.abs(eye + _field_rows(field, k0, terms)).max(axis=(1, 2))
    return [float(resid[k]) for k in steps]
