"""Fundamental matrix field on the triangle t >= s.

The field F solves a weakly singular matrix Volterra equation whose value on
the diagonal is Id/Gamma(alpha). One implicit product-integration march,
_march, solves it column by column (production path). The dual field G, whose
equation multiplies the coefficient from the right, is the same march on the
mirrored, transposed coefficient, and cauchy.solve_direct is the same march
with one column. A fixed-point iteration under an exponentially weighted norm
is kept as a cross-check. A-priori sup and Hoelder bounds for F are computed
from the coefficient's sup norm.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field as _dcfield

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import (DomainError, GridMismatchError, NonConvergenceError,
                     SingularSystemError)
from .gridfn import write_table
from .operators import op_constants
from .problem import CauchyProblem
from .quadrules import hat_moment_tables
from .special import gamma, ml_scalar

_EXP_GUARD = 700.0


@dataclass(frozen=True)
class TriangleGrid:
    """Uniform nodes on [t0, theta]; holds index pairs (i, j) with j <= i."""

    t0: float
    theta: float
    N: int

    def __post_init__(self):
        if not self.theta > self.t0:
            raise DomainError("need theta > t0")
        if self.N < 1:
            raise DomainError("need N >= 1")

    @property
    def h(self):
        return (self.theta - self.t0) / self.N

    @property
    def t(self):
        return np.linspace(self.t0, self.theta, self.N + 1)


@dataclass
class FundamentalField:
    """Field values F(t_i, t_j) on the triangle j <= i of a grid.

    The field is stored as component planes: planes[a, b] is the
    (N+1, N+1) array of the (a, b) entries, NaN above the diagonal. values
    is the writable view planes.transpose(2, 3, 0, 1), so values[i, j] is
    the n x n matrix at (t_i, t_j). The planes let _field_rows sum the rows
    of the representation formulas a block of rows at a time.
    """

    grid: TriangleGrid
    alpha: float
    planes: np.ndarray  # (n, n, N+1, N+1); NaN above the diagonal
    meta: dict = _dcfield(default_factory=dict)

    @property
    def values(self):
        """(N+1, N+1, n, n) view of the planes; NaN above the diagonal."""
        return self.planes.transpose(2, 3, 0, 1)

    @property
    def n(self):
        return self.planes.shape[0]

    def at(self, i, j):
        """Matrix value at (t_i, t_j); j must not exceed i."""
        N = self.grid.N
        if not (0 <= j <= i <= N):
            raise DomainError(f"index pair ({i}, {j}) outside the triangle")
        return self.values[i, j]

    def write_csv(self, path):
        """Write the triangle j <= i, row-major, one line t_i,t_j,F_ij per
        pair, by write_table on every CPU; returns its process count. The
        N+1 grid times are formatted once and reused on every line."""
        N, n = self.grid.N, self.n
        times = np.array(["%.17g" % v for v in self.grid.t.tolist()],
                         dtype=object)
        flat = self.planes.reshape(n * n, N + 1, N + 1)
        pairs = np.tril_indices(N + 1)  # (i, j), j <= i, row-major

        def rows(q0, q1):
            i, j = pairs[0][q0:q1], pairs[1][q0:q1]
            return np.column_stack([times[i], times[j], flat[:, i, j].T])

        names = ",".join(f"F_{r+1}{c+1}" for r in range(n) for c in range(n))
        return write_table(path, "t,s," + names, len(pairs[0]), rows,
                           ["%s", "%s"] + ["%.17g"] * (n * n))


def z_value(field: FundamentalField, i, j):
    """Singular-normalized value F(t_i,t_j)/(t_i-t_j)^(1-alpha); needs j < i."""
    if j >= i:
        raise DomainError("z_value is undefined on the diagonal")
    dt = (i - j) * field.grid.h
    return field.at(i, j) / dt ** (1.0 - field.alpha)


@dataclass(frozen=True)
class AprioriBounds:
    kappa: float
    M_A: float
    M_F: float
    H_F: float


def bounds(problem: CauchyProblem) -> AprioriBounds:
    """Sup bound M_F and two-variable Hoelder bound H_F for the field.

    M_A is the max over 513 sample nodes of the max-row-sum norm of A. kappa is
    fixed so the weighted-norm contraction factor is exactly 1/2 (any positive
    choice with factor < 1 works; a fixed rule keeps the bounds reproducible).
    """
    c = op_constants(problem.alpha)
    ts = np.linspace(problem.t0, problem.theta, 513)
    M_A = float(np.abs(problem.A.at(ts)).sum(axis=2).max())
    alpha = problem.alpha
    span = problem.theta - problem.t0
    if M_A > 0.0:
        kappa = (2.0 * M_A * c.M_J) ** (1.0 / alpha)
        q = 0.5
    else:
        kappa = 1.0
        q = 0.0
    grow = span * kappa
    M_F = math.inf if grow > _EXP_GUARD else math.exp(grow) / (gamma(alpha) * (1.0 - q))
    if math.isinf(M_F):
        H_F = math.inf
    else:
        H_F = c.H_J * M_A * M_F * ml_scalar(alpha, span ** alpha * M_A * c.M_J)
    return AprioriBounds(kappa=kappa, M_A=M_A, M_F=M_F, H_F=H_F)


def _check_grid(problem, grid):
    span = problem.theta - problem.t0
    if (abs(grid.t0 - problem.t0) > 1e-12 * span
            or abs(grid.theta - problem.theta) > 1e-12 * span):
        raise GridMismatchError("grid interval differs from the problem's")


# Steps per block and per sub-block of the march (see _march).
_BLOCK = 64
_SUB = 8


# the elimination's error state: only an invalid operation raises
_INVALID_RAISES = {"invalid": "raise", "over": "ignore", "divide": "ignore",
                   "under": "ignore"}
_INVALID = "invalid value in the elimination"


def _factor(LU):
    """Factor the batch of small n x n systems LU[:, :, b] in place.

    Gaussian elimination with partial pivoting, vectorised over the batch
    and looped over the n pivot columns. Each column takes as pivot its
    first entry of largest magnitude at or below the diagonal, as LAPACK
    does; the multipliers stay below the diagonal. Returns per column the
    members that swap rows and their pivot rows. np.linalg.solve's error
    contract holds: an exact zero pivot, or an invalid floating-point
    operation, raises LinAlgError; overflow and underflow pass silently.
    """
    n, B = LU.shape[0], LU.shape[-1]
    swaps = []
    try:
        with np.errstate(**_INVALID_RAISES):
            for c in range(n):
                size = np.abs(LU[c:, c])
                p, top = np.zeros(B, np.intp), size[0]
                for r in range(1, n - c):
                    p[size[r] > top] = r
                    top = np.maximum(top, size[r])
                swap = np.flatnonzero(p)
                rows = p[swap] + c
                LU[c, :, swap], LU[rows, :, swap] = LU[rows, :, swap], LU[c, :, swap]
                swaps.append((swap, rows))
                if not LU[c, c].all():
                    raise np.linalg.LinAlgError("Singular matrix")
                LU[c + 1:, c] /= LU[c, c]
                LU[c + 1:, c + 1:] -= LU[c + 1:, c, None] * LU[c, c + 1:]
    except FloatingPointError:
        raise np.linalg.LinAlgError(_INVALID) from None
    return swaps


def _substitute(LU, swaps, X, first=0):
    """Overwrite X[:, :, b] by the solution of _factor's member first + b:
    its swaps, forward elimination, then back substitution, with _factor's
    arithmetic and errors."""
    n, LU = LU.shape[0], LU[:, :, first:first + X.shape[-1]]
    try:
        with np.errstate(**_INVALID_RAISES):
            for c, (swap, rows) in enumerate(swaps):
                if swap.size:
                    lo, hi = np.searchsorted(swap, [first, first + X.shape[-1]])
                    s, r = swap[lo:hi] - first, rows[lo:hi]
                    X[c, :, s], X[r, :, s] = X[r, :, s], X[c, :, s]
            for c in range(n - 1):
                X[c + 1:] -= LU[c + 1:, c, None] * X[c]
            for c in range(n - 1, -1, -1):
                X[c] /= LU[c, c]
                if c:
                    X[:c] -= LU[:c, c, None] * X[c]
    except FloatingPointError:
        raise np.linalg.LinAlgError(_INVALID) from None


def _march(Anodes, tables, c, rhs, AX0, store):
    """March the product-integration Volterra equation over K = len(c) - 1
    steps; returns the seconds spent factoring (factor_s) and substituting
    (solves_s).

    Column j of the unknown X lives while j + k <= K. Its step k solves

        (I - c_k T[k, k] A_{j+k}) X_{k,j}
            = R_k + c_k sum_{m<k} T[k, m] A_{j+m} X_{m,j}

    for the n x p block X_{k,j}, given Anodes[i] = A_i, the rows of tables
    T, rhs[k] = R_k and AX0[:, :, j] = A_j X_{0,j}; store(k, X) receives
    the step's solution, X[:, :, j] = X_{k,j}. The state is batch-last:
    AX[m, a, b, j] is entry (a, b) of A_{j+m} X_{m,j}. Before step m, row
    m of AX gathers its right-hand side; the step solves for X there, hands
    it to store and replaces it by A X. In the block of steps from k0 on,
    the terms m < k0 come from one GEMM per entry at its start, and its
    systems are factored together first (_factor; each step then only
    substitutes); in its sub-block from s0 on, the terms k0 <= m < s0 come
    from one GEMM per entry; only s0 <= m < k are summed step by step. Row
    m keeps partial sums past its last column, K - m; they only reach
    columns that no later step reads. When a block's factoring fails, its
    steps march up to the first one that fails alone, which is named.
    """
    K, n, (_, p, J) = len(c) - 1, Anodes.shape[-1], AX0.shape
    selfw = c * np.diagonal(tables)[:K + 1]
    singular = "self-weight system singular at step {}; refine N"

    Ab = np.zeros((n, n, K + _BLOCK))  # zeros past node K: those systems are I
    Ab[:, :, :K + 1] = Anodes.transpose(1, 2, 0)
    AX = np.zeros((K + 1, n, p, J))
    AX[0] = AX0
    LU = np.empty(_BLOCK * n * n * min(J, K))

    def systems(s0, s1, width):
        """Steps s0..s1-1's systems, member j of step s0 + q at q width + j."""
        lu = LU[:n * n * (s1 - s0) * width].reshape(n, n, s1 - s0, width)
        window = sliding_window_view(Ab, width, axis=-1)[:, :, s0:s1]
        np.multiply(-selfw[s0:s1, None], window, out=lu)
        lu.reshape(n * n, -1)[::n + 1] += 1.0
        return lu.reshape(n, n, -1)

    factor_s = solves_s = 0.0
    for k0 in range(1, K + 1, _BLOCK):
        k1, live = min(k0 + _BLOCK, K + 1), min(J, K + 1 - k0)
        T = c[k0:k1, None] * tables[k0:k1, k0:k1]
        t_factor = time.perf_counter()
        bad, lu = k1, systems(k0, k1, live)
        try:
            swaps = _factor(lu)
        except np.linalg.LinAlgError:
            for bad in range(k0, k1):  # the first step that fails alone
                try:
                    _factor(systems(bad, bad + 1, min(J, K + 1 - bad)))
                except np.linalg.LinAlgError:
                    break
            lu = systems(k0, bad, live)  # the steps before it
            swaps = _factor(lu)
        factor_s += time.perf_counter() - t_factor
        for s0 in range(k0, k1, _SUB):
            s1 = min(s0 + _SUB, k1)
            rows = slice(s0 - k0, s1 - k0)
            for a, b in np.ndindex(n, p):
                if s0 == k0:  # R_k and the block's far sums
                    np.matmul(tables[k0:k1, :k0], AX[:k0, a, b, :live],
                              out=AX[k0:k1, a, b, :live])
                    AX[k0:k1, a, b, :live] *= c[k0:k1, None]
                    AX[k0:k1, a, b, :live] += rhs[k0:k1, a, b, None]
                AX[s0:s1, a, b, :live] += T[rows, :s0 - k0] @ AX[k0:s0, a, b, :live]
            for k in range(s0, s1):
                if k == bad:
                    raise SingularSystemError(singular.format(k))
                i, cols = k - k0, min(J, K + 1 - k)
                X = AX[k, :, :, :cols]
                if k > s0:
                    X += np.matmul(T[i, s0 - k0:i],
                                   AX[s0:k, :, :, :cols].transpose(1, 2, 0, 3))
                t_solve = time.perf_counter()
                try:
                    _substitute(lu, swaps, X, i * live)
                except np.linalg.LinAlgError:
                    raise SingularSystemError(singular.format(k)) from None
                solves_s += time.perf_counter() - t_solve
                store(k, X)
                np.einsum("acj,cbj->abj", Ab[:, :, k:k + cols], X.copy(), out=X)
    return {"factor_s": factor_s, "solves_s": solves_s}


def _field_march(Anodes, alpha, grid):
    """_march for solve_F on the coefficient samples Anodes: one column per
    diagonal node, T the (alpha-1, alpha-1) hat-moment table,
    c_k = (k h)^alpha/Gamma(alpha) and R_k = Id/Gamma(alpha). Returns the
    component planes and the phase times. Each step writes its entries
    (j + k, j), at flat positions k (N+1) + j (N+2), through one strided view.
    """
    t_start = time.perf_counter()
    N, n = grid.N, Anodes.shape[-1]
    tables = hat_moment_tables(N, alpha - 1.0, alpha - 1.0)
    t_tables = time.perf_counter()
    ga = gamma(alpha)
    planes = np.full((n, n, N + 1, N + 1), np.nan)
    pflat = planes.reshape(n, n, (N + 1) ** 2)
    pflat[:, :, ::N + 2] = np.eye(n)[:, :, None] / ga

    def store(k, X):
        pflat[:, :, k * (N + 1)::N + 2][:, :, :X.shape[-1]] = X

    phases = _march(Anodes, tables, (np.arange(N + 1) * grid.h) ** alpha / ga,
                    np.broadcast_to(np.eye(n) / ga, (N + 1, n, n)),
                    Anodes.transpose(1, 2, 0) / ga, store)
    return planes, {"tables_s": t_tables - t_start,
                    "march_s": time.perf_counter() - t_tables, **phases}


def solve_F(problem: CauchyProblem, grid: TriangleGrid) -> FundamentalField:
    """Implicit product-integration march, column by column (_march).

    Column j marches upward from the diagonal; the unknown node appears
    inside its own moment weight, so each step solves a small n x n system
    for every column. meta records the time spent on the hat-moment tables
    (tables_s), on the march (march_s) and, within the march, on the
    factorisations (factor_s) and the substitutions (solves_s).
    """
    _check_grid(problem, grid)
    t_start = time.perf_counter()
    planes, phases = _field_march(problem.A.at(grid.t), problem.alpha, grid)
    meta = {"method": "march", "N": grid.N, **phases,
            "wall_time": time.perf_counter() - t_start}
    return FundamentalField(grid, problem.alpha, planes, meta)


def solve_F_picard(problem: CauchyProblem, grid: TriangleGrid,
                   max_iter=80, tol=1e-10) -> FundamentalField:
    """Fixed-point iteration for the same discrete equation as solve_F.

    Stops when the sup norm of an update over the whole triangle drops to
    tol. A sweep need not contract: on a coarse grid the self-weight term
    c_1 w_1[1] A can keep the iteration from converging where the march
    solves the same system. Where bounds() finds exp(kappa (theta - t0))
    past the double range (M_F = inf), the iteration is refused: there the
    sweep can grow until it overflows. Kept as an independent cross-check
    of the march, not a production path.
    """
    _check_grid(problem, grid)
    t_start = time.perf_counter()
    alpha, N, h, n = problem.alpha, grid.N, grid.h, problem.n
    Anodes = problem.A.at(grid.t)
    tables = hat_moment_tables(N, alpha - 1.0, alpha - 1.0)
    ga = gamma(alpha)
    diag = np.eye(n) / ga
    ck = (np.arange(N + 1) * h) ** alpha / ga
    if math.isinf(bounds(problem).M_F):
        raise NonConvergenceError(
            "fixed-point sweep cannot certify convergence: exp(kappa (theta - t0))"
            " overflows for this coefficient; use the march")

    # diagonal-major iterate: cur[k, j] ~ F(t_{j+k}, t_j), valid for j <= N-k
    cur = np.broadcast_to(diag, (N + 1, N + 1, n, n)).copy()
    # Hankel view: A_shift[m, j] = A at node m+j for m+j <= N, zeros beyond
    Apad = np.concatenate([Anodes, np.zeros((N, n, n))])
    A_shift = sliding_window_view(Apad, N + 1, axis=0).transpose(0, 3, 1, 2)

    # an entry with j <= N-k reads only such entries; the rest are never
    # read by them and are masked out of the norm
    valid = np.add.outer(np.arange(N + 1), np.arange(N + 1)) <= N
    for iterations in range(1, max_iter + 1):
        AP = np.matmul(A_shift, cur).reshape(N + 1, -1)
        nxt = diag + ck[:, None, None, None] * (tables @ AP).reshape(cur.shape)
        dk = np.where(valid, np.abs(nxt - cur).sum(axis=-1).max(axis=-1), 0.0)
        update = float(dk.max())
        cur = nxt
        if update <= tol:
            break
    else:
        raise NonConvergenceError(
            f"fixed-point sweep still above tol after {max_iter} iterations")

    planes = np.full((n, n, N + 1, N + 1), np.nan)
    ii, jj = np.tril_indices(N + 1)
    planes.transpose(2, 3, 0, 1)[ii, jj] = cur[ii - jj, jj]
    meta = {"method": "picard", "N": N, "iterations": iterations,
            "update_norm": update,
            "wall_time": time.perf_counter() - t_start}
    return FundamentalField(grid, alpha, planes, meta)


def solve_G_dual(problem: CauchyProblem, grid: TriangleGrid) -> FundamentalField:
    """Dual field G, whose equation multiplies the coefficient from the right.

    G is solve_F's march run on the mirrored, transposed coefficient
    A'(t) = A(t0 + theta - t)^T, mirrored back: G[i, j] = F'[N-j, N-i]^T.
    The hat-moment weights are symmetric (w_k[m] = w_k[k-m]), so this is the
    backward march in the second argument with the small systems solved
    from the right. meta carries the same phase times as solve_F's.
    """
    _check_grid(problem, grid)
    t_start = time.perf_counter()
    Anodes = problem.A.at(grid.t)
    mirrored, phases = _field_march(np.swapaxes(Anodes[::-1], 1, 2),
                                    problem.alpha, grid)
    planes = np.ascontiguousarray(
        mirrored.transpose(1, 0, 3, 2)[:, :, ::-1, ::-1])
    meta = {"method": "dual_march", "N": grid.N, **phases,
            "wall_time": time.perf_counter() - t_start}
    return FundamentalField(grid, problem.alpha, planes, meta)


# Target rows per block of the field-row sum.
_ROWS = 128


def _field_rows(field, k0, terms, head=None):
    """sum over m <= k of F(t_{k0+k}, t_{k0+m}) q_k[m], k = 0..len(g) - 1,
    with q_k[m] the sum of weights[k, m] g[m] over the (weights, g) terms,
    plus head[k] on q_k[0] and q_k[1] for k >= 1 when given; g holds one
    node vector or node matrix per node from t_{k0} up to the last target.

    The rows are summed _ROWS at a time on the component planes: for each
    (a, b), the block of plane F_ab times the block of a term's weights is
    one matrix product with g[:, b]. Only the block's square tip reaches
    above the diagonal, where the planes hold NaN; it is masked to zero.
    """
    F = field.planes[:, :, k0:, k0:]
    out = np.zeros(terms[0][1].shape)
    K = out.shape[0]
    for r0 in range(0, K, _ROWS):
        r1 = min(r0 + _ROWS, K)
        below = np.tri(r1 - r0, dtype=bool)
        for a in range(field.n):
            for b in range(field.n):
                for w, g in terms:
                    P = F[a, b, r0:r1, :r1] * w[r0:r1, :r1]
                    P[:, r0:] = np.where(below, P[:, r0:], 0.0)
                    out[r0:r1, a] += P @ g[:r1, b]
    if head is not None:
        out[1:] += np.einsum("abkm,kmb...->ka...", F[:, :, 1:K, :2], head[1:K])
    return out
