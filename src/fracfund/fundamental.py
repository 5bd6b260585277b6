"""Fundamental matrix field on the triangle t >= s.

The field F solves a weakly singular matrix Volterra equation whose value on
the diagonal is Id/Gamma(alpha). Three routes are provided: an implicit
product-integration march (production path), a fixed-point iteration under an
exponentially weighted norm (cross-check), and a mirrored march for the dual
field G that multiplies the coefficient from the right, which is the same
march run on the mirrored, transposed coefficient. A-priori sup and
Hoelder bounds for F are computed from the coefficient's sup norm.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field as _dcfield

import numpy as np

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
        pair; the lines are gathered from the field a block at a time. The
        N+1 grid times are formatted once and reused on every line."""
        N, n = self.grid.N, self.n
        times = np.array(["%.17g" % v for v in self.grid.t.tolist()],
                         dtype=object)
        flat = self.planes.reshape(n * n, N + 1, N + 1)
        ends = np.cumsum(np.arange(1, N + 2))  # pairs in rows 0..i

        def rows(q0, q1):
            q = np.arange(q0, q1)
            i = np.searchsorted(ends, q, side="right")
            j = q - ends[i] + i + 1
            block = np.empty((q1 - q0, 2 + n * n), dtype=object)
            block[:, 0] = times[i]
            block[:, 1] = times[j]
            block[:, 2:] = flat[:, i, j].T
            return block

        names = ",".join(f"F_{r+1}{c+1}" for r in range(n) for c in range(n))
        write_table(path, "t,s," + names, int(ends[-1]), rows,
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


def bounds(problem: CauchyProblem, num_samples=513) -> AprioriBounds:
    """Sup bound M_F and two-variable Hoelder bound H_F for the field.

    M_A is the max over sample nodes of the max-row-sum norm of A. kappa is
    fixed so the weighted-norm contraction factor is exactly 1/2 (any positive
    choice with factor < 1 works; a fixed rule keeps the bounds reproducible).
    """
    c = op_constants(problem.alpha)
    ts = np.linspace(problem.t0, problem.theta, num_samples)
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


# Steps per block of the march: the history terms that reach back before a
# block come from one GEMM at its start, the rest step by step.
_BLOCK = 64


def _solve_small(M, R):
    """Solve M[b] X[b] = R[b] for a batch of small n x n systems.

    Gaussian elimination with partial pivoting, vectorised over the batch and
    looped over the n pivot columns. The augmented system is held batch-last,
    so every operation runs over contiguous rows of the batch. Each column
    takes as pivot its first entry of largest magnitude at or below the
    diagonal, as LAPACK does; rows are swapped only in the members that need
    it. np.linalg.solve's error contract holds: an exact zero pivot, or an
    invalid floating-point operation inside the elimination, raises
    LinAlgError, and overflow and underflow pass silently.
    """
    B, n = M.shape[:2]
    W = np.empty((n, n + R.shape[-1], B))
    W[:, :n] = M.transpose(1, 2, 0)
    W[:, n:] = R.transpose(1, 2, 0)
    with np.errstate(invalid="raise", over="ignore", divide="ignore",
                     under="ignore"):
        try:
            for c in range(n):
                size = np.abs(W[c:, c])
                p, top = np.zeros(B, np.intp), size[0]
                for r in range(1, n - c):
                    p[size[r] > top] = r
                    top = np.maximum(top, size[r])
                swap = np.flatnonzero(p)
                if swap.size:
                    ps = p[swap] + c
                    W[c, :, swap], W[ps, :, swap] = W[ps, :, swap], W[c, :, swap]
                piv = W[c, c]
                if not piv.all():
                    raise np.linalg.LinAlgError("Singular matrix")
                W[c + 1:, c + 1:] -= (W[c + 1:, c] / piv)[:, None] * W[c, c + 1:]
            X = W[:, n:]
            for c in range(n - 1, -1, -1):
                X[c] /= W[c, c]
                X[:c] -= W[:c, c, None] * X[c]
        except FloatingPointError:
            raise np.linalg.LinAlgError(
                "invalid value in the elimination") from None
    return np.ascontiguousarray(X.transpose(2, 0, 1))


def _march(Anodes, alpha, grid):
    """solve_F's march on the coefficient samples Anodes.

    Returns the field's component planes and the phase times. Step
    k of column j solves, for F_{j+k,j},

        (I - c_k w_k[k] A_{j+k}) F_{j+k,j}
            = Id/Gamma(alpha) + c_k sum_{m<k} w_k[m] A_{j+m} F_{j+m,j}.

    In the block of steps from k0 on, the terms m < k0 come from one GEMM of
    the block's weight rows against AF[:k0]; only k0 <= m < k are summed
    step by step. The entries (j + k, j) of a step lie at the flat plane
    positions k (N+1) + j (N+2), so each step writes them through one
    strided slice.
    """
    t_start = time.perf_counter()
    N, h, n = grid.N, grid.h, Anodes.shape[-1]
    tables = hat_moment_tables(N, alpha - 1.0, alpha - 1.0)
    t_tables = time.perf_counter()
    ga = gamma(alpha)
    eye = np.eye(n)
    diag = eye / ga
    ck = (np.arange(N + 1) * h) ** alpha / ga

    planes = np.full((n, n, N + 1, N + 1), np.nan)
    pflat = planes.reshape(n * n, (N + 1) ** 2)
    pflat[:, ::N + 2] = diag.reshape(n * n, 1)
    AF = np.empty((N + 1, N + 1, n, n))  # AF[m, j] = A_{j+m} F_{j+m,j}
    AF[0] = Anodes / ga
    solves_s = 0.0

    for k0 in range(1, N + 1, _BLOCK):
        k1 = min(k0 + _BLOCK, N + 1)
        live = N - k0 + 1
        far = (tables[k0:k1, :k0] @ AF[:k0, :live].reshape(k0, -1)
               ).reshape(k1 - k0, live, n, n)
        for k in range(k0, k1):
            cols = N - k + 1
            near = np.einsum("m,mjab->jab", tables[k, k0:k], AF[k0:k, :cols],
                             optimize=False)
            rhs = diag + ck[k] * (far[k - k0, :cols] + near)
            sys = eye - (ck[k] * tables[k, k]) * Anodes[k:]
            t_solve = time.perf_counter()
            try:
                Fk = _solve_small(sys, rhs)
            except np.linalg.LinAlgError:
                raise SingularSystemError(
                    f"self-weight system singular at step {k}; refine N") from None
            solves_s += time.perf_counter() - t_solve
            pflat[:, k * (N + 1)::N + 2][:, :cols] = Fk.reshape(cols, n * n).T
            AF[k, :cols] = Anodes[k:] @ Fk

    t_end = time.perf_counter()
    return planes, {"tables_s": t_tables - t_start, "march_s": t_end - t_tables,
                    "solves_s": solves_s}


def solve_F(problem: CauchyProblem, grid: TriangleGrid) -> FundamentalField:
    """Implicit product-integration march, column by column.

    Column j marches upward from the diagonal. At step count k the unknown
    node appears inside its own moment weight, so each step solves a small
    n x n system; the systems of all columns at one step are solved together
    by one batched pivoted elimination. The steps run in blocks of 64: the
    history terms that reach back before a block are one BLAS GEMM at the
    block's start, over every step of the block and every column; the terms
    inside the block are summed step by step. meta records the time spent on
    the hat-moment tables (tables_s), on the march (march_s) and, within the
    march, on the small solves (solves_s).
    """
    _check_grid(problem, grid)
    t_start = time.perf_counter()
    planes, phases = _march(problem.A.at(grid.t), problem.alpha, grid)
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
    Apad = np.concatenate([Anodes, np.zeros((N, n, n))])
    s0, s1, s2 = Apad.strides
    # Hankel view into the padded buffer: A_shift[m, j] = A at node m+j for
    # m+j <= N, zeros beyond; keeps every strided read in-bounds
    A_shift = np.lib.stride_tricks.as_strided(
        Apad, shape=(N + 1, N + 1, n, n), strides=(s0, s0, s1, s2),
        writeable=False)

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
    mirrored, phases = _march(np.swapaxes(Anodes[::-1], 1, 2), problem.alpha, grid)
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
