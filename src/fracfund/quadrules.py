"""Fixed quadrature rules and product-integration weight tables.

Everything here is deterministic: node counts are fixed constants, never
adaptive, so repeated runs produce identical bits.  The weights are hat
function moments: of (t - tau)^(p-1) in one closed form, and of the
u^eL (1-u)^eR of the normalized marches by fixed Gauss-Jacobi rules, which
the Golub-Welsch eigenvalue method computes with numpy alone.  Every table
is lower triangular, and its row k, the weights of nodes 0..k for target
k, does not depend on N: one table at the grid's N serves the grid.  The
left-moment table is a first column and a Toeplitz view of O(N) numbers,
whose products outside the march are one FFT convolve; the hat-moment tables
are read-only dense arrays, built in tiles of GEMMs that do not depend on N.
"""

from functools import lru_cache
import math

import numpy as np
from numpy.lib.stride_tricks import as_strided, sliding_window_view

SINGULAR_NODES = 32
SMOOTH_NODES = 16
# the side of hat_moment_tables' tiles: rows k0..k0+127 (k0 = 1, 129, ...)
# by columns m0..m0+127 (m0 = 0, 128, ...), full size at every N
_TABLE_ROWS = 128


@lru_cache(maxsize=64)
def jacobi_rule_01(n: int, p: float, q: float):
    """Nodes/weights u_i, w_i with  int_0^1 u^p (1-u)^q f(u) du = sum w_i f(u_i).

    Exact for polynomial f up to degree 2n-1.  Golub-Welsch: the nodes are
    the eigenvalues of the symmetric tridiagonal Jacobi matrix of the weight
    (1-x)^q (1+x)^p on [-1, 1], mapped to u = (x+1)/2, and w_i = mu_0 v_0i^2
    with mu_0 = B(p+1, q+1) and v_i the unit eigenvectors.  Returned arrays
    are read-only, nodes increasing.
    """
    k = np.arange(1, n, dtype=float)
    s = 2.0 * k + p + q
    # recurrence coefficients in closed form; diag at k = 0 and the factor
    # (k+p+q)/(s-1) of off^2 at k = 1 in cancelled form, where p + q = 0
    # and p + q = -1 would divide 0 by 0
    diag = np.concatenate([[(p - q) / (p + q + 2.0)],
                           (p * p - q * q) / (s * (s + 2.0))])
    ratio = np.ones_like(k)
    ratio[1:] = (k[1:] + p + q) / (s[1:] - 1.0)
    off = np.sqrt(4.0 * k * (k + p) * (k + q) / (s * s * (s + 1.0)) * ratio)
    J = np.diag(diag) + np.diag(off, 1) + np.diag(off, -1)
    x, v = np.linalg.eigh(J)
    log_mu0 = math.lgamma(p + 1.0) + math.lgamma(q + 1.0) - math.lgamma(p + q + 2.0)
    u = 0.5 * (x + 1.0)
    w = math.exp(log_mu0) * v[0] ** 2
    u.flags.writeable = False
    w.flags.writeable = False
    return u, w


def convolve(kernel, values):
    """out[i, c...] = sum_k sum_j kernel[i - j, k...] values[j, k..., c...],
    i < m = len(kernel) + len(values) - 1: full convolutions along axis 0,
    summed over the kernel's other axes in frequency space, by FFTs padded to
    a power of two.  Rounding is about eps log m |kernel|_2 |values|_2, not
    per entry, and a non-finite input spreads to every output."""
    m = len(kernel) + len(values) - 1
    size = 1 << (m - 1).bit_length()
    kf = np.fft.rfft(np.reshape(kernel, (len(kernel), -1)), size, axis=0)
    vf = np.fft.rfft(np.reshape(values, (len(values), kf.shape[1], -1)), size, axis=0)
    out = np.fft.irfft(np.einsum("fk,fkc->fc", kf, vf), size, axis=0)[:m]
    return out.reshape((m,) + np.shape(values)[np.ndim(kernel):])


def _lower_toeplitz(c):
    """Read-only view T with T[k, j] = c[k - j] for j <= k, zero above."""
    padded = np.concatenate([c[::-1], np.zeros_like(c[1:])])
    return sliding_window_view(padded, c.size)[::-1]


@lru_cache(maxsize=4)
def first_interval_moments(N: int, eL: float, eR: float):
    """Hat moments restricted to the first u-subinterval [0, 1/k], per k.

    Returns arrays (sig0, sig1) of length N+1 (index k) with the weight that
    subinterval 0 contributes to nodes 0 and 1.  Used when a caller replaces
    the piecewise-linear representation on the first subinterval by direct
    quadrature and must subtract the table's own contribution there: they
    are the very values hat_moment_tables puts into its columns 0 and 1.
    Cached and read-only like hat_moment_tables; entry k does not depend on N.
    """
    sig0 = np.zeros(N + 1)
    sig1 = np.zeros(N + 1)
    # k = 1: one subinterval touching both endpoints
    v, base = jacobi_rule_01(SINGULAR_NODES, eL, eR)
    sig0[1], sig1[1] = np.sum(base * (1.0 - v)), np.sum(base * v)
    # k >= 2: left weight in the rule, rest evaluated
    v, wv = jacobi_rule_01(SINGULAR_NODES, eL, 0.0)
    k = np.arange(2, N + 1, dtype=float)[:, None]
    base = wv * (1.0 - v / k) ** eR * k ** (-1.0 - eL)
    sig0[2:], sig1[2:] = np.sum(base * (1.0 - v), axis=1), np.sum(base * v, axis=1)
    sig0.flags.writeable = sig1.flags.writeable = False
    return sig0, sig1


_first_panel = first_interval_moments.__wrapped__


@lru_cache(maxsize=2)
def hat_moment_tables(N: int, eL: float, eR: float):
    """Dense table T of hat moments of u^eL (1-u)^eR, rows k = 0..N.

    T[k, m] for m <= k approximates  int_0^1 u^eL (1-u)^eR hat_m(u) du  on
    the uniform u-nodes m/k; the approximation error is the Gauss error of
    analytic non-weight factors and sits far below the schemes' own
    discretization error.  Row 0 and every entry above the diagonal are zero.
    Interior panels come in full-size tiles of GEMMs, so row k depends only
    on k and the exponents: T[:M + 1, :M + 1] is the table for M <= N, and
    one table at the grid's N serves every caller on the grid.  The result
    is read-only and cached for two exponent pairs: a grid uses (alpha-1,
    alpha-1) for the march and J, and (-alpha, alpha-1) for the formulas.
    """
    T = np.zeros((N + 1, N + 1))
    # the first subinterval [0, 1/k]; for k >= 2 the last one is the first one
    # of the mirrored kernel u^eR (1-u)^eL (uncached: no cache entry for it)
    T[:, 0], T[:, 1] = _first_panel(N, eL, eR)
    last_k, last_km1 = _first_panel(N, eR, eL)
    k = np.arange(2, N + 1)
    T[k, k - 1] += last_km1[2:]
    T[k, k] += last_k[2:]
    # interior panel m of row k, [m/k, (m+1)/k] for 1 <= m <= k-2: with
    # d = k-1-m its integrand is k^(-eL-eR) (m+s)^eL (d+1-s)^eR, so node m
    # gets k^(-1-eL-eR) (Q[d] lo[m] + Q[d+1] hi[m]) from panels m and m-1
    # over the Legendre nodes s: Q[d] = (d+1-s)^eR, zero at d <= 0, lo[m] =
    # w (1-s) P[m], hi[m] = w s P[m-1], P[m] = (m+s)^eL, zero at m = 0 (the
    # Jacobi rules above carry the end panels).  A B x B tile is two rank-16
    # GEMMs over 2B-1 values of d, read along its anti-diagonals
    B = _TABLE_ROWS
    L = -(-N // B) * B
    s, ws = jacobi_rule_01(SMOOTH_NODES, 0.0, 0.0)
    P = np.concatenate([np.zeros((1, s.size)), (np.arange(1, L)[:, None] + s) ** eL])
    lo, hi = ws * (1.0 - s) * P, np.concatenate([P[:1], ws * s * P[:-1]])
    Q = np.zeros((L + B, s.size))  # Q[B - 1 + d] = Q[d] above
    Q[B:] = (np.arange(2.0, L + 2.0)[:, None] - s) ** eR
    c = np.arange(1.0, L + 1.0) ** (-1.0 - eL - eR)
    for k0 in range(1, N + 1, B):  # k0 = 1 + tile * B, so c starts at k = 1
        for m0 in range(0, k0, B):  # T[k0 + i, m0 + m] reads G[B - 1 + i - m, m]
            G = Q[k0 - m0 - 1:k0 - m0 + 2 * B - 2] @ lo[m0:m0 + B].T
            G += Q[k0 - m0:k0 - m0 + 2 * B - 1] @ hi[m0:m0 + B].T
            V = as_strided(G[B - 1:], (B, B), (G.strides[0], G.strides[1] - G.strides[0]))
            tile = T[k0:k0 + B, m0:m0 + B]  # cut at row and column N
            tile += (c[k0 - 1:k0 - 1 + B, None] * V)[:len(tile), :tile.shape[1]]
    T.flags.writeable = False
    return T


def _hat_moments(s, p, h):
    """Closed-form hat weights of the kernel s^(p-1), s = t - tau.

    s holds the distances before t of nodes h apart, farthest first, so
    interval i spans the distances sa = s[i] > s > sb = s[i+1].  With
    m0 = int s^(p-1) ds  and  m1 = int s^(p-1) (sa - s) ds  over it, returns
    the weights (m0 - m1/h, m1/h) of each interval's far and near node.
    """
    sp, sq = s ** p, s ** (p + 1.0)
    m0 = (sp[..., :-1] - sp[..., 1:]) / p
    m1 = s[..., :-1] * m0 - (sq[..., :-1] - sq[..., 1:]) / (p + 1.0)
    return m0 - m1 / h, m1 / h


def lattice_hat_moments(p: float, h: float, D: int, first: int = 0):
    """Hat weights of the kernel s^(p-1) by lattice distance.

    With nodes h apart and the target t on their lattice, the interval whose
    far node lies d steps before t gives far[d - first - 1] to that node and
    near[d - first - 1] to the node one step nearer, for d = first+1..D.
    These 2 (D - first) numbers are every weight any target on the lattice
    needs.  Distance 0 is a power only for first = 0, which p <= 0 forbids.
    """
    far, near = _hat_moments(h * np.arange(D, first - 1, -1.0), p, h)
    return far[::-1], near[::-1]


def left_moment_weights(alpha: float, N: int, h: float):
    """Weights W with  sum_j W[k, j] phi_j = int_a^{t_k} (t_k - tau)^(alpha-1) phi_pl(tau) dtau,
    k, j <= N, as (first, T): W's column 0, and the Toeplitz view of
    left_moment_profile with W[k, j] = T[k, j] for j >= 1; read-only, O(N).

    Closed-form hat moments, exact for piecewise-linear data (no quadrature
    involved).  Row 0 is zero; W is lower triangular.  The 1/gamma(alpha)
    normalization of a fractional integral is NOT included.  Row k depends
    only on k, alpha and h, so callers ask at the last row they read.
    """
    far, profile = left_moment_profile(alpha, h, N + 1)
    first = np.concatenate([[0.0], far[:-1]])
    first.flags.writeable = False
    return first, _lower_toeplitz(profile)


def left_moment_profile(alpha: float, h: float, N: int):
    """The O(N) numbers behind left_moment_weights: W[k, 0] = far[k - 1] and
    W[k, j] = profile[k - j] for 1 <= j <= k <= N, so W[1:] @ v is far v[0]
    plus convolve(profile, v[1:])[:N] (fractional_integral)."""
    # the interval at distance d before t_k gives far[d-1] to its far node
    # and near[d-1] to its near node
    far, near = lattice_hat_moments(alpha, h, N)
    return far, np.concatenate([near[:1], far[:-1] + near[1:]])


def left_moments_at(alpha: float, nodes: np.ndarray, t):
    """Hat moments of (t - tau)^(alpha-1) on uniform `nodes`, t >= nodes[-1].

    Supports history-term evaluation where the target point lies beyond the
    integration interval.  Returns a weight vector aligned with `nodes`, or,
    for an array of targets t, one such row per target.  The closed form
    holds for any alpha other than 0 and -1.
    """
    nodes = np.asarray(nodes, dtype=float)
    t = np.asarray(t, dtype=float)[..., None]
    w = np.zeros(t.shape[:-1] + nodes.shape)
    if nodes.size < 2:
        return w
    far, near = _hat_moments(t - nodes, alpha, nodes[1] - nodes[0])
    w[..., :-1] += far
    w[..., 1:] += near
    return w

