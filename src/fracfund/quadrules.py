"""Fixed quadrature rules and product-integration weight tables.

Everything here is deterministic: node counts are fixed constants, never
adaptive, so repeated runs produce identical bits.  The tables encode hat
function moments against the algebraic weights that appear once the
integration variable is normalized to [0, 1]; they depend only on the grid
size and the weight exponents, which is what lets the Volterra marches reuse
one table family across all columns.
"""

from functools import lru_cache

import numpy as np
from scipy.special import roots_jacobi, roots_legendre

SINGULAR_NODES = 32
SMOOTH_NODES = 16


@lru_cache(maxsize=64)
def jacobi_rule_01(n: int, p: float, q: float):
    """Nodes/weights u_i, w_i with  int_0^1 u^p (1-u)^q f(u) du = sum w_i f(u_i).

    Exact for polynomial f up to degree 2n-1.  p = q = 0 falls back to
    Gauss-Legendre.  Returned arrays are read-only.
    """
    if p == 0.0 and q == 0.0:
        x, w = roots_legendre(n)
        scale = 0.5
    else:
        # p + q = -1 makes SciPy divide by (about) zero at k = 1, in a value
        # its own np.where discards: nodes and weights are unaffected
        with np.errstate(divide="ignore", invalid="ignore"):
            x, w = roots_jacobi(n, q, p)
        scale = 2.0 ** (-1.0 - p - q)
    u = 0.5 * (x + 1.0)
    w = w * scale
    u.flags.writeable = False
    w.flags.writeable = False
    return u, w


def _first_subinterval(k, eL, eR):
    """Moments of u^eL (1-u)^eR against the hats of nodes 0 and 1 on [0, 1/k]."""
    if k == 1:
        # one subinterval touching both endpoints
        v, base = jacobi_rule_01(SINGULAR_NODES, eL, eR)
    else:
        # left weight in the rule, rest evaluated
        v, wv = jacobi_rule_01(SINGULAR_NODES, eL, 0.0)
        base = wv * (1.0 - v / k) ** eR * k ** (-1.0 - eL)
    return np.sum(base * (1.0 - v)), np.sum(base * v)


def _hat_weights_k(k, eL, eR):
    """Moments of u^eL (1-u)^eR against the PL hats on nodes {m/k}, m=0..k."""
    omega = np.zeros(k + 1)
    omega[0], omega[1] = _first_subinterval(k, eL, eR)
    if k == 1:
        return omega
    # last subinterval [(k-1)/k, 1], mirrored
    v, wv = jacobi_rule_01(SINGULAR_NODES, eR, 0.0)
    u_last = 1.0 - v / k
    base = wv * u_last ** eL * k ** (-1.0 - eR)
    omega[k - 1] += np.sum(base * v)
    omega[k] += np.sum(base * (1.0 - v))
    if k > 2:
        s, ws = jacobi_rule_01(SMOOTH_NODES, 0.0, 0.0)
        m = np.arange(1, k - 1)[:, None]
        u_mid = (m + s[None, :]) / k
        f = ws[None, :] * u_mid ** eL * (1.0 - u_mid) ** eR / k
        omega[1:k - 1] += np.sum(f * (1.0 - s[None, :]), axis=1)
        omega[2:k] += np.sum(f * s[None, :], axis=1)
    return omega


@lru_cache(maxsize=4)
def hat_moment_tables(N: int, eL: float, eR: float):
    """Per-k node weight vectors omega[k] (length k+1) for k = 1..N.

    omega[k][m] approximates  int_0^1 u^eL (1-u)^eR hat_m(u) du  on the
    uniform u-nodes m/k; the approximation error is the Gauss error of
    analytic non-weight factors and sits far below the schemes' own
    discretization error.  Index 0 of the returned list is a placeholder.
    omega[k] depends only on k and the exponents, so one table at the grid's
    N serves every caller that needs the rows k <= M for some M <= N.  The
    cache is keyed by (N, eL, eR) and its rows are read-only: every solve and
    restart on one grid shares them.
    """
    tables = [None]
    for k in range(1, N + 1):
        omega = _hat_weights_k(k, eL, eR)
        omega.flags.writeable = False
        tables.append(omega)
    return tables


@lru_cache(maxsize=4)
def first_interval_moments(N: int, eL: float, eR: float):
    """Hat moments restricted to the first u-subinterval [0, 1/k], per k.

    Returns arrays (sig0, sig1) of length N+1 (index k) with the weight that
    subinterval 0 contributes to nodes 0 and 1.  Used when a caller replaces
    the piecewise-linear representation on the first subinterval by direct
    quadrature and must subtract the table's own contribution there.  Cached
    and read-only like hat_moment_tables; entry k does not depend on N.
    """
    sig0 = np.zeros(N + 1)
    sig1 = np.zeros(N + 1)
    for k in range(1, N + 1):
        sig0[k], sig1[k] = _first_subinterval(k, eL, eR)
    sig0.flags.writeable = sig1.flags.writeable = False
    return sig0, sig1


@lru_cache(maxsize=1)
def left_moment_weights(alpha: float, N: int, h: float) -> np.ndarray:
    """Weights W with  sum_j W[k, j] phi_j = int_a^{t_k} (t_k - tau)^(alpha-1) phi_pl(tau) dtau.

    Closed-form hat moments, exact for piecewise-linear data (no quadrature
    involved).  Row 0 is zero; W is lower triangular.  The 1/gamma(alpha)
    normalization of a fractional integral is NOT included.  Row k depends
    only on k, alpha and h, so W[:M + 1, :M + 1] is the table for M <= N:
    callers ask at the grid's N and read the rows they need.  The result is
    read-only and cached for one (alpha, N, h) only: all callers on a problem's
    grid share that key, and each kept entry pins an (N+1)^2 matrix.
    """
    W = np.zeros((N + 1, N + 1))
    ap1 = alpha + 1.0
    for k in range(1, N + 1):
        d = np.arange(k, 0, -1, dtype=float)  # (t_k - tau_j)/h for j = 0..k-1
        sig_a = (d * h) ** alpha
        sig_b = ((d - 1.0) * h) ** alpha
        m0 = (sig_a - sig_b) / alpha
        m1 = (d * h) * m0 - ((d * h) ** ap1 - ((d - 1.0) * h) ** ap1) / ap1
        W[k, :k] += m0 - m1 / h
        W[k, 1:k + 1] += m1 / h
    W.flags.writeable = False
    return W


def left_moments_at(alpha: float, nodes: np.ndarray, t: float):
    """Hat moments of (t - tau)^(alpha-1) on an arbitrary node set, t >= nodes[-1].

    Supports history-term evaluation where the target point lies beyond the
    integration interval.  Returns a weight vector aligned with `nodes`.
    """
    nodes = np.asarray(nodes, dtype=float)
    M = len(nodes) - 1
    w = np.zeros(M + 1)
    if M == 0:
        return w
    h = nodes[1] - nodes[0]
    sig_a = t - nodes[:-1]
    sig_b = t - nodes[1:]
    ap1 = alpha + 1.0
    m0 = (sig_a ** alpha - sig_b ** alpha) / alpha
    m1 = sig_a * m0 - (sig_a ** ap1 - sig_b ** ap1) / ap1
    w[:-1] += m0 - m1 / h
    w[1:] += m1 / h
    return w


def hypersingular_tail_weights(alpha: float, nodes: np.ndarray, t: float) -> np.ndarray:
    """Hat moments of (t - xi)^(-1-alpha) over `nodes`, for t > nodes[-1].

    The integral is proper because t stays strictly beyond the node range.
    Exact for piecewise-linear data; closed forms only.
    """
    nodes = np.asarray(nodes, dtype=float)
    M = len(nodes) - 1
    w = np.zeros(M + 1)
    if M == 0:
        return w
    h = nodes[1] - nodes[0]
    sig_a = t - nodes[:-1]
    sig_b = t - nodes[1:]
    m0 = (sig_b ** (-alpha) - sig_a ** (-alpha)) / alpha
    # m1 = int (t-xi)^(-1-alpha) (xi - xi_j) dxi, alpha in (0, 1)
    inner = (sig_a ** (1.0 - alpha) - sig_b ** (1.0 - alpha)) / (1.0 - alpha)
    m1 = sig_a * m0 - inner
    w[:-1] += m0 - m1 / h
    w[1:] += m1 / h
    return w
