"""Weakly singular integral operators on uniform grids.

Implements the left/right fractional integral of order alpha, the Caputo
derivative (L1 difference scheme), the scale-invariant auxiliary kernel K,
and the R and J operators built from it.  All operators consume and produce
GridFn data under the piecewise-linear contract; structured singular factors
are always carried by quadrature weights or closed-form moments, never
sampled directly.
"""

from dataclasses import dataclass
from functools import lru_cache
import math

import numpy as np

from .errors import DomainError, GridMismatchError
from .gridfn import GridFn
from .quadrules import hat_moment_tables, jacobi_rule_01, left_moment_profile
from .special import gamma

# geometric grading used near the singular end of the R-operator integrals
_GRADE_LEVELS = 20
_GRADE_NODES = 8
_TAIL_NODES = 4
# Gauss-Legendre rule of the R-operator panel j/k..(j+1)/k: (first j, nodes).
# The integrand's one singularity, u = 0, lies 2j + 1 half-widths from the
# panel's centre, so an m-node rule errs by about rho^(-2m) with rho ~ 4j + 2
# (the Bernstein ellipse through u = 0), below 1e-16 relative for every j
_PANEL_RULES = ((1, 10), (4, 7), (16, 5), (64, 4))
# the R-operator weights are built a block of rows at a time, whose panel
# arrays hold at most about this many values at any N
_BLOCK_VALUES = 1 << 17
# terms of each power series of the kernel profile; their argument is at most
# 1/2, so the first term left out is of order 2^-52 of the leading one
_PROFILE_TERMS = 52


def _check_alpha(alpha):
    alpha = float(alpha)
    if not (0.0 < alpha < 1.0):
        raise DomainError(f"order alpha must lie in (0, 1), got {alpha}")
    return alpha


@dataclass
class OpConstants:
    """Sharp constants attached to the operator family at a given order."""

    alpha: float
    H_I: float  # Hoelder constant of the fractional integral
    M_R: float  # uniform bound of the R operator
    M_J: float  # growth constant of the J operator
    H_J: float  # Hoelder constant of the J operator


def op_constants(alpha: float) -> OpConstants:
    alpha = _check_alpha(alpha)
    H_I = 2.0 / gamma(alpha + 1.0)
    M_R = math.sin(alpha * math.pi) / (alpha * math.pi)
    M_J = 1.0 + M_R
    return OpConstants(alpha=alpha, H_I=H_I, M_R=M_R, M_J=M_J, H_J=M_J * H_I)


def beta_sym(alpha: float) -> float:
    """Beta function at (alpha, alpha)."""
    return gamma(alpha) ** 2 / gamma(2.0 * alpha)


def _reflect(fn: GridFn) -> GridFn:
    return GridFn(fn.a, fn.b, fn.N, fn.values[::-1].copy())


def _flat(values):
    n_nodes = values.shape[0]
    return values.reshape(n_nodes, -1)


def fractional_integral(phi: GridFn, alpha: float, side: str = "left") -> GridFn:
    """Riemann-Liouville fractional integral of the piecewise-linear data.

    side="left" anchors at a (value 0 there), side="right" anchors at b.
    Moments of the singular factor are closed-form, so the result is exact
    for affine phi up to rounding: one convolution per component of the
    O(N) left-moment profile, with no dense table.
    """
    alpha = _check_alpha(alpha)
    if side not in ("left", "right"):
        raise DomainError(f"side must be 'left' or 'right', got {side!r}")
    if side == "right":
        return _reflect(fractional_integral(_reflect(phi), alpha, "left"))
    if phi.N == 0:
        return GridFn(phi.a, phi.b, 0, np.zeros_like(phi.values))
    N, flat = phi.N, _flat(phi.values)
    far, profile = left_moment_profile(alpha, phi.h, N)
    out = np.zeros_like(flat)
    out[1:] = far[:, None] * flat[0]
    for c in range(flat.shape[1]):
        out[1:, c] += np.convolve(profile, flat[1:, c])[:N]
    return GridFn(phi.a, phi.b, N, (out / gamma(alpha)).reshape(phi.values.shape))


def caputo_derivative(x: GridFn, alpha: float) -> GridFn:
    """L1 scheme for the Caputo derivative of order alpha.

    Node 0, where the derivative is only defined almost everywhere, carries
    the k = 1 value so the result stays a total GridFn.  Exact for affine x.
    """
    alpha = _check_alpha(alpha)
    if x.N < 1:
        raise GridMismatchError("caputo_derivative needs at least 2 nodes")
    N, h = x.N, x.h
    flat = _flat(x.values)
    dx = flat[1:] - flat[:-1]
    seq = np.arange(N + 1, dtype=float) ** (1.0 - alpha)
    g = seq[1:] - seq[:-1]
    scale = h ** (-alpha) / gamma(2.0 - alpha)
    # out[k] = scale * sum_{i<k} g[k-1-i] dx[i]: a lower Toeplitz product,
    # the first N terms of one full convolution per component
    out = np.empty_like(flat)
    for c in range(flat.shape[1]):
        out[1:, c] = scale * np.convolve(g, dx[:, c])[:N]
    out[0] = out[1]
    return GridFn(x.a, x.b, N, out.reshape(x.values.shape))


@lru_cache(maxsize=8)
def _profile_series(alpha: float):
    """Coefficients (g, c, c d) of the two series of _kernel_profile.

    g_n = g_{n-1} (alpha+n-1)(n-alpha) / (n(n+1)) and
    c_n = c_{n-1} (alpha+n)(1-alpha+n) / (n(n+1)), from g_0 = c_0 = 1;
    d_n = psi(alpha+n+1) + psi(2-alpha+n) - psi(n+1) - psi(n+2), with
    psi(1+alpha) and psi(2-alpha) from mpmath, psi(x+1) = psi(x) + 1/x
    and psi(n+1) = -gamma + H_n.  Read-only arrays, lowest degree first.
    """
    import mpmath

    n = np.arange(1, _PROFILE_TERMS, dtype=float)
    g = np.cumprod(np.append(1.0, (alpha + n - 1.0) * (n - alpha) / (n * (n + 1.0))))
    c = np.cumprod(np.append(1.0, (alpha + n) * (1.0 - alpha + n) / (n * (n + 1.0))))
    psi_a = np.append(0.0, np.cumsum(1.0 / (alpha + n)))
    psi_a += float(mpmath.digamma(1.0 + alpha))
    psi_b = np.append(0.0, np.cumsum(1.0 / (1.0 - alpha + n)))
    psi_b += float(mpmath.digamma(2.0 - alpha))
    h_next = np.cumsum(1.0 / np.arange(1.0, _PROFILE_TERMS + 1.0))  # H_{n+1}
    d = psi_a + psi_b + 2.0 * np.euler_gamma - h_next - np.append(0.0, h_next[:-1])
    cd = c * d
    for arr in (g, c, cd):
        arr.flags.writeable = False
    return g, c, cd


def _horner(coef, x):
    """sum of coef[n] x^n, by Horner's rule."""
    out = np.full_like(x, coef[-1])
    for a in coef[-2::-1]:
        out *= x
        out += a
    return out


def _kernel_profile(s: np.ndarray, alpha: float) -> np.ndarray:
    """E(s) = int_0^1 eta^a (1-eta)^(-a) (s + eta(1-s))^(-a) deta, s in (0, 1].

    E is the scale-free profile of K: K(xi, tau) = tau^(alpha-1) xi^(-alpha)
    E(tau/xi).  The Pfaff transformation (Abramowitz & Stegun 15.3.4) of the
    Euler integral gives E(s) = (alpha pi / sin(alpha pi)) 2F1(alpha, 1-alpha;
    2; 1-s), summed here as one of two power series whose argument is at
    most 1/2, each by Horner's rule over _PROFILE_TERMS terms:

    - s >= 1/2: the Gauss series, (alpha pi / sin(alpha pi)) sum g_n z^n
      with z = 1 - s;
    - s < 1/2: the logarithmic connection formula (A&S 15.3.11, m = 1),
      E(s) = 1/(1-alpha) + alpha s sum c_n s^n (log s + d_n).

    The coefficients are those of _profile_series.
    """
    g, c, cd = _profile_series(alpha)
    s = np.asarray(s, dtype=float)
    out = np.empty_like(s)
    low = s < 0.5
    x = s[low]
    out[low] = 1.0 / (1.0 - alpha) + alpha * x * (np.log(x) * _horner(c, x)
                                                  + _horner(cd, x))
    pref = alpha * math.pi / math.sin(alpha * math.pi)
    out[~low] = pref * _horner(g, 1.0 - s[~low])
    return out


def kernel_K(xi: float, tau: float, alpha: float) -> float:
    """Scale-invariant kernel of the R operators, K(c*xi, c*tau) = K(xi, tau)/c.

    Defined for 0 < tau < xi (DomainError otherwise); nonnegative; bounded by
    1/((1-alpha) tau^(1-alpha)) on xi = 1.
    """
    alpha = _check_alpha(alpha)
    xi = float(xi)
    tau = float(tau)
    if not (xi > 0.0 and 0.0 < tau < xi):
        raise DomainError(f"kernel_K requires 0 < tau < xi, got tau={tau}, xi={xi}")
    return float(tau ** (alpha - 1.0) * xi ** (-alpha) * _kernel_profile(tau / xi, alpha))


def _row_blocks(k0, N, per_row):
    """Rows k0..N of the R-operator weights in blocks of about _BLOCK_VALUES
    values at per_row values a row."""
    step = max(1, _BLOCK_VALUES // per_row)
    for lo in range(k0, N + 1, step):
        yield np.arange(lo, min(lo + step, N + 1))


def r_operator(phi: GridFn, alpha: float, side: str = "left") -> GridFn:
    """R operator: prefactor (1-alpha) sin(alpha pi)/pi against the kernel K.

    By homogeneity the value at t_k = a + k h reduces to a fixed-interval
    integral c_alpha * int_0^1 u^(alpha-1) E(u) phi(a + k h u) du.  Its first
    grid interval, u in [0, 1/k], is cut into geometric pieces toward u = 0
    and an innermost piece whose rule carries the algebraic weight; in
    v = k u these pieces are the same for every k.  Each further interval
    j/k..(j+1)/k is one Gauss-Legendre panel whose node count falls with its
    distance j from u = 0 (_PANEL_RULES: 10 nodes next to it, 4 from j = 64
    on).  Every piece sits on one grid interval, where phi is linear, so
    node k is a weighted sum of node values, built for a block of rows at a
    time.
    The base node holds the operator's right-limit
    (alpha B(alpha, alpha) - 1) phi(a), which keeps the result continuous for
    continuous phi and the uniform bound valid at every node.
    """
    alpha = _check_alpha(alpha)
    if side not in ("left", "right"):
        raise DomainError(f"side must be 'left' or 'right', got {side!r}")
    if side == "right":
        return _reflect(r_operator(_reflect(phi), alpha, "left"))
    if phi.N == 0:
        limit = (alpha * beta_sym(alpha) - 1.0)
        return GridFn(phi.a, phi.b, 0, limit * phi.values.copy())

    N = phi.N
    flat = _flat(phi.values)
    c_alpha = (1.0 - alpha) * math.sin(alpha * math.pi) / math.pi
    # the first grid interval in v = k u: pieces [lo, 2 lo] down to lo = eps,
    # then [0, eps], whose rule carries v^(alpha-1); u^(alpha-1) du is
    # k^(-alpha) v^(alpha-1) dv
    gl_u, gl_w = jacobi_rule_01(_GRADE_NODES, 0.0, 0.0)
    tail_u, tail_w = jacobi_rule_01(_TAIL_NODES, alpha - 1.0, 0.0)
    lo = 0.5 ** np.arange(1, _GRADE_LEVELS + 1)[:, None]
    v = lo * (1.0 + gl_u)
    eps = 0.5 ** _GRADE_LEVELS
    wv = np.concatenate([(gl_w * lo * v ** (alpha - 1.0)).ravel(),
                         tail_w * eps ** alpha])
    v = np.concatenate([v.ravel(), eps * tail_u])

    out = np.empty_like(flat)
    out[0] = (alpha * beta_sym(alpha) - 1.0) * flat[0]
    for k in _row_blocks(1, N, v.size):
        kf = k[:, None].astype(float)
        g = wv * kf ** (-alpha) * _kernel_profile(v / kf, alpha)
        out[k] = c_alpha * (np.outer(g @ (1.0 - v), flat[0])
                            + np.outer(g @ v, flat[1]))
    ends = [lo for lo, _ in _PANEL_RULES[1:]] + [N]
    for (lo, m), hi in zip(_PANEL_RULES, ends):
        if lo >= N:
            break
        u, w = jacobi_rule_01(m, 0.0, 0.0)
        for k in _row_blocks(lo + 1, N, m * (min(hi, N) - lo)):
            # panel j/k..(j+1)/k for lo <= j < min(hi, k): nodes j and j+1
            rows, j = np.nonzero(np.arange(lo, min(hi, k[-1])) < k[:, None])
            j += lo
            kf = k[rows, None].astype(float)
            uu = (j[:, None] + u) / kf
            f = c_alpha * w / kf * uu ** (alpha - 1.0) * _kernel_profile(uu, alpha)
            terms = (f @ (1.0 - u))[:, None] * flat[j] + (f @ u)[:, None] * flat[j + 1]
            for c in range(flat.shape[1]):
                out[k, c] += np.bincount(rows, terms[:, c], len(k))
    return GridFn(phi.a, phi.b, N, out.reshape(phi.values.shape))


def j_operator(phi: GridFn, alpha: float, side: str = "left") -> GridFn:
    """J operator: doubly weighted product integration on the normalized interval.

    After tau = a + (t-a)u the node value is ((t-a)^alpha / gamma(alpha)) times
    the integral of u^(alpha-1) (1-u)^(alpha-1) against phi, evaluated with the
    shared hat-moment tables; the value at the anchor endpoint is 0.
    """
    alpha = _check_alpha(alpha)
    if side not in ("left", "right"):
        raise DomainError(f"side must be 'left' or 'right', got {side!r}")
    if side == "right":
        return _reflect(j_operator(_reflect(phi), alpha, "left"))
    if phi.N == 0:
        return GridFn(phi.a, phi.b, 0, np.zeros_like(phi.values))
    N, h = phi.N, phi.h
    tables = hat_moment_tables(N, alpha - 1.0, alpha - 1.0)
    scale = (np.arange(N + 1) * h) ** alpha / gamma(alpha)
    out = scale[:, None] * (tables @ _flat(phi.values))
    return GridFn(phi.a, phi.b, N, out.reshape(phi.values.shape))
