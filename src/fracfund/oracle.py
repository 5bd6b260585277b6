"""Independent reference computations used to cross-check the solvers.

Nothing here shares integration logic with the production modules: the
adaptive quadrature below drives its own panel subdivision with mpmath's
Gauss-Jacobi rules (not `quadrules`' Golub-Welsch), and the high-precision
Mittag-Leffler reference is summed with mpmath arbitrary precision.
Production code must never call into this module except for
`constant_coeff_F`, which is itself part of the public contract.
"""

from dataclasses import dataclass
import functools
import heapq
import math
from typing import Callable, Sequence

import numpy as np

from .errors import DomainError, ToleranceNotMetError
from .special import MLParams, mittag_leffler


@dataclass
class QuadSpec:
    """Describes one weakly singular integral for :func:`adaptive_quad`.

    integrand : callable x -> float or ndarray, the full integrand including
        any singular endpoint factors.
    interval : (lo, hi) with lo < hi.
    exponents : (p_lo, p_hi); the integrand behaves like (x-lo)^p_lo near lo
        and (hi-x)^p_hi near hi.  0 means regular.  Each must be > -1.
    tol : absolute tolerance on the result (componentwise for vector values).
    """

    integrand: Callable[[float], "float | np.ndarray"]
    interval: tuple
    exponents: tuple = (0.0, 0.0)
    tol: float = 1e-10


_NODES_LOW = 16
_NODES_HIGH = 32
_MAX_PANELS = 4000


@functools.lru_cache(maxsize=None)
def _panel_rule(n, e_lo, e_hi):
    # nodes/weights on [-1, 1] for the weight (1+x)^e_lo (1-x)^e_hi; mpmath's
    # Jacobi rules, not quadrules' Golub-Welsch, so no rule code is shared with
    # production
    import mpmath

    x, w = mpmath.gauss_quadrature(n, "jacobi", e_hi, e_lo)
    return np.array(x, dtype=float), np.array(w, dtype=float)


def _eval_panel(f, a, b, lo, hi, e_lo, e_hi, n):
    # integrate f over [a, b]; the panel's end exponents e_lo, e_hi (0 at an
    # end inside the interval) are divided out of f and carried by the weight
    x, w = _panel_rule(n, e_lo, e_hi)
    half = 0.5 * (b - a)
    pts = a + half * (x + 1.0)
    acc = None
    for xi, wi in zip(pts, w):
        val = np.asarray(f(xi), dtype=float) / (xi - lo) ** e_lo / (hi - xi) ** e_hi
        contrib = wi * val
        acc = contrib if acc is None else acc + contrib
    return acc * (half * half ** e_lo * half ** e_hi)


def _panel_estimate(f, a, b, lo, hi, e_lo, e_hi):
    coarse = _eval_panel(f, a, b, lo, hi, e_lo, e_hi, _NODES_LOW)
    fine = _eval_panel(f, a, b, lo, hi, e_lo, e_hi, _NODES_HIGH)
    err = float(np.max(np.abs(fine - coarse)))
    return fine, err


def adaptive_quad(spec: QuadSpec) -> np.ndarray:
    """Globally adaptive bisection with Gauss-Jacobi panels at the endpoints.

    Returns the integral value (scalar as 0-d array, or the integrand's
    shape).  Raises ToleranceNotMetError if the panel budget is exhausted
    before the summed error estimate drops below spec.tol, and DomainError
    for a malformed spec.
    """
    lo, hi = map(float, spec.interval)
    if not lo < hi:
        raise DomainError(f"adaptive_quad needs lo < hi, got ({lo}, {hi})")
    p_lo, p_hi = map(float, spec.exponents)
    if p_lo <= -1.0 or p_hi <= -1.0:
        raise DomainError("endpoint exponents must be > -1 for integrability")

    def ends(a, b):
        # a panel end carries the declared exponent only at the interval's end
        return (p_lo if a == lo else 0.0), (p_hi if b == hi else 0.0)

    f = spec.integrand
    val, err = _panel_estimate(f, lo, hi, lo, hi, *ends(lo, hi))
    # heap of (-err, counter, a, b, value, err); counter breaks ties
    count = 0
    heap = [(-err, count, lo, hi, val, err)]
    total_err = err
    n_panels = 1
    while total_err > spec.tol:
        if n_panels >= _MAX_PANELS:
            raise ToleranceNotMetError(
                f"adaptive_quad: error estimate {total_err:.3g} above tol "
                f"{spec.tol:.3g} after {n_panels} panels"
            )
        neg_err, _, a, b, v, e = heapq.heappop(heap)
        total_err -= e
        mid = 0.5 * (a + b)
        for aa, bb in ((a, mid), (mid, b)):
            vv, ee = _panel_estimate(f, aa, bb, lo, hi, *ends(aa, bb))
            count += 1
            heapq.heappush(heap, (-ee, count, aa, bb, vv, ee))
            total_err += ee
        n_panels += 1
    total = None
    for _, _, _, _, v, _ in heap:
        total = v if total is None else total + v
    return total


def constant_coeff_F(A0: np.ndarray, alpha: float, dt: float, tol: float = 1e-13) -> np.ndarray:
    """Fundamental matrix for constant coefficients at elapsed time dt.

    Equals the two-parameter Mittag-Leffler matrix function of dt^alpha * A0
    with both parameters alpha; at dt = 0 this is Id / gamma(alpha).
    """
    A0 = np.asarray(A0, dtype=float)
    if A0.ndim != 2 or A0.shape[0] != A0.shape[1]:
        raise DomainError("constant_coeff_F expects a square matrix")
    if dt < 0.0:
        raise DomainError("constant_coeff_F needs dt >= 0")
    params = MLParams(alpha=alpha, beta=alpha, tol=tol)
    return mittag_leffler(params, (dt ** alpha) * A0)


def convergence_order(errors: "Sequence[tuple] | dict") -> float:
    """Least-squares slope of log(error) against log(1/N).

    `errors` maps grid sizes N to positive error measurements, given either
    as a dict or a sequence of (N, err) pairs.  At least two distinct N are
    required and every error must be positive (a zero error means the scheme
    is exact and an order is meaningless).
    """
    pairs = list(errors.items()) if isinstance(errors, dict) else list(errors)
    if len(pairs) < 2:
        raise DomainError("convergence_order needs at least two (N, err) pairs")
    Ns = np.array([float(n) for n, _ in pairs])
    es = np.array([float(e) for _, e in pairs])
    if np.any(Ns <= 0) or len(set(Ns.tolist())) < 2:
        raise DomainError("grid sizes must be positive and not all equal")
    if np.any(es <= 0):
        raise DomainError("errors must be strictly positive")
    slope, _ = np.polyfit(np.log(1.0 / Ns), np.log(es), 1)
    return float(slope)


def ml_reference(alpha: float, beta: float, z: complex, dps: int = 40) -> complex:
    """Arbitrary-precision scalar Mittag-Leffler sum via mpmath.

    Used by the test suite to pin expected values; the production series in
    `special` must agree with this to its own tolerance.  Off the non-negative
    real axis the terms grow to about exp(|z|^(1/alpha)) before they cancel,
    so the sum carries that many extra digits.
    """
    import mpmath as mp

    zc = complex(z)
    cancel = zc.imag != 0.0 or zc.real < 0.0
    extra = math.ceil(abs(zc) ** (1.0 / alpha) * math.log10(math.e)) if cancel else 0
    with mp.workdps(dps + extra):
        zz = mp.mpmathify(z)
        s = mp.mpf(0)
        eps = mp.mpf(10) ** (-dps + 2)
        small = 0
        k = 0
        while k < 100_000:
            term = (zz ** k) / mp.gamma(alpha * k + beta)
            s += term
            if abs(term) < eps * (1 + abs(s)):
                small += 1
                if small >= 2:
                    break
            else:
                small = 0
            k += 1
        else:
            raise ToleranceNotMetError("ml_reference: series budget exhausted")
        out = complex(s)
    return out.real if abs(out.imag) < 1e-30 else out


def gamma_reference(x: float, dps: int = 40) -> float:
    """Arbitrary-precision gamma via mpmath, returned as the nearest double."""
    import mpmath as mp

    with mp.workdps(dps):
        return float(mp.gamma(mp.mpf(x)))
