"""Gamma function and the two-parameter Mittag-Leffler function.

gamma and log_gamma are the standard library's math.gamma and math.lgamma
behind one domain check: x <= 0, NaN and +-inf raise DomainError, and
gamma raises OverflowError (from math.gamma) once its result exceeds the
double range, past x ~ 171.62.  The Mittag-Leffler function is summed as a
matrix power series with a term recurrence; the gamma ratios that scale
consecutive terms are formed in log space so the recurrence never
overflows even when thousands of terms are needed.
"""

from dataclasses import dataclass
import cmath
import math

import numpy as np

from .errors import DomainError, NonConvergenceError


def gamma(x: float) -> float:
    """Gamma function for real positive argument, from :func:`math.gamma`.

    Raises DomainError for x <= 0 (where the library never needs gamma) and
    OverflowError once the result exceeds the double range.
    """
    x = float(x)
    if not math.isfinite(x) or x <= 0.0:
        raise DomainError(f"gamma requires x > 0, got {x!r}")
    return math.gamma(x)


def log_gamma(x: float) -> float:
    """Natural log of gamma(x), x > 0, from :func:`math.lgamma`."""
    x = float(x)
    if not math.isfinite(x) or x <= 0.0:
        raise DomainError(f"log_gamma requires x > 0, got {x!r}")
    return math.lgamma(x)


@dataclass
class MLParams:
    """Parameters of the two-parameter Mittag-Leffler function.

    alpha : series exponent step, alpha > 0 (the library exercises (0, 1]).
    beta  : offset parameter, beta > 0.
    tol   : bound on the truncation error of the returned sum.
    max_terms : hard budget on the number of series terms.
    """

    alpha: float
    beta: float = 1.0
    tol: float = 1e-14
    max_terms: int = 10_000

    def __post_init__(self):
        if not (self.alpha > 0.0 and math.isfinite(self.alpha)):
            raise DomainError(f"MLParams.alpha must be positive, got {self.alpha!r}")
        if not (self.beta > 0.0 and math.isfinite(self.beta)):
            raise DomainError(f"MLParams.beta must be positive, got {self.beta!r}")
        if not (self.tol > 0.0):
            raise DomainError("MLParams.tol must be positive")
        if self.max_terms < 2:
            raise DomainError("MLParams.max_terms must be at least 2")


def mittag_leffler(params: MLParams, Z: np.ndarray) -> np.ndarray:
    """Matrix Mittag-Leffler function  sum_k Z^k / gamma(alpha*k + beta).

    Z is a square matrix (a 1x1 matrix covers the scalar case).  Terms are
    built by the recurrence T_{k+1} = (T_k @ Z) * gamma-ratio, with the ratio
    formed in log space.  Summation stops once two consecutive terms fall
    below 0.1 * tol in the max norm, a margin that absorbs the tail of the
    entire series; exceeding max_terms first raises NonConvergenceError.
    """
    dtype = np.complex128 if np.iscomplexobj(Z) else np.float64
    Z = np.asarray(Z, dtype=dtype)
    if Z.ndim != 2 or Z.shape[0] != Z.shape[1]:
        raise DomainError(f"mittag_leffler expects a square matrix, got shape {Z.shape}")
    n = Z.shape[0]
    alpha, beta = params.alpha, params.beta
    cut = 0.1 * params.tol

    term = np.eye(n, dtype=dtype) / gamma(beta)
    total = term.copy()
    comp = np.zeros_like(total)
    small_streak = 1 if np.max(np.abs(term)) < cut else 0
    lg_prev = log_gamma(beta)
    for k in range(1, params.max_terms):
        lg_next = log_gamma(alpha * k + beta)
        term = (term @ Z) * math.exp(lg_prev - lg_next)
        lg_prev = lg_next
        y = term - comp
        s = total + y
        comp = (s - total) - y
        total = s
        if np.max(np.abs(term)) < cut:
            small_streak += 1
            if small_streak >= 2:
                return total
        else:
            small_streak = 0
    raise NonConvergenceError(
        f"Mittag-Leffler series did not settle below tol={params.tol} "
        f"within {params.max_terms} terms (|Z| ~ {np.max(np.abs(Z)):.3g})"
    )


def ml_scalar(alpha: float, z: complex, beta: float = 1.0) -> complex:
    """Scalar convenience wrapper around :func:`mittag_leffler`, at
    MLParams' default tolerance 1e-14.

    alpha = beta = 1 is the exponential identically and is evaluated through
    it, which keeps all printable digits of the result exact.
    """
    if alpha == 1.0 and beta == 1.0:
        if np.iscomplexobj(z) or isinstance(z, complex):
            return cmath.exp(complex(z))
        return math.exp(float(z))
    out = mittag_leffler(MLParams(alpha=alpha, beta=beta), np.array([[z]]))
    val = out[0, 0]
    return val if np.iscomplexobj(out) else float(val)
