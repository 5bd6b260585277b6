"""Gauss-Jacobi rules on [0, 1] against exact Beta-function moments."""

import warnings

import mpmath
import numpy as np
import pytest

from fracfund.quadrules import jacobi_rule_01

ORDERS = (0.3, 0.55, 0.9)


def _exponent_pairs():
    pairs = {(0.0, 0.0), (-0.95, 0.0), (-0.95, -0.05)}
    for alpha in ORDERS:
        pairs |= {(alpha - 1.0, alpha - 1.0), (-alpha, alpha - 1.0),
                  (alpha - 1.0, 0.0)}
    return sorted(pairs)


@pytest.mark.parametrize("p, q", _exponent_pairs())
@pytest.mark.parametrize("n", [1, 4, 8, 10, 16, 32])
def test_rule_integrates_monomials_exactly(n, p, q):
    # built past the cache, with RuntimeWarning as an error
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        u, w = jacobi_rule_01.__wrapped__(n, p, q)
    assert u.shape == w.shape == (n,)
    assert 0.0 < u[0] and u[-1] < 1.0 and np.all(np.diff(u) > 0.0)
    assert np.all(w > 0.0)
    for m in range(2 * n):
        exact = float(mpmath.beta(p + m + 1.0, q + 1.0))
        assert abs(np.dot(w, u ** m) - exact) <= 1e-12 * exact, m


def test_rule_is_read_only_and_repeatable():
    u, w = jacobi_rule_01.__wrapped__(32, -0.3, -0.7)
    u2, w2 = jacobi_rule_01.__wrapped__(32, -0.3, -0.7)
    assert np.array_equal(u, u2) and np.array_equal(w, w2)
    with pytest.raises(ValueError):
        u[0] = 0.5
    with pytest.raises(ValueError):
        w[0] = 0.5
