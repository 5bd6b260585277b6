"""Gauss-Jacobi rules on [0, 1] against exact Beta-function moments, and
the FFT convolution against direct sums."""

import warnings

import mpmath
import numpy as np
import pytest

from fracfund.quadrules import convolve, jacobi_rule_01

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


def _direct_sums(kernel, values, rows):
    # out[i] = sum over j and the kernel's other axes of kernel[i - j]
    # values[j], one long-double dot product per requested output row (a
    # double BLAS dot over 2^16 terms can itself be off by 1e-14 relative)
    L, V, axes = len(kernel), len(values), list(range(np.ndim(kernel)))
    kernel, values = kernel.astype(np.longdouble), values.astype(np.longdouble)
    out = []
    for i in rows:
        j = np.arange(max(0, i - L + 1), min(i, V - 1) + 1)
        out.append(np.tensordot(kernel[i - j], values[j], (axes, axes)))
    return np.array(out, dtype=float)


@pytest.mark.parametrize("L, V", [(1, 1), (1, 7), (7, 1), (130, 64), (64, 65),
                                  (65, 65), (1 << 16, 1 << 16)])
def test_convolve_matches_direct_sums(L, V):
    # 128 and 129 outputs fill a power-of-two padding exactly and overflow
    # it by one.  Every output at the small sizes; at 2^16 every 1021st one
    # and the last (a full direct convolution there takes seconds a column)
    rng = np.random.default_rng(L + V)
    m = L + V - 1
    rows = np.unique(np.append(np.arange(0, m, 1 if m < 1000 else 1021), m - 1))
    cases = [(rng.random(L), rng.random((V,) + shape))
             for shape in ((), (2,), (2, 3))]
    # a kernel per Legendre node, summed over the nodes
    cases.append((rng.random((L, 16)), rng.random((V, 16, 2))))
    for kernel, values in cases:
        got = convolve(kernel, values)
        assert got.shape == (m,) + values.shape[kernel.ndim:]
        ref = _direct_sums(kernel, values, rows)
        assert np.abs(got[rows] - ref).max() <= 1e-14 * np.abs(ref).max()
