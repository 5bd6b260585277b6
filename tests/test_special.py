"""Gamma and Mittag-Leffler accuracy against high-precision references."""

import math

import numpy as np
import pytest

from fracfund.errors import DomainError, NonConvergenceError
from fracfund.special import MLParams, gamma, log_gamma, mittag_leffler, ml_scalar

# mpmath at 30 digits
GAMMA_TABLE = [
    (0.001, 999.4237724845955),
    (0.1, 9.51350769866873),
    (0.25, 3.625609908221908),
    (0.5, 1.772453850905516),
    (0.75, 1.2254167024651776),
    (1.0, 1.0),
    (1.5, 0.886226925452758),
    (2.0, 1.0),
    (2.5, 1.329340388179137),
    (3.7, 4.170651783796604),
    (5.5, 52.34277778455352),
    (10.3, 716430.6890623764),
    (25.0, 6.204484017332394e+23),
    (170.5, 5.56209241456e+305),
]

LOG_GAMMA_TABLE = [
    (0.5, 0.5723649429247001),
    (1.0, 0.0),
    (4.2, 2.04855563696059),
    (20.0, 39.339884187199495),
    (200.0, 857.9336698258575),
    (10000.0, 82099.71749644238),
]

ML_TABLE = [
    (0.5, 0.5, 1.0, 5.57316966431004),
    (0.5, 1.0, -1.0, 0.427583576155807),
    (0.3, 0.7, 2.0, 158972.58563355103),
    (0.7, 1.0, -2.5, 0.16863128667619576),
    (0.9, 0.9, 3.0, 37.227740541104374),
]


@pytest.mark.parametrize("x,ref", GAMMA_TABLE)
def test_gamma_table(x, ref):
    assert gamma(x) == pytest.approx(ref, rel=1e-12)


@pytest.mark.parametrize("x,ref", LOG_GAMMA_TABLE)
def test_log_gamma_table(x, ref):
    assert log_gamma(x) == pytest.approx(ref, rel=1e-11, abs=1e-12)


def test_gamma_recurrence():
    for x in (0.3, 1.7, 6.4):
        assert gamma(x + 1.0) == pytest.approx(x * gamma(x), rel=1e-13)


def test_gamma_reflection():
    for x in (0.2, 0.5, 0.8):
        prod = gamma(x) * gamma(1.0 - x)
        assert prod == pytest.approx(math.pi / math.sin(math.pi * x), rel=1e-12)


@pytest.mark.parametrize("x", [0.0, -1.0, math.nan])
def test_gamma_rejects_non_positive_and_nan(x):
    with pytest.raises(DomainError):
        gamma(x)


def test_gamma_full_precision_against_mpmath():
    # 2,000 points over [0.01, 170], about 900 of them in the alpha range
    # (0, 1)
    from fracfund.oracle import gamma_reference

    xs = np.geomspace(0.01, 170.0, 2000)
    assert (xs < 1.0).sum() > 800
    rel = max(abs(gamma(x) / gamma_reference(x) - 1.0) for x in xs.tolist())
    assert rel <= 1e-15


def test_gamma_is_the_standard_library_gamma():
    for x in np.linspace(0.005, 171.6, 997).tolist() + [171.62, 1e-300]:
        assert gamma(x) == math.gamma(x)
    for x in (math.inf, -math.inf):
        with pytest.raises(DomainError):
            gamma(x)
    with pytest.raises(OverflowError):  # 1 / x overflows
        gamma(1e-310)


def test_gamma_overflow_and_log_gamma_domain():
    with pytest.raises(OverflowError):
        gamma(172.0)
    with pytest.raises(DomainError):
        log_gamma(0.0)


@pytest.mark.parametrize("a,b,z,ref", ML_TABLE)
def test_ml_scalar_table(a, b, z, ref):
    assert ml_scalar(a, z, b) == pytest.approx(ref, rel=1e-12)


def test_ml_scalar_real_input_returns_float():
    assert isinstance(ml_scalar(0.5, -1.0), float)


def test_ml_exponential_reduction():
    assert ml_scalar(1.0, 1.0) == math.exp(1.0)
    assert ml_scalar(1.0, 1j) == pytest.approx(np.exp(1j), abs=1e-15)


def test_ml_matrix_nilpotent():
    # Z^2 = 0 truncates the series after two terms
    Z = np.array([[0.0, 1.0], [0.0, 0.0]])
    a, b = 0.6, 0.8
    got = mittag_leffler(MLParams(a, b), Z)
    want = np.eye(2) / gamma(b) + Z / gamma(a + b)
    assert np.abs(got - want).max() < 5e-15


def test_ml_matrix_rotation_is_planar_rotation():
    th = 0.7
    Z = np.array([[0.0, th], [-th, 0.0]])
    got = mittag_leffler(MLParams(1.0, 1.0), Z)
    want = np.array([[math.cos(th), math.sin(th)],
                     [-math.sin(th), math.cos(th)]])
    assert np.abs(got - want).max() < 1e-13


def test_ml_at_zero_matches_reciprocal_gamma():
    for a, b in [(0.3, 0.5), (0.5, 1.0), (0.7, 1.3), (1.0, 2.0)]:
        assert ml_scalar(a, 0.0, b) == pytest.approx(1.0 / gamma(b), abs=1e-15)


def test_ml_params_validation():
    with pytest.raises(DomainError):
        MLParams(0.0, 1.0)
    with pytest.raises(DomainError):
        MLParams(0.5, -1.0)
    with pytest.raises(DomainError):
        MLParams(0.5, 1.0, tol=0.0)
    with pytest.raises(DomainError):
        MLParams(0.5, 1.0, max_terms=1)


def test_ml_budget_exhaustion():
    with pytest.raises(NonConvergenceError):
        mittag_leffler(MLParams(0.2, 1.0, max_terms=5), np.array([[40.0]]))


def test_ml_matrix_rejects_nonsquare():
    with pytest.raises(DomainError):
        mittag_leffler(MLParams(0.5, 1.0), np.zeros((2, 3)))
