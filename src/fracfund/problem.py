"""Problem data for linear Caputo systems.

A problem bundles the order alpha, the window [t0, theta], a matrix
coefficient A(.), a vector forcing b(.), and the history: the solution is
prescribed on [t0, t_star] and unknown on (t_star, theta]. When
t_star == t0 the history collapses to a single start vector.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ProblemSpecError
from .gridfn import GridFn


def _eval_on_nodes(fn, t, shape):
    t = np.atleast_1d(np.asarray(t, dtype=float))
    out = np.asarray(fn(t), dtype=float)
    want = (t.size,) + shape
    if out.shape != want:
        raise ProblemSpecError(
            f"coefficient callable returned shape {out.shape}, expected {want}"
        )
    return out


class Coefficient:
    """Matrix-valued map t -> A(t), evaluated on arrays of nodes."""

    def __init__(self, n, fn, label="custom"):
        if n < 1:
            raise ProblemSpecError("dimension must be >= 1")
        self.n = int(n)
        self._fn = fn
        self.label = label

    def at(self, t):
        """A at each node of t, shape (len(t), n, n)."""
        return _eval_on_nodes(self._fn, t, (self.n, self.n))

    @classmethod
    def constant(cls, A0):
        A0 = np.asarray(A0, dtype=float)
        if A0.ndim != 2 or A0.shape[0] != A0.shape[1]:
            raise ProblemSpecError("constant coefficient must be a square matrix")
        return cls(A0.shape[0], lambda t: np.broadcast_to(A0, (t.size,) + A0.shape).copy(),
                   label="constant")

    @classmethod
    def zero(cls, n):
        return cls(n, lambda t: np.zeros((t.size, n, n)), label="zero")

    @classmethod
    def rotation(cls, scale=1.0):
        """2x2 skew block [[0, 1], [-1, 0]] times scale."""
        A0 = np.array([[0.0, 1.0], [-1.0, 0.0]]) * float(scale)
        out = cls.constant(A0)
        out.label = "rotation"
        return out

    @classmethod
    def cosine(cls, A0, omega):
        A0 = np.asarray(A0, dtype=float)
        if A0.ndim != 2 or A0.shape[0] != A0.shape[1]:
            raise ProblemSpecError("cosine coefficient needs a square base matrix")
        om = float(omega)
        return cls(A0.shape[0],
                   lambda t: np.cos(om * t)[:, None, None] * A0,
                   label="cosine")

    @classmethod
    def from_samples(cls, samples: GridFn):
        if samples.value_shape == () or len(samples.value_shape) != 2:
            raise ProblemSpecError("matrix samples must be (n, n)-valued")
        n = samples.value_shape[0]
        if samples.value_shape != (n, n):
            raise ProblemSpecError("matrix samples must be square")
        return cls(n, samples.sample, label="samples")

    @classmethod
    def from_callable(cls, n, fn, label="custom"):
        def batched(t):
            return np.stack([np.asarray(fn(float(x)), dtype=float) for x in t])
        return cls(n, batched, label=label)


class Forcing:
    """Vector-valued map t -> b(t), evaluated on arrays of nodes."""

    def __init__(self, n, fn, label="custom"):
        if n < 1:
            raise ProblemSpecError("dimension must be >= 1")
        self.n = int(n)
        self._fn = fn
        self.label = label

    def at(self, t):
        return _eval_on_nodes(self._fn, t, (self.n,))

    @classmethod
    def constant(cls, b0):
        b0 = np.asarray(b0, dtype=float)
        if b0.ndim != 1:
            raise ProblemSpecError("constant forcing must be a vector")
        return cls(b0.size, lambda t: np.broadcast_to(b0, (t.size, b0.size)).copy(),
                   label="constant")

    @classmethod
    def zero(cls, n):
        return cls(n, lambda t: np.zeros((t.size, n)), label="zero")

    @classmethod
    def cosine(cls, b0, omega):
        b0 = np.asarray(b0, dtype=float)
        if b0.ndim != 1:
            raise ProblemSpecError("cosine forcing needs a base vector")
        om = float(omega)
        return cls(b0.size, lambda t: np.cos(om * t)[:, None] * b0, label="cosine")

    @classmethod
    def from_samples(cls, samples: GridFn):
        if len(samples.value_shape) != 1:
            raise ProblemSpecError("forcing samples must be vector-valued")
        return cls(samples.value_shape[0], samples.sample, label="samples")

    @classmethod
    def from_callable(cls, n, fn, label="custom"):
        def batched(t):
            return np.stack([np.asarray(fn(float(x)), dtype=float) for x in t])
        return cls(n, batched, label=label)


@dataclass
class History:
    """Prescribed solution segment on [t0, t_star].

    ``w_star`` holds the segment itself. ``caputo_w`` optionally holds node
    samples of its Caputo derivative on the same grid; several methods need
    that derivative, and a stored sample beats re-differencing when the
    segment came from a generator pair or an earlier solve.
    """

    w_star: GridFn
    caputo_w: GridFn | None = None

    def __post_init__(self):
        if len(self.w_star.value_shape) != 1:
            raise ProblemSpecError("history segment must be vector-valued")
        if self.caputo_w is not None:
            same = (self.caputo_w.N == self.w_star.N
                    and self.caputo_w.a == self.w_star.a
                    and self.caputo_w.b == self.w_star.b
                    and self.caputo_w.value_shape == self.w_star.value_shape)
            if not same:
                raise ProblemSpecError(
                    "Caputo samples must live on the history grid")

    @property
    def n(self):
        return self.w_star.value_shape[0]

    @property
    def t_star(self):
        return self.w_star.b

    @classmethod
    def point(cls, t0, w0):
        """Degenerate history t_star == t0: just the start vector."""
        w0 = np.asarray(w0, dtype=float).reshape(-1)
        seg = GridFn(t0, t0, 0, w0[None, :])
        dz = GridFn(t0, t0, 0, np.zeros((1, w0.size)))
        return cls(seg, dz)

    @classmethod
    def from_samples(cls, w_star, caputo_w=None):
        return cls(w_star, caputo_w)

    @classmethod
    def from_generator(cls, alpha, w0, phi: GridFn):
        """Build w_star = w0 + I^alpha phi from a start vector and a density.

        The pair fixes the segment's Caputo derivative to phi exactly, so it
        is stored alongside and no differencing is ever applied.
        """
        from .operators import fractional_integral

        w0 = np.asarray(w0, dtype=float).reshape(-1)
        if phi.value_shape != (w0.size,):
            raise ProblemSpecError("density dimension does not match w0")
        integ = fractional_integral(phi, alpha, "left")
        seg = GridFn(phi.a, phi.b, phi.N, integ.values + w0)
        return cls(seg, phi)

    def caputo_samples(self, alpha):
        """Caputo-derivative samples of the segment; L1 fallback if unstored."""
        if self.caputo_w is not None:
            return self.caputo_w
        if self.w_star.N < 1:
            raise ProblemSpecError(
                "history has no stored Caputo derivative and too few nodes "
                "to difference")
        from .operators import caputo_derivative

        return caputo_derivative(self.w_star, alpha)


@dataclass
class CauchyProblem:
    alpha: float
    t0: float
    theta: float
    A: Coefficient
    b: Forcing
    history: History

    def __post_init__(self):
        if not 0.0 < self.alpha < 1.0:
            raise ProblemSpecError("alpha must lie in (0, 1)")
        if not self.theta > self.t0:
            raise ProblemSpecError("need theta > t0")
        if self.A.n != self.b.n or self.A.n != self.history.n:
            raise ProblemSpecError("dimension mismatch between A, b, history")
        span = self.theta - self.t0
        if abs(self.history.w_star.a - self.t0) > 1e-12 * max(span, 1.0):
            raise ProblemSpecError("history must start at t0")
        ts = self.history.t_star
        if not (self.t0 - 1e-12 * span <= ts < self.theta):
            raise ProblemSpecError("need t0 <= t_star < theta")

    @property
    def n(self):
        return self.A.n

    @property
    def t_star(self):
        return self.history.t_star

    @property
    def w0(self):
        return self.history.w_star.values[0].copy()

    @classmethod
    def from_initial_value(cls, alpha, t0, theta, A, b, w0):
        """Classical start-value problem: t_star == t0."""
        return cls(alpha, t0, theta, A, b, History.point(t0, w0))
