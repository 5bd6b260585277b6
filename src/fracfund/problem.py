"""Problem data for linear Caputo systems.

A problem bundles the order alpha, the window [t0, theta], a matrix
coefficient A(.), a vector forcing b(.), and the history: the solution is
prescribed on [t0, t_star] and unknown on (t_star, theta]. When
t_star == t0 the history collapses to a single start vector.

The coefficient and the forcing are one type, NodeFunction, a map from an
array of nodes to (n,)*rank-shaped values with rank 2 (Coefficient) or
1 (Forcing); it owns evaluation with its shape check and the constructors
the two share.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ProblemSpecError
from .gridfn import GridFn


class NodeFunction:
    """Map t -> (n,)*rank array, evaluated on arrays of nodes.

    Subclasses set ``rank`` (2 for the coefficient, 1 for the forcing) and
    ``kind``, the value's name ("matrix", "vector") and its config key.
    """

    def __init__(self, n, fn, label="custom"):
        if n < 1:
            raise ProblemSpecError("dimension must be >= 1")
        self.n = int(n)
        self._fn = fn
        self.label = label

    def at(self, t):
        """Values at each node of t, shape (len(t), n, ..., n)."""
        t = np.atleast_1d(np.asarray(t, dtype=float))
        out = np.asarray(self._fn(t), dtype=float)
        want = (t.size,) + (self.n,) * self.rank
        if out.shape != want:
            raise ProblemSpecError(
                f"{type(self).__name__.lower()} callable returned shape "
                f"{out.shape}, expected {want}")
        return out

    @classmethod
    def _check_shape(cls, shape, what):
        if len(shape) != cls.rank or len(set(shape)) != 1:
            raise ProblemSpecError(
                f"{cls.__name__.lower()} {what} needs a "
                f"{'square ' * (cls.rank > 1)}{cls.kind}, got shape {shape}")
        return shape[0]

    @classmethod
    def constant(cls, v0):
        v0 = np.asarray(v0, dtype=float)
        n = cls._check_shape(v0.shape, "constant")
        return cls(n, lambda t: np.broadcast_to(v0, (t.size,) + v0.shape).copy(),
                   label="constant")

    @classmethod
    def zero(cls, n):
        return cls(n, lambda t: np.zeros((t.size,) + (n,) * cls.rank),
                   label="zero")

    @classmethod
    def cosine(cls, v0, omega):
        """cos(omega t) times the base value v0."""
        v0 = np.asarray(v0, dtype=float)
        n = cls._check_shape(v0.shape, "cosine")
        om, axes = float(omega), (1,) * cls.rank
        return cls(n, lambda t: np.cos(om * t).reshape(-1, *axes) * v0,
                   label="cosine")

    @classmethod
    def from_samples(cls, samples: GridFn):
        """Interpolated node samples of a (n,)*rank-valued GridFn."""
        n = cls._check_shape(samples.value_shape, "samples")
        return cls(n, samples.sample, label="samples")

    @classmethod
    def from_callable(cls, n, fn, label="custom"):
        """Wrap a function of one float, called once per node."""
        def batched(t):
            return np.stack([np.asarray(fn(float(x)), dtype=float) for x in t])
        return cls(n, batched, label=label)


class Coefficient(NodeFunction):
    """Matrix-valued map t -> A(t)."""

    rank = 2
    kind = "matrix"

    @classmethod
    def rotation(cls, scale=1.0):
        """2x2 skew block [[0, 1], [-1, 0]] times scale."""
        out = cls.constant(np.array([[0.0, 1.0], [-1.0, 0.0]]) * float(scale))
        out.label = "rotation"
        return out


class Forcing(NodeFunction):
    """Vector-valued map t -> b(t)."""

    rank = 1
    kind = "vector"


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
        if not np.isfinite(span):
            raise ProblemSpecError(f"theta - t0 overflows: {span}")
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
