"""Manufactured exact solutions and the output checks of the benchmark.

Every problem the benchmark hands to fracfund has the exact solution

    x(t) = w0 + v t^alpha + u t,   t0 = 0,

whose Caputo derivative is Gamma(alpha+1) v + u t^(1-alpha) / Gamma(2-alpha),
so the forcing b(t) = D^alpha x - A(t) x(t) is known in closed form.  The
t^alpha term has the solution's own singularity, which is what limits the
order of the representation formulas; the u t term puts a t^(1-alpha)
singularity into the forcing.  Every method reproduces the constant w0 to
rounding, so the error of a solve comes from v and u alone.  Those two are
fixed and the seed draws w0: the worst error of a run then depends on the
method, the grid, alpha and t_star, not on which directions a seed drew.

Nothing here calls fracfund except to wrap the exact functions in its
Coefficient / Forcing / GridFn containers; gammas come from `math`.
"""

import json
import math

import numpy as np

# 2x2 coefficients: the "cosine" preset A(t) = cos(OMEGA t) A_VAR, and a mild
# constant matrix for the oracle path of verify.
A_VAR = np.array([[0.3, 1.0], [-1.0, -0.2]])
OMEGA = 3.0
A_CONST = np.array([[-0.4, 0.6], [-0.5, -0.3]])
V = np.array([0.8, 0.6])
U = np.array([-0.4, 0.3])
# max_err bound: C N^-min(1, 2 alpha).  The marches are first order, and the
# representation formulas converge as N^(-2 alpha) for alpha < 1/2.
ERROR_CONSTANT = 4.0
DIAGONAL_TOL = 1e-13


class CheckFailed(AssertionError):
    """An output of the program disagrees with the exact answer."""


def error_bound(N, alpha):
    return ERROR_CONSTANT * N ** -min(1.0, 2.0 * alpha)


class Manufactured:
    """One exact solution x on [0, 1] for a 2x2 coefficient A(t)."""

    def __init__(self, alpha, w0, A0=A_VAR, omega=OMEGA):
        self.alpha = float(alpha)
        self.w0 = np.asarray(w0, dtype=float)
        self.v = V
        self.u = U
        self.A0 = np.asarray(A0, dtype=float)
        self.omega = omega  # None: A is the constant A0

    @classmethod
    def draw(cls, rng, alpha, **coefficient):
        """Seeded start value w0 on the unit circle."""
        angle = rng.uniform(0.0, 2.0 * math.pi)
        return cls(alpha, [math.cos(angle), math.sin(angle)], **coefficient)

    def A(self, t):
        t = np.asarray(t, dtype=float)
        if self.omega is None:
            return np.broadcast_to(self.A0, t.shape + (2, 2)).copy()
        return np.cos(self.omega * t)[:, None, None] * self.A0

    def x(self, t):
        t = np.asarray(t, dtype=float)[:, None]
        return self.w0 + self.v * t ** self.alpha + self.u * t

    def caputo(self, t):
        t = np.asarray(t, dtype=float)[:, None]
        a = self.alpha
        return (math.gamma(a + 1.0) * self.v
                + self.u * t ** (1.0 - a) / math.gamma(2.0 - a))

    def b(self, t):
        return self.caputo(t) - np.einsum("kab,kb->ka", self.A(t), self.x(t))

    # fracfund containers around the exact functions
    def coefficient(self):
        from fracfund import Coefficient
        if self.omega is None:
            return Coefficient.constant(self.A0)
        return Coefficient.cosine(self.A0, self.omega)

    def problem(self, N=None, k0=0):
        """Problem with the exact start vector (k0 = 0) or the exact history
        and its exact Caputo samples on the first k0 steps of an N grid."""
        from fracfund import CauchyProblem, Forcing, GridFn, History
        b = Forcing(2, self.b, label="manufactured")
        if k0 == 0:
            hist = History.point(0.0, self.w0)
        else:
            t = np.linspace(0.0, 1.0, N + 1)[:k0 + 1]
            hist = History.from_samples(
                GridFn(0.0, t[-1], k0, self.x(t)),
                GridFn(0.0, t[-1], k0, self.caputo(t)))
        return CauchyProblem(self.alpha, 0.0, 1.0, self.coefficient(), b,
                             hist)

    def config(self, N, history):
        """fracfund CLI config for this problem; the forcing comes from b.csv."""
        if self.omega is None:
            A = {"preset": "constant", "matrix": self.A0.tolist()}
        else:
            A = {"preset": "cosine", "matrix": self.A0.tolist(),
                 "omega": self.omega}
        return {"alpha": self.alpha, "t0": 0.0, "theta": 1.0, "n": 2,
                "A": A, "b": {"preset": "samples", "path": "b.csv"},
                "history": history, "grid_N": N}

    def write_samples(self, path, fn, N, k=None):
        """CSV of fn ('x' or 'b') on the first k steps of the N grid, in the
        layout fracfund reads: t,v_1,v_2 with 17 significant digits."""
        k = N if k is None else k
        t = np.linspace(0.0, 1.0, N + 1)[:k + 1]
        vals = getattr(self, fn)(t)
        with open(path, "w", encoding="ascii") as fh:
            fh.write("t,v_1,v_2\n")
            for ti, row in zip(t, vals):
                fh.write(",".join("%.17g" % v for v in (ti, *row)) + "\n")


def check_diagonal(values, alpha):
    """The field's diagonal must be Id / Gamma(alpha)."""
    N1 = values.shape[0]
    diag = values[np.arange(N1), np.arange(N1)]
    dev = float(np.abs(diag - np.eye(values.shape[-1])
                       / math.gamma(alpha)).max())
    if not dev <= DIAGONAL_TOL:
        raise CheckFailed(f"field diagonal off Id/Gamma(alpha) by {dev:.3g}")


def solution_error(exact, values, N, k0=0, history=None):
    """Worst error of node values past t_star against the exact solution.

    The prefix up to t_star must equal the history exactly: `history` when
    given, else the exact solution's samples.
    """
    t = np.linspace(0.0, 1.0, N + 1)
    values = np.asarray(values, dtype=float)
    if values.shape != (N + 1, 2):
        raise CheckFailed(f"solution has shape {values.shape}")
    if k0 > 0:
        want = exact.x(t[:k0 + 1]) if history is None else history
        if not np.array_equal(values[:k0 + 1], want):
            raise CheckFailed("solution differs from the history on "
                              "[t0, t_star]")
    err = float(np.abs(values[k0:] - exact.x(t[k0:])).max())
    bound = error_bound(N, exact.alpha)
    if not err <= bound:
        raise CheckFailed(f"error {err:.3g} above the bound {bound:.3g} "
                          f"(N={N}, alpha={exact.alpha:.4f})")
    return err


def check_exit_codes(codes):
    if any(codes):
        raise CheckFailed(f"fracfund exited with codes {codes}")


def check_report(path):
    """A verify report must say that every check passed."""
    with open(path, encoding="utf-8") as fh:
        report = json.load(fh)
    if report.get("all_pass") is not True:
        failed = ["%s %.3g > %.3g" % (c["name"], c["residual"], c["threshold"])
                  for c in report.get("checks", ()) if not c["pass"]]
        raise CheckFailed(f"verify report fails {failed}")


def check_row_count(path, N):
    """A field CSV holds one row per node pair of the triangle."""
    rows = count_rows(path)
    want = (N + 1) * (N + 2) // 2
    if rows != want:
        raise CheckFailed(f"{path} has {rows} rows, expected {want}")


def read_table(path):
    """Numeric rows of a CSV with one header line."""
    return np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)


def count_rows(path):
    """Data rows (lines after the header) of a text file."""
    lines = 0
    with open(path, "rb") as fh:
        while True:
            chunk = fh.read(1 << 22)
            if not chunk:
                break
            lines += chunk.count(b"\n")
    return lines - 1
