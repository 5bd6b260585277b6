"""Uniform-grid sampled functions, the common currency of the solvers.

A GridFn holds node values of a scalar-, vector- or matrix-valued function
on the uniform grid of [a, b] with N subintervals.  Between nodes every
consumer interprets the data piecewise-linearly; that single interpolation
contract is what makes the product-integration moments exact for affine
data.
"""

import os
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, GridMismatchError


@dataclass
class GridFn:
    a: float
    b: float
    N: int
    values: np.ndarray

    def __post_init__(self):
        self.a = float(self.a)
        self.b = float(self.b)
        self.N = int(self.N)
        self.values = np.asarray(self.values, dtype=float)
        if self.N < 0:
            raise DomainError("N must be nonnegative")
        if self.N == 0:
            if self.b != self.a:
                raise DomainError("N = 0 requires a degenerate interval a == b")
        elif not self.b > self.a:
            raise DomainError(f"need b > a, got [{self.a}, {self.b}]")
        if self.values.shape[0] != self.N + 1:
            raise GridMismatchError(
                f"values carry {self.values.shape[0]} nodes, grid has {self.N + 1}"
            )

    @property
    def h(self) -> float:
        return (self.b - self.a) / self.N if self.N else 0.0

    @property
    def t(self) -> np.ndarray:
        return np.linspace(self.a, self.b, self.N + 1)

    @property
    def value_shape(self) -> tuple:
        return self.values.shape[1:]

    @property
    def components(self) -> int:
        return int(np.prod(self.value_shape, dtype=int)) if self.value_shape else 1

    def sample(self, x) -> np.ndarray:
        """Piecewise-linear evaluation at points inside [a, b], up to rounding."""
        x = np.asarray(x, dtype=float)
        slack = 1e-9 * max(self.b - self.a, abs(self.a), abs(self.b), 1.0)
        if x.size and not self.a - slack <= x.min() <= x.max() <= self.b + slack:
            raise DomainError(f"points on [{x.min()}, {x.max()}] lie outside "
                              f"the sampled interval [{self.a}, {self.b}]")
        if self.N == 0:
            out = np.broadcast_to(self.values[0], x.shape + self.value_shape)
            return out.copy()
        pos = (x - self.a) / self.h
        idx = np.clip(np.floor(pos).astype(int), 0, self.N - 1)
        frac = pos - idx
        frac = frac.reshape(frac.shape + (1,) * len(self.value_shape))
        return (1.0 - frac) * self.values[idx] + frac * self.values[idx + 1]

    def prefix(self, t_cut: float) -> "GridFn":
        """Restriction to [a, t_cut]; t_cut must sit on a grid node."""
        if self.N == 0:
            if t_cut != self.a:
                raise GridMismatchError("degenerate grid has only its base point")
            return GridFn(self.a, self.a, 0, self.values.copy())
        k = (t_cut - self.a) / self.h
        ki = int(round(k))
        if not (0 <= ki <= self.N) or abs(k - ki) > 1e-9 * max(1, self.N):
            raise GridMismatchError(f"cut point {t_cut} is not a grid node")
        b_new = float(self.t[ki]) if ki else self.a
        return GridFn(self.a, b_new, ki, self.values[: ki + 1].copy())

    def to_csv(self, path, label="v") -> None:
        write_csv(self, path, label)


# rows formatted by one % each time the CSV writer formats
_CSV_ROWS = 4096
# fewest blocks of _CSV_ROWS rows worth a process of their own
_PROC_BLOCKS = 4


def _csv_procs(nblocks) -> int:
    """One process per usable CPU, each with _PROC_BLOCKS blocks or more."""
    if not (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")):
        return 1
    return max(1, min(len(os.sched_getaffinity(0)), nblocks // _PROC_BLOCKS))


def _format_rows(fh, rows, r0, r1, formats) -> None:
    for q0 in range(r0, r1, _CSV_ROWS):
        block = rows(q0, min(q0 + _CSV_ROWS, r1))
        row = ",".join(formats or ["%.17g"] * block.shape[1]) + "\n"
        fh.write(row * len(block) % tuple(block.ravel().tolist()))
    fh.flush()  # a child's part must be written before its os._exit


def write_table(path, header, nrows, rows, formats=None) -> int:
    """Write a CSV: the header line, then nrows rows of floats.

    rows(r0, r1) returns rows r0..r1-1 as a 2-D array; it is asked for
    _CSV_ROWS rows at a time, and each such block is formatted by a single %
    over a repeated row format. By default every value is written as %.17g,
    so reloading reproduces the doubles exactly; the bytes are those of
    np.savetxt(fmt="%.17g", delimiter=","). formats gives one format per
    column instead, e.g. %s for a column of values formatted beforehand.

    The rows are cut at block edges into one range per process (_csv_procs,
    returned); forked children format all but the first into temporary
    files, appended in order, so the bytes do not depend on the count. A
    failure leaves no child or partial file; a failed child raises OSError.
    """
    nblocks = -(-nrows // _CSV_ROWS)
    procs = _csv_procs(nblocks)
    cuts = [nblocks * p // procs * _CSV_ROWS for p in range(procs)] + [nrows]
    parts, pids, fh = [], [], None
    try:
        for r0, r1 in zip(cuts[1:-1], cuts[2:]):
            import shutil  # only a parallel export loads these
            import tempfile
            parts.append(tempfile.TemporaryFile("w+", encoding="ascii", newline=""))
            pids.append(os.fork())  # before the output is opened
            if pids[-1] == 0:  # the child leaves through os._exit only
                try:
                    _format_rows(parts[-1], rows, r0, r1, formats)
                    os._exit(0)
                except BaseException as err:
                    os.write(2, f"CSV rows {r0}..{r1 - 1}: {err!r}\n".encode())
                finally:
                    os._exit(1)
        with open(path, "w", encoding="ascii", newline="\n") as fh:
            fh.write(header + "\n")
            _format_rows(fh, rows, 0, cuts[1], formats)
            for part, r0, r1 in zip(parts, cuts[1:], cuts[2:]):
                code = os.waitstatus_to_exitcode(os.waitpid(pids[0], 0)[1])
                del pids[0]
                if code:
                    raise OSError(f"formatting CSV rows {r0}..{r1 - 1} failed"
                                  f" with exit code {code}")
                part.seek(0)
                shutil.copyfileobj(part, fh)
    except BaseException:
        if fh is not None:
            os.remove(path)
        raise
    finally:
        for pid in pids:  # only a failure leaves one running
            os.kill(pid, 9)  # SIGKILL
            os.waitpid(pid, 0)
        for part in parts:
            part.close()
    return procs


def write_csv(fn: GridFn, path, label="v") -> None:
    """Serialize node values: header t,<label>_1,...,<label>_k, 17 significant
    digits so reloading reproduces the doubles exactly."""
    k = fn.components
    header = "t," + ",".join(f"{label}_{i + 1}" for i in range(k))
    table = np.column_stack([fn.t, fn.values.reshape(fn.N + 1, k)])
    write_table(path, header, fn.N + 1, lambda r0, r1: table[r0:r1])


def read_csv(path, value_shape=None) -> GridFn:
    """Load a GridFn written by :func:`write_csv`.

    value_shape disambiguates the flattened components (e.g. (2, 2) to read a
    matrix-valued function back); by default k components load as a k-vector
    and a single component as a scalar function.
    """
    with open(path, "r", encoding="ascii") as fh:
        header = fh.readline().strip()
        rows = [line.strip() for line in fh if line.strip()]
    cols = header.split(",")
    if not cols or cols[0] != "t":
        raise DomainError(f"unrecognized GridFn CSV header {header!r}")
    k = len(cols) - 1
    t = np.empty(len(rows))
    vals = np.empty((len(rows), k))
    for i, line in enumerate(rows):
        parts = line.split(",")
        if len(parts) != k + 1:
            raise DomainError(f"row {i + 2} has {len(parts)} fields, expected {k + 1}")
        t[i] = float(parts[0])
        vals[i] = [float(p) for p in parts[1:]]
    if len(rows) < 1:
        raise DomainError("empty GridFn CSV")
    finite = np.isfinite(t) & np.isfinite(vals).all(axis=1)
    if not finite.all():
        raise DomainError(f"row {np.argmin(finite) + 2} holds a non-finite number")
    if value_shape is None:
        value_shape = () if k == 1 else (k,)
    if int(np.prod(value_shape, dtype=int) if value_shape else 1) != k:
        raise DomainError(f"value_shape {value_shape} does not hold {k} components")
    N = len(rows) - 1
    a, b = float(t[0]), float(t[-1])
    if N > 0:
        steps = np.diff(t)
        if np.max(np.abs(steps - steps[0])) > 1e-9 * max(abs(a), abs(b), 1.0):
            raise GridMismatchError("CSV nodes are not uniformly spaced")
    return GridFn(a, b, N, vals.reshape((N + 1,) + tuple(value_shape)))
