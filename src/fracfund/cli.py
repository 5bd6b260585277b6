"""Batch front end: JSON configs in, CSV results and JSON reports out.

Exit codes are part of the contract: 0 success, 1 verification failure,
2 config error, 3 numerical error, 4 method precondition violated. A
failed write, such as a field CSV export whose formatting fails, exits 2.
"""

import argparse
import json
import math
import os
import sys
import time

import numpy as np

from .cauchy import (represent_gc, represent_gc_compact, represent_pc,
                     solve_direct)
from .checks import all_pass, run_suite
from .errors import (GridMismatchError, NonConvergenceError,
                     PreconditionError, ProblemSpecError, SingularSystemError,
                     ToleranceNotMetError)
from .fundamental import TriangleGrid, solve_F, solve_F_picard
from .gridfn import read_csv
from .problem import CauchyProblem, Coefficient, Forcing, History
from .special import ml_scalar

EXIT_OK = 0
EXIT_VERIFY = 1
EXIT_CONFIG = 2
EXIT_NUMERICS = 3
EXIT_PRECONDITION = 4


def _resolve(path, base_dir):
    return path if os.path.isabs(path) else os.path.join(base_dir, path)


def _load_config(path):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh), os.path.dirname(os.path.abspath(path))


def _scalar(raw, name):
    value = float(raw)
    if not math.isfinite(value):
        raise ProblemSpecError(f"{name} must be finite, got {value}")
    return value


def _integer(raw, name):
    value = _scalar(raw, name)
    if not value.is_integer():
        raise ProblemSpecError(f"{name} must be an integer, got {value}")
    return int(value)


def _array(raw, shape):
    arr = np.asarray(raw, dtype=float)
    if arr.shape != shape:
        raise ProblemSpecError(f"array shape {arr.shape} does not match {shape}")
    if not np.isfinite(arr).all():
        raise ProblemSpecError("array entries must be finite")
    return arr


def _node_function(cls, spec, n, base_dir):
    """A Coefficient or Forcing from its preset; the values sit under cls.kind."""
    preset = spec.get("preset", "constant")
    shape = (n,) * cls.rank
    if preset == "zero":
        return cls.zero(n)
    if preset == "constant":
        return cls.constant(_array(spec[cls.kind], shape))
    if preset == "cosine":
        return cls.cosine(_array(spec[cls.kind], shape),
                          _scalar(spec.get("omega", 1.0), "omega"))
    if preset == "samples":
        gf = read_csv(_resolve(spec["path"], base_dir), value_shape=shape)
        return cls.from_samples(gf)
    if preset == "rotation" and cls is Coefficient:
        if n != 2:
            raise ProblemSpecError("rotation preset is 2x2")
        return cls.rotation(_scalar(spec.get("scale", 1.0), "scale"))
    raise ProblemSpecError(f"unknown {cls.__name__.lower()} preset {preset!r}")


def _history(spec, alpha, t0, n, base_dir):
    t_star = _scalar(spec.get("t_star", t0), "t_star")

    def read(key, path):
        """The CSV at path, cut at t_star, which must be one of its nodes;
        without a t_star, the CSV's own end is t_star."""
        gf = read_csv(_resolve(path, base_dir), value_shape=(n,))
        try:
            return gf.prefix(t_star) if "t_star" in spec else gf
        except GridMismatchError:
            raise ProblemSpecError(f"history.t_star = {t_star} is not a node "
                                   f"of {key} on [{gf.a}, {gf.b}]") from None

    if "w_star_csv" in spec:
        if "t_star" not in spec:  # t0 would cut the segment to one point
            raise ProblemSpecError("history.w_star_csv needs history.t_star")
        gf = read("w_star_csv", spec["w_star_csv"])
        caputo = None
        if "caputo_csv" in spec:
            caputo = read("caputo_csv", spec["caputo_csv"])
        return History.from_samples(gf, caputo)
    if "generator" in spec:
        gen = spec["generator"]
        if not isinstance(gen, dict):
            raise ProblemSpecError("history.generator must be a JSON object")
        phi = read("generator.phi_csv", gen["phi_csv"])
        return History.from_generator(alpha, _array(gen["w0"], (n,)), phi)
    if "w0" in spec:
        if abs(t_star - t0) > 0.0:
            raise ProblemSpecError(
                "a bare start vector requires t_star == t0; "
                "supply w_star_csv or a generator for t_star > t0")
        return History.point(t0, _array(spec["w0"], (n,)))
    raise ProblemSpecError("history needs one of w0, w_star_csv, generator")


def load_problem(cfg, base_dir):
    """Build (problem, grid_N, tolerances) from a parsed config mapping."""
    if not isinstance(cfg, dict):
        raise ProblemSpecError("the config must be a JSON object")
    alpha = _scalar(cfg["alpha"], "alpha")
    t0 = _scalar(cfg.get("t0", 0.0), "t0")
    theta = _scalar(cfg["theta"], "theta")
    n = _integer(cfg["n"], "n")
    for key in ("A", "b", "history", "tolerances"):
        if not isinstance(cfg.get(key, {}), dict):
            raise ProblemSpecError(f"{key} must be a JSON object")
    A = _node_function(Coefficient, cfg.get("A", {"preset": "zero"}), n, base_dir)
    b = _node_function(Forcing, cfg.get("b", {"preset": "zero"}), n, base_dir)
    history = _history(cfg.get("history", {}), alpha, t0, n, base_dir)
    grid_N = _integer(cfg.get("grid_N", 512), "grid_N")
    if grid_N < 8:
        raise ProblemSpecError("grid_N must be at least 8")
    tolerances = dict(cfg.get("tolerances", {}))
    problem = CauchyProblem(alpha, t0, theta, A, b, history)
    return problem, grid_N, tolerances


def _load(args):
    """Config, problem, grid size and tolerances; grid_N also goes on args."""
    cfg, base_dir = _load_config(args.config)
    problem, args.grid_N, tolerances = load_problem(cfg, base_dir)
    return cfg, problem, args.grid_N, tolerances


def _write_sidecar(path, payload):
    with open(str(path) + ".meta.json", "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def cmd_fundamental(args):
    cfg, problem, grid_N, tolerances = _load(args)
    grid = TriangleGrid(problem.t0, problem.theta, grid_N)
    if cfg.get("field_method", "march") == "picard":
        field = solve_F_picard(problem, grid,
                               tol=float(tolerances.get("picard_tol", 1e-10)))
    else:
        field = solve_F(problem, grid)
    start = time.perf_counter()
    procs = field.write_csv(args.out)
    export = {"write_s": time.perf_counter() - start, "write_procs": procs,
              "csv_bytes": os.path.getsize(args.out)}
    _write_sidecar(args.out, {"alpha": problem.alpha, **field.meta, **export})
    return EXIT_OK


_SOLVERS = {
    "direct": None,
    "repr-pc": represent_pc,
    "repr-gc": represent_gc,
    "repr-gc-compact": represent_gc_compact,
}


def cmd_solve(args):
    _, problem, grid_N, _ = _load(args)
    if args.method == "direct":
        sol = solve_direct(problem, grid_N)
    else:
        grid = TriangleGrid(problem.t0, problem.theta, grid_N)
        field = solve_F(problem, grid)
        sol = _SOLVERS[args.method](problem, field)
    if not np.isfinite(sol.x.values).all():
        raise FloatingPointError(
            f"non-finite solution at grid_N = {grid_N}; nothing written")
    sol.write_csv(args.out)
    _write_sidecar(args.out, sol.sidecar())
    return EXIT_OK


def cmd_verify(args):
    import mpmath  # the suite loads it anyway, for the R operator's kernel

    _, problem, grid_N, _ = _load(args)
    records, phases = run_suite(problem, grid_N)
    ok = all_pass(records)
    environment = {"python": ".".join(map(str, sys.version_info[:3])),
                   "numpy": np.__version__, "mpmath": mpmath.__version__}
    report = {"alpha": problem.alpha, "grid_N": grid_N,
              "checks": records, "all_pass": ok, "phases": phases,
              "environment": environment}
    with open(args.report, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2)
        fh.write("\n")
    failed = [r["name"] for r in records if not r["pass"]]
    if failed:
        print(f"verify: {len(failed)}/{len(records)} checks failed: "
              + ", ".join(failed))
        return EXIT_VERIFY
    print(f"verify: all {len(records)} checks passed")
    return EXIT_OK


def cmd_mlf(args):
    val = ml_scalar(args.alpha, args.z, args.beta)
    print(f"{val:.15g}")
    return EXIT_OK


def build_parser():
    p = argparse.ArgumentParser(
        prog="fracfund",
        description="Fundamental matrices and Cauchy problems for linear "
                    "fractional systems of order alpha in (0,1).")
    sub = p.add_subparsers(dest="command", required=True)

    f = sub.add_parser("fundamental",
                       help="compute the fundamental matrix field to CSV")
    f.add_argument("--config", required=True)
    f.add_argument("--out", required=True)
    f.set_defaults(func=cmd_fundamental)

    s = sub.add_parser("solve", help="solve the configured Cauchy problem")
    s.add_argument("--config", required=True)
    s.add_argument("--method", required=True, choices=sorted(_SOLVERS))
    s.add_argument("--out", required=True)
    s.set_defaults(func=cmd_solve)

    v = sub.add_parser("verify",
                       help="run the invariant suite, write a JSON report")
    v.add_argument("--config", required=True)
    v.add_argument("--report", required=True)
    v.set_defaults(func=cmd_verify)

    m = sub.add_parser("mlf", help="evaluate the two-parameter special "
                                   "function E_{alpha,beta}(z)")
    m.add_argument("--alpha", type=float, required=True)
    m.add_argument("--beta", type=float, default=1.0)
    m.add_argument("--z", type=float, required=True)
    m.set_defaults(func=cmd_mlf)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except PreconditionError as err:
        return _fail(EXIT_PRECONDITION, err)
    except (NonConvergenceError, SingularSystemError, ToleranceNotMetError,
            np.linalg.LinAlgError, ArithmeticError) as err:
        return _fail(EXIT_NUMERICS, err)
    except MemoryError:
        grid_N = getattr(args, "grid_N", "?")
        return _fail(EXIT_NUMERICS, f"out of memory at grid_N = {grid_N}")
    except (KeyError, TypeError, ValueError, OSError) as err:
        # covers the domain/spec/grid errors, bad JSON, and missing files
        return _fail(EXIT_CONFIG, err)


def _fail(code, err):
    detail = str(err) or repr(err)
    print(f"fracfund: error: {detail}", file=sys.stderr)
    return code


def entry():
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
