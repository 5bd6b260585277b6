"""Benchmark for fracfund: four workloads, each centred on one layer.

    python3 bench/run.py --workload field|reuse|verify|cli --seed N \
        --seconds S --trace 0|1
    python3 bench/run.py --smoke

A run sets up SETUP_REPEATS times, then runs whole rounds of operations until
--seconds have passed, times each operation alone, and checks every output
against a manufactured exact solution (see manufactured.py) outside the timed
region.  Every timing is scaled to the reference speed of the machine (see
speed.py).  The last line of stdout is one JSON object: correct, attempted,
failed and metrics.  With --trace 0 the metrics are the end-to-end ones
(setup_s, op_p50_s, peak_rss_mb, max_err); with --trace 1 they are the
per-layer ones of tracing.py, and the spans go to bench/out/.

--smoke runs one round of every workload at small N, with their checks, and
exits non-zero if any output is wrong.  See README.md for the workloads.
"""

import argparse
import contextlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(BENCH, "out")
WORK = os.path.join(OUT, f"work-{os.getpid()}")  # removed when the run ends
LAUNCH = os.path.join(BENCH, "launch.py")

if not os.path.isfile(os.path.join(SRC, "fracfund", "__init__.py")):
    sys.exit(f"bench: no fracfund sources under {SRC}")
sys.path.insert(0, SRC)

import numpy as np  # noqa: E402

import fracfund  # noqa: E402
import fracfund.cauchy as cauchy  # noqa: E402
import fracfund.checks as checks  # noqa: E402
import fracfund.cli as cli  # noqa: E402
import fracfund.fundamental as fundamental  # noqa: E402
import fracfund.quadrules as quadrules  # noqa: E402
from manufactured import (A_CONST, CheckFailed, Manufactured,  # noqa: E402
                          check_exit_codes, check_report, check_row_count,
                          check_diagonal, read_table, solution_error)
from speed import PERIOD_S, Block, Speedometer, scaled  # noqa: E402
from tracing import Tracer, per_layer  # noqa: E402

if os.path.dirname(os.path.abspath(fracfund.__file__)) != os.path.join(
        SRC, "fracfund"):
    sys.exit(f"bench: fracfund was imported from {fracfund.__file__}")

SETUP_REPEATS = 5
ALPHA_JITTER = 0.001
# quadrules caches, cleared where an operation stands for a fresh process
CACHES = (quadrules.hat_moment_tables, quadrules.first_interval_moments,
          quadrules.jacobi_rule_01)


def clear_caches():
    for cache in CACHES:
        cache.cache_clear()


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, env.get("PYTHONPATH")) if p)
    return env


def run_child(speed, args, workdir, spans="-"):
    """Run launch.py with `args` in a child process.  Returns the process,
    the moment it was spawned, and its wall and scaled seconds: the child
    samples the reference kernel itself, and this process once right
    before and once right after it."""
    timings = os.path.join(workdir, f"speed-{len(speed.samples)}.json")
    speed.sample()
    before = speed.samples[-1]
    spawned = time.perf_counter()
    with speed.idle():
        proc = subprocess.run(
            [sys.executable, LAUNCH, timings, spans] + args, cwd=workdir,
            env=child_env(), stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE)
    elapsed = time.perf_counter() - spawned
    if proc.returncode:
        sys.stderr.write(proc.stderr.decode(errors="replace"))
    child = {"samples": [], "paused": 0.0}
    if os.path.exists(timings):
        with open(timings, encoding="utf-8") as fh:
            child = json.load(fh)
        os.remove(timings)
    speed.sample()
    wall = elapsed - child["paused"]
    return proc, spawned, wall, scaled(wall, [before, *child["samples"],
                                              speed.samples[-1]])


def fresh_import(speed):
    """Scaled seconds of a fresh interpreter that imports every layer, as
    a CLI call does."""
    os.makedirs(WORK, exist_ok=True)
    proc, _, _, seconds = run_child(speed, [], WORK)
    if proc.returncode:
        sys.exit(f"bench: importing fracfund failed ({proc.returncode})")
    return seconds


def _alphas(rng, strata):
    """One alpha per stratum, in seeded order, each moved by a small jitter
    so that no two operations of a run share an alpha."""
    strata = rng.permutation(np.asarray(strata, dtype=float))
    return strata + rng.uniform(-ALPHA_JITTER, ALPHA_JITTER, strata.size)


class Workload:
    """Makes the rounds of operations of one workload.  An operation has
    setup() and check(output), which are not timed, and run(), which is."""

    def prepare(self):
        """Set-up before the first operation; repeated SETUP_REPEATS times."""

    def peak_rss_mb(self):
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ---------------------------------------------------------------- field ----

class FieldOp:
    def __init__(self, exact, N):
        self.exact, self.N = exact, N

    def setup(self):
        clear_caches()  # a field is built by a fresh process
        self.problem = self.exact.problem()
        self.grid = fundamental.TriangleGrid(0.0, 1.0, self.N)

    def run(self):
        return fundamental.solve_F(self.problem, self.grid)

    def check(self, field):
        check_diagonal(field.values, self.exact.alpha)
        sol = cauchy.represent_pc(self.problem, field)
        return solution_error(self.exact, sol.x.values, self.N)


class FieldWorkload(Workload):
    """solve_F at N = 1280, one field per operation, each with its own
    alpha."""

    STRATA = (0.40, 0.475, 0.55, 0.625, 0.70)

    def __init__(self, rng, small):
        self.rng = rng
        self.N = 128 if small else 1280

    def round(self):
        return [FieldOp(Manufactured.draw(self.rng, a), self.N)
                for a in _alphas(self.rng, self.STRATA)]


# ---------------------------------------------------------------- reuse ----

class RestartSet:
    """Six representation solves against one stored field: a start at t0
    (represent_pc, represent_gc), then represent_gc and represent_gc_compact
    from a history segment on [t0, t_star] at two mirrored t_star."""

    def __init__(self, exact, field, starts):
        self.exact, self.field, self.starts = exact, field, starts
        self.N = field.grid.N

    def setup(self):
        self.at_t0 = self.exact.problem()
        self.restarts = [(k0, self.exact.problem(self.N, k0))
                         for k0 in self.starts]

    def run(self):
        f = self.field
        sols = [(0, cauchy.represent_pc(self.at_t0, f)),
                (0, cauchy.represent_gc(self.at_t0, f))]
        for k0, problem in self.restarts:
            sols.append((k0, cauchy.represent_gc(problem, f)))
            sols.append((k0, cauchy.represent_gc_compact(problem, f)))
        return sols

    def check(self, sols):
        return max(solution_error(self.exact, s.x.values, self.N, k0)
                   for k0, s in sols)


class ReuseWorkload(Workload):
    """One N = 1024 field built in set-up; each operation is a restart set."""

    ALPHA = 0.6
    # Each set restarts at a t_star in [0.2, 0.425) and at its mirror image
    # 0.85 - t_star in (0.425, 0.65].  A restart's cost falls nearly linearly
    # as t_star grows, so every set costs about the same while the run still
    # covers [0.2, 0.65], down to 0.2 where the compact formula is least
    # accurate.  The first set of a run restarts at both ends, so the run's
    # largest temporaries come first and its peak RSS does not depend on
    # which t_star the seed draws.
    STARTS = (0.20, 0.65)

    def __init__(self, rng, small):
        self.rng = rng
        self.N = 128 if small else 1024
        self.alpha = _alphas(rng, [self.ALPHA])[0]
        self.lo, self.hi = (round(t * self.N) for t in self.STARTS)
        # the lower t_star nodes, the first in seeded order: no t_star
        # repeats in a run, so no restart finds the hat-moment table of an
        # earlier one
        mid = (self.lo + self.hi + 1) // 2
        self.starts = np.concatenate(
            ([self.lo], rng.permutation(np.arange(self.lo + 1, mid))))
        self.rounds = 0
        self.field = None

    def prepare(self):
        clear_caches()
        self.field = None
        problem = Manufactured.draw(self.rng, self.alpha).problem()
        grid = fundamental.TriangleGrid(0.0, 1.0, self.N)
        self.field = fundamental.solve_F(problem, grid)

    def round(self):
        k0 = int(self.starts[self.rounds % self.starts.size])
        self.rounds += 1
        return [RestartSet(Manufactured.draw(self.rng, self.alpha), self.field,
                           (k0, self.lo + self.hi - k0))]


# --------------------------------------------------------------- verify ----

class SolutionRecorder:
    """Keeps the solutions the verify suite computes, so they can be checked
    against the exact solution after the operation."""

    NAMES = ("solve_direct", "represent_pc", "represent_gc",
             "represent_gc_compact")

    def __init__(self):
        self.solutions = []

    def install(self):
        for name in self.NAMES:
            setattr(checks, name, self._wrap(getattr(checks, name)))

    def _wrap(self, fn):
        def recorded(*args, **kwargs):
            sol = fn(*args, **kwargs)
            self.solutions.append(sol)
            return sol
        return recorded

    def take(self):
        out, self.solutions = self.solutions, []
        return out


class VerifyOp:
    def __init__(self, exact, kind, N, k0, workdir, recorder):
        self.exact, self.kind, self.N, self.k0 = exact, kind, N, k0
        self.dir, self.recorder = workdir, recorder

    def setup(self):
        os.makedirs(self.dir, exist_ok=True)
        self.exact.write_samples(os.path.join(self.dir, "b.csv"), "b", self.N)
        if self.kind == "history":
            self.exact.write_samples(os.path.join(self.dir, "w.csv"), "x",
                                     self.N, self.k0)
            t_star = float(np.linspace(0.0, 1.0, self.N + 1)[self.k0])
            history = {"w_star_csv": "w.csv", "t_star": t_star}
        else:
            history = {"w0": self.exact.w0.tolist()}
        self.config = os.path.join(self.dir, "config.json")
        self.report = os.path.join(self.dir, "report.json")
        with open(self.config, "w", encoding="utf-8") as fh:
            json.dump(self.exact.config(self.N, history), fh)
        self.recorder.take()

    def run(self):
        with contextlib.redirect_stdout(io.StringIO()):
            return cli.main(["verify", "--config", self.config,
                             "--report", self.report])

    def check(self, code):
        check_report(self.report)
        check_exit_codes([code])
        sols = self.recorder.take()
        if not sols:
            raise CheckFailed("verify computed no solutions")
        err = max(solution_error(self.exact, s.x.values, self.N)
                  for s in sols)
        shutil.rmtree(self.dir)
        return err


class VerifyWorkload(Workload):
    """`fracfund verify` in process at N = 512 over three kinds of config."""

    STRATA = (0.45, 0.575, 0.70)
    KINDS = ("start", "history", "constant")
    START = 0.35  # t_star of the history configs, moved by up to SPREAD nodes
    SPREAD = 4

    def __init__(self, rng, small):
        self.rng = rng
        self.N = 384 if small else 512
        self.recorder = SolutionRecorder()
        self.recorder.install()
        self.ops = 0

    def round(self):
        ops = []
        for kind in self.KINDS:
            for alpha in _alphas(self.rng, self.STRATA):
                coef = {"A0": A_CONST, "omega": None} \
                    if kind == "constant" else {}
                exact = Manufactured.draw(self.rng, alpha, **coef)
                k0 = round(self.START * self.N) + int(
                    self.rng.integers(-self.SPREAD, self.SPREAD + 1))
                self.ops += 1
                workdir = os.path.join(WORK, f"verify-{self.ops}")
                ops.append(VerifyOp(exact, kind, self.N, k0, workdir,
                                    self.recorder))
        return [ops[i] for i in self.rng.permutation(len(ops))]


# ------------------------------------------------------------------ cli ----

class Session:
    """A batch session of four fracfund CLI processes: the field to CSV, a
    direct solve, and two restarts from the direct solve's CSV.  Each child
    runs through launch.py, which samples the reference kernel in the child;
    the session's time is the sum of its four commands' times."""

    def __init__(self, exact, N, k0, workdir, tracer, speed):
        self.exact, self.N, self.k0 = exact, N, k0
        self.dir, self.tracer, self.speed = workdir, tracer, speed
        self.startups = []

    def setup(self):
        os.makedirs(self.dir, exist_ok=True)
        self.exact.write_samples(os.path.join(self.dir, "b.csv"), "b", self.N)
        t_star = float(np.linspace(0.0, 1.0, self.N + 1)[self.k0])
        configs = {
            "start.json": {"w0": self.exact.w0.tolist()},
            "restart.json": {"w_star_csv": "sol.csv", "t_star": t_star},
        }
        for name, history in configs.items():
            with open(os.path.join(self.dir, name), "w",
                      encoding="utf-8") as fh:
                json.dump(self.exact.config(self.N, history), fh)
        self.commands = [
            ["fundamental", "--config", "start.json", "--out", "F.csv"],
            ["solve", "--config", "start.json", "--method", "direct",
             "--out", "sol.csv"],
            ["solve", "--config", "restart.json", "--method", "repr-gc",
             "--out", "gc.csv"],
            ["solve", "--config", "restart.json", "--method",
             "repr-gc-compact", "--out", "gcc.csv"],
        ]

    def run(self):
        codes = []
        self.wall = self.scaled = 0.0
        for i, args in enumerate(self.commands):
            spans = (os.path.join(self.dir, f"spans{i}.json")
                     if self.tracer is not None else "-")
            proc, spawned, wall, seconds = run_child(self.speed, args,
                                                     self.dir, spans)
            codes.append(proc.returncode)
            self.wall += wall
            self.scaled += seconds
            if self.tracer is not None and os.path.exists(spans):
                absorbed = self.tracer.absorb(spans, self.tracer.op)
                mains = [s[1] for s in absorbed if s[0] == "cli.main"]
                if mains:
                    self.startups.append(mains[0] - spawned)
        return codes

    def check(self, codes):
        check_exit_codes(codes)
        path = lambda name: os.path.join(self.dir, name)  # noqa: E731
        check_row_count(path("F.csv"), self.N)
        sol = read_table(path("sol.csv"))[:, 1:]
        errs = [solution_error(self.exact, sol, self.N)]
        for name in ("gc.csv", "gcc.csv"):
            errs.append(solution_error(
                self.exact, read_table(path(name))[:, 1:], self.N, self.k0,
                history=sol[:self.k0 + 1]))
        shutil.rmtree(self.dir)
        return max(errs)


class CliWorkload(Workload):
    """Batch sessions at N = 1024, one child process per command."""

    ALPHA = 0.6
    START = 0.30  # t_star of the restarts, moved by up to SPREAD nodes
    SPREAD = 8

    def __init__(self, rng, small, tracer, speed):
        self.rng = rng
        self.N = 128 if small else 1024
        self.tracer, self.speed = tracer, speed
        self.sessions = []

    def round(self):
        alpha = _alphas(self.rng, [self.ALPHA])[0]
        spread = max(1, self.SPREAD * self.N // 1024)
        k0 = round(self.START * self.N) + int(
            self.rng.integers(-spread, spread + 1))
        workdir = os.path.join(WORK, f"cli-{len(self.sessions)}")
        session = Session(Manufactured.draw(self.rng, alpha), self.N, k0,
                          workdir, self.tracer, self.speed)
        self.sessions.append(session)
        return [session]

    def startups(self):
        return [s for session in self.sessions for s in session.startups]

    def peak_rss_mb(self):
        # the largest child: RUSAGE_CHILDREN keeps the maximum over children
        return resource.getrusage(
            resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0


WORKLOADS = {"field": FieldWorkload, "reuse": ReuseWorkload,
             "verify": VerifyWorkload, "cli": CliWorkload}


def run(name, seed, seconds, trace, small=False):
    """Set up, run whole rounds for `seconds`, and return the result record."""
    rng = np.random.default_rng(seed)
    tracer = None
    if trace:
        tracer = Tracer()
        if name != "cli":  # cli children install their own tracer
            tracer.install()
    # in-operation sampling would land inside the spans of a traced run
    speed = Speedometer(None if trace else PERIOD_S)
    wl = (CliWorkload(rng, small, tracer, speed) if name == "cli"
          else WORKLOADS[name](rng, small))
    os.makedirs(OUT, exist_ok=True)
    setups = []
    for _ in range(1 if small else SETUP_REPEATS):
        started = fresh_import(speed)
        with Block(speed) as block:
            wl.prepare()
        setups.append(started + block.scaled)
    times, walls, errs = [], [], []
    attempted = failed = 0
    correct = True
    started = time.perf_counter()
    while not attempted or time.perf_counter() - started < seconds:
        for op in wl.round():
            attempted += 1
            op.setup()
            if tracer is not None:
                tracer.begin(attempted)
            try:
                with Block(speed) as block:
                    out = op.run()
            except Exception:  # a failing operation is counted, not fatal
                failed += 1
                traceback.print_exc()
                continue
            finally:
                if tracer is not None:
                    tracer.end()
            # a cli session times its commands, each in its own child
            times.append(getattr(op, "scaled", block.scaled))
            walls.append(getattr(op, "wall", block.wall))
            try:
                errs.append(op.check(out))
            except CheckFailed as err:
                correct = False
                print(f"bench: {name}: {err}", file=sys.stderr)
            except Exception:  # an output the checks cannot even read
                correct = False
                traceback.print_exc()
            del out
    if not times:
        sys.exit(f"bench: {name}: every operation failed")
    for label, xs in (("wall", walls), ("scaled", times)):
        q = (statistics.quantiles(xs, n=4, method="inclusive")
             if len(xs) > 1 else xs * 3)
        print(f"bench: {name}: {len(xs)} operations, {label} seconds min "
              f"{min(xs):.3f} p25 {q[0]:.3f} p50 {q[1]:.3f} p75 {q[2]:.3f} "
              f"max {max(xs):.3f}", file=sys.stderr)
    if tracer is not None:
        tracer.dump(os.path.join(OUT, f"trace-{name}-{seed}.json"),
                    workload=name, seed=seed, op_seconds=walls,
                    op_scaled_seconds=times)
        startups = wl.startups() if name == "cli" else []
        metrics = per_layer(tracer.spans, tracer.counts, len(times), startups)
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "op_p50_s": {"value": statistics.median(times), "unit": "s"},
            "peak_rss_mb": {"value": wl.peak_rss_mb(), "unit": "MB"},
            "max_err": {"value": max(errs) if errs else float("inf"),
                        "unit": "abs"},
        }
    return {"correct": correct and len(errs) == len(times),
            "attempted": attempted, "failed": failed, "metrics": metrics}


def smoke(seed, trace):
    """One round of every workload at small N, each in its own process."""
    ok = True
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name,
             "--seed", str(seed), "--seconds", "0", "--trace", str(trace),
             "--small"], stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.strip().splitlines()
        result = json.loads(lines[-1]) if proc.returncode == 0 else {}
        print(json.dumps({"workload": name, **result}))
        ok = ok and result.get("correct") is True and not result["failed"]
    return 0 if ok else 1


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--small", action="store_true",
                   help="the small grids of the smoke run")
    p.add_argument("--smoke", action="store_true",
                   help="one round of every workload at small N")
    args = p.parse_args(argv)
    if args.smoke:
        return smoke(args.seed, args.trace)
    if args.workload is None:
        p.error("--workload is required without --smoke")
    try:
        result = run(args.workload, args.seed, args.seconds, args.trace,
                     args.small)
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
