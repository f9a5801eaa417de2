"""lovelab benchmark: runs the CLI in-process on seeded argv, checks every
output and prints the metrics as one JSON line at the end.

    python3 lovebench/run.py --workload fit-weak --seed 1 --seconds 16 --trace 0

Run it from the repository root; the package is imported from ./src.
--trace 0 measures the end-to-end metrics with nothing wrapped; --trace 1
repeats a fixed set of commands untraced and traced, and reports the
per-layer metrics of the traced passes (see NOTES.md next to this file).
One client, closed loop: the next command starts when the previous ends.
Timings are reported at a reference speed: a fixed piece of the
benchmark's own CPU work is timed between the commands, and the run's
medians are scaled by it (see Reference).
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import spans
import workloads

ROOT = Path(__file__).resolve().parent.parent
BLAS_THREADS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_IMPORTS = 5          # timed fresh-interpreter imports, after one discarded
_IMPORT_TIMER = ("import time\nt = time.perf_counter()\nimport lovelab.cli\n"
                 "print(time.perf_counter() - t)")
_RSS_PROBE = "import sys\nsys.path.insert(0, {here!r})\nimport run\nrun.rss_probe({name!r})"
# glibc raises its mmap threshold as large blocks are freed and then keeps
# freed memory in the heap, so without a fixed threshold a process's peak
# RSS depends on the sizes and order of its commands (fit-weak's
# heaviest input and one cycle read 487 MiB for seed 1 and 328 for seed 2
# at the end, and 319 MiB with the threshold fixed).
_RSS_ENV = {"MALLOC_MMAP_THRESHOLD_": "131072"}

# Span statistics read from the span's work count rather than its timing.
_COUNTED = ("elems", "evals", "panels")


def declared(kind: str) -> dict[str, str]:
    """Metric name -> unit for 'end_to_end' or 'per_layer' in BENCHMARK.json,
    the one list of what a run reports."""
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        return {m["name"]: m["unit"] for m in json.load(handle)[kind]}


class Fatal(Exception):
    """The benchmark cannot run here; exit without a result."""


def load_program():
    """Import lovelab from ROOT/src, and from nowhere else."""
    src = ROOT / "src"
    if not (src / "lovelab" / "__init__.py").is_file():
        raise Fatal(f"no lovelab sources under {src}")
    sys.path.insert(0, str(src))
    import lovelab
    import lovelab.cli
    if Path(lovelab.__file__).resolve().parent != src / "lovelab":
        raise Fatal(f"lovelab imported from {lovelab.__file__}, not {src}")
    return lovelab


def environment() -> dict:
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
            **{var: os.environ.get(var) for var in BLAS_THREADS}}


def _python(code: str, **env: str) -> str:
    """Stdout of `code` in a fresh interpreter that imports from ./src."""
    env = dict(os.environ, **env, PYTHONPATH=os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120,
                          check=True).stdout


class Reference:
    """A fixed piece of CPU work that belongs to the benchmark, not to
    lovelab.  The shared machine's speed drifts by up to 2x within
    seconds and for minutes at a time.  So a run samples the reference
    between its commands, about twice a second, and its medians of wall
    time are scaled by SECONDS, the reference's time at the baseline speed,
    over the median reference time of the run.  A change to lovelab moves
    the result; the machine's speed, which moves both, largely does not.
    The work of a subclass resembles the work of the workloads it serves,
    so that it slows when they do (see NOTES.md)."""

    SECONDS = 1.0
    EVERY_S = 0.5           # wall time of measured work between samples
    REPEATS = 5             # runs per sample; the first warms the caches

    def __init__(self):
        self.times: list[float] = []
        self._since = 0.0
        self.sample()

    def time(self) -> float:
        raise NotImplementedError

    def sample(self) -> None:
        """The mean of REPEATS - 1 warm reference runs."""
        runs = [self.time() for _ in range(self.REPEATS)]
        self.times.append(statistics.fmean(runs[1:]))
        self._since = 0.0

    def after(self, seconds: float) -> None:
        """Counts `seconds` of measured work and samples when EVERY_S is due."""
        self._since += seconds
        if self._since >= self.EVERY_S:
            self.sample()

    def scale(self, seconds: float) -> float:
        """A wall time of this run at the reference speed."""
        return seconds * self.SECONDS / statistics.median(self.times)


class InterpretedReference(Reference):
    """An interpreted loop, two LU factorizations of a 400 x 400 matrix and
    elementwise ufuncs on 20,000 points: the mix of the identity suite, the
    small solves and the import."""

    SECONDS = 0.012

    def __init__(self):
        import numpy
        import scipy.linalg
        self._lu = scipy.linalg.lu_factor
        self._np = numpy
        rng = numpy.random.default_rng(0)
        self._matrix = rng.standard_normal((400, 400)) + 400.0 * numpy.eye(400)
        self._x = numpy.linspace(0.1, 5.0, 20_000)
        super().__init__()

    def time(self) -> float:
        np, x = self._np, self._x
        start = time.perf_counter()
        acc = 0.0
        for i in range(40_000):
            acc += (i * 0.5) % 7.0
        for _ in range(2):
            self._lu(self._matrix)
        for _ in range(16):
            acc += float(np.sum(np.exp(-x) * np.log(x) / (1.0 + x * x)))
        return time.perf_counter() - start


class DenseReference(Reference):
    """A dense log-kernel on 1600 Chebyshev nodes: assembly, LU, solve and
    a residual product, the shape of one large Nystrom solve.  Its 20 MB
    matrix, like the large solves', does not stay in cache; a 1000-node
    kernel tracked the fit-weak commands less well (NOTES.md)."""

    SECONDS = 0.125
    REPEATS = 3

    def __init__(self):
        import numpy
        import scipy.linalg
        self._np, self._linalg = numpy, scipy.linalg
        n = 1600
        self._nodes = numpy.cos(numpy.pi * (numpy.arange(n) + 0.5) / n)
        super().__init__()

    def time(self) -> float:
        np, x = self._np, self._nodes
        start = time.perf_counter()
        kernel = np.log(np.abs(x[:, None] - x[None, :]) + 1e-3) * 1e-2
        kernel[np.diag_indices_from(kernel)] += 2.0
        rhs = np.ones_like(x)
        solution = self._linalg.lu_solve(self._linalg.lu_factor(kernel), rhs)
        np.linalg.norm(kernel @ solution - rhs)
        return time.perf_counter() - start


REFERENCES = {"interpreted": InterpretedReference, "dense": DenseReference}


def measure_setup(reference: Reference) -> float:
    """Median time of `import lovelab.cli` in fresh interpreters, at the
    reference speed; the reference is sampled after every import."""
    times = []
    for _ in range(SETUP_IMPORTS + 1):
        times.append(float(_python(_IMPORT_TIMER)))
        reference.sample()
    return reference.scale(statistics.median(times[1:]))


def measure_peak_rss(workload, session) -> float:
    """Peak RSS (MiB) of a fresh process that runs the heaviest input of
    the workload's range rss_repeats times with glibc's mmap threshold
    fixed, so a leak or a cache that grows per command shows and the
    allocator's retention does not.  Its commands count in the session."""
    reply = json.loads(_python(_RSS_PROBE.format(
        here=str(Path(__file__).resolve().parent), name=workload.name),
        **_RSS_ENV).splitlines()[-1])
    session.attempted += reply["attempted"]
    session.failed += reply["failed"]
    return reply["peak_rss_mb"]


def rss_probe(name: str) -> None:
    """The child side of measure_peak_rss."""
    workload = workloads.WORKLOADS[name]
    session = Session(load_program(), workload)
    for _ in range(workload.rss_repeats):
        session.run(workload.warmup()[0])
    print(json.dumps({"peak_rss_mb": _max_rss_mib(), "attempted": session.attempted,
                      "failed": session.failed}))


class Session:
    """Runs commands through lovelab.cli.main and keeps every verdict."""

    def __init__(self, lovelab, workload: workloads.Workload):
        self.lovelab = lovelab
        self.workload = workload
        self.attempted = 0
        self.failed = 0
        self.outcomes: list[workloads.Outcome] = []

    def run(self, argv: list[str]) -> tuple[float, workloads.Outcome]:
        out = io.StringIO()
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                rc = self.lovelab.cli.main(argv)
        except SystemExit as exc:       # argparse rejects the argv
            rc = exc.code
        except Exception as exc:        # a crash is a failed command, not a stop
            rc = f"{type(exc).__name__}: {exc}"
        elapsed = time.perf_counter() - start
        outcome = self.workload.check(argv, rc, out.getvalue())
        self.count(outcome, argv)
        return elapsed, outcome

    def count(self, outcome: workloads.Outcome, argv) -> None:
        self.attempted += 1
        self.outcomes.append(outcome)
        if not outcome.ok:
            self.failed += 1
            print(f"# FAILED {' '.join(argv)}: {outcome.reason}", file=sys.stderr)


def timed_passes(session: Session, reference: Reference, seed: int,
                 seconds: float) -> list[list]:
    """Median wall time per input over k tries, k = the workload's passes,
    over the fixed inputs of the seed (Workload.timed_inputs), with the
    reference sampled between commands.  Each pass after the first reruns
    the same inputs, nudged by 1e-9 (relative) per pass so that no
    exact-argument cache can serve them.  Returns [argv, median seconds at
    the reference speed, median wall seconds, first-pass outcome] per
    input."""
    workload = session.workload
    inputs = workload.timed_inputs(seed, seconds)
    wall = [[] for _ in inputs]
    outcomes = []
    reference.sample()
    for step in range(workload.passes):
        for i, argv in enumerate(inputs):
            dt, outcome = session.run(workload.nudged(argv, step))
            reference.after(dt)
            wall[i].append(dt)
            if not step:
                outcomes.append(outcome)
    reference.sample()
    medians = [statistics.median(w) for w in wall]
    return [[argv, reference.scale(m), m, outcome]
            for argv, m, outcome in zip(inputs, medians, outcomes)]


def summarize(timed: list[list], setup_s: float,
              peak_rss_mb: float, digits_min: float) -> dict[str, float]:
    """The end-to-end metrics of an untraced run."""
    return {
        "setup_s": setup_s,
        "cmd_ref_s.p50": statistics.median(entry[1] for entry in timed),
        "peak_rss_mb": peak_rss_mb,
        "digits_min": digits_min,
    }


def _max_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_untraced(lovelab, workload, seed: int, seconds: float):
    setup_s = measure_setup(InterpretedReference())
    session = Session(lovelab, workload)
    peak = measure_peak_rss(workload, session)
    for argv in workload.warmup():
        session.run(argv)
    timed = timed_passes(session, REFERENCES[workload.reference](), seed, seconds)
    digits = [o.digits for o in session.outcomes]
    if isinstance(workload, workloads.SolveScan):
        digits = [] if session.failed else reference_check(lovelab, workload, session, timed)
    leaked = spans.wrapped()            # a traced run's wrappers must not leak here
    if leaked:
        print(f"# FAILED: untraced run found wrapped functions {leaked}", file=sys.stderr)
    metrics = summarize(timed, setup_s, peak, min(digits, default=0.0))
    report_text(workload, session, metrics, timed)
    return session, metrics, not leaked


def reference_check(lovelab, workload, session: Session, timed: list[list]) -> list[float]:
    """Compares two rows of the first input of each of the first cycles
    (the lowest kappa, and a row that moves with the input's index) with a
    solve at twice the nodes."""
    digits = []
    for i in list(range(0, len(timed), workload.cycle_length))[:workload.REFERENCE_COMMANDS]:
        argv, _, _, outcome = timed[i]
        rows = outcome.values["rows"]
        for cells in (rows[0], rows[1 + i % (len(rows) - 1)]):
            d = workloads.reference_digits(lovelab, cells)
            digits.append(d)
            if d == 0.0:
                session.count(workloads.Outcome(
                    False, f"kappa={cells['kappa']!r} disagrees with the reference"), argv)
    return digits


def report_text(workload, session: Session, metrics: dict, timed: list[list]) -> None:
    """Human-readable lines: the declared metrics and the undeclared ones."""
    times = [entry[2] for entry in timed]
    tries = f"n={len(times)} inputs, median of {workload.passes} tries each"
    notes = {"setup_s": f" (median of {SETUP_IMPORTS} imports)",
             "cmd_ref_s.p50": f" ({tries})",
             "peak_rss_mb": f" (heaviest input {workload.rss_repeats} times; this "
                            f"process, default allocator: {_max_rss_mib():.6g})"}
    units = declared("end_to_end")
    for name, value in metrics.items():
        print(f"# {workload.name} {name} = {value:.6g} {units[name]}{notes.get(name, '')}")
    print(f"# {workload.name} cmd_s.p50 = {statistics.median(times):.6g} s "
          f"(wall time, {tries})")
    if len(times) > 1:
        p90 = statistics.quantiles(times, n=10, method="inclusive")[-1]
        print(f"# {workload.name} cmd_s.p90 = {p90:.6g} s (wall time, n={len(times)} "
              f"inputs, {sum(t > p90 for t in times)} beyond it)")
    items = sum(workload.items(entry[0]) for entry in timed)
    print(f"# {workload.name} items_per_s = {items / sum(times):.6g} 1/s "
          f"({items} items over the summed median wall times)")
    print(f"# {workload.name} fail_frac = {session.failed / session.attempted:.6g} "
          f"ratio ({session.failed}/{session.attempted} commands)")
    for key in ("c2_abs_err", "residual_max"):
        values = [o.values[key] for o in session.outcomes if key in o.values]
        if values:
            print(f"# {workload.name} {key} = {max(values):.6g} (largest over the run)")


def run_traced(lovelab, workload, seed: int, seconds: float, out_dir: Path):
    """Untraced and traced passes over one fixed command set; per-layer
    metrics are per command, averaged over the traced passes."""
    session = Session(lovelab, workload)
    for argv in workload.warmup():
        session.run(argv)
    commands: list[list[str]] = []
    for cycle in workload.cycles(seed):
        commands += cycle
        if len(commands) >= workload.traced_commands:
            break
    commands = commands[:workload.traced_commands]
    tracer = spans.Tracer()
    plain_s = traced_s = 0.0
    passes = 0
    while True:
        plain_s += sum(session.run(argv)[0] for argv in commands)
        with tracer:
            for i, argv in enumerate(commands):
                tracer.command = passes * len(commands) + i
                traced_s += session.run(argv)[0]
        passes += 1
        if plain_s + traced_s + (plain_s + traced_s) / (2 * passes) >= seconds:
            break
    metrics = layer_metrics(tracer.spans, passes * len(commands), declared("per_layer"),
                            residual_share(lovelab, tracer.spans, len(commands)),
                            traced_s / plain_s - 1.0)
    out_dir.mkdir(exist_ok=True)
    tracer.write(out_dir / f"trace-{workload.name}-seed{seed}.jsonl")
    for name in tracer.absent:
        print(f"# absent boundary {name}: reported as 0")
    ok = not spans.wrapped()
    return session, metrics, ok


def residual_share(lovelab, recorded: list[list], commands: int) -> float:
    """Share of solve_love time spent in the residual check, from paired
    untraced calls on the solves of the first traced pass: the same
    problem and node budget with check_residual on and off."""
    calls = [s[spans.CALL] for s in recorded
             if s[spans.NAME] == "love.solve_love" and s[spans.COMMAND] < commands]
    with_check = without = 0.0
    for args, kwargs in calls:
        kwargs = {k: v for k, v in kwargs.items() if k != "check_residual"}
        for flag in (True, False):
            start = time.perf_counter()
            lovelab.love.solve_love(*args, check_residual=flag, **kwargs)
            if flag:
                with_check += time.perf_counter() - start
            else:
                without += time.perf_counter() - start
    return 1.0 - without / with_check if with_check else 0.0


def layer_metrics(recorded: list[list], commands: int, names, share: float,
                  overhead: float) -> dict[str, float]:
    """Per-layer metrics per command.  A name is '<span>.<stat>' with stat
    calls, s, self_s or a work count, or one of the derived names below; a
    span that never ran reads 0."""
    tot = spans.totals(recorded)
    nodes = [s[spans.COUNT] for s in recorded if s[spans.NAME] == "love.solve_love"]
    derived = {     # integer over integer, so equal ratios give equal floats
        "love.nodes.sum": sum(nodes) / commands,
        "love.matrix_mb.computed": sum(8 * n * n for n in nodes) / (2 ** 20 * commands),
        "love.lu_gflop.computed": sum(2 * n ** 3 for n in nodes) / (3 * 10 ** 9 * commands),
        "love.residual_check.share": share,
        "trace.overhead_frac": overhead,
    }
    metrics = {}
    for name in names:
        if name in derived:
            metrics[name] = derived[name]
            continue
        span, stat = name.rsplit(".", 1)
        entry = tot.get(span)
        metrics[name] = entry["count" if stat in _COUNTED else stat] / commands if entry else 0.0
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    for var in BLAS_THREADS:            # before anything imports numpy
        os.environ[var] = "1"
    lovelab = load_program()
    print("# env " + json.dumps(environment(), sort_keys=True))
    workload = workloads.WORKLOADS[args.workload]
    if args.trace:
        session, metrics, ok = run_traced(lovelab, workload, args.seed, args.seconds,
                                          ROOT / ".lovebench")
        units = declared("per_layer")
    else:
        session, metrics, ok = run_untraced(lovelab, workload, args.seed, args.seconds)
        units = declared("end_to_end")
    result = {
        "correct": ok and session.failed == 0,
        "attempted": session.attempted,
        "failed": session.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }
    if not all(math.isfinite(m["value"]) for m in result["metrics"].values()):
        raise Fatal(f"non-finite metric in {result['metrics']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except Fatal as exc:
        print(f"lovebench: {exc}", file=sys.stderr)
        sys.exit(2)
