"""Benchmark runner for throttleplan: one workload, one fresh process.

    python3 perfbench/run.py --workload plan --seed 0 --seconds 20 --trace 0

Runs the workload's set-up (import the package, write its input CSVs), then
sends the workload's request list through ``throttleplan.cli.main`` pass
after pass from a single closed-loop client until ``--seconds`` is used up.
Every request's output is checked.  The report goes to stdout, one metric a
line with its unit, and to ``perfbench/_results/``; the last stdout line is a
JSON object with the end-to-end metrics (``--trace 0``) or the per-layer
metrics (``--trace 1``).  A traced run alternates untraced and traced passes,
so it reports the tracing overhead as well.  See perfbench/README.md.
"""

import os

# Pin BLAS and OpenMP pools to one thread before numpy is imported.
PINNED_POOLS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in PINNED_POOLS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import checks  # noqa: E402
import tracing  # noqa: E402
from workloads import DEFAULT_SEED, WORKLOADS, Workload  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
DIGESTS = BENCH / "digests.json"
SETUP_REPEATS = 3
IMPORT_PROBE = ("import time; t0 = time.perf_counter(); import throttleplan.cli; "
                "print(time.perf_counter() - t0)")
# optimize_demands calls in the Stackelberg request (criterion-8 instance,
# seed 0) on the code the benchmark was defined on; a changed tier game may
# legitimately move it, so a mismatch is reported, not counted as a failure
BASELINE_STACKELBERG_SOLVES = 14635
# Speed probe: calibrate() runs before each request and every CAL_PERIOD_S
# during it.  wall_ref_s rescales a pass by REF_CAL_S / (median probe time of
# the pass); REF_CAL_S is about the probe's median inside these workloads on
# a 2-vCPU Intel Xeon.  On a shared host whose speed swings by a fifth
# between runs, the rescaling halves the run-to-run spread.
CAL_PERIOD_S = 0.5
REF_CAL_S = 0.004

COMMANDS = ("generate", "optimize", "tiers", "simulate")
# (metric, unit) of every end-to-end value; the JSON line carries those listed
# in BENCHMARK.json, the report all of them
E2E_UNITS = {"wall_ref_s": "s", "wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB",
             "fail_ratio": "ratio", **{f"{c}_s": "s" for c in COMMANDS}}
E2E_JSON = ("wall_ref_s", "setup_s", "peak_rss_mb")


def invoke(cli, argv) -> tuple[int, str, str]:
    """Run one CLI request in-process; returns (exit status, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = cli.main(list(argv))
        except SystemExit as exc:  # argparse rejected the arguments
            rc = exc.code if isinstance(exc.code, int) else 2
    return rc, out.getvalue(), err.getvalue()


def calibrate() -> float:
    """Seconds for a fixed mix of interpreter and numpy work."""
    import numpy as np

    t0 = time.perf_counter()
    total = 0
    for j in range(30_000):
        total += j % 7
    a = np.linspace(1.0, 2.0, 40_000)
    for _ in range(4):
        b = np.clip(1.0 - 1.3 / a, 0.0, None)
        b *= b
        np.sort(b[::-1]).sum()
    return time.perf_counter() - t0


class SpeedProbe:
    """Calibration samples taken between and, on a timer, during requests."""

    def __init__(self):
        self.samples: list[float] = []
        self.spent = 0.0  # seconds the timer-driven samples took

    def sample(self) -> None:
        self.samples.append(calibrate())

    def _tick(self, signum, frame) -> None:
        t0 = time.perf_counter()
        self.sample()
        self.spent += time.perf_counter() - t0

    @contextlib.contextmanager
    def running(self):
        old = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, CAL_PERIOD_S, CAL_PERIOD_S)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, old)


def stackelberg_rounds(stdout: str) -> tuple[int, int]:
    """(rounds, moves) from the ``iter=N moves=M`` progress lines."""
    rounds = moves = 0
    for line in stdout.splitlines():
        if line.startswith("iter="):
            rounds += 1
            moves += int(line.split()[1].removeprefix("moves="))
    return rounds, moves


class Pass:
    """Timings, check results and counts of one pass over the request list."""

    def __init__(self, traced: bool):
        self.traced = traced
        self.wall_s = 0.0
        self.cal_s = 0.0  # median speed-probe sample
        self.command_s = dict.fromkeys(COMMANDS, 0.0)
        self.request_s: list[float] = []
        self.failures: list[str] = []
        self.failed = 0
        self.rounds = self.moves = 0
        self.digests: dict[str, dict] = {}
        self.t0 = 0.0
        self.spans: list = []


def run_pass(cli, wl: Workload, work: Path, traced: bool, expected: dict | None) -> Pass:
    result = Pass(traced)
    tracer = tracing.Tracer() if traced else None
    probe = SpeedProbe()
    if tracer is not None:
        tracer.install()
    result.t0 = time.perf_counter()
    try:
        for i, req in enumerate(wl.requests):
            if tracer is not None:
                tracer.request = i
            probe.sample()
            t0, spent = time.perf_counter(), probe.spent
            # no timer samples inside traced requests: they would land in spans
            with contextlib.nullcontext() if traced else probe.running():
                rc, out, err = invoke(cli, req.argv)
            dt = time.perf_counter() - t0 - (probe.spent - spent)
            result.wall_s += dt
            result.command_s[req.command] += dt
            result.request_s.append(dt)
            if rc != 0:
                problems = [f"exit status {rc}: {err.strip()[-300:]}"]
            else:
                problems = checks.invariants(req, out, work)
                got = checks.digests(req, out, err, work)
                result.digests[req.label] = got
                if expected is not None:
                    problems += checks.compare_digests(got, expected.get(req.label))
            result.failures += [f"{req.label}: {p}" for p in problems]
            result.failed += bool(problems)
            if req.argv[:2] == ("tiers", "stackelberg"):
                rounds, moves = stackelberg_rounds(out)
                result.rounds += rounds
                result.moves += moves
        probe.sample()
        result.cal_s = statistics.median(probe.samples)
    finally:
        if tracer is not None:
            tracer.remove()
            result.spans = tracer.spans
    return result


def import_seconds() -> float:
    """Median seconds to import the package in a fresh interpreter, over repeats."""
    path = os.pathsep.join(p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)
    env = dict(os.environ, PYTHONPATH=path)
    times = []
    for _ in range(SETUP_REPEATS):
        done = subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=env, capture_output=True,
                              text=True, timeout=120, check=True)
        times.append(float(done.stdout))
    return statistics.median(times)


def run_setup(cli, wl: Workload, work: Path) -> float:
    """Median seconds to write the workload's input CSVs, over repeats."""
    if not wl.setup:
        return 0.0
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        for req in wl.setup:
            rc, _, err = invoke(cli, req.argv)
            if rc != 0:
                raise RuntimeError(f"set-up request {req.label} failed: {err.strip()}")
        times.append(time.perf_counter() - t0)
    for req in wl.setup:
        rc, out, _ = invoke(cli, req.argv)
        problems = checks.invariants(req, out, work)
        if rc != 0 or problems:
            raise RuntimeError(f"set-up request {req.label} failed its checks: {problems}")
    return statistics.median(times)


def _git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                          text=True, timeout=30, check=False)
    return done.stdout.strip() or "unknown"


def _source_sha256() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "throttleplan").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def run_record(args, import_s: float) -> dict:
    import numpy
    import scipy

    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_commit": _git_commit(),
        "source_sha256": _source_sha256(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "thread_pools_pinned": {var: os.environ[var] for var in PINNED_POOLS},
        "first_import_s": import_s,
    }


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def layer_metrics(wl: Workload, traced: list[Pass]) -> tuple[dict, dict, list[str]]:
    """Per-layer metrics (medians over traced passes), counts and attribution."""
    profiles = [tracing.profile(p.spans) for p in traced]
    first = profiles[0]
    metrics: dict[str, tuple[float, str]] = {}
    for name in tracing.NAMES:
        self_s = _median([pr.self_s[name] for pr in profiles])
        if name == "cli.main":
            metrics["cli.self_s"] = (self_s, "s")
            continue
        metrics[f"{name}.calls"] = (first.calls[name], "count")
        metrics[f"{name}_s"] = (self_s, "s")
    for layer, fns in tracing.LAYERS.items():
        if layer != "cli":
            metrics[f"{layer}.self_s"] = (
                _median([sum(pr.self_s[f"{layer}.{fn}"] for fn in fns) for pr in profiles]), "s")
    solves = first.calls["download.optimize_demands"]
    metrics["download.intervals"] = (first.work["download.optimize_download"], "count")
    metrics["download.optimize_demands.mean_n"] = (
        first.work["download.optimize_demands"] / solves if solves else 0.0, "users")
    rounds, moves = traced[0].rounds, traced[0].moves
    stack = [i for i, r in enumerate(wl.requests) if r.argv[:2] == ("tiers", "stackelberg")]
    stack_solves = sum(tracing.profile(traced[0].spans, i).calls["download.optimize_demands"]
                       for i in stack)
    metrics["tiergame.rounds"] = (rounds, "count")
    metrics["tiergame.moves"] = (moves, "count")
    metrics["tiergame.solves_per_move"] = (stack_solves / moves if moves else 0.0, "ratio")
    user_hours = first.work["cyclesim.simulate"]
    sim_s = metrics["cyclesim.simulate_s"][0]
    metrics["cyclesim.user_hours"] = (user_hours, "user-h")
    metrics["cyclesim.user_hours_per_s"] = (user_hours / sim_s if sim_s else 0.0, "user-h/s")
    metrics["population.rows"] = (
        sum(first.work[f"population.{fn}"] for fn in tracing.LAYERS["population"]), "rows")
    walls = [p.wall_s for p in traced]
    attributed = [sum(pr.self_s.values()) for pr in profiles]
    metrics["trace.wall_s"] = (_median(walls), "s")
    metrics["trace.spans"] = (len(traced[0].spans), "count")
    metrics["trace.overhead_est_s"] = (len(traced[0].spans) * tracing.span_cost(), "s")
    metrics["trace.unattributed_s"] = (_median([w - a for w, a in zip(walls, attributed)]), "s")

    counts = {
        "download.optimize_demands.calls": [pr.calls["download.optimize_demands"]
                                            for pr in profiles],
        "download.intervals": [pr.work["download.optimize_download"] for pr in profiles],
        "stackelberg.optimize_demands.calls": [stack_solves],
    }
    # which function's self time dominates each command, from the first traced pass
    notes = []
    for command in COMMANDS:
        idx = [i for i, r in enumerate(wl.requests) if r.command == command]
        if not idx:
            continue
        totals = dict.fromkeys(tracing.NAMES, 0.0)
        for i in idx:
            for name, s in tracing.profile(traced[0].spans, i).self_s.items():
                totals[name] += s
        top = max(totals, key=totals.get)
        share = totals[top] / traced[0].command_s[command]
        notes.append(f"attribution {command}_s: largest self time {top} "
                     f"{totals[top]:.3f} s ({100 * share:.1f}% of {command}_s)")
    return metrics, counts, notes


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record-digests", action="store_true",
                    help="run one pass and store its output digests as the reference")
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be >= 0")
    if args.record_digests and args.seed != DEFAULT_SEED:
        ap.error(f"digests are recorded at the default seed {DEFAULT_SEED}")
    if not (SRC / "throttleplan" / "__init__.py").is_file():
        print(f"error: no throttleplan sources under {SRC}", file=sys.stderr)
        return 2

    sys.path.insert(0, str(SRC))
    t0 = time.perf_counter()
    import throttleplan.cli as cli
    import_s = time.perf_counter() - t0
    if Path(cli.__file__).resolve().parent != (SRC / "throttleplan").resolve():
        print(f"error: imported throttleplan from {cli.__file__}, not {SRC}", file=sys.stderr)
        return 2

    work = BENCH / "_work" / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        return measure(args, cli, import_s, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def measure(args, cli, import_s: float, work: Path) -> int:
    wl = WORKLOADS[args.workload](args.seed, work)
    setup_s = import_seconds() + run_setup(cli, wl, work)

    expected = None
    if args.seed == DEFAULT_SEED and not args.record_digests:
        expected = json.loads(DIGESTS.read_text())[args.workload]

    passes: list[Pass] = []
    start = time.perf_counter()
    clock: list[float] = []
    while True:
        t0 = time.perf_counter()
        traced = bool(args.trace) and len(passes) % 2 == 1
        passes.append(run_pass(cli, wl, work, traced, expected))
        clock.append(time.perf_counter() - t0)
        if args.record_digests:
            break
        if args.trace and len(passes) < 2:
            continue
        if time.perf_counter() - start + _median(clock) > args.seconds:
            break

    if args.record_digests:
        table = json.loads(DIGESTS.read_text()) if DIGESTS.exists() else {}
        table[args.workload] = passes[0].digests
        DIGESTS.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
        print(f"recorded {len(passes[0].digests)} request digests for {args.workload}")
        return 1 if passes[0].failures else 0

    plain = [p for p in passes if not p.traced]
    traced = [p for p in passes if p.traced]
    attempted = len(passes) * len(wl.requests)
    failures = [f for p in passes for f in p.failures]
    failed = sum(p.failed for p in passes)

    e2e = {
        "wall_ref_s": _median([p.wall_s * REF_CAL_S / p.cal_s for p in plain]),
        "wall_s": _median([p.wall_s for p in plain]),
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "fail_ratio": failed / attempted,
    }
    for command in COMMANDS:
        if any(r.command == command for r in wl.requests):
            e2e[f"{command}_s"] = _median([p.command_s[command] for p in plain])

    # deterministic counts must repeat exactly across passes of the same code
    counts = {"tiergame.rounds": [p.rounds for p in passes],
              "tiergame.moves": [p.moves for p in passes]}
    layer, notes = {}, []
    if traced:
        layer, traced_counts, notes = layer_metrics(wl, traced)
        counts.update(traced_counts)
        traced_ref = _median([p.wall_s * REF_CAL_S / p.cal_s for p in traced])
        layer["trace.overhead_s"] = (traced_ref - e2e["wall_ref_s"], "s")
    selfcheck = []
    for name, values in counts.items():
        if len(set(values)) > 1:
            failures.append(f"harness: {name} differs between passes: {values}")
    stack_solves = counts.get("stackelberg.optimize_demands.calls")
    if stack_solves and counts["tiergame.rounds"][0]:
        verdict = ("matches" if stack_solves[0] == BASELINE_STACKELBERG_SOLVES
                   else "DIFFERS FROM")
        selfcheck.append(f"selfcheck stackelberg optimize_demands calls={stack_solves[0]} "
                         f"{verdict} the baseline {BASELINE_STACKELBERG_SOLVES}")
    correct = not failures

    record = run_record(args, import_s)
    lines = ["run " + " ".join(f"{k}={json.dumps(v)}" for k, v in record.items())]
    lines.append(f"passes untraced={len(plain)} traced={len(traced)} "
                 f"requests_per_pass={len(wl.requests)} wall_s=" +
                 ",".join(f"{p.wall_s:.3f}{'t' if p.traced else ''}" for p in passes) +
                 " probe_s=" + ",".join(f"{p.cal_s:.5f}" for p in passes))
    for name, value in e2e.items():
        lines.append(f"e2e {name} = {value:.6g} {E2E_UNITS[name]}")
    lines.append("request_s " + " ".join(
        f"{r.label}={_median([p.request_s[i] for p in plain]):.4f}"
        for i, r in enumerate(wl.requests)))
    lines += [f"count {name} = {values[0]} (passes: {len(values)}, "
              f"{'identical' if len(set(values)) == 1 else 'DIFFERENT'})"
              for name, values in counts.items()]
    lines += [f"layer {name} = {value:.6g} {unit}" for name, (value, unit) in layer.items()]
    lines += notes + selfcheck
    lines += [f"FAILED {f}" for f in failures]

    results = BENCH / "_results"
    results.mkdir(exist_ok=True)
    stem = results / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    report = {"record": record, "e2e": e2e, "per_layer": {k: v[0] for k, v in layer.items()},
              "counts": counts, "failures": failures, "lines": lines}
    stem.with_suffix(".json").write_text(json.dumps(report, indent=1) + "\n")
    if traced:
        tracing.write_spans(stem.with_suffix(".spans.csv"), [(p.t0, p.spans) for p in traced])
    print("\n".join(lines))

    if args.trace:
        metrics = {name: {"value": value, "unit": unit} for name, (value, unit) in layer.items()}
    else:
        metrics = {name: {"value": e2e[name], "unit": E2E_UNITS[name]} for name in E2E_JSON}
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
