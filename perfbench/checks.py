"""Output checks for benchmark requests.

Every request is checked against invariants that hold at any seed.  At the
default seed its normalized stdout and every file it writes must also match
the SHA-256 digests recorded in ``digests.json``.  A check returns a list of
problems; an empty list means the request passed.
"""

from __future__ import annotations

import csv
import hashlib
import math
import re
from pathlib import Path

from workloads import Request

_FIELD = re.compile(r"(\w+)=(\S+)")


def _arg(argv: tuple[str, ...], flag: str) -> str | None:
    return argv[argv.index(flag) + 1] if flag in argv else None


def _fields(line: str) -> dict[str, str]:
    return dict(_FIELD.findall(line))


def _line(stdout: str, prefix: str) -> dict[str, str] | None:
    for line in stdout.splitlines():
        if line.startswith(prefix):
            return _fields(line)
    return None


def _finite(text: str) -> bool:
    try:
        return math.isfinite(float(text))
    except ValueError:
        return False


def _read_csv(path: Path, header: list[str]) -> list[list[str]]:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    if not rows or rows[0] != header:
        raise ValueError(f"{path.name}: expected header {','.join(header)}")
    body = rows[1:]
    if any(len(r) != len(header) for r in body):
        raise ValueError(f"{path.name}: row with wrong column count")
    return body


def _population_ids(path: Path) -> list[int]:
    return [int(r[0]) for r in _read_csv(path, ["id", "rate", "activity", "tier"])]


def normalized_stdout(stdout: str, stderr: str, work: Path) -> str:
    """Stdout plus stderr without ``elapsed=`` lines, with the work dir masked."""
    kept = [ln for ln in stderr.splitlines() if not ln.startswith("elapsed=")]
    text = stdout + "--stderr--\n" + "".join(ln + "\n" for ln in kept)
    return text.replace(str(work), "WORK")


def digests(req: Request, stdout: str, stderr: str, work: Path) -> dict:
    text = normalized_stdout(stdout, stderr, work)
    files = {name: hashlib.sha256((work / name).read_bytes()).hexdigest() for name in req.outputs}
    return {"stdout": hashlib.sha256(text.encode()).hexdigest(), "files": files}


def compare_digests(got: dict, want: dict | None) -> list[str]:
    if want is None:
        return ["no recorded digest for this request"]
    problems = []
    if got["stdout"] != want["stdout"]:
        problems.append("stdout differs from the recorded digest")
    for name, sha in want["files"].items():
        if got["files"].get(name) != sha:
            problems.append(f"{name} differs from the recorded digest")
    return problems


def _check_generate(req: Request, stdout: str, work: Path) -> list[str]:
    n = int(_arg(req.argv, "--n"))
    rows = _read_csv(work / req.outputs[0], ["id", "rate", "activity", "tier"])
    problems = []
    if sorted(int(r[0]) for r in rows) != list(range(n)):
        problems.append(f"ids are not exactly 0..{n - 1}")
    if not all(_finite(r[1]) and float(r[1]) > 0 and 0 < float(r[2]) <= 1 for r in rows):
        problems.append("rate or activity out of range")
    echo = _line(stdout, "command=generate")
    if echo is None or echo.get("n") != str(n):
        problems.append("echo line does not report n")
    return problems


def _check_optimize(req: Request, stdout: str, work: Path) -> list[str]:
    echo, plan = _line(stdout, "command=optimize"), _line(stdout, "T=")
    if echo is None or plan is None or "residual" not in plan:
        return ["missing echo or plan line"]
    cap = float(echo["capacity"])
    problems = []
    if not all(_finite(plan[k]) for k in ("T", "r", "regret", "residual")):
        problems.append("non-finite plan")
    elif float(plan["residual"]) > 1e-6 * max(cap, 1.0):
        problems.append(f"residual {plan['residual']} exceeds 1e-6*max(C,1)")
    curve = _arg(req.argv, "--curve")
    if curve is not None:
        rows = _read_csv(Path(curve), ["T", "r", "regret"])
        points = _line(stdout, "curve=")
        if points is None or int(points["points"]) != len(rows):
            problems.append("curve row count differs from points=")
        if not all(_finite(x) for r in rows for x in r):
            problems.append("non-finite curve value")
        elif any(float(a[0]) > float(b[0]) for a, b in zip(rows, rows[1:])):
            problems.append("curve thresholds not ascending")
    return problems


def _check_sweep(req: Request, stdout: str, work: Path) -> list[str]:
    n = len(_population_ids(Path(_arg(req.argv, "--pop"))))
    two_tiers = set("01")
    problems = []
    eq = _read_csv(Path(_arg(req.argv, "--out-equilibria")), ["split", "class_id", "regret"])
    if not all(len(r[1]) == n and set(r[1]) <= two_tiers for r in eq):
        problems.append("class_id does not place every user exactly once")
    if not all(0.0 <= float(r[0]) <= 1.0 and _finite(r[2]) for r in eq):
        problems.append("bad split or regret in equilibria")
    summary = _read_csv(Path(_arg(req.argv, "--out-summary")), ["split", "min", "avg", "max"])
    filled = [r for r in summary if r[1]]
    for r in filled:
        lo, avg, hi = (float(x) for x in r[1:])
        if not (lo <= avg * (1 + 1e-9) and avg <= hi * (1 + 1e-9)):
            problems.append(f"summary at split {r[0]} not ordered min <= avg <= max")
    if {r[0] for r in eq} != {r[0] for r in filled}:
        problems.append("equilibria and summary disagree on splits")
    counts = _line(stdout, "splits=")
    if counts is None or (int(counts["splits"]), int(counts["with_equilibria"])) != (
        len(summary), len(filled)
    ):
        problems.append("splits= line disagrees with the summary")
    return problems


def _check_stackelberg(req: Request, stdout: str, work: Path) -> list[str]:
    ids = _population_ids(Path(_arg(req.argv, "--pop")))
    k = len(_arg(req.argv, "--prices").split(","))
    problems = []
    final = _line(stdout, "converged=")
    if final is None or not _finite(final["regret"]):
        problems.append("missing or non-finite final regret")
    rows = _read_csv(Path(_arg(req.argv, "-o")), ["id", "rate", "tier", "regret"])
    if sorted(int(r[0]) for r in rows) != sorted(ids):
        problems.append("assignment does not place every user exactly once")
    if not all(1 <= int(r[2]) <= k and _finite(r[3]) for r in rows):
        problems.append("assignment tier or regret out of range")
    return problems


def _check_simulate(req: Request, stdout: str, work: Path) -> list[str]:
    days = int(_arg(req.argv, "--days"))
    problems = []
    ratio = _line(stdout, "variability_ratio=")
    if ratio is None or not _finite(ratio["variability_ratio"]):
        problems.append("variability_ratio missing or not finite")
    for name in req.outputs:
        header, rows_want = (
            (["day", "throttled", "unthrottled"], days) if name.endswith("_daily.csv")
            else (["hour", "total", "normalized_total"], days * 24)
        )
        rows = _read_csv(work / name, header)
        if len(rows) != rows_want or not all(_finite(x) for r in rows for x in r[1:]):
            problems.append(f"{name}: wrong row count or non-finite value")
    return problems


def invariants(req: Request, stdout: str, work: Path) -> list[str]:
    """Problems with a request's output that would be wrong at any seed."""
    if req.command == "generate":
        check = _check_generate
    elif req.command == "optimize":
        check = _check_optimize
    elif req.command == "simulate":
        check = _check_simulate
    elif req.argv[1] == "sweep":
        check = _check_sweep
    else:
        check = _check_stackelberg
    try:
        return check(req, stdout, work)
    except (OSError, ValueError, KeyError, IndexError) as exc:
        return [f"malformed output: {exc}"]
