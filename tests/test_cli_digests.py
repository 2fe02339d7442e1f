"""CLI output bytes at fixed seeds, pinned by SHA-256.

Every command below runs in-process on small populations generated at seeds
3 and 7, and the SHA-256 of its stdout and of each file it writes must match
``tests/cli_digests.json``.  Paths are written relative to the work
directory, so stdout does not depend on where the test runs; stderr (the
``elapsed=`` line) is not pinned.  The codec population has 1,100 users, so
``simulate`` on it crosses the simulator's 1,024-user seed block.

A change that moves an output on purpose re-records the table with

    PYTHONPATH=src python tests/test_cli_digests.py

and names every file that moved in CHANGES.md.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

import pytest

from throttleplan.cli import main

SEEDS = (3, 7)
TABLE = Path(__file__).with_name("cli_digests.json")
CODECS = "0.2,0.4,0.6,0.8,1.0"


def _commands(seed: int) -> dict[str, tuple[list[str], tuple[str, ...]]]:
    """Name -> (argv, files written), in run order; later commands read earlier files."""
    s = str(seed)
    simulate = ["simulate", "--capacity-fraction", "0.8", "--seed", s]

    def sim_files(prefix, states=False):
        parts = ("throttled_hourly", "unthrottled_hourly", "daily") + (("states",) if states else ())
        return tuple(f"{prefix}_{part}.csv" for part in parts)

    return {
        "generate-lognormal": (["generate", "--dist", "lognormal:mu=0,sigma=0.5", "--n", "40",
                                "--seed", s, "-o", "lognormal.csv"], ("lognormal.csv",)),
        "generate-sweep": (["generate", "--dist", "lognormal:mu=0,sigma=0.5", "--n", "8",
                            "--seed", s, "-o", "sweep.csv"], ("sweep.csv",)),
        "generate-codec": (["generate", "--dist", f"codec:v={CODECS}", "--n", "1100",
                            "--seed", s, "-o", "codec.csv"], ("codec.csv",)),
        "optimize-download-curve": (
            ["optimize", "--pop", "lognormal.csv", "--capacity-fraction", "0.8",
             "--curve", "curve-download.csv"], ("curve-download.csv",)),
        "optimize-stream-curve": (
            ["optimize", "--pop", "codec.csv", "--capacity-fraction", "0.7", "--mode", "stream",
             "--codecs", CODECS, "--curve", "curve-stream.csv"], ("curve-stream.csv",)),
        "tiers-stackelberg": (
            ["tiers", "stackelberg", "--pop", "lognormal.csv", "--prices", "0.5,0.75,1.0",
             "--kappa", "0.05", "--capacity-fraction", "0.95", "--seed", s,
             "-o", "assignment.csv"], ("assignment.csv",)),
        "tiers-sweep": (
            ["tiers", "sweep", "--pop", "sweep.csv", "--prices", "0.5,1.0",
             "--capacity-fraction", "0.9", "--split-step", "0.05",
             "--out-equilibria", "equilibria.csv", "--out-summary", "summary.csv"],
            ("equilibria.csv", "summary.csv")),
        "simulate-plain": (simulate + ["--pop", "codec.csv", "--plan", "0.3,0.1",
                                       "--out-prefix", "plain"], sim_files("plain")),
        "simulate-diurnal-states": (
            simulate + ["--pop", "codec.csv", "--optimize", "--codecs", CODECS, "--diurnal",
                        "--states", "--days", "30", "--out-prefix", "diurnal"],
            sim_files("diurnal", states=True)),
        "simulate-download-optimize": (
            simulate + ["--pop", "lognormal.csv", "--mode", "download", "--optimize",
                        "--out-prefix", "download"], sim_files("download")),
    }


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _run_all(seed: int, work: Path) -> dict[str, dict[str, str]]:
    """Command name -> {"stdout" or file name: SHA-256} for every command at ``seed``."""
    digests = {}
    for name, (argv, files) in _commands(seed).items():
        argv = [str(work / a) if a.endswith(".csv") else a for a in argv]
        if "--out-prefix" in argv:
            i = argv.index("--out-prefix") + 1
            argv[i] = str(work / argv[i])
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = main(argv)
        assert code == 0, (name, argv)
        stdout = out.getvalue().replace(str(work) + "/", "")
        digests[name] = {"stdout": _sha(stdout.encode())}
        digests[name].update((f, _sha((work / f).read_bytes())) for f in files)
    return digests


@pytest.fixture(scope="module", params=SEEDS, ids=lambda s: f"seed{s}")
def outputs(request, tmp_path_factory):
    seed = request.param
    return seed, _run_all(seed, tmp_path_factory.mktemp(f"seed{seed}"))


@pytest.mark.parametrize("command", list(_commands(0)))
def test_cli_output_bytes_match_the_recorded_digests(outputs, command):
    seed, digests = outputs
    assert digests[command] == json.loads(TABLE.read_text())[str(seed)][command]


if __name__ == "__main__":
    table = {}
    for seed in SEEDS:
        with tempfile.TemporaryDirectory() as work:
            table[str(seed)] = _run_all(seed, Path(work))
    TABLE.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    print(f"wrote {TABLE}", file=sys.stderr)
