import contextlib
import hashlib
import io
import os
import re
import subprocess
import sys

import pytest

import throttleplan
from throttleplan import (
    Mode,
    Plan,
    Population,
    SimConfig,
    SweepPoint,
    UserProfile,
    UserState,
    generate_lognormal,
    load_population,
    save_population,
    simulate,
)
from throttleplan.cli import main


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([str(a) for a in argv])
    return code, out.getvalue(), err.getvalue()


def write_pop(pop, tmp_path, name="pop.csv"):
    path = tmp_path / name
    save_population(pop, path)
    return path


def test_importing_the_cli_leaves_scipy_optimize_unloaded():
    # only the joint leader solve imports it, on first use
    src = os.path.dirname(os.path.dirname(throttleplan.__file__))
    probe = "import sys, throttleplan.cli; print('scipy.optimize' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                         check=True, timeout=60, env={**os.environ, "PYTHONPATH": src})
    assert out.stdout.strip() == "False"


def test_importing_the_cli_leaves_numpy_random_unloaded():
    # simulate loads it on its first draw, and population generators on theirs
    src = os.path.dirname(os.path.dirname(throttleplan.__file__))
    probe = "import sys, throttleplan.cli; print('numpy.random' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                         check=True, timeout=60, env={**os.environ, "PYTHONPATH": src})
    assert out.stdout.strip() == "False"


def test_generate_lognormal(tmp_path):
    out_path = tmp_path / "pop.csv"
    code, out, err = run(
        ["generate", "--dist", "lognormal:mu=0,sigma=0.5", "--n", 5, "-o", out_path]
    )
    assert code == 0
    line = out.splitlines()[0]
    assert line.startswith("command=generate dist=lognormal:mu=0,sigma=0.5 n=5 seed=20260819 ")
    assert "total_demand=" in line
    pop = load_population(out_path)
    assert len(pop) == 5


def test_generate_is_byte_reproducible(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    code_a, out_a, _ = run(["generate", "--dist", "codec:v=0.2,0.4", "--n", 20, "-o", a])
    code_b, out_b, _ = run(["generate", "--dist", "codec:v=0.2,0.4", "--n", 20, "-o", b])
    assert code_a == code_b == 0
    assert a.read_bytes() == b.read_bytes()
    assert out_a.replace(str(a), "X") == out_b.replace(str(b), "X")


def test_generate_rejects_bad_input(tmp_path):
    code, _, err = run(
        ["generate", "--dist", "weibull:k=2", "--n", 5, "-o", tmp_path / "p.csv"]
    )
    assert code == 2
    assert "error: unknown distribution 'weibull' (use lognormal or codec)" in err
    code, _, err = run(
        ["generate", "--dist", "lognormal:mu=0,sigma=0.5", "--n", 0, "-o", tmp_path / "p.csv"]
    )
    assert code == 2
    assert err.startswith("error:")


def test_optimize_download(pop4, tmp_path):
    path = write_pop(pop4, tmp_path)
    code, out, err = run(["optimize", "--pop", path, "--capacity", 1.8])
    assert code == 0
    lines = out.splitlines()
    assert re.fullmatch(
        rf"command=optimize pop={re.escape(str(path))} digest=[0-9a-f]{{12}} "
        r"mode=download capacity=1\.800000 rho=2\.0",
        lines[0],
    )
    assert lines[1] == "T=0.367636 r=0.367636 regret=0.165941 residual=0.000e+00"
    assert "elapsed=" in err


def test_optimize_no_throttling_needed(pop4, tmp_path):
    path = write_pop(pop4, tmp_path)
    code, out, _ = run(["optimize", "--pop", path, "--capacity", 5.0])
    assert code == 0
    assert "no throttling needed: capacity covers total demand" in out
    assert "T=inf r=inf regret=0" in out


def test_optimize_rejects_small_rho(pop4, tmp_path):
    path = write_pop(pop4, tmp_path)
    code, _, err = run(["optimize", "--pop", path, "--capacity", 1.8, "--rho", 1.5])
    assert code == 2
    assert err.startswith("error: download optimization requires rho >= 2")


@pytest.mark.parametrize("argv", [
    ["tiers", "sweep", "--prices", "0.5,1.0", "--split-step", 0.5],
    ["tiers", "stackelberg", "--prices", "0.5,1.0"],
    ["tiers", "stackelberg", "--prices", "1.0"],
])
def test_tiers_refuse_small_rho(pop4, tmp_path, argv):
    path = write_pop(pop4, tmp_path)
    code, _, err = run(argv + ["--pop", path, "--capacity", 1.8, "--rho", 1.5])
    assert code == 2
    assert err.splitlines() == [
        "error: download optimization requires rho >= 2; smaller exponents break the "
        "per-interval convexity the closed form relies on"
    ]


def test_optimize_requires_capacity(pop4, tmp_path):
    path = write_pop(pop4, tmp_path)
    code, _, err = run(["optimize", "--pop", path])
    assert code == 2
    assert "one of --capacity / --capacity-fraction is required" in err


NON_FINITE_ARGV = {
    "optimize": ["optimize"],
    "tiers": ["tiers", "stackelberg", "--prices", "0.5,1.0"],
    "simulate": ["simulate", "--plan", "0.3,0.1"],
}


@pytest.mark.parametrize("command", sorted(NON_FINITE_ARGV))
@pytest.mark.parametrize("flag", ["--capacity", "--capacity-fraction"])
@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_non_finite_capacity_exits_2(pop4, tmp_path, command, flag, value):
    path = write_pop(pop4, tmp_path)
    argv = NON_FINITE_ARGV[command] + ["--pop", path, f"{flag}={value}"]
    if command == "simulate":
        argv += ["--out-prefix", tmp_path / "x"]
    code, out, err = run(argv)
    assert code == 2
    assert out == ""
    assert err.splitlines() == [f"error: {flag} must be a finite number, got {value}"]


@pytest.mark.parametrize("command", sorted(NON_FINITE_ARGV))
def test_digest_is_the_population_file_sha256(pop4, tmp_path, command):
    path = write_pop(pop4, tmp_path)
    argv = NON_FINITE_ARGV[command] + ["--pop", path, "--capacity", 1.8]
    if command == "simulate":
        argv += ["--out-prefix", tmp_path / "x"]
    code, out, _ = run(argv)
    assert code == 0
    want = hashlib.sha256(path.read_bytes()).hexdigest()[:12]
    assert f" pop={path} digest={want} " in out.splitlines()[0]


@pytest.mark.parametrize("command", sorted(NON_FINITE_ARGV))
@pytest.mark.parametrize("missing", [True, False])
def test_missing_or_unreadable_population_exits_1(tmp_path, command, missing):
    """A --pop that cannot be read is a usage error: one line and status 2, not a traceback."""
    path = tmp_path / "absent.csv" if missing else tmp_path
    argv = NON_FINITE_ARGV[command] + ["--pop", path, "--capacity", 1.8]
    if command == "simulate":
        argv += ["--out-prefix", tmp_path / "x"]
    code, out, err = run(argv)
    assert code == 2
    assert out == ""
    reason = "No such file or directory" if missing else "Is a directory"
    assert err.splitlines() == [f"error: {path}: {reason}"]


OUTPUT_ARGV = {
    "generate -o": ["generate", "--dist", "codec:v=0.2,0.4", "--n", 5, "-o"],
    "optimize --curve": ["optimize", "--capacity", 1.8, "--curve"],
    "tiers --out-equilibria": ["tiers", "sweep", "--prices", "0.5,1.0", "--capacity", 1.8,
                               "--split-step", 0.5, "--out-equilibria"],
    "tiers --out-summary": ["tiers", "sweep", "--prices", "0.5,1.0", "--capacity", 1.8,
                            "--split-step", 0.5, "--out-summary"],
    "tiers -o": ["tiers", "stackelberg", "--prices", "0.5,1.0", "--capacity", 1.8, "-o"],
    "simulate --out-prefix": ["simulate", "--plan", "0.3,0.1", "--capacity", 1.8, "--days", 30,
                              "--out-prefix"],
}


@pytest.mark.parametrize("case", sorted(OUTPUT_ARGV))
def test_unwritable_output_exits_2(pop4, tmp_path, case):
    target = tmp_path / "no-such-dir" / "out"
    argv = OUTPUT_ARGV[case] + [target]
    if argv[0] != "generate":
        argv += ["--pop", write_pop(pop4, tmp_path)]
    code, _, err = run(argv)
    assert code == 2
    written = f"{target}_throttled_hourly.csv" if case.startswith("simulate") else target
    assert err.splitlines() == [f"error: {written}: No such file or directory"]


@pytest.mark.parametrize("flag", ["--capacity", "--capacity-fraction"])
def test_negative_capacity_names_the_flag(pop4, tmp_path, flag):
    path = write_pop(pop4, tmp_path)
    code, out, err = run(["optimize", "--pop", path, f"{flag}=-1"])
    assert code == 2
    assert out == ""
    assert err.splitlines() == [f"error: {flag} must be >= 0, got -1.0"]


def test_optimize_stream(stream3, tmp_path):
    path = write_pop(stream3, tmp_path)
    code, out, _ = run(
        ["optimize", "--pop", path, "--capacity", 0.9, "--mode", "stream",
         "--codecs", "0.2,0.4,0.6,0.8,1.0"]
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[1] == "candidate r=0.200000 T=0.322581 regret=0.101655"
    assert lines[2] == "candidate r=0.400000 T=0.272727 regret=0.099690"
    assert lines[3] == "candidate r=0.600000 T=0.153846 regret=0.100355"
    assert lines[4].startswith("T=0.272727 r=0.400000 regret=0.099690 residual=")


def test_optimize_stream_needs_codecs(stream3, tmp_path):
    path = write_pop(stream3, tmp_path)
    code, _, err = run(["optimize", "--pop", path, "--capacity", 0.9, "--mode", "stream"])
    assert code == 2
    assert "stream mode requires --codecs" in err


def test_optimize_writes_curve(pop4, tmp_path):
    path = write_pop(pop4, tmp_path)
    curve = tmp_path / "curve.csv"
    code, out, _ = run(
        ["optimize", "--pop", path, "--capacity", 1.8, "--curve", curve]
    )
    assert code == 0
    assert f"curve={curve} points=1001" in out
    rows = curve.read_text().splitlines()
    assert rows[0] == "T,r,regret"
    assert rows[1] == "0,0.55,0.2025"
    assert len(rows) == 1002


def test_tiers_sweep(pop4, tmp_path):
    path = write_pop(pop4, tmp_path)
    eq, summary = tmp_path / "eq.csv", tmp_path / "sum.csv"
    code, out, _ = run(
        ["tiers", "sweep", "--pop", path, "--capacity", 1.8, "--prices", "0.5,1.0",
         "--out-equilibria", eq, "--out-summary", summary]
    )
    assert code == 0
    assert "splits=101 with_equilibria=101" in out
    assert "split=0.5 equilibria=6" in out
    eq_rows = eq.read_text().splitlines()
    assert eq_rows[0] == "split,class_id,regret"
    assert eq_rows[1] == "0,1111,0.205941085"
    sum_rows = summary.read_text().splitlines()
    assert sum_rows[0] == "split,min,avg,max"
    assert len(sum_rows) == 102


def test_tiers_sweep_summary_leaves_a_split_without_equilibria_blank(pop4, tmp_path, monkeypatch):
    points = [SweepPoint(0.0, (), None, None, None),
              SweepPoint(0.5, (("01", 0.25), ("10", 0.75)), 0.25, 0.5, 0.75)]
    monkeypatch.setattr("throttleplan.cli.sweep_splits", lambda *args: points)
    eq, summary = tmp_path / "eq.csv", tmp_path / "sum.csv"
    code, out, _ = run(["tiers", "sweep", "--pop", write_pop(pop4, tmp_path), "--capacity", 1.8,
                        "--prices", "0.5,1.0", "--out-equilibria", eq, "--out-summary", summary])
    assert code == 0
    assert "splits=2 with_equilibria=1" in out
    assert eq.read_text() == "split,class_id,regret\n0.5,01,0.25\n0.5,10,0.75\n"
    assert summary.read_text() == "split,min,avg,max\n0,,,\n0.5,0.25,0.5,0.75\n"


def test_tiers_single_price_is_plain_optimum(pop4, tmp_path):
    path = write_pop(pop4, tmp_path)
    code, out, _ = run(["tiers", "sweep", "--pop", path, "--capacity", 1.8, "--prices", "0.75"])
    assert code == 0
    assert "T=0.367636 r=0.367636 regret=0.165941" in out


@pytest.mark.parametrize(
    "argv",
    [
        ["optimize"],
        ["tiers", "sweep", "--prices", "0.5,1.0", "--split-step", 0.5],
    ],
)
def test_capacity_one_ulp_below_demand_exits_0(tmp_path, argv):
    # at this fraction t_hat rounds up to the largest demand of some tiers
    path = tmp_path / "pop.csv"
    code, _, _ = run(["generate", "--dist", "lognormal:mu=0,sigma=0.5", "--n", 8,
                      "--seed", 31, "-o", path])
    assert code == 0
    code, _, err = run([*argv, "--pop", path, "--capacity-fraction", 0.9999999999999999])
    assert code == 0, err
    assert "Traceback" not in err


def test_tiers_sweep_enumeration_cap(tmp_path):
    pop = generate_lognormal(21, 0.0, 0.5, seed=0)
    path = write_pop(pop, tmp_path)
    code, _, err = run(
        ["tiers", "sweep", "--pop", path, "--capacity-fraction", 0.8, "--prices", "0.5,1.0"]
    )
    assert code == 2
    assert "21 users exceeds the enumeration cap of 20" in err
    assert "stackelberg_iterate" in err


def test_tiers_stackelberg(tmp_path):
    pop = generate_lognormal(12, 0.0, 0.5, seed=3)
    path = write_pop(pop, tmp_path)
    assign = tmp_path / "assign.csv"
    argv = [
        "tiers", "stackelberg", "--pop", path, "--capacity-fraction", 0.9,
        "--prices", "0.5,1.0", "--kappa", 0.05, "--seed", 3, "-o", assign,
    ]
    code, out, _ = run(argv)
    assert code == 0
    lines = out.splitlines()
    assert lines[1] == "iter=1 moves=0 T=[0.838354,2.418593]"
    assert lines[2] == "iter=2 moves=0 T=[0.838354,2.418593]"
    assert lines[3] == "converged=True iterations=2 regret=0.535819"
    assert lines[4] == f"assignment={assign}"
    rows = assign.read_text().splitlines()
    assert rows[0] == "id,rate,tier,regret"
    assert len(rows) == 13
    tiers = [row.split(",")[2] for row in rows[1:]]
    assert tiers == ["1"] * 6 + ["2"] * 6  # rendered 1-based
    code2, out2, _ = run(argv)
    assert code2 == 0 and out2 == out


def test_simulate(pop4, tmp_path):
    # ids that differ from the users' positions, so the states rows must name ids
    pop = Population([UserProfile(10 * u.id + 7, u.rate, u.activity) for u in pop4])
    path = write_pop(pop, tmp_path)
    prefix = tmp_path / "sim"
    code, out, _ = run(
        ["simulate", "--pop", path, "--capacity", 1.8, "--plan", "0.3,0.1",
         "--days", 30, "--seed", 7, "--states", "--out-prefix", prefix]
    )
    assert code == 0
    assert "plan T=0.300000 r=0.100000" in out
    match = re.search(r"variability_ratio=(\d+\.\d{6}) excluded_hours=0", out)
    assert match and float(match.group(1)) > 0
    hourly = (tmp_path / "sim_throttled_hourly.csv").read_text().splitlines()
    assert hourly[0] == "hour,total,normalized_total"
    assert len(hourly) == 721
    baseline = (tmp_path / "sim_unthrottled_hourly.csv").read_text().splitlines()
    assert len(baseline) == 721
    daily = (tmp_path / "sim_daily.csv").read_text().splitlines()
    assert daily[0] == "day,throttled,unthrottled"
    assert len(daily) == 31
    states = (tmp_path / "sim_states.csv").read_text().splitlines()
    assert states[0] == "hour,user,state"
    trace = simulate(
        pop, SimConfig(Plan(0.3, 0.1, Mode.STREAMING), horizon_days=30, seed=7,
                       record_states=True)
    )
    st = trace.per_user_state
    assert st.shape == (4, 720)
    assert states[1:] == [
        f"{h},{pop[u].id},{UserState(st[u, h]).name.lower()}"
        for h in range(720) for u in range(4)
    ]
    assert {row.split(",")[2] for row in states[1:]} <= {
        "inactive", "unthrottled", "throttled"
    }


def test_simulate_is_byte_reproducible(pop4, tmp_path):
    path = write_pop(pop4, tmp_path)
    for prefix in ("one", "two"):
        code, _, _ = run(
            ["simulate", "--pop", path, "--capacity", 1.8, "--plan", "0.3,0.1",
             "--days", 30, "--out-prefix", tmp_path / prefix]
        )
        assert code == 0
    a = (tmp_path / "one_throttled_hourly.csv").read_bytes()
    b = (tmp_path / "two_throttled_hourly.csv").read_bytes()
    assert a == b


def test_simulate_plan_with_an_infinite_threshold_is_unthrottled(pop4, tmp_path):
    # T = inf spells "no throttling" whatever r is; a finite T with r = inf is refused
    code, out, _ = run(
        ["simulate", "--pop", write_pop(pop4, tmp_path), "--capacity", 1.8,
         "--plan", "inf,0.1", "--days", 30, "--out-prefix", tmp_path / "x"]
    )
    assert code == 0
    assert "plan: no throttling" in out
    assert "variability_ratio=0.000000 excluded_hours=0" in out
    assert (tmp_path / "x_throttled_hourly.csv").read_bytes() == (
        tmp_path / "x_unthrottled_hourly.csv"
    ).read_bytes()


def test_simulate_rejects_short_horizon(pop4, tmp_path):
    path = write_pop(pop4, tmp_path)
    code, _, err = run(
        ["simulate", "--pop", path, "--capacity", 1.8, "--plan", "0.3,0.1",
         "--days", 29, "--out-prefix", tmp_path / "x"]
    )
    assert code == 2
    assert "error: horizon must cover at least one 30-day cycle" in err


def test_simulate_requires_a_plan(pop4, tmp_path):
    path = write_pop(pop4, tmp_path)
    code, _, err = run(
        ["simulate", "--pop", path, "--capacity", 1.8, "--out-prefix", tmp_path / "x"]
    )
    assert code == 2
    assert "one of --plan / --optimize is required" in err


def test_simulate_optimize_stream_needs_codecs(stream3, tmp_path):
    path = write_pop(stream3, tmp_path)
    code, _, err = run(
        ["simulate", "--pop", path, "--capacity", 0.9, "--optimize",
         "--out-prefix", tmp_path / "x"]
    )
    assert code == 2
    assert "requires --codecs" in err


def test_usage_errors_exit_2():
    with pytest.raises(SystemExit) as exc:
        run(["optimize"])  # --pop is required
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        run(["no-such-command"])
    assert exc.value.code == 2


def test_internal_errors_exit_1(pop4, tmp_path, monkeypatch):
    # an OSError naming no file is not a usage problem
    def fail(*args):
        raise OSError(28, "No space left on device")

    monkeypatch.setattr("throttleplan.cli.optimize_download", fail)
    code, _, err = run(["optimize", "--pop", write_pop(pop4, tmp_path), "--capacity", 1.8])
    assert code == 1
    assert "Traceback" in err
    assert err.splitlines()[-1] == "OSError: [Errno 28] No space left on device"


def _csv_with_rate(tmp_path, rate):
    path = tmp_path / "pop.csv"
    path.write_text(f"id,rate,activity,tier\n0,0.5,1.0,\n1,{rate},1.0,\n")
    return path


# one command per non-finite or malformed input: (argv builder, expected error line)
NON_FINITE_INPUTS = {
    "tiers-prices-letter": (
        lambda pop, tmp: ["tiers", "stackelberg", "--pop", pop, "--capacity", 1.8,
                          "--prices", "a,1"],
        "error: bad --prices list 'a,1': could not convert string to float: 'a'",
    ),
    "tiers-prices-trailing-comma": (
        lambda pop, tmp: ["tiers", "sweep", "--pop", pop, "--capacity", 1.8,
                          "--prices", "0.5,"],
        "error: bad --prices list '0.5,': could not convert string to float: ''",
    ),
    "simulate-plan-letter": (
        lambda pop, tmp: ["simulate", "--pop", pop, "--capacity", 1.8, "--plan", "x,1",
                          "--out-prefix", tmp / "x"],
        "error: bad --plan list 'x,1': could not convert string to float: 'x'",
    ),
    "generate-mu-letter": (
        lambda pop, tmp: ["generate", "--dist", "lognormal:mu=x,sigma=1", "--n", 3,
                          "-o", tmp / "g.csv"],
        "error: bad --dist parameter 'mu=x': could not convert string to float: 'x'",
    ),
    "simulate-plan-nan": (
        lambda pop, tmp: ["simulate", "--pop", pop, "--capacity", 1.8, "--plan", "nan,0.1",
                          "--out-prefix", tmp / "x"],
        "error: threshold must be >= 0, got nan",
    ),
    "optimize-rho-nan": (
        lambda pop, tmp: ["optimize", "--pop", pop, "--capacity", 1.8, "--rho", "nan"],
        "error: rho must be >= 1 and finite, got nan",
    ),
    "generate-mu-nan": (
        lambda pop, tmp: ["generate", "--dist", "lognormal:mu=nan,sigma=0.5", "--n", 3,
                          "-o", tmp / "g.csv"],
        "error: mu must be finite, got nan",
    ),
    "generate-sigma-nan": (
        lambda pop, tmp: ["generate", "--dist", "lognormal:mu=0,sigma=nan", "--n", 3,
                          "-o", tmp / "g.csv"],
        "error: sigma must be >= 0 and finite, got nan",
    ),
    "csv-rate-nan": (
        lambda pop, tmp: ["optimize", "--pop", _csv_with_rate(tmp, "nan"), "--capacity", 0.5],
        "error: line 3: user 1: rate must be positive and finite, got nan",
    ),
    "csv-rate-inf": (
        lambda pop, tmp: ["optimize", "--pop", _csv_with_rate(tmp, "inf"), "--capacity", 0.5],
        "error: line 3: user 1: rate must be positive and finite, got inf",
    ),
}


@pytest.mark.parametrize("case", sorted(NON_FINITE_INPUTS))
def test_non_finite_input_exits_2(pop4, tmp_path, case):
    argv, expected = NON_FINITE_INPUTS[case]
    code, out, err = run(argv(write_pop(pop4, tmp_path, "pop4.csv"), tmp_path))
    assert code == 2
    assert out == ""
    assert err.splitlines() == [expected]
    assert not (tmp_path / "g.csv").exists()


# one command per out-of-range input that numpy would reject with a traceback
OUT_OF_RANGE_INPUTS = {
    "generate-seed": (
        lambda pop, tmp: ["generate", "--dist", "codec:v=0.5,1.0", "--n", 3, "--seed", -1,
                          "-o", tmp / "g.csv"],
        "error: seed must be a non-negative integer, got -1",
    ),
    "generate-lognormal-seed": (
        lambda pop, tmp: ["generate", "--dist", "lognormal:mu=0,sigma=0.5", "--n", 3,
                          "--seed", -1, "-o", tmp / "g.csv"],
        "error: seed must be a non-negative integer, got -1",
    ),
    "stackelberg-seed": (
        lambda pop, tmp: ["tiers", "stackelberg", "--pop", pop, "--capacity", 1.8,
                          "--prices", "0.5,0.75,1.0", "--seed", -1],
        "error: seed must be a non-negative integer, got -1",
    ),
    "simulate-seed": (
        lambda pop, tmp: ["simulate", "--pop", pop, "--capacity", 1.8, "--plan", "0.3,0.1",
                          "--seed", -1, "--out-prefix", tmp / "x"],
        "error: seed must be a non-negative integer, got -1",
    ),
    "simulate-days": (
        lambda pop, tmp: ["simulate", "--pop", pop, "--capacity", 1.8, "--plan", "0.3,0.1",
                          "--days", 100_000_000, "--out-prefix", tmp / "x"],
        "error: a horizon of 2400000000 hours exceeds the cap of 1000000",
    ),
}


@pytest.mark.parametrize("case", sorted(OUT_OF_RANGE_INPUTS))
def test_out_of_range_input_exits_2(pop4, tmp_path, case):
    argv, expected = OUT_OF_RANGE_INPUTS[case]
    code, _, err = run(argv(write_pop(pop4, tmp_path, "pop4.csv"), tmp_path))
    assert code == 2
    assert err.splitlines() == [expected]
    assert not (tmp_path / "g.csv").exists()
    assert not (tmp_path / "x_throttled_hourly.csv").exists()


def test_curve_step_over_the_grid_cap_exits_2(pop4, tmp_path):
    path = write_pop(pop4, tmp_path)
    code, _, err = run(["optimize", "--pop", path, "--capacity", 1.8,
                        "--curve", tmp_path / "c.csv", "--curve-step", "1e-12"])
    assert code == 2
    assert err.splitlines() == [
        "error: a grid of 5.5e+11 points exceeds the cap of 1000000; use a coarser step"
    ]


def test_curve_step_zero_exits_2(pop4, tmp_path):
    path = write_pop(pop4, tmp_path)
    code, _, err = run(["optimize", "--pop", path, "--capacity", 1.8,
                        "--curve", tmp_path / "c.csv", "--curve-step", "0"])
    assert code == 2
    assert err.splitlines() == ["error: step must be positive, got 0.0"]


@pytest.mark.parametrize("step, expected", [
    ("0", "error: step must be positive, got 0.0"),
    ("-1", "error: step must be positive, got -1.0"),
    ("nan", "error: step must be positive, got nan"),
    ("inf", "error: step must be finite, got inf"),
    ("1e-12", "error: a grid of 5.5e+11 points exceeds the cap of 1000000; use a coarser step"),
])
def test_refused_curve_step_is_checked_before_the_solve(pop4, tmp_path, step, expected):
    path = write_pop(pop4, tmp_path)
    code, out, err = run(["optimize", "--pop", path, "--capacity", 1.8,
                          "--curve", tmp_path / "c.csv", "--curve-step", step])
    assert code == 2
    assert out == ""
    assert err.splitlines() == [expected]
    assert not (tmp_path / "c.csv").exists()


@pytest.mark.parametrize("flag", ["--capacity", "--capacity-fraction"])
def test_simulate_refuses_zero_capacity(pop4, tmp_path, flag):
    path = write_pop(pop4, tmp_path)
    code, out, err = run(["simulate", "--pop", path, flag, 0, "--plan", "0.3,0.1",
                          "--out-prefix", tmp_path / "x"])
    assert code == 2
    assert out == ""
    assert err.splitlines() == [f"error: {flag} must be > 0 to normalize the traces, got 0"]
    assert not (tmp_path / "x_throttled_hourly.csv").exists()


def test_zero_capacity_curve_is_the_single_zero_row(pop4, tmp_path):
    path = write_pop(pop4, tmp_path)
    curve = tmp_path / "curve.csv"
    code, out, _ = run(["optimize", "--pop", path, "--capacity", 0, "--curve", curve])
    assert code == 0
    assert f"curve={curve} points=1" in out
    assert curve.read_text().splitlines() == ["T,r,regret", "0,0,4"]


SMALL_RHO = ("error: download optimization requires rho >= 2; smaller exponents break the "
             "per-interval convexity the closed form relies on")
SWEEP = ["tiers", "sweep", "--capacity", 1.8, "--split-step", 0.5]
STACKELBERG = ["tiers", "stackelberg", "--capacity", 1.8]
OUT = object()  # stands for an output prefix in the test's own directory


# refused before the command=... line: (arguments but --pop, expected error line)
@pytest.mark.parametrize("argv, expected", [
    pytest.param(["optimize", "--capacity", 1.8, "--rho", 1.5], SMALL_RHO, id="optimize-rho"),
    pytest.param(["optimize", "--capacity", 1.8, "--mode", "stream"],
                 "error: stream mode requires --codecs", id="optimize-stream-codecs"),
    pytest.param(["tiers", "sweep", "--capacity", 1.8, "--prices", "0.5,1.0", "--split-step", 0],
                 "error: step must be in (0, 1), got 0.0", id="sweep-step"),
    pytest.param(SWEEP + ["--prices", "0.5,0.75,1.0"],
                 "error: equilibrium enumeration handles exactly 2 tiers", id="sweep-3-prices"),
    pytest.param(SWEEP + ["--prices", "1.0,0.5"], "error: prices must be strictly ascending",
                 id="sweep-descending"),
    pytest.param(SWEEP + ["--prices", "0.5,1.0", "--rho", 1.5], SMALL_RHO, id="sweep-rho"),
    pytest.param(STACKELBERG + ["--prices", "0.5,1.0", "--max-iters", -1],
                 "error: max_iters must be >= 0, got -1", id="stackelberg-max-iters"),
    pytest.param(STACKELBERG + ["--prices", "1.0,0.5"], "error: prices must be strictly ascending",
                 id="stackelberg-descending"),
    pytest.param(STACKELBERG + ["--prices", "0.5,1.0", "--rho", 1.5], SMALL_RHO,
                 id="stackelberg-rho"),
    pytest.param(STACKELBERG + ["--prices", "0.5,0.75,1.0", "--seed", -1],
                 "error: seed must be a non-negative integer, got -1", id="stackelberg-seed"),
    pytest.param(SWEEP + ["--prices=-1"], "error: prices must be >= 0 and finite",
                 id="single-price-negative"),
    pytest.param(SWEEP + ["--prices=nan"], "error: prices must be >= 0 and finite",
                 id="single-price-nan"),
    pytest.param(STACKELBERG + ["--prices=-1"], "error: prices must be >= 0 and finite",
                 id="stackelberg-single-price-negative"),
    pytest.param(["simulate", "--capacity", 1.8, "--plan", "0.3,inf", "--out-prefix", OUT],
                 "error: a throttling plan needs a finite rate, got T=0.3 r=inf",
                 id="simulate-plan-infinite-rate"),
])
def test_refusals_print_nothing_to_stdout(pop4, tmp_path, argv, expected):
    path = write_pop(pop4, tmp_path)
    code, out, err = run([tmp_path / "x" if a is OUT else a for a in argv] + ["--pop", path])
    assert code == 2
    assert out == ""
    assert err.splitlines() == [expected]
    assert not list(tmp_path.glob("x*"))


def test_closed_stdout_exits_1_without_a_traceback(tmp_path):
    path = write_pop(generate_lognormal(12, 0.0, 0.5, seed=3), tmp_path)
    src = os.path.dirname(os.path.dirname(throttleplan.__file__))
    argv = [sys.executable, "-m", "throttleplan.cli", "tiers", "stackelberg", "--pop", str(path),
            "--capacity-fraction", "0.9", "--prices", "0.5,1.0"]
    read, write = os.pipe()
    os.close(read)  # the reader is gone before the command prints its first line
    try:
        proc = subprocess.run(argv, stdout=write, stderr=subprocess.PIPE, text=True,
                              timeout=60, env={**os.environ, "PYTHONPATH": src})
    finally:
        os.close(write)
    assert proc.returncode == 1
    assert proc.stderr == ""
