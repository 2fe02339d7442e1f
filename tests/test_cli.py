import contextlib
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


def test_simulate_plan_with_an_infinite_rate_is_unthrottled(pop4, tmp_path):
    code, out, _ = run(
        ["simulate", "--pop", write_pop(pop4, tmp_path), "--capacity", 1.8,
         "--plan", "0.3,inf", "--days", 30, "--out-prefix", tmp_path / "x"]
    )
    assert code == 0
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


def test_internal_errors_exit_1(tmp_path):
    code, _, err = run(["optimize", "--pop", tmp_path, "--capacity", 1.8])
    assert code == 1
    assert "Traceback" in err


def _csv_with_rate(tmp_path, rate):
    path = tmp_path / "pop.csv"
    path.write_text(f"id,rate,activity,tier\n0,0.5,1.0,\n1,{rate},1.0,\n")
    return path


# one command per non-finite input: (argv builder, expected error line)
NON_FINITE_INPUTS = {
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
