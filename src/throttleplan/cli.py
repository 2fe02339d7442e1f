"""Command line front end: generate, optimize, tiers, simulate.

Summaries go to stdout, diagnostics to stderr.  Exit codes: 0 success, 2
usage or validation problem (refused before anything is printed; a file that
cannot be opened gives one line ``error: <path>: <reason>``), 1 internal
error or stdout closed by its reader (as after SIGPIPE, with stderr empty).
Randomized commands default to seed 20260819 when --seed is omitted; nothing reads the clock.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import io
import math
import os
import sys
import time

import numpy as np

from .allocation import Mode, Plan, consumption, max_threshold
from .cyclesim import (
    DAYS_PER_CYCLE,
    HOURS_PER_DAY,
    SimConfig,
    UserState,
    daily_average,
    simulate,
    variability_ratio,
)
from .download import _check_params, _threshold_grid, optimize_download, threshold_curve
from .errors import ThrottlePlanError
from .population import (
    DEFAULT_SEED,
    Population,
    generate_codec_uniform,
    generate_lognormal,
    load_population,
    save_population,
)
from .regret import RegretParams, _regret
from .streaming import CodecSet, optimize_streaming, streaming_curve
from .tiergame import TierConfig, _stackelberg_params, stackelberg_iterate, sweep_splits


def _load(path: str) -> tuple[Population, str]:
    """The population in ``path`` and the digest of the bytes it was parsed from."""
    with open(path, "rb") as fh:
        data = fh.read()
    return load_population(io.BytesIO(data)), hashlib.sha256(data).hexdigest()[:12]


def _echo(cmd: str, **fields) -> None:
    parts = [f"command={cmd}"] + [f"{k}={v}" for k, v in fields.items()]
    print(" ".join(parts))


def _elapsed(t0: float) -> int:
    """Ends a command: its stdout is flushed first, so a closed pipe leaves stderr empty."""
    sys.stdout.flush()
    print(f"elapsed={time.perf_counter() - t0:.3f}s", file=sys.stderr)
    return 0


def _resolve_capacity(args, pop: Population) -> float:
    for flag, value in (("--capacity", args.capacity),
                        ("--capacity-fraction", args.capacity_fraction)):
        if value is not None and not math.isfinite(value):
            raise ThrottlePlanError(f"{flag} must be a finite number, got {value}")
        if value is not None and value < 0:
            raise ThrottlePlanError(f"{flag} must be >= 0, got {value}")
    if args.capacity is not None:
        return args.capacity
    if args.capacity_fraction is not None:
        return args.capacity_fraction * pop.total_demand
    raise ThrottlePlanError("one of --capacity / --capacity-fraction is required")


def _curve_step(args, pop: Population, cap: float) -> float:
    """The --curve-step to sample with, checked before anything is solved or printed."""
    t_hat = max_threshold(pop, cap).threshold if cap < pop.total_demand else 0.0
    step = args.curve_step
    if step is None:
        # 1,001 points up to t_hat; at t_hat = 0 the curve is its one T = 0 row
        return t_hat / 1000.0 or 1.0
    _threshold_grid(t_hat, step)
    return step


def _floats(flag: str, text: str) -> list[float]:
    """The numbers of a comma-separated ``flag`` value."""
    try:
        return [float(p) for p in text.split(",")]
    except ValueError as exc:
        raise ThrottlePlanError(f"bad {flag} list {text!r}: {exc}") from None


def _write_csv(path: str, header: list[str], rows) -> None:
    """Writes ``header`` and then ``rows`` to ``path``, each line ending in a bare newline."""
    with open(path, "w", newline="\n") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(header)
        w.writerows(rows)


def _add_capacity_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--capacity", type=float, help="link capacity C")
    p.add_argument(
        "--capacity-fraction", type=float, help="C as a fraction of total demand"
    )


def _parse_dist(text: str):
    kind, _, rest = text.partition(":")
    if kind == "lognormal":
        fields = {}
        for part in rest.split(","):
            key, _, val = part.partition("=")
            try:
                fields[key.strip()] = float(val)
            except ValueError as exc:
                raise ThrottlePlanError(f"bad --dist parameter {part!r}: {exc}") from None
        unknown = set(fields) - {"mu", "sigma", "x"}
        if unknown or "mu" not in fields or "sigma" not in fields:
            raise ThrottlePlanError(
                "lognormal needs mu=..,sigma=.. (optional x=..), got " + rest
            )
        return ("lognormal", fields)
    if kind == "codec":
        if not rest.startswith("v="):
            raise ThrottlePlanError("codec distribution needs v=r1,r2,...")
        return ("codec", CodecSet.parse(rest[2:]))
    raise ThrottlePlanError(f"unknown distribution {kind!r} (use lognormal or codec)")


def cmd_generate(args) -> int:
    kind, spec = _parse_dist(args.dist)
    if kind == "lognormal":
        pop = generate_lognormal(
            args.n, spec["mu"], spec["sigma"], activity=spec.get("x", 1.0), seed=args.seed
        )
    else:
        pop = generate_codec_uniform(args.n, list(spec), seed=args.seed)
    save_population(pop, args.output)
    _echo(
        "generate",
        dist=args.dist,
        n=len(pop),
        seed=args.seed,
        total_demand=f"{pop.total_demand:.6f}",
        output=args.output,
    )
    return 0


def cmd_optimize(args) -> int:
    t0 = time.perf_counter()
    pop, digest = _load(args.pop)
    cap = _resolve_capacity(args, pop)
    params = RegretParams(rho=args.rho, tau=args.tau)
    if args.mode == "download":
        _check_params(params)
    elif not args.codecs:
        raise ThrottlePlanError("stream mode requires --codecs")
    codecs = CodecSet.parse(args.codecs) if args.mode == "stream" else None
    step = _curve_step(args, pop, cap) if args.curve else None
    _echo("optimize", pop=args.pop, digest=digest, mode=args.mode,
          capacity=f"{cap:.6f}", rho=args.rho)
    if cap >= pop.total_demand:
        print("no throttling needed: capacity covers total demand")
        print("T=inf r=inf regret=0")
        return 0
    if args.mode == "download":
        sol = optimize_download(pop, cap, params)
        plan, extras = sol.plan, ()
    else:
        ssol = optimize_streaming(pop, cap, codecs, params)
        plan, extras = ssol.plan, ssol.candidates
        sol = ssol
    residual = abs(consumption(pop, plan) - cap)
    for cand in extras:
        print(
            f"candidate r={cand.rate:.6f} T={cand.threshold:.6f} regret={cand.regret:.6f}"
        )
    print(
        f"T={plan.threshold:.6f} r={plan.rate:.6f} regret={sol.regret:.6f} "
        f"residual={residual:.3e}"
    )
    if args.curve:
        if args.mode == "download":
            rows = threshold_curve(pop, cap, params, step)
        else:
            rows = streaming_curve(pop, cap, codecs, params, step)
        _write_csv(args.curve, ["T", "r", "regret"],
                   ([f"{t:.9g}", f"{r:.9g}", f"{reg:.9g}"] for t, r, reg in rows))
        print(f"curve={args.curve} points={len(rows)}")
    return _elapsed(t0)


def cmd_tiers(args) -> int:
    t0 = time.perf_counter()
    pop, digest = _load(args.pop)
    cap = _resolve_capacity(args, pop)
    prices = tuple(_floats("--prices", args.prices))
    params = RegretParams(rho=args.rho, kappa=args.kappa)
    _check_params(params)
    config = TierConfig(prices, args.kappa, (cap,) + (0.0,) * (len(prices) - 1))
    if len(prices) > 1 and args.game == "sweep":
        # a sweep prints nothing while it runs: it runs, and checks its input, before the echo
        points = sweep_splits(pop, config, args.split_step, params)
    elif len(prices) > 1:
        _stackelberg_params(prices, args.kappa, args.max_iters, args.rho, args.seed)
    _echo("tiers", sub=args.game, pop=args.pop, digest=digest,
          prices=args.prices, kappa=args.kappa, capacity=f"{cap:.6f}")
    if len(prices) == 1:
        # a single tier is just the plain optimizer
        sol = optimize_download(pop, cap, params)
        print(
            f"T={sol.plan.threshold:.6f} r={sol.plan.rate:.6f} regret={sol.regret:.6f}"
        )
        return 0
    if args.game == "sweep":
        if args.out_equilibria:
            _write_csv(args.out_equilibria, ["split", "class_id", "regret"],
                       ([f"{pt.split:.6g}", cid, f"{reg:.9g}"]
                        for pt in points for cid, reg in pt.equilibria))
        if args.out_summary:
            def summary_row(pt):
                stats = (pt.min_regret, pt.avg_regret, pt.max_regret)
                return [f"{pt.split:.6g}", *(f"{v:.9g}" if pt.equilibria else "" for v in stats)]

            _write_csv(args.out_summary, ["split", "min", "avg", "max"], map(summary_row, points))
        nonempty = sum(1 for pt in points if pt.equilibria)
        print(f"splits={len(points)} with_equilibria={nonempty}")
        for pt in points:
            if abs(pt.split - 0.5) < 1e-12:
                print(f"split=0.5 equilibria={len(pt.equilibria)}")
    else:
        report = stackelberg_iterate(
            pop, prices, cap, args.kappa, max_iters=args.max_iters, seed=args.seed,
            rho=args.rho,
            progress=lambda it, ts, moves: print(
                f"iter={it} moves={moves} T=[" + ",".join(f"{t:.6f}" for t in ts) + "]"
            ),
        )
        print(
            f"converged={report.converged} iterations={report.iterations} "
            f"regret={report.regret:.6f}"
        )
        if args.output:
            def regret_text(rate, activity, tier):
                if not report.tier_plans:
                    return ""
                plan = report.tier_plans[tier]
                return f"{params.kappa * prices[tier] + _regret(rate, activity, plan, params):.9g}"

            columns = zip(pop.ids.tolist(), pop.rates.tolist(), pop.activities.tolist(),
                          report.assignment.tier_of)
            # tiers are numbered from 1 in rendered output
            _write_csv(args.output, ["id", "rate", "tier", "regret"],
                       ([uid, repr(rate), tier + 1, regret_text(rate, activity, tier)]
                        for uid, rate, activity, tier in columns))
            print(f"assignment={args.output}")
    return _elapsed(t0)


def _parse_plan(text: str, mode: Mode) -> Plan:
    parts = _floats("--plan", text)
    if len(parts) != 2:
        raise ThrottlePlanError(f"--plan expects T,r got {text!r}")
    return Plan(parts[0], parts[1], mode)


def cmd_simulate(args) -> int:
    t0 = time.perf_counter()
    pop, digest = _load(args.pop)
    cap = _resolve_capacity(args, pop)
    if cap == 0:
        flag = "--capacity" if args.capacity is not None else "--capacity-fraction"
        raise ThrottlePlanError(f"{flag} must be > 0 to normalize the traces, got 0")
    mode = Mode.DOWNLOAD if args.mode == "download" else Mode.STREAMING
    params = RegretParams(rho=args.rho)
    if args.plan:
        plan = _parse_plan(args.plan, mode)
    elif args.optimize:
        if cap >= pop.total_demand:
            plan = Plan.no_throttling(mode)
        elif mode is Mode.DOWNLOAD:
            plan = optimize_download(pop, cap, params).plan
        else:
            if not args.codecs:
                raise ThrottlePlanError("--optimize in stream mode requires --codecs")
            plan = optimize_streaming(pop, cap, CodecSet.parse(args.codecs), params).plan
    else:
        raise ThrottlePlanError("one of --plan / --optimize is required")
    config = SimConfig(
        plan=plan, horizon_days=args.days, diurnal=args.diurnal, seed=args.seed,
        record_states=args.states,
    )
    _echo("simulate", pop=args.pop, digest=digest, mode=args.mode,
          capacity=f"{cap:.6f}", days=args.days, diurnal=args.diurnal, seed=args.seed)
    throttled = simulate(pop, config)
    unthrottled = throttled.unthrottled
    hourly_unit = cap / (DAYS_PER_CYCLE * HOURS_PER_DAY)

    prefix = args.out_prefix
    for name, trace in (("throttled", throttled), ("unthrottled", unthrottled)):
        _write_csv(f"{prefix}_{name}_hourly.csv", ["hour", "total", "normalized_total"],
                   ([h, f"{v:.9g}", f"{v / hourly_unit:.9g}"]
                    for h, v in enumerate(trace.hourly_total)))
    daily = zip(daily_average(throttled), daily_average(unthrottled))
    _write_csv(f"{prefix}_daily.csv", ["day", "throttled", "unthrottled"],
               ([day, f"{a / hourly_unit:.9g}", f"{b / hourly_unit:.9g}"]
                for day, (a, b) in enumerate(daily)))
    if args.states:
        with open(f"{prefix}_states.csv", "w", newline="\n") as fh:
            w = csv.writer(fh, lineterminator="\n")
            w.writerow(["hour", "user", "state"])
            st = throttled.per_user_state
            # "user,state" row tails for every (state, user): an hour's rows are one gather
            tails = np.array(
                [[f"{i},{s.name.lower()}\n" for i in pop.ids.tolist()]
                 for s in sorted(UserState)],
                dtype=object,
            )
            users = np.arange(len(pop))
            for h in range(st.shape[1]):
                head = f"{h},"
                fh.write(head + head.join(tails[st[:, h], users]))
    zero_hours = int(np.sum(unthrottled.hourly_total == 0))
    ratio = variability_ratio(throttled, unthrottled)
    if plan.throttles:
        print(f"plan T={plan.threshold:.6f} r={plan.rate:.6f}")
    else:
        print("plan: no throttling")
    print(f"variability_ratio={ratio:.6f} excluded_hours={zero_hours}")
    return _elapsed(t0)


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="throttleplan",
        description="Bandwidth throttling plans: optimization, tier games, simulation.",
    )
    sub = top.add_subparsers(dest="command", required=True)

    g = sub.add_parser("generate", help="write a synthetic population CSV")
    g.add_argument("--dist", required=True,
                   help="lognormal:mu=..,sigma=..[,x=..] or codec:v=r1,r2,...")
    g.add_argument("--n", type=int, required=True)
    g.add_argument("--seed", type=int, default=DEFAULT_SEED)
    g.add_argument("-o", "--output", required=True)
    g.set_defaults(func=cmd_generate)

    o = sub.add_parser("optimize", help="solve one plan for a population")
    o.add_argument("--pop", required=True)
    _add_capacity_flags(o)
    o.add_argument("--mode", choices=["download", "stream"], default="download")
    o.add_argument("--rho", type=float, default=2.0)
    o.add_argument("--tau", type=float, default=None)
    o.add_argument("--codecs", help="comma-separated codec rates (stream mode)")
    o.add_argument("--curve", help="write a T,r,regret curve CSV here")
    o.add_argument("--curve-step", type=float, default=None)
    o.set_defaults(func=cmd_optimize)

    t = sub.add_parser("tiers", help="two-tier sweeps and the leader/follower game")
    t.add_argument("game", choices=["sweep", "stackelberg"])
    t.add_argument("--pop", required=True)
    _add_capacity_flags(t)
    t.add_argument("--prices", required=True, help="comma-separated ascending prices")
    t.add_argument("--kappa", type=float, default=0.01)
    t.add_argument("--rho", type=float, default=2.0)
    t.add_argument("--split-step", type=float, default=0.01)
    t.add_argument("--max-iters", type=int, default=100)
    t.add_argument("--seed", type=int, default=DEFAULT_SEED)
    t.add_argument("--out-equilibria")
    t.add_argument("--out-summary")
    t.add_argument("-o", "--output", help="stackelberg: final assignment CSV")
    t.set_defaults(func=cmd_tiers)

    s = sub.add_parser("simulate", help="hourly billing-cycle Monte Carlo")
    s.add_argument("--pop", required=True)
    _add_capacity_flags(s)
    s.add_argument("--plan", help="fixed plan as T,r")
    s.add_argument("--optimize", action="store_true",
                   help="derive the plan from the optimizer")
    s.add_argument("--mode", choices=["stream", "download"], default="stream")
    s.add_argument("--rho", type=float, default=2.0)
    s.add_argument("--codecs", help="codec rates for --optimize in stream mode")
    s.add_argument("--days", type=int, default=60)
    s.add_argument("--diurnal", action="store_true")
    s.add_argument("--seed", type=int, default=DEFAULT_SEED)
    s.add_argument("--states", action="store_true",
                   help="also write per-user hourly states")
    s.add_argument("--out-prefix", required=True)
    s.set_defaults(func=cmd_simulate)
    return top


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        status = args.func(args)
        sys.stdout.flush()
        return status
    except BrokenPipeError:
        # stdout to devnull, so the interpreter's flush at exit cannot fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except ThrottlePlanError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # noqa: BLE001 - internal failure path
        if isinstance(exc, OSError) and exc.filename is not None:
            # a file named on the command line could not be read or written
            print(f"error: {exc.filename}: {exc.strerror or exc}", file=sys.stderr)
            return 2
        import traceback

        traceback.print_exc()
        return 1


if __name__ == "__main__":
    sys.exit(main())
