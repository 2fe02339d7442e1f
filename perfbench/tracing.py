"""Outside-in tracing: wrap the public functions of each throttleplan layer.

The wrappers live in the benchmark, not in the library.  While a
:class:`Tracer` is installed, every module attribute that binds one of the
traced functions (``download.optimize_download``, ``cli.optimize_download``,
``throttleplan.optimize_download`` ...) points at a wrapper that records a
span: function, start, end, parent span and request id.  Removing the tracer
restores the original bindings.  Spans stay in memory until the run ends.
"""

from __future__ import annotations

import sys
import time
from typing import Callable, NamedTuple

# layer -> public functions traced in that layer's module
LAYERS: dict[str, tuple[str, ...]] = {
    "download": ("optimize_download", "optimize_demands", "threshold_curve"),
    "tiergame": ("stackelberg_iterate", "solve_multi_tier", "sweep_splits",
                 "enumerate_equilibria"),
    "regret": ("user_regret", "aggregate_regret"),
    "allocation": ("threshold_for_rate", "max_threshold"),
    "streaming": ("optimize_streaming",),
    "cyclesim": ("simulate", "variability_ratio"),
    "population": ("generate_lognormal", "generate_codec_uniform", "load_population",
                   "save_population"),
    "cli": ("main",),
}

NAMES: tuple[str, ...] = tuple(f"{layer}.{fn}" for layer, fns in LAYERS.items() for fn in fns)


def _population_rows(args, kwargs, result) -> int:
    return len(args[0]) if result is None else len(result)


# extra work recorded per span: (args, kwargs, result) -> a count
WORK: dict[str, Callable] = {
    "download.optimize_download": lambda a, kw, r: len(r.intervals),
    "download.optimize_demands": lambda a, kw, r: len(a[0]),
    "cyclesim.simulate": lambda a, kw, r: len(a[0]) * a[1].horizon_days * a[1].hours_per_day,
    "population.generate_lognormal": _population_rows,
    "population.generate_codec_uniform": _population_rows,
    "population.load_population": _population_rows,
    "population.save_population": _population_rows,
}


class Span(NamedTuple):
    name: int  # index into NAMES
    start: float
    end: float
    parent: int  # index of the enclosing span, -1 at the top
    request: int
    work: int


class Tracer:
    """Records spans around every binding of the functions in LAYERS."""

    def __init__(self):
        self.spans: list[Span | None] = []
        self.request = -1
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, Callable]] = []

    def _wrap(self, index: int, fn: Callable) -> Callable:
        spans, stack = self.spans, self._stack
        work = WORK.get(NAMES[index])

        def traced(*args, **kwargs):
            me = len(spans)
            parent = stack[-1] if stack else -1
            spans.append(None)
            stack.append(me)
            start = time.perf_counter()
            result, done = None, False
            try:
                result = fn(*args, **kwargs)
                done = True
                return result
            finally:
                end = time.perf_counter()
                stack.pop()
                extra = work(args, kwargs, result) if done and work is not None else 0
                spans[me] = Span(index, start, end, parent, self.request, extra)

        return traced

    def install(self) -> None:
        modules = [m for name, m in list(sys.modules.items())
                   if name == "throttleplan" or name.startswith("throttleplan.")]
        for index, qualified in enumerate(NAMES):
            layer, fn_name = qualified.split(".")
            original = getattr(sys.modules[f"throttleplan.{layer}"], fn_name)
            wrapper = self._wrap(index, original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._patches.append((module, attr, original))
                        setattr(module, attr, wrapper)

    def remove(self) -> None:
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()


def span_cost(calls: int = 20000) -> float:
    """Seconds one traced call adds over a direct call, measured on a no-op."""

    def noop():
        return None

    wrapped = Tracer()._wrap(NAMES.index("regret.user_regret"), noop)
    t0 = time.perf_counter()
    for _ in range(calls):
        noop()
    t1 = time.perf_counter()
    for _ in range(calls):
        wrapped()
    t2 = time.perf_counter()
    return max((t2 - t1) - (t1 - t0), 0.0) / calls


class Profile(NamedTuple):
    """Per-function totals over a set of spans."""

    calls: dict[str, int]
    self_s: dict[str, float]
    work: dict[str, int]


def profile(spans: list[Span], request: int | None = None) -> Profile:
    """Calls, self time and work per function, optionally for one request.

    A span's self time is its duration minus the durations of its direct
    children; the children cover disjoint parts of the parent's interval.
    """
    child = [0.0] * len(spans)
    for s in spans:
        if s.parent >= 0:
            child[s.parent] += s.end - s.start
    calls = dict.fromkeys(NAMES, 0)
    self_s = dict.fromkeys(NAMES, 0.0)
    work = dict.fromkeys(NAMES, 0)
    for s, c in zip(spans, child):
        if request is not None and s.request != request:
            continue
        name = NAMES[s.name]
        calls[name] += 1
        self_s[name] += s.end - s.start - c
        work[name] += s.work
    return Profile(calls, self_s, work)


def write_spans(path, passes: list[tuple[float, list[Span]]]) -> None:
    """One CSV row per span; times in seconds from the start of its pass."""
    with open(path, "w") as fh:
        fh.write("pass,span,parent,request,name,start_s,end_s,work\n")
        for p, (t0, spans) in enumerate(passes):
            for i, s in enumerate(spans):
                fh.write(f"{p},{i},{s.parent},{s.request},{NAMES[s.name]},"
                         f"{s.start - t0:.9f},{s.end - t0:.9f},{s.work}\n")
