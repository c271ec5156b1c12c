"""Spans around the public functions of each layer, aggregated as they close.

The traced run replaces each target function with a wrapper that opens a span
on entry and closes it on return.  Spans nest on one stack (the benchmark
runs one thread), and a closing span hands its duration to its parent, so

    self time = span duration - time covered by its child spans.

``total_s`` counts only the outermost span of a function, so a function that
calls itself is not counted twice.  Work that the benchmark itself does inside
a span tree, such as counting kept pairs, runs with the clock paused.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

# (module, attribute path inside it, metric prefix).  Every binding of the
# same function object in any kalmandeg module is replaced, so a call is
# traced under whichever name the calling module imported it by.
TARGETS = (
    ("polycore", "poly_mul", "polycore.poly_mul"),
    ("polycore", "TPoly.__add__", "polycore.TPoly.add"),
    ("polycore", "det", "polycore.det"),
    ("degrees", "extract_degree", "degrees.extract_degree"),
    ("genfun", "expand_series", "genfun.expand_series"),
    ("genfun", "RationalSeries.expand", "genfun.RationalSeries.expand"),
    ("genfun", "build_H", "genfun.build_H"),
    ("genfun", "build_H_via_determinant", "genfun.build_H_via_determinant"),
    ("genfun", "macmahon_check", "genfun.macmahon_check"),
    ("isotropic", "isotropic_degree", "isotropic.isotropic_degree"),
    ("isotropic", "isotropic_degree_symmetric", "isotropic.isotropic_degree_symmetric"),
    ("asympt", "verify_critical_point", "asympt.verify_critical_point"),
    ("asympt", "compare_exact_asymptotic", "asympt.compare_exact_asymptotic"),
    ("cli", "main", "cli.main"),
)

BASE_METRICS = (("calls", "count"), ("self_s", "s"), ("total_s", "s"), ("errors", "count"))
EXTRA_METRICS = {
    "polycore.poly_mul": (("pairs", "count"), ("kept_frac", "frac"), ("out_terms", "count"), ("peak_terms", "count")),
    "cli.main": (("out_bytes", "B"),),
}


def metric_units() -> dict[str, str]:
    """Every per-layer metric name with its unit, in report order."""
    out = {}
    for _, _, prefix in TARGETS:
        for name, unit in BASE_METRICS + EXTRA_METRICS.get(prefix, ()):
            out[f"{prefix}.{name}"] = unit
    out["trace_overhead_frac"] = "frac"
    return out


@dataclass
class Stat:
    calls: int = 0
    self_s: float = 0.0
    total_s: float = 0.0
    errors: int = 0
    extra: dict = field(default_factory=dict)


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self._clock = clock
        self._paused = 0.0
        self._stack: list[list] = []  # [name, start, child seconds]
        self._depth: dict[str, int] = {}
        self.stats: dict[str, Stat] = {}

    def now(self) -> float:
        return self._clock() - self._paused

    def enter(self, name: str) -> None:
        self._depth[name] = self._depth.get(name, 0) + 1
        self._stack.append([name, self.now(), 0.0])

    def exit(self, error: bool = False) -> None:
        end = self.now()
        name, start, child = self._stack.pop()
        duration = end - start
        st = self.stats.setdefault(name, Stat())
        st.calls += 1
        st.self_s += duration - child
        self._depth[name] -= 1
        if self._depth[name] == 0:
            st.total_s += duration
        if error:
            st.errors += 1
        if self._stack:
            self._stack[-1][2] += duration

    @contextmanager
    def paused(self):
        t0 = self._clock()
        try:
            yield
        finally:
            self._paused += self._clock() - t0

    def add(self, name: str, key: str, value: int) -> None:
        extra = self.stats.setdefault(name, Stat()).extra
        extra[key] = extra.get(key, 0) + value

    def peak(self, name: str, key: str, value: int) -> None:
        extra = self.stats.setdefault(name, Stat()).extra
        extra[key] = max(extra.get(key, 0), value)


def _poly_mul_counts(tracer: Tracer, name: str, args: tuple, result) -> None:
    ta, tb, tr = args[0].terms, args[1].terms, result.terms
    caps = result.caps
    if caps is None:
        kept = len(ta) * len(tb)
    else:
        kept = 0
        for e1 in ta:
            room = [c - x for c, x in zip(caps, e1)]
            kept += sum(1 for e2 in tb if all(y <= r for y, r in zip(e2, room)))
    tracer.add(name, "pairs", len(ta) * len(tb))
    tracer.add(name, "kept", kept)
    tracer.add(name, "out_terms", len(tr))
    tracer.peak(name, "peak_terms", max(len(ta), len(tb), len(tr)))


def _wrap(fn, name: str, tracer: Tracer):
    counts = _poly_mul_counts if name == "polycore.poly_mul" else None

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        tracer.enter(name)
        try:
            result = fn(*args, **kwargs)
        except BaseException:
            tracer.exit(error=True)
            raise
        tracer.exit()
        if counts is not None:
            with tracer.paused():
                try:
                    counts(tracer, name, args, result)
                except (AttributeError, TypeError):  # the engine no longer exposes term maps
                    tracer.add(name, "uncounted", 1)
        return result

    return traced


class Patch:
    """Installs the wrappers; ``absent`` lists targets the package no longer has."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self.absent: list[str] = []
        self._undo: list[tuple[object, str, object]] = []

    def install(self) -> None:
        for module_name, path, prefix in TARGETS:
            try:
                module = importlib.import_module(f"kalmandeg.{module_name}")
                owner = module
                *parents, attr = path.split(".")
                for part in parents:
                    owner = getattr(owner, part)
                original = getattr(owner, attr)
            except (ImportError, AttributeError):
                self.absent.append(prefix)
                continue
            wrapper = _wrap(original, prefix, self.tracer)
            if parents:  # a method: patch the class that defines it
                self._set(owner, attr, wrapper)
                continue
            for mod_name, mod in list(sys.modules.items()):
                if mod is None or not (mod_name == "kalmandeg" or mod_name.startswith("kalmandeg.")):
                    continue
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._set(mod, key, wrapper)

    def _set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def remove(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Every per-layer value except the overhead; absent targets read 0."""
    out: dict[str, float] = {}
    for _, _, prefix in TARGETS:
        st = tracer.stats.get(prefix, Stat())
        out[f"{prefix}.calls"] = st.calls
        out[f"{prefix}.self_s"] = st.self_s
        out[f"{prefix}.total_s"] = st.total_s
        out[f"{prefix}.errors"] = st.errors
    pm = tracer.stats.get("polycore.poly_mul", Stat()).extra
    out["polycore.poly_mul.pairs"] = pm.get("pairs", 0)
    out["polycore.poly_mul.kept_frac"] = pm.get("kept", 0) / pm["pairs"] if pm.get("pairs") else 0.0
    out["polycore.poly_mul.out_terms"] = pm.get("out_terms", 0)
    out["polycore.poly_mul.peak_terms"] = pm.get("peak_terms", 0)
    out["cli.main.out_bytes"] = tracer.stats.get("cli.main", Stat()).extra.get("out_bytes", 0)
    return out
