"""Layer spans recorded from outside the library.

The tracer wraps the public functions of every ``orthobounds`` module, in
every module namespace that refers to them, for the length of a traced run.
A wrapped call records a span only when it crosses a layer boundary: the
calling frame belongs to another module (or to the benchmark itself).  Calls
inside one module stay unspanned, so their time is that module's self time.
The one exception is the suite's per-check functions, which are spanned even
when ``run_suite`` calls them, because the benchmark reports time per check.
Classes (constructors, class methods) are never wrapped; their time falls to
the calling layer.

Spans are aggregated as they close (calls, total time, self time per span
name) rather than stored, so a long traced run keeps a constant footprint.
Self time is a span's duration minus the time covered by its child spans.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import pkgutil
import sys
import time
from dataclasses import dataclass, field

#: Span name of one benchmark unit, the root of every other span.
ROOT_SPAN = "bench.op"

#: Intra-module calls that are spanned anyway: (module, name prefix).
ALWAYS_SPANNED = (("suite", "check_"),)


@dataclass
class SpanStats:
    calls: int = 0
    total: float = 0.0
    self_time: float = 0.0


@dataclass
class Tracer:
    """Wraps a package's public functions and aggregates their spans.

    ``keep`` names spans (``"module.function"``) whose arguments and results
    are retained in ``kept`` until the caller drains it, for counters that
    need to look at what a call produced.
    """

    keep: frozenset = frozenset()
    stats: dict = field(default_factory=dict)
    kept: list = field(default_factory=list)
    _stack: list = field(default_factory=list)
    _patched: list = field(default_factory=list)

    def install(self, package) -> None:
        """Wrap every public function of ``package``'s modules in place."""
        modules = [
            importlib.import_module(f"{package.__name__}.{info.name}")
            for info in pkgutil.iter_modules(package.__path__)
        ]
        owners = {mod.__name__ for mod in modules}
        wrappers = {}
        for mod in modules:
            for name, value in list(vars(mod).items()):
                if name.startswith("_") or not inspect.isfunction(value):
                    continue
                if value.__module__ not in owners:
                    continue
                if value not in wrappers:
                    wrappers[value] = self._wrap(value)
                self._patched.append((mod, name, value))
                setattr(mod, name, wrappers[value])

    def uninstall(self) -> None:
        for mod, name, value in reversed(self._patched):
            setattr(mod, name, value)
        self._patched.clear()

    def _wrap(self, fn):
        module = fn.__module__
        layer = module.rsplit(".", 1)[-1]
        span_name = f"{layer}.{fn.__name__}"
        always = any(
            layer == mod and fn.__name__.startswith(prefix)
            for mod, prefix in ALWAYS_SPANNED
        )
        keep = span_name in self.keep
        stats = self.stats.setdefault(span_name, SpanStats())
        stack = self._stack
        kept = self.kept
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not always and sys._getframe(1).f_globals.get("__name__") == module:
                return fn(*args, **kwargs)
            frame = [0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                stats.calls += 1
                stats.total += elapsed
                stats.self_time += elapsed - frame[0]
                if stack:
                    stack[-1][0] += elapsed
            if keep:
                kept.append((span_name, args, result))
            return result

        return traced

    def root(self, fn):
        """Run ``fn`` as a root span of the benchmark layer."""
        stats = self.stats.setdefault(ROOT_SPAN, SpanStats())
        frame = [0.0]
        self._stack.append(frame)
        start = time.perf_counter()
        try:
            return fn()
        finally:
            elapsed = time.perf_counter() - start
            self._stack.pop()
            stats.calls += 1
            stats.total += elapsed
            stats.self_time += elapsed - frame[0]

    def layer_self_time(self, layer: str) -> float:
        prefix = layer + "."
        return sum(s.self_time for name, s in self.stats.items() if name.startswith(prefix))

    def calls(self, *names: str) -> int:
        return sum(self.stats[n].calls for n in names if n in self.stats)

    def total(self, *names: str) -> float:
        return sum(self.stats[n].total for n in names if n in self.stats)

    def mean(self, *names: str) -> float:
        """Mean span duration in seconds over ``names``; 0 when never called."""
        calls = self.calls(*names)
        return self.total(*names) / calls if calls else 0.0
