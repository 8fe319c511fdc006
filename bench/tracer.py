"""Per-layer tracing from outside the package.

``Tracer`` replaces each public function of the traced modules with a wrapper
that records one span per call, also under every name another ``sqw`` module
imported it as (``sqw.twoqubit.herm_eigen``, ``sqw.cli.concurrence_oracle``,
the package's re-exports). Spans are kept in memory as
``(name, start_ns, end_ns, parent)`` and written out at the end; a span's self
time is its duration minus that of its direct children. ``uninstall`` puts
every original object back. Single-threaded use only: the open-span stack is
shared.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from collections import Counter

PACKAGE = "sqw"
#: Layers in call order, named after their modules.
LAYERS = ("linalg", "twoqubit", "xworld", "s3world", "permworld", "cli")
#: Spans split by argument: ``cli.main`` gets one span name per subcommand.
SPLIT = {"cli.main": lambda args: args[0][0]}


def public_functions(module) -> dict[str, object]:
    """Public functions defined in ``module``, cached ones included."""
    return {
        name: obj
        for name, obj in vars(module).items()
        if not name.startswith("_")
        and inspect.isfunction(inspect.unwrap(obj))
        and obj.__module__ == module.__name__
    }


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.errors: Counter = Counter()
        self.cache_hits: Counter = Counter()
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    # -- installation --------------------------------------------------------

    def install(self) -> "Tracer":
        wrappers = {}  # id(original) -> wrapper
        for layer in LAYERS:
            module = importlib.import_module(f"{PACKAGE}.{layer}")
            for name, fn in public_functions(module).items():
                wrappers[id(fn)] = self._wrap(f"{layer}.{name}", fn)
        for modname, module in list(sys.modules.items()):
            if module is None or not (
                modname == PACKAGE or modname.startswith(PACKAGE + ".")
            ):
                continue
            for attr, obj in list(vars(module).items()):
                wrapper = wrappers.get(id(obj))
                if wrapper is not None:
                    self._patched.append((module, attr, obj))
                    setattr(module, attr, wrapper)
        return self

    def uninstall(self) -> None:
        while self._patched:
            module, attr, original = self._patched.pop()
            setattr(module, attr, original)

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def _wrap(self, name: str, fn):
        spans, stack, errors = self.spans, self._stack, self.errors
        label = SPLIT.get(name)
        cache_info = getattr(fn, "cache_info", None)
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            span_name = f"{name}.{label(args)}" if label else name
            hits = cache_info().hits if cache_info else 0
            start = clock()
            try:
                return fn(*args, **kwargs)
            except Exception:
                errors[span_name] += 1
                raise
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (span_name, start, end, parent)
                if cache_info:
                    self.cache_hits[span_name] += cache_info().hits - hits

        return wrapper

    # -- analysis -------------------------------------------------------------

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: ``calls`` and ``self_s``."""
        child_ns = [0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        calls: Counter = Counter()
        self_ns: Counter = Counter()
        for i, (name, start, end, _) in enumerate(self.spans):
            calls[name] += 1
            self_ns[name] += end - start - child_ns[i]
        return {n: {"calls": calls[n], "self_s": self_ns[n] / 1e9} for n in calls}

    def children_per_call(self, parent_name: str, child_name: str) -> list[int]:
        """For each ``parent_name`` span, the ``child_name`` spans nested anywhere under it."""
        counts = {i: 0 for i, s in enumerate(self.spans) if s[0] == parent_name}
        for name, _, _, parent in self.spans:
            if name != child_name:
                continue
            while parent >= 0:
                if parent in counts:
                    counts[parent] += 1
                    break
                parent = self.spans[parent][3]
        return list(counts.values())

    def write(self, path) -> None:
        """Spans as CSV lines ``name,start_ns,end_ns,parent``."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("name,start_ns,end_ns,parent\n")
            for name, start, end, parent in self.spans:
                fh.write(f"{name},{start},{end},{parent}\n")
