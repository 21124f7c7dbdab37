"""Counts and times calls into relci's public functions, from outside the program.

``Tracer.install`` wraps every function listed in the ``__all__`` of each
layer module, plus ``relci.cli.main``, and rebinds the wrapper under
every name that refers to the original in any loaded ``relci`` module.
Names are resolved where they are looked up: ``positivity_margin``
finds ``pushforward_rank`` and ``binom_trunc`` through
``relci.invariants``, and ``relci.verdicts`` bound ``positivity_margin``
at import, so rebinding only the defining module would miss calls.

Each wrapper records a span; a span's self time is its duration minus
that of the traced calls it made.  Spans stay in memory and are summed
into ``snapshot()`` at the end of the run.
"""

from __future__ import annotations

import inspect
import sys
from collections import Counter, defaultdict
from time import perf_counter

LAYERS = ("exact", "invariants", "verdicts", "bundles", "oracles")
KOSZUL = ("invariants.pushforward_rank", "invariants.pushforward_degree")


class Tracer:
    def __init__(self) -> None:
        self.calls: Counter[str] = Counter()
        self.total: defaultdict[str, float] = defaultdict(float)
        self.self_time: defaultdict[str, float] = defaultdict(float)
        self.repeat_calls = 0
        self._stack: list[float] = []  # time spent in traced children, per open span
        self._seen: set = set()
        self._patches: list[tuple[object, str, object]] = []

    def begin_operation(self) -> None:
        """Start a new operation: Koszul repeats are counted within one operation."""
        self._seen.clear()

    def _wrap(self, name: str, fn):
        stack, calls, total, self_time = self._stack, self.calls, self.total, self.self_time
        koszul = name in KOSZUL

        def traced(*args, **kwargs):
            if koszul:
                key = (name, *args)
                if key in self._seen:
                    self.repeat_calls += 1
                else:
                    self._seen.add(key)
            stack.append(0.0)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                spent = perf_counter() - start
                children = stack.pop()
                calls[name] += 1
                total[name] += spent
                self_time[name] += spent - children
                if stack:
                    stack[-1] += spent

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        import relci.cli  # noqa: F401  (loads every layer module)

        originals: dict[int, object] = {}
        for layer in LAYERS:
            mod = sys.modules[f"relci.{layer}"]
            for attr in mod.__all__:
                fn = getattr(mod, attr)
                if inspect.isfunction(fn) and fn.__module__ == mod.__name__:
                    originals[id(fn)] = self._wrap(f"{layer}.{attr}", fn)
        main = sys.modules["relci.cli"].main
        originals[id(main)] = self._wrap("cli.main", main)
        for modname, mod in list(sys.modules.items()):
            if modname != "relci" and not modname.startswith("relci."):
                continue
            for attr, val in list(vars(mod).items()):
                wrapper = originals.get(id(val))
                if wrapper is not None:
                    self._patches.append((mod, attr, val))
                    setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for mod, attr, val in reversed(self._patches):
            setattr(mod, attr, val)
        self._patches.clear()

    def snapshot(self) -> dict:
        return {
            "calls": dict(self.calls),
            "ms": {k: v * 1e3 for k, v in self.total.items()},
            "self_ms": {k: v * 1e3 for k, v in self.self_time.items()},
            "repeat_calls": self.repeat_calls,
        }


def merge(snapshots: list[dict]) -> dict:
    """Sum the snapshots of several traced processes."""
    out: dict = {"calls": Counter(), "ms": Counter(), "self_ms": Counter(), "repeat_calls": 0}
    for snap in snapshots:
        for key in ("calls", "ms", "self_ms"):
            out[key].update(snap[key])
        out["repeat_calls"] += snap["repeat_calls"]
    return out
