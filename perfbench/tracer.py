"""Run one axiomlab CLI command in process, timing and counting calls per module.

    PYTHONPATH=src python3 perfbench/tracer.py <axiomlab arguments...>

Prints one JSON object: the CLI's exit code and report, the traced wall time,
each layer's self time, and call counts.  The package itself is not modified:
wrappers are installed on the names each calling module looks up (for example
``axiomlab.axioms.evaluate_lottery``), so only calls that cross from one layer
into another open a span, and a layer's self time excludes the spans it opens.
The self times therefore sum to the traced wall time.
"""

from __future__ import annotations

import contextlib
import importlib
import inspect
import io
import json
import sys
import time

#: Module -> layer.  ``jsonio`` is the CLI's file-format half, so it joins ``cli``.
LAYER_OF = {
    "axiomlab.cli": "cli",
    "axiomlab.jsonio": "cli",
    "axiomlab.theorems": "theorems",
    "axiomlab.axioms": "axioms",
    "axiomlab.rules": "rules",
    "axiomlab.matchings": "matchings",
    "axiomlab.preferences": "preferences",
    "axiomlab.model": "model",
}
LAYERS = tuple(dict.fromkeys(LAYER_OF.values()))

#: O(1) rank lookups called ~10^7 times per run; a span would cost more than the
#: call, so their time stays with the caller.
INLINE = frozenset({"prefers", "weakly_prefers", "preference_ranks"})

#: Functions whose every call is counted, under ``key + ":all"``, including the
#: calls their own module makes; those calls open no span.
COUNTED_INSIDE = {
    "axiomlab.rules": ("serial_dictatorship",),
    "axiomlab.matchings": ("pareto_dominates",),
}


class Tracer:
    """Per-layer self times and per-function call counts.

    Time is charged to whichever layer is running: a span switches the
    current layer on entry and switches it back on exit, charging the time
    since the last switch to the layer that was running until then.
    """

    def __init__(self) -> None:
        self.self_s = [0.0] * len(LAYERS)
        self.state = [LAYERS.index("cli"), 0.0]  # current layer, time of the last switch
        self.counters: list[tuple[str, object]] = []  # (key, getter) pairs
        self.fail_verdicts = 0
        self.profiles_checked = 0

    def counted(self, fn, key):
        """Count every call of ``fn`` under ``key``; no span."""
        calls = 0

        def wrapper(*args, **kwargs):
            nonlocal calls
            calls += 1
            return fn(*args, **kwargs)

        self.counters.append((key, lambda: calls))
        wrapper.__module__, wrapper.__name__ = fn.__module__, fn.__name__
        return wrapper

    def span(self, layer_name, fn, key, count_true=False):
        """Wrap ``fn`` so that a call from another layer is charged to ``layer_name``.

        With ``count_true``, calls returning a true value are counted under
        ``key + ":true"``.
        """
        layer = LAYERS.index(layer_name)
        state, self_s, clock = self.state, self.self_s, time.perf_counter
        calls = hits = 0

        def wrapper(*args, **kwargs):
            nonlocal calls, hits
            calls += 1
            caller = state[0]
            if caller == layer:
                result = fn(*args, **kwargs)
            else:
                now = clock()
                self_s[caller] += now - state[1]
                state[0], state[1] = layer, now
                try:
                    result = fn(*args, **kwargs)
                finally:
                    now = clock()
                    self_s[layer] += now - state[1]
                    state[0], state[1] = caller, now
            if count_true and result:
                hits += 1
            return result

        self.counters.append((key, lambda: calls))
        if count_true:
            self.counters.append((key + ":true", lambda: hits))
        return wrapper

    def _observe_check(self, fn):
        def wrapper(*args, **kwargs):
            report = fn(*args, **kwargs)
            self.fail_verdicts += not report.passed
            self.profiles_checked += report.profiles_checked
            return report

        return wrapper

    def install(self) -> None:
        modules = {name: importlib.import_module(name) for name in LAYER_OF}
        for name, functions in COUNTED_INSIDE.items():
            module = modules[name]
            for fn_name in functions:
                key = f"{name.rsplit('.', 1)[1]}.{fn_name}:all"
                setattr(module, fn_name, self.counted(getattr(module, fn_name), key))
        for name, module in modules.items():
            layer = LAYER_OF[name]
            for attr, value in list(vars(module).items()):
                if not inspect.isfunction(value) or value.__name__ in INLINE:
                    continue
                origin = LAYER_OF.get(value.__module__)
                if origin is None or origin == layer:
                    continue
                target = getattr(modules[value.__module__], value.__name__)
                key = f"{value.__module__.rsplit('.', 1)[1]}.{value.__name__}"
                if key == "axioms.check_axiom":
                    target = self._observe_check(target)
                count_true = key == "preferences.is_monotonic_transformation"
                setattr(module, attr, self.span(origin, target, key, count_true))
        lottery = modules["axiomlab.rules"].Lottery
        lottery.__init__ = self.span("rules", lottery.__init__, "rules.Lottery")

    def run(self, argv: list[str]) -> dict:
        from axiomlab import cli

        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            start = self.state[1] = time.perf_counter()
            code = cli.run(argv)
            end = time.perf_counter()
        self.self_s[self.state[0]] += end - self.state[1]
        calls: dict[str, int] = {}
        for key, getter in self.counters:
            calls[key] = calls.get(key, 0) + getter()
        return {
            "exit": code,
            "report": json.loads(out.getvalue()),
            "wall_s": end - start,
            "self_s": dict(zip(LAYERS, self.self_s)),
            "calls": calls,
            "fail_verdicts": self.fail_verdicts,
            "profiles_checked": self.profiles_checked,
        }


def main() -> None:
    tracer = Tracer()
    tracer.install()
    print(json.dumps(tracer.run(sys.argv[1:])))


if __name__ == "__main__":
    main()
