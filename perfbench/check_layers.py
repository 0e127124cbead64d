"""Self-check of the per-layer wrappers on synthetic functions.

Verifies that self time is charged to the right layer under nesting
(outer -> middle -> inner), that a re-entrant call is counted once, and
that uninstalling restores the original functions.

Usage (from the repository root)::

    python3 perfbench/check_layers.py
"""

from __future__ import annotations

import sys
import time
import types

from layers import LayerTracer

SLEEP_S = {"outer": 0.030, "middle": 0.020, "inner": 0.010}


def _module() -> types.ModuleType:
    module = types.ModuleType("perfbench_synthetic")

    def outer():
        time.sleep(SLEEP_S["outer"])
        module.middle()

    def middle():
        time.sleep(SLEEP_S["middle"])
        module.inner(again=True)

    def inner(again=False):
        time.sleep(SLEEP_S["inner"])
        if again:
            module.inner()  # re-enters the inner layer

    module.outer, module.middle, module.inner = outer, middle, inner
    sys.modules[module.__name__] = module
    return module


def main() -> int:
    module = _module()
    originals = (module.outer, module.middle, module.inner)
    tracer = LayerTracer(
        [(name, module.__name__, name, None) for name in SLEEP_S]
    )
    tracer.install()
    try:
        module.outer()
    finally:
        tracer.uninstall()
    problems = []
    if (module.outer, module.middle, module.inner) != originals:
        problems.append("uninstall did not restore the originals")
    expected = dict(SLEEP_S, inner=2 * SLEEP_S["inner"])
    for name, seconds in expected.items():
        stats = tracer.get(name)
        if stats.calls != 1:
            problems.append(f"{name}: {stats.calls} calls recorded, expected 1")
        got = stats.self_ms / 1000.0
        if not seconds <= got < seconds + 0.008:
            problems.append(f"{name}: self time {got:.4f}s, expected {seconds:.4f}s")
        print(f"{name}: calls={stats.calls} self_ms={stats.self_ms:.2f} "
              f"wait_ms={stats.wait_ms:.2f}")
    for problem in problems:
        print(f"FAIL {problem}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
