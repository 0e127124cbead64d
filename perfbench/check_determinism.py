"""Determinism self-check for the benchmark.

Runs every workload twice with the same seed, untraced and traced, and
requires exactly equal values for the deterministic end-to-end metrics
(``stored_bytes_per_raw_byte``, ``modelled_open_p95_ms``) and for every
per-layer count (calls, bytes, reads, hit ratios, modelled times).
Then it runs each workload once on a held-out seed, which must pass
its output checks.  Host timings are not compared.

Usage (from the repository root)::

    python3 perfbench/check_determinism.py

Exits 0 when everything matches, 1 otherwise.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("browse", "search", "ingest", "serve")
SEED = 1
#: Never used while building the benchmark; later claims are checked on it.
HOLDOUT_SEED = 9173
SECONDS = 2.0
DETERMINISTIC_END_TO_END = ("stored_bytes_per_raw_byte", "modelled_open_p95_ms")


def _run(workload: str, seed: int, trace: int, seconds: float) -> dict:
    completed = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=HERE.parent, capture_output=True, text=True, timeout=600,
    )
    lines = completed.stdout.strip().splitlines()
    if completed.returncode != 0 or not lines:
        raise RuntimeError(
            f"{workload} seed {seed} trace {trace} exited "
            f"{completed.returncode}:\n{completed.stdout}\n{completed.stderr}"
        )
    return json.loads(lines[-1])


def _host_timed() -> set[str]:
    sys.path.insert(0, str(HERE))
    from run import HOST_TIMED

    return HOST_TIMED


def main() -> int:
    host_timed = _host_timed()
    problems = []
    for workload in WORKLOADS:
        for trace, names in ((0, DETERMINISTIC_END_TO_END), (1, None)):
            first = _run(workload, SEED, trace, SECONDS)
            second = _run(workload, SEED, trace, SECONDS)
            compared = names or [m for m in first["metrics"] if m not in host_timed]
            for name in compared:
                a = first["metrics"][name]["value"]
                b = second["metrics"][name]["value"]
                if a != b:
                    problems.append(f"{workload} trace={trace} {name}: {a} != {b}")
            print(f"{workload} trace={trace}: {len(compared)} values compared")
        held_out = _run(workload, HOLDOUT_SEED, 0, SECONDS)
        if not held_out["correct"] or held_out["failed"]:
            problems.append(f"{workload} seed {HOLDOUT_SEED} failed its checks")
        print(f"{workload} held-out seed {HOLDOUT_SEED}: "
              f"correct={held_out['correct']}")
    for problem in problems:
        print(f"MISMATCH {problem}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
