"""Run one benchmark workload and print its metrics.

Usage (from the repository root)::

    python3 perfbench/run.py --workload browse --seed 1 --seconds 10 --trace 0

The program under test is ``src/repro`` of the checkout this file sits
in; nothing is installed.  The run

1. builds the workload's inputs and program state from ``--seed``,
   ``SETUP_REPEATS`` times (``setup_s`` is the median);
2. runs one warm-up round with the full output checks;
3. runs a fixed number of timed rounds, ``--seconds`` divided by the
   workload's nominal round time ``ROUND_S``, checking that every
   round reproduces the warm-up round's outputs exactly.  Host times
   are each operation's median over the rounds.

With ``--trace 0`` the last line of standard output is the JSON result
with every end-to-end metric of ``BENCHMARK.json``.  With ``--trace 1``
untraced and traced rounds alternate: traced rounds install the
per-layer wrappers of ``layers.py`` and the program's own span
recorders, and the JSON result carries every per-layer metric,
including the tracing overhead.  The lines before it are a readable
table: machine fingerprint, every metric with its unit and sample
count, and per-operation latencies.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPEATS = 5
#: Fewest timed rounds a run makes; each operation's time is a median.
MIN_ROUNDS = 3
#: Timed rounds that run longer than this many times their planned
#: time (``--seconds``, or more if ``MIN_ROUNDS`` needs it) fail.
CEILING = 4

#: Host-time per-layer metrics: (metric, layer name, statistic).
LAYER_TIMES = (
    ("core.open.self_ms", "core.open", "self_ms"),
    ("text.format.self_ms", "text.format", "self_ms"),
    ("text.paginate.self_ms", "text.paginate", "self_ms"),
    ("formatter.rebuild.self_ms", "formatter.rebuild", "self_ms"),
    ("formatter.form.self_ms", "formatter.form", "self_ms"),
    ("compress.decode.self_ms", "compress.decode", "self_ms"),
    ("compress.encode.self_ms", "compress.encode", "self_ms"),
    ("audio.mulaw_decode.self_ms", "audio.mulaw_decode", "self_ms"),
    ("audio.mulaw_encode.self_ms", "audio.mulaw_encode", "self_ms"),
    ("audio.recognize.self_ms", "audio.recognize", "self_ms"),
    ("images.miniature.self_ms", "images.miniature", "self_ms"),
    ("storage.scatter.self_ms", "storage.scatter", "self_ms"),
    ("server.read_scattered.self_ms", "server.read_scattered", "self_ms"),
    ("server.store.self_ms", "server.store", "self_ms"),
    ("server.attach_recognition.self_ms", "server.attach_recognition", "self_ms"),
    ("index.parse.self_ms", "index.parse", "self_ms"),
    ("index.query.self_ms", "index.query", "self_ms"),
    ("index.query.wait_ms", "index.query", "wait_ms"),
    ("index.insert.self_ms", "index.insert", "self_ms"),
    ("index.flush.self_ms", "index.flush", "self_ms"),
    ("index.compact.self_ms", "index.compact", "self_ms"),
    ("cluster.store.self_ms", "cluster.store", "self_ms"),
    ("cluster.replay.self_ms", "cluster.replay", "self_ms"),
    ("delivery.run.self_ms", "delivery.run", "self_ms"),
)

#: Exact per-layer counts taken from the wrappers: (metric, layer).
LAYER_CALLS = (
    ("compress.decode.calls", "compress.decode"),
    ("index.query.calls", "index.query"),
    ("index.insert.calls", "index.insert"),
    ("index.flush.calls", "index.flush"),
    ("index.compact.calls", "index.compact"),
    ("cluster.replica_writes", "cluster.replica_write"),
)

#: Exact per-layer counts the workloads read from the program.
PROGRAM_COUNTS = (
    ("core.decoded_cache.hit_ratio", "ratio"),
    ("storage.cache.hit_ratio", "ratio"),
    ("storage.device.reads", "count"),
    ("storage.device.bytes", "bytes"),
    ("storage.device.busy_s", "s"),
    ("storage.journal.records", "count"),
    ("storage.journal.bytes", "bytes"),
    ("cluster.failovers", "count"),
    ("cluster.slo_stations", "stations"),
    ("delivery.underruns", "count"),
    ("delivery.page_p95_ms", "ms"),
)


def _fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def _git_sha() -> str:
    # The ceiling keeps git from finding a repository above the checkout.
    try:
        completed = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return completed.stdout.strip() if completed.returncode == 0 else "unknown"


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _reference_loop_ms() -> float:
    """A fixed pure-Python loop: how fast this interpreter runs today."""
    start = time.perf_counter()
    total = 0
    for value in range(1_000_000):
        total += value * value
    return (time.perf_counter() - start) * 1000.0


def _percentile(values: list[float], q: float) -> float:
    return float(numpy.percentile(values, q)) if values else 0.0


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _typical(rounds, kinds=None) -> list[float]:
    """Each operation's median host time over the rounds.

    Every round repeats the same operations in the same order, so the
    i-th sample of a kind is the same operation in every round.  The
    median of its samples is steady against the machine's second-to-
    second speed changes, where a minimum would depend on how many
    fast moments a run happened to catch.
    """
    kinds = kinds if kinds is not None else list(rounds[0].samples)
    columns = [[s for kind in kinds for s in r.samples.get(kind, [])] for r in rounds]
    return [statistics.median(samples) for samples in zip(*columns)]


def _rate(rounds) -> float:
    return rounds[0].ops / sum(_typical(rounds))


def _end_to_end(setup_times, rounds, first) -> dict[str, tuple[float, str]]:
    headline = _typical(rounds, first.headline)
    return {
        "setup_s": (statistics.median(setup_times), "s"),
        "ops_per_s": (_rate(rounds), "1/s"),
        "peak_rss_mb": (_peak_rss_mb(), "MB"),
        "op_p50_ms": (_percentile(headline, 50) * 1000.0, "ms"),
        "op_p99_ms": (_percentile(headline, 99) * 1000.0, "ms"),
        "modelled_open_p95_ms": (_percentile(first.modelled_open, 95) * 1000.0, "ms"),
        "stored_bytes_per_raw_byte": (first.stored_per_raw, "ratio"),
    }


def _layer_round(tracer, result, modelled) -> dict[str, float]:
    """Per-layer values of one traced round."""
    values = {}
    for metric, layer, stat in LAYER_TIMES:
        values[metric] = getattr(tracer.get(layer), stat)
    for metric, layer in LAYER_CALLS:
        values[metric] = tracer.get(layer).calls
    values["compress.decode.mb_out"] = tracer.get("compress.decode").bytes_out / 1e6
    encode = tracer.get("compress.encode")
    values["compress.stored_per_raw"] = (
        encode.bytes_out / encode.bytes_in if encode.bytes_in else 0.0
    )
    for metric, _unit in PROGRAM_COUNTS:
        values[metric] = result.counts.get(metric, 0)
    for kind, ms in modelled.items():
        values[f"modelled.{kind}.self_ms"] = ms
    return values


def _layer_units() -> dict[str, str]:
    from workloads import MODELLED_KINDS

    units = {metric: "ms" for metric, _, _ in LAYER_TIMES}
    units.update({metric: "count" for metric, _ in LAYER_CALLS})
    units["compress.decode.mb_out"] = "MB"
    units["compress.stored_per_raw"] = "ratio"
    units.update(dict(PROGRAM_COUNTS))
    units.update({f"modelled.{kind}.self_ms": "ms" for kind in MODELLED_KINDS})
    units["obs.overhead_pct"] = "%"
    return units


#: Per-layer metrics measured on the host clock; everything else repeats.
HOST_TIMED = {metric for metric, _, _ in LAYER_TIMES} | {"obs.overhead_pct"}


def _contract_errors(reported: dict, trace: int) -> list[str]:
    """Names and units must be exactly those ``BENCHMARK.json`` lists."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    listed = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    got = {name: metric["unit"] for name, metric in reported.items()}
    if listed == got:
        return []
    return [f"metrics differ from BENCHMARK.json: {sorted(set(listed) ^ set(got))}"]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "--workload", required=True, choices=("browse", "search", "ingest", "serve")
    )
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        return _fail("--seconds must be positive")

    # One CPU for the whole process, set before the program starts any
    # thread, so the index's shard pool hands work over on that CPU.
    # Across two vCPUs each hand-over waits for the host to wake the
    # other one, and that wait drifts (README.md, "Steadiness").
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})

    source = ROOT / "src" / "repro" / "__init__.py"
    if not source.is_file():
        return _fail(f"program sources not found: {source} is missing")
    sys.path.insert(0, str(ROOT / "src"))
    import repro

    if Path(repro.__file__).resolve() != source.resolve():
        return _fail(f"imported repro from {repro.__file__}, not {source}")
    from layers import LayerTracer
    from workloads import WORKLOADS, clock, modelled_self_ms

    print(f"perfbench {args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print(
        f"machine: sha={_git_sha()} python={platform.python_version()} "
        f"numpy={numpy.__version__} nproc={os.cpu_count()} pinned_cpu={cpu} "
        f"cpu={_cpu_model()!r} ref_loop_ms={_reference_loop_ms():.1f}"
    )

    # numpy generators take non-negative seeds; fold any integer onto them.
    seed = args.seed % (1 << 32)
    setup_times = []
    for _ in range(SETUP_REPEATS):
        # Each repeat builds a fresh instance after the last one is
        # freed, so the peak RSS holds one set-up, not two.
        workload = None
        gc.collect()
        workload = WORKLOADS[args.workload](seed)
        start = clock()
        workload.setup()
        setup_times.append(clock() - start)
    # Set-up objects live for the whole run: keep the collector from
    # re-scanning them during timed operations.
    gc.collect()
    gc.freeze()

    first = workload.run_round(verify=True)
    errors = list(first.errors)
    # A fixed number of rounds, sized from the workload's nominal round
    # time, so that a faster or slower program is sampled the same way.
    count = round(args.seconds / (workload.ROUND_S * (1 + args.trace)))
    count = max(MIN_ROUNDS, count)
    limit_s = CEILING * max(args.seconds, count * workload.ROUND_S * (1 + args.trace))
    plain, traced = [], []
    tracer = LayerTracer()
    started = time.perf_counter()
    for _ in range(count):
        if time.perf_counter() - started > limit_s:
            errors.append(f"timed rounds ran over {limit_s:.0f} s; "
                          f"stopped after {len(plain)} of {count}")
            break
        gc.collect()
        plain.append(workload.run_round())
        if args.trace:
            gc.collect()
            tracer.reset()
            tracer.install()
            try:
                result = workload.run_round(traced=True)
            finally:
                tracer.uninstall()
            traced.append(
                (result, _layer_round(tracer, result, modelled_self_ms(result.recorders)))
            )
    measured_s = time.perf_counter() - started
    for result in plain + [r for r, _ in traced]:
        errors += result.errors
        if result.digest != first.digest:
            errors.append("a round's outputs differ from the first round's")
    layer_rounds = [values for _, values in traced]
    for values in layer_rounds[1:]:
        for metric, value in values.items():
            if metric not in HOST_TIMED and value != layer_rounds[0][metric]:
                errors.append(f"per-layer count {metric} differs between rounds")

    rounds = plain + [r for r, _ in traced]
    attempted = first.ops + sum(r.ops for r in rounds)
    failed = first.failed + sum(r.failed for r in rounds) + len(errors)
    end_to_end = _end_to_end(setup_times, plain, first)

    print(f"setup: {SETUP_REPEATS} repeats, seconds "
          + " ".join(f"{t:.3f}" for t in setup_times))
    print(f"rounds: {len(plain)} untraced, {len(traced)} traced, "
          f"{first.ops} operations each, {measured_s:.2f} s in all")
    print("end-to-end metrics (untraced rounds):")
    for name, (value, unit) in end_to_end.items():
        print(f"  {name:28s} {value:14.6f} {unit}")
    print(f"  {'error_rate':28s} {failed / max(attempted, 1):14.6f} ratio "
          f"({failed} of {attempted} operations)")
    print("operations (median time per operation over the untraced rounds):")
    for kind in first.samples:
        values = _typical(plain, [kind])
        print(f"  {kind + '_p50_ms':28s} {_percentile(values, 50) * 1000:14.6f} ms"
              f"   {kind + '_p99_ms':20s} {_percentile(values, 99) * 1000:12.6f} ms"
              f"   n={len(values)}")
    if "open_cold" in first.samples:
        cold = len(first.samples["open_cold"])
        opens = cold + len(first.samples.get("open_warm", []))
        print(f"  cold open share: {cold / opens:.3f} ({cold} of {opens} opens "
              f"per round)")
    for error in errors[:20]:
        print(f"error: {error}")

    if args.trace:
        units = _layer_units()
        metrics = {}
        for metric in units:
            if metric == "obs.overhead_pct":
                continue
            series = [values[metric] for values in layer_rounds]
            metrics[metric] = (
                statistics.median(series) if metric in HOST_TIMED else series[0]
            )
        plain_rate = _rate(plain)
        traced_rate = _rate([r for r, _ in traced])
        metrics["obs.overhead_pct"] = (plain_rate - traced_rate) / plain_rate * 100.0
        print(f"tracing overhead: untraced {plain_rate:.1f} ops/s, traced "
              f"{traced_rate:.1f} ops/s ({metrics['obs.overhead_pct']:.1f}%)")
        print("per-layer metrics (traced rounds; times are medians per round):")
        for metric, value in metrics.items():
            print(f"  {metric:36s} {value:16.6f} {units[metric]}")
        reported = {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()}
    else:
        reported = {name: {"value": value, "unit": unit}
                    for name, (value, unit) in end_to_end.items()}

    errors += _contract_errors(reported, args.trace)
    print(json.dumps({
        "correct": not errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": reported,
    }))
    return 0 if not errors else 1


if __name__ == "__main__":
    sys.exit(main())
