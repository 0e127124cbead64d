"""Per-layer wrappers for the benchmark's traced run.

The traced run measures each layer from outside the program: it
replaces a module or class attribute with a wrapper that times the
call, and puts the original back afterwards.  Each wrapper is installed
at the attribute where the *caller* looks the function up.  For
example, ``Archiver.decode_piece`` calls the ``decode_frame`` that
``repro.server.archiver`` imported, so that binding is patched as well
as the one in ``repro.compress.frame``.

Self time is a call's wall time minus the wall time of the wrapped
calls nested inside it on the same thread, so nesting such as
``server.store`` -> ``formatter.form`` -> ``compress.encode`` charges
each layer only for its own work.  CPU time uses the same rule with the
thread's CPU clock, and wall minus CPU is time spent waiting (for the
index's shard pool, for example).  A call that re-enters a layer that
is already on the thread's stack is not recorded again; its time
stays in the outer call's self time.
"""

from __future__ import annotations

import importlib
import threading
import time
from dataclasses import dataclass


@dataclass
class LayerStats:
    """What one layer name accumulated while the wrappers were installed."""

    calls: int = 0
    self_wall_ns: int = 0
    self_cpu_ns: int = 0
    bytes_in: int = 0
    bytes_out: int = 0

    @property
    def self_ms(self) -> float:
        return self.self_wall_ns / 1e6

    @property
    def wait_ms(self) -> float:
        return max(self.self_wall_ns - self.self_cpu_ns, 0) / 1e6


def _piece_bytes(args, result) -> tuple[int, int]:
    """Bytes in and out of ``encode_piece(raw, kind) -> (frame, codec)``
    and ``decode_frame(frame) -> (raw, codec)``."""
    return len(args[0]), len(result[0])


#: (layer name, module, attribute path, byte counter).  One layer name
#: may cover several bindings of the same function.
TARGETS = (
    ("core.open", "repro.core.manager", "PresentationManager.open", None),
    ("text.format", "repro.text.formatter", "TextFormatter.format", None),
    ("text.paginate", "repro.text.pagination", "Paginator.paginate", None),
    ("formatter.form", "repro.formatter.builder", "ObjectFormatter.form", None),
    ("formatter.rebuild", "repro.formatter.builder", "rebuild_object", None),
    ("formatter.rebuild", "repro.server.archiver", "rebuild_object", None),
    ("compress.encode", "repro.formatter.builder", "encode_piece", _piece_bytes),
    ("compress.decode", "repro.compress.frame", "decode_frame", _piece_bytes),
    ("compress.decode", "repro.server.archiver", "decode_frame", _piece_bytes),
    ("audio.mulaw_encode", "repro.formatter.serialize", "mu_law_encode", None),
    ("audio.mulaw_decode", "repro.formatter.serialize", "mu_law_decode", None),
    ("audio.recognize", "repro.audio.recognition",
     "VocabularyRecognizer.recognize", None),
    ("images.miniature", "repro.server.query", "make_miniature", None),
    ("storage.scatter", "repro.server.archiver", "plan_scatter", None),
    ("storage.scatter", "repro.server.archiver", "gather", None),
    ("server.store", "repro.server.archiver", "Archiver.store", None),
    ("server.read_scattered", "repro.server.archiver",
     "Archiver.read_scattered", None),
    ("server.attach_recognition", "repro.server.archiver",
     "Archiver.attach_recognition", None),
    ("index.parse", "repro.server.query", "parse_query", None),
    ("index.parse", "repro.index.archive_index", "parse_query", None),
    ("index.query", "repro.index.archive_index", "ArchiveIndex.query", None),
    ("index.query", "repro.index.archive_index",
     "ArchiveIndex.search_terms", None),
    ("index.insert", "repro.index.archive_index",
     "ArchiveIndex.insert_object", None),
    ("index.insert", "repro.index.archive_index",
     "ArchiveIndex.update_voice", None),
    # Memtable flushes happen inside ``IndexShard.add`` when the budget
    # is exceeded; the private method is the one place every flush
    # (background, forced or compaction-time) goes through.
    ("index.flush", "repro.index.lsm", "IndexShard._flush_locked", None),
    ("index.compact", "repro.index.archive_index", "ArchiveIndex.compact", None),
    ("cluster.store", "repro.cluster.router", "ClusterRouter.store", None),
    ("cluster.replica_write", "repro.cluster.node", "ClusterNode.store", None),
    ("cluster.replica_write", "repro.cluster.node",
     "ClusterNode.attach_recognition", None),
    ("cluster.replay", "repro.cluster.router", "replay_cluster", None),
    ("delivery.run", "repro.delivery.pipeline", "DeliveryPipeline.run", None),
)


class LayerTracer:
    """Installs wrappers on ``targets`` (:data:`TARGETS`) and accumulates stats."""

    def __init__(self, targets=TARGETS) -> None:
        self._targets = targets
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patches: list[tuple[object, str, object]] = []
        self.stats: dict[str, LayerStats] = {}

    def reset(self) -> None:
        with self._lock:
            self.stats = {}

    def get(self, name: str) -> LayerStats:
        return self.stats.get(name, LayerStats())

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("layer wrappers are already installed")
        for name, module_name, path, counter in self._targets:
            owner = importlib.import_module(module_name)
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            if isinstance(owner, type):
                original = owner.__dict__[attr]
            else:
                original = getattr(owner, attr)
            setattr(owner, attr, self._wrap(name, original, counter))
            self._patches.append((owner, attr, original))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, name, fn, counter):
        tracer = self

        def wrapper(*args, **kwargs):
            stack = tracer._stack()
            for frame in stack:
                if frame[0] == name:
                    return fn(*args, **kwargs)
            # [name, child wall ns, child cpu ns]
            frame = [name, 0, 0]
            stack.append(frame)
            wall0 = time.perf_counter_ns()
            cpu0 = time.thread_time_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                wall = time.perf_counter_ns() - wall0
                cpu = time.thread_time_ns() - cpu0
                stack.pop()
                if stack:
                    stack[-1][1] += wall
                    stack[-1][2] += cpu
            moved = counter(args, result) if counter is not None else (0, 0)
            with tracer._lock:
                stats = tracer.stats.get(name)
                if stats is None:
                    stats = tracer.stats[name] = LayerStats()
                stats.calls += 1
                stats.self_wall_ns += wall - frame[1]
                stats.self_cpu_ns += cpu - frame[2]
                stats.bytes_in += moved[0]
                stats.bytes_out += moved[1]
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper
