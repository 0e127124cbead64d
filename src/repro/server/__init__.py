"""The multimedia object server subsystem (Section 5).

"The multimedia object server subsystem is optical disk based...  It is
used to store objects in an archived state.  The major concern in the
server subsystem is performance...  The subsystem provides access
methods, scheduling, cashing, version control."  [sic]

Workstations talk to the server over a simulated network link; the
presentation manager "requests the appropriate pieces of information
from the multimedia object server subsystems" — which is why the
archiver supports partial (byte-range) reads of stored data pieces:
views fetch windows, not whole images.
"""

from repro.server.network import NetworkLink
from repro.server.access import ContentIndex
from repro.server.archiver import (
    Archiver,
    CachingArchiver,
    FetchResult,
    FlightStats,
    StoredObjectRecord,
)
from repro.server.frontend import ServerFrontend, ServerFuture, ServerRequest
from repro.server.loadgen import (
    LoadReport,
    LoadRequest,
    build_schedule,
    replay_threaded,
    station_subset,
    zipf_weights,
)
from repro.server.metrics import Histogram, MetricsSnapshot, ServerMetrics
from repro.server.scheduler import (
    CompletedRequest,
    DiskRequest,
    simulate_schedule,
    total_seek_distance,
)
from repro.server.versioning import VersionStore
from repro.server.idle import IdleRecognizer, IdleRunReport
from repro.server.query import MiniatureCard, QueryInterface

__all__ = [
    "Archiver",
    "CachingArchiver",
    "CompletedRequest",
    "ContentIndex",
    "DiskRequest",
    "FetchResult",
    "FlightStats",
    "Histogram",
    "IdleRecognizer",
    "IdleRunReport",
    "LoadReport",
    "LoadRequest",
    "MetricsSnapshot",
    "MiniatureCard",
    "NetworkLink",
    "QueryInterface",
    "ServerFrontend",
    "ServerFuture",
    "ServerMetrics",
    "ServerRequest",
    "StoredObjectRecord",
    "VersionStore",
    "build_schedule",
    "replay_threaded",
    "simulate_schedule",
    "station_subset",
    "total_seek_distance",
    "zipf_weights",
]
