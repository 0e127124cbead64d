"""Virtual workstation: the observable surface of the presentation manager.

The 1986 MINOS implementation ran on a SUN-3 workstation with voice
input/output hardware.  This package substitutes a fully simulated
workstation: a :class:`~repro.clock.SimClock` models elapsed time, a
:class:`~repro.workstation.screen.Screen` models the display (page
regions, pinned logical messages, transparency compositing), an
:class:`~repro.workstation.audio_out.AudioOutput` models the speaker,
and every observable action is appended to a
:class:`~repro.trace.Trace`.  Tests and benchmarks assert against the
trace, which plays the role of "what the user saw and heard".
"""

from repro.clock import SimClock
from repro.trace import EventKind, Trace, TraceEvent
from repro.workstation.menus import Menu, MenuOption
from repro.workstation.screen import Screen, ScreenRegion
from repro.workstation.audio_out import AudioOutput
from repro.workstation.station import Workstation
from repro.workstation.stats import SessionStats, summarize
from repro.workstation.editing_store import EditingStore

__all__ = [
    "AudioOutput",
    "EditingStore",
    "SessionStats",
    "summarize",
    "EventKind",
    "Menu",
    "MenuOption",
    "Screen",
    "ScreenRegion",
    "SimClock",
    "Trace",
    "TraceEvent",
    "Workstation",
]
