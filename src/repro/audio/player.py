"""Simulated voice output device.

Playback advances the shared :class:`~repro.clock.SimClock` and
records every played interval on the session trace, so tests can
assert exactly what the user heard and when.  Interactive behaviour —
the user pressing *interrupt* while speech plays — is modelled by
starting playback (:meth:`AudioPlayer.play`), letting the caller
advance the clock, and then calling :meth:`AudioPlayer.interrupt`,
which settles how much was actually heard.
"""

from __future__ import annotations

import enum

from repro.audio.signal import Recording
from repro.errors import PlaybackStateError
from repro.clock import SimClock
from repro.trace import EventKind, Trace


class PlayerState(enum.Enum):
    """Playback state machine."""

    IDLE = "idle"
    PLAYING = "playing"
    INTERRUPTED = "interrupted"
    FINISHED = "finished"


class AudioPlayer:
    """Plays one recording against the simulated clock.

    Parameters
    ----------
    recording:
        The voice data to play.
    clock:
        Shared simulated clock; playing N seconds advances it by N.
    trace:
        Trace receiving PLAY/INTERRUPT/RESUME/SEEK events.
    label:
        Identifier included in trace events (segment id, message id).
    """

    def __init__(
        self,
        recording: Recording,
        clock: SimClock,
        trace: Trace,
        label: str = "voice",
    ) -> None:
        self._recording = recording
        self._clock = clock
        self._trace = trace
        self._label = label
        self._position = 0.0
        self._state = PlayerState.IDLE
        self._play_started_at: float | None = None
        self._play_from: float = 0.0

    @property
    def state(self) -> PlayerState:
        """Current playback state."""
        return self._state

    @property
    def position(self) -> float:
        """Current position in the recording, in seconds.

        While playing, reflects the clock's progress since playback
        started.
        """
        if self._state is PlayerState.PLAYING:
            assert self._play_started_at is not None
            elapsed = self._clock.now - self._play_started_at
            return min(self._play_from + elapsed, self._recording.duration)
        return self._position

    @property
    def recording(self) -> Recording:
        """The recording being played."""
        return self._recording

    # ------------------------------------------------------------------
    # commands
    # ------------------------------------------------------------------

    def play(self) -> None:
        """Start (or restart) playback from the current position.

        Raises
        ------
        PlaybackStateError
            If already playing.
        """
        if self._state is PlayerState.PLAYING:
            raise PlaybackStateError("already playing")
        # First playback of a lazily-shipped recording expands the
        # companded bytes here — never at open time.
        self._recording.materialize()
        if self._position >= self._recording.duration:
            self._position = 0.0
        self._play_from = self._position
        self._play_started_at = self._clock.now
        self._state = PlayerState.PLAYING
        self._trace.record(
            self._clock.now,
            EventKind.PLAY_VOICE,
            label=self._label,
            from_s=round(self._play_from, 3),
        )

    def interrupt(self) -> float:
        """Stop playback at the current clock time; return the position.

        Models the user's *interrupt voice output* menu option.

        Raises
        ------
        PlaybackStateError
            If not playing.
        """
        if self._state is not PlayerState.PLAYING:
            raise PlaybackStateError(f"cannot interrupt in state {self._state.value}")
        self._position = self.position
        self._state = PlayerState.INTERRUPTED
        self._play_started_at = None
        self._trace.record(
            self._clock.now,
            EventKind.INTERRUPT_VOICE,
            label=self._label,
            at_s=round(self._position, 3),
        )
        return self._position

    def resume(self) -> None:
        """Resume from the position where playback was interrupted."""
        if self._state is PlayerState.PLAYING:
            raise PlaybackStateError("already playing")
        self._trace.record(
            self._clock.now,
            EventKind.RESUME_VOICE,
            label=self._label,
            from_s=round(self._position, 3),
        )
        self._play_from = self._position
        self._play_started_at = self._clock.now
        self._state = PlayerState.PLAYING

    def seek(self, position: float) -> None:
        """Move the playback position without playing.

        Raises
        ------
        PlaybackStateError
            If called while playing (interrupt first).
        """
        if self._state is PlayerState.PLAYING:
            raise PlaybackStateError("cannot seek while playing; interrupt first")
        clamped = min(max(position, 0.0), self._recording.duration)
        self._position = clamped
        self._trace.record(
            self._clock.now,
            EventKind.SEEK_VOICE,
            label=self._label,
            to_s=round(clamped, 3),
        )

    def play_through(self, seconds: float | None = None) -> float:
        """Play for ``seconds`` (or to the end), advancing the clock.

        Convenience for non-interactive playback (logical messages,
        labels, tours).  Returns the new position.
        """
        if self._state is not PlayerState.PLAYING:
            self.play()
        assert self._play_started_at is not None
        remaining = self._recording.duration - self._play_from
        span = remaining if seconds is None else min(seconds, remaining)
        self._clock.advance(max(span, 0.0))
        self._position = self._play_from + span
        self._play_started_at = None
        if self._position >= self._recording.duration:
            self._state = PlayerState.FINISHED
        else:
            self._state = PlayerState.INTERRUPTED
        return self._position
