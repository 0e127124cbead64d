"""Ambient span-context propagation.

The propagation rule (docs/OBSERVABILITY.md) is two-tier:

* **Explicit** at layer boundaries that already carry request state:
  ``ServerFrontend.submit(..., ctx=)``, ``ClusterRouter.request(...,
  ctx=)``, ``ServerRequest.ctx``.  Explicit beats ambient.
* **Ambient** for deep leaf sites whose signatures must not grow a
  tracing parameter (codec decode inside ``Archiver``, staging-cache
  reads inside ``CachingArchiver``): the enclosing layer binds its
  span context here and the leaf picks it up with :func:`current`.

``contextvars`` gives each thread (and each DES callback chain, which
is single-threaded) its own binding, so frontend workers never see
each other's contexts.  A hand-off to another thread (the frontend's
worker pool) crosses bindings, so that call site carries the parent
explicitly.
"""

from __future__ import annotations

from contextvars import ContextVar
from typing import Optional

from repro.obs.spans import SpanContext

_CURRENT: ContextVar[Optional[SpanContext]] = ContextVar(
    "repro_obs_current_span", default=None
)


def current() -> SpanContext | None:
    """The ambient span context bound in this thread, if any."""
    return _CURRENT.get()


def reset() -> None:
    """Clear the ambient binding unconditionally (test isolation).

    :class:`bind` restores the previous binding on exit, so production
    code never needs this — but a test that crashes mid-``bind`` (or a
    suite that drives spans without the context manager) would leak its
    context into the next test.  Fixtures call this between tests.
    """
    _CURRENT.set(None)


class bind:
    """Bind ``ctx`` as the ambient context for the enclosed block.

    A hand-rolled context manager rather than ``@contextmanager``:
    binds sit on the traced hot path (every open/navigate/fetch), and
    the generator machinery costs more than the bind itself.
    """

    __slots__ = ("_ctx", "_token")

    def __init__(self, ctx: SpanContext | None) -> None:
        self._ctx = ctx

    def __enter__(self) -> SpanContext | None:
        self._token = _CURRENT.set(self._ctx)
        return self._ctx

    def __exit__(self, *exc_info: object) -> None:
        _CURRENT.reset(self._token)
