"""The per-run telemetry bundle: one tracer, one registry, clock offsets."""

from __future__ import annotations

import threading

from repro.telemetry.metrics import MetricsRegistry
from repro.telemetry.trace import SpanTracer

#: Schema tag on serialised telemetry, bumped with the dict layout.
TELEMETRY_VERSION = 1


class RunTelemetry:
    """Everything one run records about itself, out of band.

    Created by the server when ``ServerConfig.telemetry`` is on and threaded
    through the :class:`~repro.federated.engine.backends.EngineContext` and
    :class:`~repro.defenses.base.AggregationContext`, so every
    instrumentation point — backends, aggregators, the distributed
    coordinator — reaches the same bundle without new plumbing per layer.

    ``clock_offsets`` maps a link label (``worker:<pid>``) to the estimated
    offset between the driver's and that worker's ``time.monotonic()``
    (raw readings on both sides): each UPDATE frame's telemetry blob carries
    the worker's send timestamp, and the minimum of ``driver_now - worker_sent``
    over a link's frames approximates the fixed offset (the residual above
    the minimum is transport latency).  Offsets are *annotation*, not
    correction — merged worker spans sit on the driver clock at arrival.
    """

    def __init__(self) -> None:
        self.tracer = SpanTracer()
        self.metrics = MetricsRegistry()
        self._offset_lock = threading.Lock()
        self._clock_offsets: dict[str, float] = {}

    def record_clock_offset(self, link: str, offset: float) -> None:
        """Fold one ``driver_now - worker_sent`` sample into the link's estimate."""
        with self._offset_lock:
            best = self._clock_offsets.get(link)
            if best is None or offset < best:
                self._clock_offsets[link] = float(offset)

    @property
    def clock_offsets(self) -> dict[str, float]:
        with self._offset_lock:
            return dict(self._clock_offsets)

    def to_dict(self) -> dict:
        """JSON-compatible form, the ``telemetry`` key of a results file."""
        return {
            "version": TELEMETRY_VERSION,
            "spans": self.tracer.to_dict(),
            "metrics": self.metrics.to_dict(),
            "clock_offsets": self.clock_offsets,
        }
