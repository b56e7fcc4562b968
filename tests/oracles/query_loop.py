"""Scalar query-window oracle: the original record-building loops.

Before the simulator integrated windows record-free, every query of a
window was materialized as a :class:`QueryRecord` and observed into the
latency histogram one at a time.  These loops are that original, kept
only for tests: they take the same arguments as
:func:`repro.simulation.query_loop.run_query_window` and
:func:`repro.simulation.query_loop.run_local_window` (``count_memo`` is
accepted and ignored), so a test can patch them in for the production
functions and compare telemetry bytes.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.overload.admission import QUEUE_WAIT_BUCKETS
from repro.partitioning.uploading import UploadSchedule
from repro.simulation.query_loop import QUERY_LATENCY_BUCKETS
from repro.telemetry.registry import MetricsRegistry


@dataclass(frozen=True)
class QueryRecord:
    """One executed query."""

    start_time: float  # seconds from window start
    latency: float
    received_bytes: float  # upload progress when the query started


@dataclass(frozen=True)
class RecordedWindow:
    """A window's per-query records plus its upload progress at the end."""

    queries: tuple[QueryRecord, ...]
    end_bytes: float

    @property
    def count(self) -> int:
        return len(self.queries)


def run_query_window(
    schedule: UploadSchedule,
    start_bytes: float,
    uplink_bps: float,
    duration: float,
    query_gap: float,
    uploading: bool = True,
    first_gap: float = 0.0,
    latency_overhead: float = 0.0,
    queue_wait: float | None = None,
    telemetry: MetricsRegistry | None = None,
    count_memo: dict | None = None,
) -> RecordedWindow:
    """Integrate the query loop one recorded query at a time."""
    if duration < 0:
        raise ValueError("duration must be non-negative")
    if start_bytes < 0:
        raise ValueError("start_bytes must be non-negative")
    if latency_overhead < 0:
        raise ValueError("latency_overhead must be non-negative")
    if queue_wait is not None and queue_wait < 0:
        raise ValueError("queue_wait must be non-negative")
    total = schedule.total_bytes
    start_bytes = min(start_bytes, total)
    byte_rate = uplink_bps / 8.0 if uploading else 0.0
    records: list[QueryRecord] = []
    t = first_gap + (queue_wait or 0.0)
    while True:
        received = min(total, start_bytes + byte_rate * t)
        latency = schedule.latency_after_bytes(received) + latency_overhead
        if t + latency > duration:
            break
        records.append(
            QueryRecord(start_time=t, latency=latency, received_bytes=received)
        )
        t += latency + query_gap
    end_bytes = min(total, start_bytes + byte_rate * duration)
    if telemetry is not None:
        telemetry.counter("query.windows").inc()
        if queue_wait is not None:
            telemetry.histogram(
                "overload.queue_wait_seconds", QUEUE_WAIT_BUCKETS
            ).observe(queue_wait)
        if records:
            telemetry.counter("query.completed").inc(len(records))
            latencies = telemetry.histogram(
                "query.latency_seconds", QUERY_LATENCY_BUCKETS
            )
            for record in records:
                latencies.observe(record.latency)
    return RecordedWindow(queries=tuple(records), end_bytes=end_bytes)


def run_local_window(
    local_latency: float,
    duration: float,
    query_gap: float,
    telemetry: MetricsRegistry | None = None,
    record_fallback: bool = True,
    count_memo: dict | None = None,
) -> RecordedWindow:
    """One interval of on-device queries, one recorded query at a time."""
    if local_latency <= 0:
        raise ValueError("local_latency must be positive")
    if duration < 0:
        raise ValueError("duration must be non-negative")
    records: list[QueryRecord] = []
    t = 0.0
    while t + local_latency <= duration:
        records.append(
            QueryRecord(start_time=t, latency=local_latency, received_bytes=0.0)
        )
        t += local_latency + query_gap
    if telemetry is not None:
        telemetry.counter("query.windows").inc()
        if records:
            telemetry.counter("query.completed").inc(len(records))
            if record_fallback:
                telemetry.counter("query.local_fallback").inc(len(records))
            latencies = telemetry.histogram(
                "query.latency_seconds", QUERY_LATENCY_BUCKETS
            )
            for record in records:
                latencies.observe(record.latency)
    return RecordedWindow(queries=tuple(records), end_bytes=0.0)


def install(monkeypatch) -> None:
    """Route the simulator's query windows through the record loops."""
    from repro.simulation import large_scale

    monkeypatch.setattr(large_scale, "run_query_window", run_query_window)
    monkeypatch.setattr(large_scale, "run_local_window", run_local_window)
