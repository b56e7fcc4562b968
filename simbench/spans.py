"""Layer spans recorded from outside the program.

:class:`Tracer` wraps the public entry point of each layer — class
methods and module attributes — for the duration of one ``with`` block
and puts the originals back on exit, so untraced runs execute unwrapped
code.  Spans nest on one stack: a span's self time is its duration minus
the durations of the wrapped calls made inside it.  Spans are only seen
in the process that installed the wrappers, which is why traced runs use
one worker.
"""

from __future__ import annotations

import functools
import time

from repro.core.master import MasterServer
from repro.geo.wifi import EdgeServerRegistry
from repro.ml.optim import Adam
from repro.mobility.svr import SVRPredictor
from repro.partitioning.partitioner import DNNPartitioner
from repro.simulation import checkpoint, large_scale, sharding
from repro.simulation.vectorized import ClientArrays
from repro.telemetry import Telemetry

#: (owner, attribute, span name).  Several entry points may feed one span.
#: A module attribute is wrapped in the module whose code looks it up:
#: ``run_large_scale`` and ``model_fingerprint`` are called from
#: ``sharding``, ``propose_associations`` from ``large_scale``, and the
#: estimator training from the staged path through ``large_scale``.
TARGETS = (
    (SVRPredictor, "fit", "mobility.svr_fit"),
    (Adam, "step", "ml.adam_step"),
    (large_scale, "train_default_estimator", "estimation.train"),
    (sharding, "model_fingerprint", "checkpoint.model_cache_load"),
    (checkpoint.ModelCache, "load", "checkpoint.model_cache_load"),
    (checkpoint.CheckpointStore, "write_shard", "checkpoint.write"),
    (checkpoint.CheckpointStore, "load_shard", "checkpoint.load"),
    (sharding, "run_large_scale_sharded", "sharding.driver"),
    (sharding, "plan_shards", "sharding.plan"),
    (sharding, "run_large_scale", "large_scale.run"),
    (large_scale, "propose_associations", "vectorized.associate"),
    (ClientArrays, "refresh", "vectorized.associate"),
    (MasterServer, "proactive_migrate_batch", "master.migrate"),
    (MasterServer, "proactive_migrate", "master.migrate"),
    (MasterServer, "estimate_slowdowns", "master.estimate"),
    (MasterServer, "estimate_slowdown", "master.estimate"),
    (MasterServer, "expire_caches", "master.expire"),
    (DNNPartitioner, "partition", "partitioning.partition"),
    (EdgeServerRegistry, "from_visited_points", "geo.registry_build"),
    (Telemetry, "write", "telemetry.export"),
)


class SpanStats:
    __slots__ = ("calls", "total", "self_time", "max_time")

    def __init__(self) -> None:
        self.calls = 0
        self.total = 0.0
        self.self_time = 0.0
        self.max_time = 0.0


class Tracer:
    """Span totals per name, collected while installed."""

    def __init__(self) -> None:
        self.stats = {name: SpanStats() for _, _, name in TARGETS}
        # One frame per open span: [start, time spent in child spans].
        self._stack: list[list[float]] = []
        self._originals: list[tuple[object, str, object]] = []

    def _wrap(self, function, name: str):
        stats = self.stats[name]
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(function)
        def wrapper(*args, **kwargs):
            frame = [clock(), 0.0]
            stack.append(frame)
            try:
                return function(*args, **kwargs)
            finally:
                duration = clock() - frame[0]
                stack.pop()
                stats.calls += 1
                stats.total += duration
                stats.self_time += duration - frame[1]
                if duration > stats.max_time:
                    stats.max_time = duration
                if stack:
                    stack[-1][1] += duration

        return wrapper

    def __enter__(self) -> "Tracer":
        for owner, attribute, name in TARGETS:
            original = vars(owner)[attribute]
            if isinstance(original, (classmethod, staticmethod)):
                wrapped = type(original)(self._wrap(original.__func__, name))
            else:
                wrapped = self._wrap(original, name)
            self._originals.append((owner, attribute, original))
            setattr(owner, attribute, wrapped)
        return self

    def __exit__(self, *exc_info) -> None:
        while self._originals:
            owner, attribute, original = self._originals.pop()
            setattr(owner, attribute, original)

    def self_seconds(self) -> float:
        """Summed self time of every span: the traced part of the wall."""
        return sum(stats.self_time for stats in self.stats.values())

    def table(self) -> dict[str, dict]:
        return {
            name: {
                "calls": stats.calls,
                "total_s": stats.total,
                "self_s": stats.self_time,
                "max_s": stats.max_time,
            }
            for name, stats in self.stats.items()
        }
