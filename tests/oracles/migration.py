"""Proactive-migration oracle: the original per-client transfer loop.

Production migration runs one array-form pass per interval
(:meth:`repro.core.master.MasterServer.proactive_migrate_batch`).  Before
that pass existed, the master predicted each client's next location and
pushed layers to every server in the radius one client at a time.
:func:`migrate_to_predicted` is that per-client loop and
:func:`proactive_migrate` the per-client entry point around it, kept only
for tests, which patch them in and compare telemetry bytes.
"""

from __future__ import annotations

from repro.core.client import MobileClient
from repro.core.edge_server import EdgeServer
from repro.core.master import MasterServer, MigrationPolicy, MigrationRecord
from repro.faults import record_fault
from repro.telemetry import FractionalTruncationEvent, MigrationEvent


def _byte_budget(
    master: MasterServer, source_id: int, target_id: int, plan_bytes: float
) -> float:
    """Fractional migration: crowded endpoints cap the transfer."""
    if (
        source_id in master.crowded_servers
        or target_id in master.crowded_servers
    ):
        return min(plan_bytes, master.crowded_byte_budget)
    return plan_bytes


def migrate_to_predicted(
    master: MasterServer,
    client: MobileClient,
    interval: int,
    point: tuple[float, float],
    targets: list[int] | None = None,
) -> list[MigrationRecord]:
    """Transfer layers toward one client's predicted next location.

    ``targets`` lets the batched caller hand in a precomputed
    ``servers_within(point, migration_radius_m)`` row.
    """
    if targets is None:
        targets = master.registry.servers_within(
            point, master.config.migration_radius_m
        )
    source = master.server(client.current_server)
    version = client.model_version
    source_bytes = source.cached_bytes(client.client_id, version)
    if source_bytes <= 0:
        return []  # nothing to send yet (client still uploading)
    backhaul_factor = (
        master.fault_schedule.backhaul_factor(interval)
        if master.fault_schedule is not None else 1.0
    )
    # Live targets are resolved first so all their GPU pings happen in
    # one batched slowdown prediction; the per-target transfer work
    # below draws no randomness, so the batched ping order equals the
    # scalar loop's order and same-seed runs are unchanged.
    live_targets: list[EdgeServer] = []
    for target_id in targets:
        if target_id == source.server_id:
            continue
        if not master.server_available(target_id, interval):
            # Dead servers get no future plans — migrating to them
            # would burn backhaul bytes into the void.
            if master.telemetry is not None:
                master.telemetry.registry.counter(
                    "resilience.dead_target_skips"
                ).inc()
            continue
        live_targets.append(master.server(target_id))
    slowdowns = master.estimate_slowdowns(live_targets)
    partition = master.partitioner_for(client.client_id).partition
    records: list[MigrationRecord] = []
    for target in live_targets:
        target_id = target.server_id
        # Future partitioning plan, with the *current* GPU workload of
        # the target (assumed stable over the next interval, §3.C.2).
        future_plan = partition(slowdowns[target_id])
        needed = _byte_budget(
            master, source.server_id, target_id, future_plan.server_bytes
        )
        if backhaul_factor < 1.0:
            # Degraded backhaul: only a fraction of the plan fits in
            # this interval's transfer budget (fractional migration
            # under duress, same mechanism as crowded servers).
            needed = min(needed, backhaul_factor * future_plan.server_bytes)
        if (
            master.telemetry is not None
            and needed < future_plan.server_bytes
        ):
            master.telemetry.trace.record(
                FractionalTruncationEvent(
                    interval=interval,
                    client_id=client.client_id,
                    source_server=source.server_id,
                    target_server=target_id,
                    plan_bytes=future_plan.server_bytes,
                    budget_bytes=needed,
                )
            )
            master.telemetry.registry.counter(
                "migration.fractional_truncations"
            ).inc()
        already = target.cached_bytes(client.client_id, version)
        if already >= needed - 1e-6:
            # Duplicate send avoided; just reset the TTL (§3.B.2).
            target.refresh_ttl(
                client.client_id, interval, master.config.ttl_intervals,
                version,
            )
            continue
        # Send as much as the source holds, up to what is needed.
        sendable = min(needed, source_bytes)
        delta = sendable - already
        if delta <= 0:
            target.refresh_ttl(
                client.client_id, interval, master.config.ttl_intervals,
                version,
            )
            continue
        if (
            master.fault_schedule is not None
            and master.fault_schedule.migration_dropped(
                client.client_id, source.server_id, target_id, interval
            )
        ):
            # The transfer fails in flight: no bytes land, no traffic
            # is billed.  The master retries at the next interval's
            # proactive pass (the target still lacks the bytes).
            if master.telemetry is not None:
                record_fault(
                    master.telemetry, interval, "migration_drop",
                    server_id=target_id, client_id=client.client_id,
                )
            continue
        target.add_bytes(
            client.client_id, delta, interval, master.config.ttl_intervals,
            version,
        )
        if master.traffic_meter is not None:
            master.traffic_meter.record(
                interval, source.server_id, target_id, delta
            )
        record = MigrationRecord(
            client_id=client.client_id,
            source_server=source.server_id,
            target_server=target_id,
            nbytes=delta,
            interval=interval,
        )
        records.append(record)
        master.migrations.append(record)
        if master.telemetry is not None:
            master.telemetry.registry.counter("migration.count").inc()
            master.telemetry.registry.counter("migration.bytes").inc(delta)
            master.telemetry.trace.record(
                MigrationEvent(
                    interval=interval,
                    client_id=client.client_id,
                    source_server=source.server_id,
                    target_server=target_id,
                    nbytes=delta,
                )
            )
    return records


def proactive_migrate(
    master: MasterServer, client: MobileClient, interval: int
) -> list[MigrationRecord]:
    """Predict one client's next location and push layers ahead (§3.B.2)."""
    if master.policy is not MigrationPolicy.PERDNN:
        return []
    assert master.predictor is not None
    window = client.recent_window()
    if window is None or client.current_server is None:
        return []
    if not master.server_available(client.current_server, interval):
        return []  # the source is dark; nothing can be pushed from it
    if (
        master.fault_schedule is not None
        and not master.fault_schedule.backhaul_available(interval)
    ):
        # Backhaul outage: every proactive transfer is blocked this
        # interval.  Record it once per client — the master retries
        # naturally at the next interval.
        if master.telemetry is not None:
            record_fault(
                master.telemetry, interval, "backhaul_blocked",
                server_id=client.current_server,
                client_id=client.client_id,
            )
        return []
    predicted = master.predictor.predict_point(window)
    return migrate_to_predicted(master, client, interval, predicted)


def migrate_each(
    master: MasterServer,
    clients: list[MobileClient],
    targets_list: list[list[int]],
    interval: int,
) -> None:
    """Stand-in for ``MasterServer._migrate_batch``: the loop per client.

    The batched caller has already run the radius query, so each client's
    predicted point is only carried through its ``targets`` row.
    """
    for client, targets in zip(clients, targets_list):
        migrate_to_predicted(master, client, interval, None, targets)


def proactive_migrate_each(
    master: MasterServer, clients, interval: int
) -> None:
    """Stand-in for ``proactive_migrate_batch``: one client at a time."""
    for client in clients:
        proactive_migrate(master, client, interval)


def install_transfer_loop(monkeypatch) -> None:
    """Replace only the array-form transfer pass with the per-client loop.

    Prediction and the radius query stay batched, as in production.
    """
    monkeypatch.setattr(MasterServer, "_migrate_batch", migrate_each)


def install(monkeypatch) -> None:
    """Replace the whole batched migration step with per-client calls."""
    monkeypatch.setattr(
        MasterServer, "proactive_migrate_batch", proactive_migrate_each
    )
