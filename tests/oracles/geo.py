"""Radius-query oracle: enumerate hex cells, probe the allocation.

:meth:`repro.geo.wifi.EdgeServerRegistry.servers_within` filters the
allocated-server centre array; this is the original query it replaced,
which walks :meth:`repro.geo.hexgrid.HexGrid.cells_within` and keeps
the cells that hold a server.  Same servers, same (cell-sorted) order.
"""

from __future__ import annotations

from repro.geo.wifi import EdgeServerRegistry


def servers_within(
    registry: EdgeServerRegistry, point: tuple[float, float], distance: float
) -> list[int]:
    """Reference radius query: enumerate cells, probe the allocation."""
    servers = []
    for cell in registry.grid.cells_within(point, distance):
        server_id = registry._cell_to_server.get(cell)
        if server_id is not None:
            servers.append(server_id)
    return servers


def servers_within_batch(
    registry: EdgeServerRegistry, points, distance: float, **_
) -> list[list[int]]:
    """:meth:`EdgeServerRegistry.servers_within_batch`, one point at a time."""
    return [servers_within(registry, point, distance) for point in points]


def install(monkeypatch) -> None:
    """Route every radius query through the cell enumeration."""
    monkeypatch.setattr(EdgeServerRegistry, "servers_within", servers_within)
    monkeypatch.setattr(
        EdgeServerRegistry, "servers_within_batch", servers_within_batch
    )
