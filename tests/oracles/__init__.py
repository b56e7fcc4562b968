"""Test-only scalar oracles for the simulator's vectorized hot paths.

Each algorithm has one implementation in ``src/``.  The scalar code it
replaced lives here, unchanged in substance, so tests can check the
production path against it byte for byte:

* :mod:`tests.oracles.tree` — per-row node walk for tree/forest predict;
* :mod:`tests.oracles.association` — per-client ``decide_association``;
* :mod:`tests.oracles.query_loop` — record-building query-window loops;
* :mod:`tests.oracles.migration` — per-client proactive migration;
* :mod:`tests.oracles.geo` — cell-enumerating radius query.

Nothing in ``src/`` knows about these modules.  A test puts an oracle in
place with ``monkeypatch``; :func:`scalar_simulation` puts all of them in
place at once.
"""

from __future__ import annotations

from contextlib import contextmanager

import pytest

from repro.simulation import large_scale
from tests.oracles import association, geo, migration, query_loop, tree


@contextmanager
def scalar_simulation():
    """Run every simulator hot path through its scalar oracle.

    Inside the block, ``run_large_scale`` predicts with node walks,
    associates client by client, runs every query window through the
    per-client loop and the record-building integrators, migrates client
    by client with scalar prediction, and answers radius queries by cell
    enumeration.  Patches are process-local: sharded runs must use
    ``workers=1``, which runs shards in process.
    """
    with pytest.MonkeyPatch.context() as patch:
        tree.install(patch)
        association.install(patch)
        geo.install(patch)
        migration.install(patch)
        query_loop.install(patch)
        patch.setattr(
            large_scale, "_batched_query_windows",
            large_scale._per_client_query_windows,
        )
        yield
