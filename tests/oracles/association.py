"""Association oracle: one scalar ``decide_association`` call per client.

The simulator proposes every active client's next server in one array
pass (:func:`repro.simulation.vectorized.propose_associations`).  Before
that pass existed it called :func:`repro.core.association.
decide_association` per client; this shim does exactly that behind the
array signature, so a test can patch it in for the production pass.
"""

from __future__ import annotations

import numpy as np

from repro.core.association import decide_association
from repro.simulation import large_scale


def propose_associations(
    registry, positions: np.ndarray, current_servers: np.ndarray,
    hysteresis_m: float,
) -> np.ndarray:
    """Per-row :func:`decide_association`; -1 where it returns ``None``."""
    proposals = np.empty(len(positions), dtype=np.int64)
    for i, (position, current) in enumerate(zip(positions, current_servers)):
        decided = decide_association(
            registry,
            (float(position[0]), float(position[1])),
            None if current < 0 else int(current),
            hysteresis_m,
        )
        proposals[i] = -1 if decided is None else decided
    return proposals


def install(monkeypatch) -> None:
    """Route the simulator's association pass through the scalar rule."""
    monkeypatch.setattr(
        large_scale, "propose_associations", propose_associations
    )
