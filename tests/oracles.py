"""Reference implementations kept as test oracles for faster engines."""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.atpg import FaultSimulator, StuckAtFault


def reference_compact(
    simulator: FaultSimulator,
    patterns: np.ndarray,
    faults: Sequence[StuckAtFault],
) -> np.ndarray:
    """Reverse-order static compaction: drop vectors that add no coverage.

    The original per-pattern loop: one full fault simulation per candidate
    removal, so it costs O(n_patterns) sweeps.  The production pass in
    :mod:`repro.atpg.generate` must keep exactly the same rows.
    """
    full = simulator.run(patterns, faults)
    baseline = set(full.detected)
    keep = np.ones(patterns.shape[0], dtype=bool)
    for row in range(patterns.shape[0] - 1, -1, -1):
        keep[row] = False
        trial = simulator.run(patterns[keep], list(baseline))
        if set(trial.detected) != baseline:
            keep[row] = True
    return patterns[keep]
