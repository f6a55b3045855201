"""Golden payload pins: seed-0 cells must reproduce ``cellbench/pins.json``.

A record is a pure function of its spec and of the code, so an engine
change that claims to keep behaviour must keep every payload digest.  This
runs the first 50 c17 cells of the ``service_resubmit`` workload (the
small-pattern fault-simulation shape) and the ``exposure`` cell (Monte-Carlo
Pft and the trace lab) through ``run_experiment`` in-process and compares
each digest with the pinned one.  The workload definitions and the digest
function are read from ``cellbench/workloads.py``.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

from repro.api.runner import run_experiment

CELLBENCH = Path(__file__).resolve().parents[1] / "cellbench"
sys.path.insert(0, str(CELLBENCH))
from workloads import WORKLOADS, label, payload_digest  # noqa: E402

PINS = json.loads((CELLBENCH / "pins.json").read_text())

#: (workload, spec) pairs: pins hold seed-0 digests only.
_CASES = [
    ("service_resubmit", spec) for spec in WORKLOADS["service_resubmit"].specs(0)[:50]
] + [("exposure", spec) for spec in WORKLOADS["exposure"].specs(0)]


@pytest.mark.parametrize(
    "workload,spec", _CASES, ids=[label(spec) for _, spec in _CASES]
)
def test_payload_matches_pin(workload, spec):
    assert payload_digest(run_experiment(spec)) == PINS[workload][label(spec)]
