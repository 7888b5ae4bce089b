"""Golden-table parity for the migrated experiments.

``tests/data/golden_migrated.json`` holds each experiment's table at
``scale=0.15, seed=1``, always captured *before* the refactor that moved
the experiment onto its current cells landed: the hand-rolled per-seed
loops of E1, E2, E3, E6, E7 and E12 (moved to scenario cells), of E9,
E10, E11, E14, E15 and E16 (moved to declarative ``ExperimentSpec``
grids), of the shared-bracket sweeps of E4 and E8, and of E13's
hand-wired bracket and measurement cells (E4, E8 and E13 now run their
certified ratios as scenario cells).  The migrated experiments must
reproduce the captured tables *exactly* (every float rendered at 10
digits, every note string), which is the acceptance criterion for each
migration.
"""

import json
from pathlib import Path

import pytest

from repro.experiments import EXPERIMENTS, SPECS

GOLDEN_PATH = Path(__file__).parent / "data" / "golden_migrated.json"
MIGRATED = ["E1", "E2", "E3", "E6", "E7", "E12",
            "E9", "E10", "E11", "E14", "E15", "E16",
            "E4", "E8", "E13"]

with GOLDEN_PATH.open() as fh:
    GOLDEN = json.load(fh)


@pytest.mark.parametrize("eid", MIGRATED)
def test_migrated_experiment_reproduces_golden_table(eid):
    result = EXPERIMENTS[eid](scale=0.15, seed=1)
    assert result.render(precision=10) == GOLDEN[eid]["render"]


@pytest.mark.parametrize("eid", MIGRATED)
def test_migrated_experiment_declares_spec(eid):
    spec = SPECS[eid](0.15, 1)
    assert spec.experiment_id == eid
    assert len(spec.units) > 1, "migrated experiments must be real multi-cell sweeps"
