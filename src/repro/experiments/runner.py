"""Experiment harness plumbing.

Every experiment module declares its sweep as ``build_spec(scale, seed)
-> SweepSpec`` (see :mod:`repro.experiments.orchestrator`): generic
scenario cells (:func:`repro.api.runtime.scenario_units`), any
experiment-specific function cells, and a ``finalize`` that folds the
cell payloads into an :class:`ExperimentResult`.  ``scale`` shrinks/grows
the workload sizes so the same code serves both quick checks
(``scale<=1``) and full CLI runs; ``seed`` makes the whole experiment
deterministic, with per-cell seed sweeps derived by :func:`sweep_seeds`.

Results carry the rendered table plus free-form notes in which each
experiment states the *reproduction criterion* (the shape the paper
predicts) and whether the run met it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Sequence

from ..analysis.tables import render_table, to_csv
from ..core.store import load_payload, save_payload

__all__ = ["ExperimentResult", "scaled", "sweep_seeds", "unconverged_notes"]


@dataclass
class ExperimentResult:
    """Output of one experiment run.

    Attributes
    ----------
    experiment_id:
        Short id (``"E1"``, ..., matching DESIGN.md's index).
    title:
        Human-readable description including the theorem reproduced.
    headers, rows:
        The regenerated table.
    notes:
        Reproduction criterion, fitted exponents, pass/fail remarks.
    passed:
        Whether the run met the paper's predicted shape.
    """

    experiment_id: str
    title: str
    headers: Sequence[str]
    rows: list[Sequence[Any]]
    notes: list[str] = field(default_factory=list)
    passed: bool = True

    def render(self, precision: int = 3) -> str:
        txt = render_table(self.headers, self.rows, title=f"[{self.experiment_id}] {self.title}",
                           precision=precision)
        if self.notes:
            txt += "\n" + "\n".join(f"  note: {n}" for n in self.notes)
        txt += f"\n  reproduced: {'YES' if self.passed else 'NO'}"
        return txt

    def csv(self) -> str:
        return to_csv(self.headers, self.rows)

    # -- exact persistence -------------------------------------------------

    def as_payload(self) -> dict[str, Any]:
        """A store-compatible payload preserving every value exactly.

        Rows may mix strings, ints and floats (NumPy scalars are converted
        losslessly); :meth:`from_payload` reconstructs a result whose
        rendered table is byte-identical.
        """
        return {
            "experiment_id": self.experiment_id,
            "title": self.title,
            "headers": list(self.headers),
            "rows": [list(row) for row in self.rows],
            "notes": list(self.notes),
            "passed": bool(self.passed),
        }

    @classmethod
    def from_payload(cls, payload: dict[str, Any]) -> "ExperimentResult":
        return cls(
            experiment_id=payload["experiment_id"],
            title=payload["title"],
            headers=payload["headers"],
            rows=payload["rows"],
            notes=payload["notes"],
            passed=payload["passed"],
        )

    def save(self, path: str | Path) -> Path:
        """Write this result as one ``.npz`` archive (exact round-trip)."""
        return save_payload(path, self.as_payload(), extra_meta={"kind": "experiment-result"})

    @classmethod
    def load(cls, path: str | Path) -> "ExperimentResult":
        """Read a result written by :meth:`save`."""
        return cls.from_payload(load_payload(path))


def scaled(value: int, scale: float, minimum: int = 1) -> int:
    """Scale an integer workload parameter, keeping a sane floor."""
    return max(minimum, int(round(value * scale)))


def sweep_seeds(seed: int, n: int, stride: int = 100) -> list[int]:
    """The canonical per-cell seed derivation: ``seed * stride + s``.

    Every experiment routes its seed sweeps through this helper, so the
    derivation lives in exactly one place and a sweep's seed list doubles
    as part of its work-unit identity in the orchestrator's results store.
    """
    return [seed * stride + s for s in range(n)]


def unconverged_notes(measures: dict[str, dict]) -> list[str]:
    """Flag the cells whose offline brackets missed the gap tolerance.

    ``measures`` maps a cell key to its bracket-measurement payload
    (:func:`~repro.analysis.measures_to_payload`); the result is empty
    when every bracket converged, so converged tables are unchanged.
    """
    flagged = [f"{key} ({sum(not c for c in payload['opt_converged'])})"
               for key, payload in measures.items() if not all(payload["opt_converged"])]
    if not flagged:
        return []
    return ["UNCONVERGED offline brackets (valid but wide): " + ", ".join(flagged)]
