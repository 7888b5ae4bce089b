"""`ExperimentSpec` — a whole experiment as one declarative object.

The paper's experiments all share one shape: a grid of cells
(source/algorithm/parameter point × seeds) reduced into a table.  An
:class:`ExperimentSpec` states exactly that and nothing else:

* **cells** — either a :class:`~repro.api.grid.ScenarioGrid` (every cell
  is the generic scenario runner, shared brackets factored out
  automatically) or :func:`cell_grid`-expanded *function cells* for
  measurements the scenario layer does not express (geometric samplers,
  potential traces, extension simulators), or both;
* **reducer** — a name in the :mod:`repro.api.reducers` registry turning
  computed payloads into rows/notes/verdict;
* **formatting** — experiment id, title, headers.

``spec.run()`` executes through the experiment orchestrator, so every
spec inherits per-cell content-addressed caching, ``jobs=N`` process
fan-out and resume-after-interrupt without any experiment-specific code;
``spec.to_sweep()`` exposes the underlying
:class:`~repro.experiments.orchestrator.SweepSpec` for `run_all` grids.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Mapping

from .grid import ScenarioGrid, expand_axes, point_label
from .reducers import reduce_cells, reducer_info
from .scenario import Params, freeze_params, thaw_params

__all__ = ["CellSpec", "ExperimentSpec", "cell_grid", "finalize_spec"]

FINALIZE_FN = "repro.api.spec:finalize_spec"


@dataclass(frozen=True)
class CellSpec:
    """One declarative function cell: dotted-path fn + frozen params.

    ``point`` holds the cell's axis coordinates (a subset of ``params``)
    — the reducer's key for placing the payload in the table.
    """

    key: str
    fn: str
    params: Params = ()
    point: Params = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "params", freeze_params(self.params))
        # Axis coordinates keep declaration order: it is the row order.
        object.__setattr__(self, "point", freeze_params(self.point, sort=False))

    def to_dict(self) -> dict[str, Any]:
        return {
            "key": self.key,
            "fn": self.fn,
            "params": thaw_params(self.params),
            "point": thaw_params(self.point),
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "CellSpec":
        return cls(
            key=payload["key"],
            fn=payload["fn"],
            params=freeze_params(payload.get("params")),
            point=freeze_params(payload.get("point"), sort=False),
        )


def cell_grid(
    fn: str,
    axes: Mapping[str, Any],
    common: Mapping[str, Any] | None = None,
    prefix: str = "cell",
    derive: Mapping[str, Callable[[Mapping[str, Any]], Any]] | None = None,
) -> tuple[CellSpec, ...]:
    """Expand axis dicts into function cells (the non-scenario grid).

    Sequence values in ``axes`` expand exactly like
    :meth:`Scenario.grid`'s axes (first axis outermost); ``common``
    parameters are shared by every cell; ``derive`` computes extra
    per-point parameters from the axis coordinates at build time (e.g.
    a scaled horizon) — the derived values are frozen into the cell's
    params, so they are part of its content address.
    """
    names, points = expand_axes(dict(axes))
    common = dict(common or {})
    cells = []
    for point in points:
        coords = {name: point[name] for name in names}
        params = {**common, **point}
        for key, fn_derive in (derive or {}).items():
            if key in params:
                raise ValueError(f"derived parameter {key!r} collides with an axis or common parameter")
            params[key] = fn_derive(coords)
        label = point_label(coords)
        cells.append(CellSpec(
            key=f"{prefix}/{label}" if label else prefix,
            fn=fn,
            params=freeze_params(params),
            point=freeze_params(coords, sort=False),
        ))
    return tuple(cells)


@dataclass(frozen=True)
class ExperimentSpec:
    """Grid + reducer name + formatting: one experiment, declaratively."""

    experiment_id: str
    title: str
    headers: tuple[str, ...]
    reducer: str
    grid: ScenarioGrid | None = None
    cells: tuple[CellSpec, ...] = ()
    config: Params = ()
    scale: float = 1.0
    seed: int = 0
    share_brackets: bool = True

    def __post_init__(self) -> None:
        object.__setattr__(self, "headers", tuple(self.headers))
        object.__setattr__(self, "cells", tuple(self.cells))
        object.__setattr__(self, "config", freeze_params(self.config))
        if self.grid is None and not self.cells:
            raise ValueError("an experiment spec needs a scenario grid or function cells")
        reducer_info(self.reducer)  # fail fast on unknown reducer names
        keys = [c.key for c in self.cells]
        if self.grid is not None:
            keys += [f"grid/{k}" for k in self.grid.keys()]
        if len(set(keys)) != len(keys):
            raise ValueError("cell keys must be unique within an experiment spec")

    # -- orchestration -----------------------------------------------------

    def units(self) -> list:
        """All work units: scenario cells (brackets factored) + function cells."""
        from ..experiments.orchestrator import WorkUnit

        units = []
        if self.grid is not None:
            keys = [f"grid/{k}" for k in self.grid.keys()]
            from .runtime import scenario_units

            units.extend(scenario_units(list(self.grid.scenarios), keys=keys,
                                        share_brackets=self.share_brackets))
        for cell in self.cells:
            units.append(WorkUnit(key=cell.key, fn=cell.fn, params=thaw_params(cell.params)))
        return units

    def points(self) -> list[tuple[str, dict[str, Any]]]:
        """``(cell key, axis coordinates)`` in grid declaration order."""
        out: list[tuple[str, dict[str, Any]]] = []
        if self.grid is not None:
            out.extend(zip((f"grid/{k}" for k in self.grid.keys()),
                           self.grid.point_dicts()))
        out.extend((cell.key, thaw_params(cell.point)) for cell in self.cells)
        return out

    def to_sweep(self):
        """The orchestrator :class:`SweepSpec` executing this experiment."""
        from ..experiments.orchestrator import SweepSpec

        return SweepSpec(self.experiment_id, tuple(self.units()),
                         finalize=FINALIZE_FN, scale=self.scale, seed=self.seed,
                         meta=self)

    def run(self, *, jobs: int = 1, store=None, rerun: bool = False,
            executor=None, spool=None, spool_timeout=None):
        """Execute through the orchestrator; returns the ExperimentResult.

        ``executor``/``spool``/``spool_timeout`` select an execution
        backend exactly as :func:`repro.experiments.orchestrator.execute`
        does — e.g. ``executor="spool"`` hands the spec's cells to
        external ``mobile-server worker`` processes.
        """
        from ..experiments.orchestrator import execute_spec

        return execute_spec(self.to_sweep(), jobs=jobs, store=store, rerun=rerun,
                            executor=executor, spool=spool,
                            spool_timeout=spool_timeout)

    # -- serialization -----------------------------------------------------

    def to_dict(self) -> dict[str, Any]:
        return {
            "experiment_id": self.experiment_id,
            "title": self.title,
            "headers": list(self.headers),
            "reducer": self.reducer,
            "grid": None if self.grid is None else self.grid.to_dict(),
            "cells": [cell.to_dict() for cell in self.cells],
            "config": thaw_params(self.config),
            "scale": self.scale,
            "seed": self.seed,
            "share_brackets": self.share_brackets,
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "ExperimentSpec":
        return cls(
            experiment_id=payload["experiment_id"],
            title=payload["title"],
            headers=tuple(payload["headers"]),
            reducer=payload["reducer"],
            grid=None if payload.get("grid") is None
            else ScenarioGrid.from_dict(payload["grid"]),
            cells=tuple(CellSpec.from_dict(c) for c in payload.get("cells", ())),
            config=freeze_params(payload.get("config")),
            scale=payload.get("scale", 1.0),
            seed=payload.get("seed", 0),
            share_brackets=payload.get("share_brackets", True),
        )


def finalize_spec(results: Mapping[str, Any], scale: float, seed: int,
                  meta: ExperimentSpec):
    """Generic orchestrator finalize: route payloads through the reducer."""
    from ..experiments.runner import ExperimentResult

    reduction = reduce_cells(meta.reducer, results, points=meta.points(),
                             config=thaw_params(meta.config), scale=scale, seed=seed)
    return ExperimentResult(
        experiment_id=meta.experiment_id,
        title=meta.title,
        headers=list(meta.headers),
        rows=reduction.rows,
        notes=reduction.notes,
        passed=reduction.passed,
    )
