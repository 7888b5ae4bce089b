"""``repro.api`` — the stable public surface of the reproduction.

One declarative object, one entry point::

    from repro.api import Scenario, run

    sc = Scenario.workload(
        "drift", algorithm="mtc",
        params={"T": 200, "dim": 1, "D": 4.0, "speed": 0.8},
        seeds=range(8), delta=0.5, ratio="bracket",
    )
    result = run(sc)

A :class:`Scenario` names its request source (workload or adversary
registry entry + params), its algorithm (registry entry + params), the
seed sweep, augmentation, certification mode and the metric space the
run happens in (``metric="euclidean"|"l1"|"linf"|"graph"``, see
:mod:`repro.core.metric`); :func:`run` plays it on the batched
lock-step engine (``engine="scalar"`` picks the reference simulator
loop — bit-identical either way) and returns a :class:`RunResult`.  Scenarios serialize to
plain JSON (:meth:`Scenario.to_dict`) and carry a content address
(:meth:`Scenario.digest`) in the persistent results store, shared with
the experiment orchestrator's scenario cells.

Sweeps are declarative too: :meth:`Scenario.grid` expands axis values
(sources × algorithms × params × δ) into a
:class:`~repro.api.grid.ScenarioGrid` whose cells keep their standalone
content addresses (shared offline-bracket cells factor out as
address-neutral soft dependencies); :func:`run_many` takes ``jobs=N``
to fan a scenario list over the orchestrator's process pool; and an
:class:`ExperimentSpec` pairs a grid with a registry-addressed reducer
(:mod:`repro.api.reducers`) so a whole experiment is one object:
grid + reducer name + formatting.

Prefer this module over importing :mod:`repro.core.simulator` /
:mod:`repro.core.engine` directly: the engines remain public for custom
loops, but everything expressible as *source × algorithm × seeds* should
go through a scenario.
"""

from ..adversaries.registry import (
    ADVERSARIES,
    AdaptiveGame,
    AdversaryInfo,
    BoundAdversary,
    adversary_info,
    available_adversaries,
    make_adversary,
    register_adversary,
)
from ..algorithms.registry import (
    AlgorithmInfo,
    algorithm_info,
    available_algorithms,
    compatible_algorithms,
    make_algorithm,
)
from ..core.metric import (
    METRICS,
    Metric,
    available_metrics,
    get_metric,
    register_metric,
)
from ..workloads.registry import (
    WORKLOADS,
    WorkloadInfo,
    available_workloads,
    make_workload,
    register_workload,
    workload_info,
)
from .grid import ScenarioGrid, expand_axes, fixed
from .reducers import (
    REDUCERS,
    Reduction,
    ReducerInfo,
    available_reducers,
    reduce_cells,
    reducer_info,
    register_reducer,
)
from .runtime import (
    BRACKET_FN,
    RunResult,
    build_instances,
    cell_brackets,
    cell_run,
    resolve,
    run,
    run_many,
    scenario_unit,
    scenario_units,
)
from .scenario import CELL_FN, Scenario, freeze_params, thaw_params
from .spec import CellSpec, ExperimentSpec, cell_grid, finalize_spec

__all__ = [
    "ADVERSARIES",
    "BRACKET_FN",
    "CELL_FN",
    "METRICS",
    "REDUCERS",
    "WORKLOADS",
    "AdaptiveGame",
    "AdversaryInfo",
    "AlgorithmInfo",
    "BoundAdversary",
    "CellSpec",
    "ExperimentSpec",
    "Metric",
    "Reduction",
    "ReducerInfo",
    "RunResult",
    "Scenario",
    "ScenarioGrid",
    "WorkloadInfo",
    "adversary_info",
    "algorithm_info",
    "available_adversaries",
    "available_algorithms",
    "available_metrics",
    "available_reducers",
    "available_workloads",
    "build_instances",
    "cell_brackets",
    "cell_grid",
    "cell_run",
    "compatible_algorithms",
    "expand_axes",
    "finalize_spec",
    "fixed",
    "freeze_params",
    "get_metric",
    "make_adversary",
    "make_algorithm",
    "make_workload",
    "reduce_cells",
    "reducer_info",
    "register_adversary",
    "register_metric",
    "register_reducer",
    "register_workload",
    "resolve",
    "run",
    "run_many",
    "scenario_unit",
    "scenario_units",
    "thaw_params",
    "workload_info",
]
