"""Experiment harness: one module per reproduced theorem/lemma.

``SPECS`` (id → ``build_spec(scale, seed)``) is the one experiment
table: every experiment is an orchestrator sweep whose work units
execute in parallel across processes and cache per-cell in a persistent
results store, so the whole suite shares one scheduler, one cache and
one ``--jobs`` fan-out.  ``EXPERIMENTS`` is derived from it (id →
``run(scale, seed)`` executing that sweep inline); :func:`run_all`
executes a subset and returns the results.
"""

from functools import partial
from typing import Callable, Dict

from . import (
    e1_thm1,
    e2_thm2,
    e3_thm3,
    e4_mtc_line,
    e5_mtc_plane,
    e6_answer_first,
    e7_moving_client_lb,
    e8_moving_client_mtc,
    e9_lemma6,
    e10_lemma5,
    e11_potential,
    e12_ablation,
    e13_baselines,
    e14_multi_agent,
    e15_multi_server,
    e16_facility,
    e17_dimension,
)
from .orchestrator import ExecutionReport, SweepSpec, execute, execute_spec
from .runner import ExperimentResult

#: Every experiment declared as an orchestrator sweep (id → spec builder).
#: Each module's ``build_spec`` lists its work units — generic
#: :class:`repro.api.Scenario` cells from
#: :func:`repro.api.runtime.scenario_units` (shared brackets factored out)
#: and/or module-level function cells — and names the module's
#: ``finalize``, which folds the payloads into the table.
SPECS: Dict[str, Callable[[float, int], SweepSpec]] = {
    "E1": e1_thm1.build_spec,
    "E2": e2_thm2.build_spec,
    "E3": e3_thm3.build_spec,
    "E4": e4_mtc_line.build_spec,
    "E5": e5_mtc_plane.build_spec,
    "E6": e6_answer_first.build_spec,
    "E7": e7_moving_client_lb.build_spec,
    "E8": e8_moving_client_mtc.build_spec,
    "E9": e9_lemma6.build_spec,
    "E10": e10_lemma5.build_spec,
    "E11": e11_potential.build_spec,
    "E12": e12_ablation.build_spec,
    "E13": e13_baselines.build_spec,
    "E14": e14_multi_agent.build_spec,
    "E15": e15_multi_server.build_spec,
    "E16": e16_facility.build_spec,
    "E17": e17_dimension.build_spec,
}


def _run(eid: str, scale: float = 1.0, seed: int = 0) -> ExperimentResult:
    return execute_spec(SPECS[eid](scale, seed))


#: ``EXPERIMENTS[eid](scale=..., seed=...)`` runs one experiment inline.
EXPERIMENTS: Dict[str, Callable[..., ExperimentResult]] = {eid: partial(_run, eid) for eid in SPECS}


def build_specs(ids: list[str] | None = None, scale: float = 1.0, seed: int = 0) -> list[SweepSpec]:
    """One spec per requested experiment (all by default)."""
    chosen = ids if ids is not None else list(SPECS)
    for eid in chosen:
        if eid not in SPECS:
            raise KeyError(f"unknown experiment {eid!r}; available: {', '.join(SPECS)}")
    return [SPECS[eid](scale, seed) for eid in chosen]


def run_all_detailed(
    ids: list[str] | None = None,
    scale: float = 1.0,
    seed: int = 0,
    jobs: int = 1,
    store=None,
    rerun: bool = False,
    executor=None,
    spool=None,
    spool_timeout=None,
) -> ExecutionReport:
    """Run experiments through the orchestrator; report includes cache stats.

    ``store`` is a :class:`repro.core.store.ResultsStore` (or ``None`` to
    compute everything); ``jobs`` fans the pooled work units of *all*
    requested experiments out across processes; ``rerun`` recomputes and
    overwrites cached cells.  ``executor``/``spool``/``spool_timeout``
    select an explicit execution backend (see
    :func:`repro.experiments.orchestrator.execute`) — e.g.
    ``executor="spool"`` with a spool directory drained by external
    ``mobile-server worker`` processes.
    """
    specs = build_specs(ids, scale=scale, seed=seed)
    return execute(specs, jobs=jobs, store=store, rerun=rerun,
                   executor=executor, spool=spool, spool_timeout=spool_timeout)


def run_all(
    ids: list[str] | None = None,
    scale: float = 1.0,
    seed: int = 0,
    jobs: int = 1,
    store=None,
    rerun: bool = False,
    executor=None,
    spool=None,
    spool_timeout=None,
) -> list[ExperimentResult]:
    """Run the named experiments (all by default) and return their results."""
    return run_all_detailed(ids, scale=scale, seed=seed, jobs=jobs, store=store,
                            rerun=rerun, executor=executor, spool=spool,
                            spool_timeout=spool_timeout).results


__all__ = [
    "EXPERIMENTS",
    "SPECS",
    "ExperimentResult",
    "build_specs",
    "run_all",
    "run_all_detailed",
]
