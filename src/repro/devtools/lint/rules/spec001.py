"""SPEC001 — experiment ids are unique.

Every experiment is addressed by its id in one dict literal (``SPECS``
in ``experiments/__init__.py``; ``EXPERIMENTS`` is derived from it) and
by the id its module passes to
:class:`~repro.experiments.orchestrator.SweepSpec` — the first
positional argument or ``experiment_id=``.  A duplicate literal key in
a dict is legal Python that silently drops the earlier entry, and two
modules claiming the same experiment id would collide in reports and
content-addressed work-unit keys — neither failure mode surfaces in
tests until the shadowed experiment is missed.

This project-wide rule checks, purely from the ASTs:

* ``SPECS`` contains no duplicate literal keys;
* no two experiment modules construct a ``SweepSpec`` with the same
  literal experiment id.

Like REG001, the rule reads its registry module by fixed repo-relative
path and silently skips when it is absent (linting fixtures or a
different tree).
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Tuple

from ..findings import Finding
from ..index import ModuleIndex, ParsedModule
from ..registry import rule
from .reg001 import _dict_assignment

__all__ = ["check_spec001"]

REGISTRY_PATH = "src/repro/experiments/__init__.py"
EXPERIMENTS_DIR = "src/repro/experiments/"


def _literal_key_occurrences(dict_node: ast.Dict) -> List[Tuple[str, int]]:
    """Every constant-string key with its line, duplicates included."""
    return [
        (key.value, key.lineno)
        for key in dict_node.keys
        if isinstance(key, ast.Constant) and isinstance(key.value, str)
    ]


def _spec_ids(module: ParsedModule) -> List[Tuple[str, int]]:
    """Literal experiment ids of ``SweepSpec(...)`` calls.

    The id is the first positional argument or the ``experiment_id=``
    keyword; non-literal ids are not checked.
    """
    out: List[Tuple[str, int]] = []
    for node in ast.walk(module.tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = func.id if isinstance(func, ast.Name) else (
            func.attr if isinstance(func, ast.Attribute) else None
        )
        if name != "SweepSpec":
            continue
        ids = node.args[:1] + [kw.value for kw in node.keywords
                               if kw.arg == "experiment_id"]
        out.extend((value.value, value.lineno) for value in ids
                   if isinstance(value, ast.Constant) and isinstance(value.value, str))
    return out


@rule(
    "SPEC001",
    "experiment ids are unique across SPECS and SweepSpec declarations",
    project=True,
)
def check_spec001(index: ModuleIndex) -> Iterator[Finding]:
    registry = index.module(REGISTRY_PATH)
    if registry is None:
        return

    specs = _dict_assignment(registry, "SPECS")
    seen: Dict[str, int] = {}
    for key, line in _literal_key_occurrences(specs) if specs is not None else ():
        if key in seen:
            yield Finding(
                path=registry.relpath, line=line, col=0, rule="SPEC001",
                message=f"duplicate SPECS key {key!r} (first at line "
                        f"{seen[key]}) — the earlier entry is silently "
                        "shadowed",
            )
        else:
            seen[key] = line

    # Experiment id literals across the experiment modules: the first
    # module to claim an id owns it; later claimants are findings.
    claimed: Dict[str, Tuple[str, int]] = {}
    for module in sorted(index, key=lambda m: m.relpath):
        if not module.relpath.startswith(EXPERIMENTS_DIR):
            continue
        if module.relpath == REGISTRY_PATH:
            continue
        ids = _spec_ids(module)
        local_seen: Dict[str, int] = {}
        for experiment_id, line in ids:
            owner = claimed.get(experiment_id)
            if owner is not None and owner[0] != module.relpath:
                yield Finding(
                    path=module.relpath, line=line, col=0, rule="SPEC001",
                    message=f"experiment id {experiment_id!r} is already "
                            f"declared by {owner[0]} (line {owner[1]}) — "
                            "ids must be unique across experiment modules",
                )
                continue
            # Repeats inside one module are one experiment restated
            # (e.g. a helper building the spec twice); not a collision.
            local_seen.setdefault(experiment_id, line)
        for experiment_id, line in local_seen.items():
            claimed.setdefault(experiment_id, (module.relpath, line))
