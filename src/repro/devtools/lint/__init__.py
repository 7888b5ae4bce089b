"""``reprolint`` — AST-based invariant linter for the reproduction.

The parity tests prove determinism, crash-safety and kernel parity
*after the fact*; this package enforces the code shapes those proofs
rest on *by construction*:

========  ==============================================================
RNG001    no seedless ``default_rng()`` / legacy ``np.random.*`` globals
          in ``src/`` (silent nondeterminism)
CLK001    no wall-clock reads flowing into digest/store/spool-task
          content (timing-only bindings allowlisted)
IO001     file writes in the store/executor layers route through
          tmp+rename, never bare ``open(.., "w")``
DET001    digest inputs are order-stable: ``sort_keys`` JSON, no set
          iteration feeding ``hashlib``
REG001    ``KERNELS`` registry names ↔ ``ALGORITHMS`` entries ↔ parity
          tests stay complete across files
API001    ``__all__`` matches real bindings; deprecation shims raise
          ``DeprecationWarning``
========  ==============================================================

Run it as ``mobile-server lint [paths ...]`` (``--json`` for the machine
schema, ``--list`` for the rule table); CI gates on a clean tree.  Rules
are plugins: a module under :mod:`repro.devtools.lint.rules` registers
itself with the :func:`~repro.devtools.lint.registry.rule` decorator —
the same registry idiom algorithms and workloads use.  Per-line escape
hatch: ``# reprolint: allow[RULE] reason=...`` (the reason is mandatory
and audited).
"""

from .findings import Finding
from .index import ModuleIndex, ParsedModule, Suppression
from .registry import RULES, LintRule, available_rules, register_rule, rule, rule_info
from .runner import JSON_SCHEMA_VERSION, META_RULES, LintReport, run_lint
from . import rules  # noqa: F401  (imports populate RULES)

__all__ = [
    "JSON_SCHEMA_VERSION",
    "META_RULES",
    "RULES",
    "Finding",
    "LintReport",
    "LintRule",
    "ModuleIndex",
    "ParsedModule",
    "Suppression",
    "available_rules",
    "register_rule",
    "rule",
    "rule_info",
    "run_lint",
]
