"""Fixture registry with every SPEC001 failure mode.

* ``"E1"`` appears twice in SPECS (the first entry is shadowed);
* ``e3_imposter`` re-declares ``SweepSpec("E1", ...)`` (see that module).
"""

from . import e1_first, e2_second, e3_imposter

SPECS = {
    "E1": e1_first.build_spec,
    "E2": e2_second.build_spec,
    "E1": e1_first.build_spec,
    "E3": e3_imposter.build_spec,
}

EXPERIMENTS = {eid: SPECS[eid] for eid in SPECS}
