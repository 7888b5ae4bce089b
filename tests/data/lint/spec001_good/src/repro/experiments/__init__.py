"""Fixture registry in single-table form: SPECS is the only literal table."""

from . import e1_first, e2_second

SPECS = {
    "E1": e1_first.build_spec,
    "E2": e2_second.build_spec,
}

EXPERIMENTS = {eid: SPECS[eid] for eid in SPECS}
