"""The benchmark's tracer still binds every package name it wraps.

``perfbench/tracer.py`` rebinds public functions and methods of the
package by name (``solve_grid``, ``batched_weiszfeld``,
``reduce_cells``, ``SessionPool.tick``, ...).  Installing it and
restoring it here makes a deleted or renamed binding fail in the test
suite, and checks that a restore leaves every binding as it found it.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

# Every package the tracer reaches, imported up front so the snapshot
# below covers the modules it patches.
import repro.api  # noqa: F401
import repro.experiments  # noqa: F401
import repro.offline.dp_grid  # noqa: F401
import repro.serve.server  # noqa: F401
import repro.workloads.graphnet  # noqa: F401

TRACER_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    # Its dataclasses resolve string annotations through sys.modules.
    sys.modules[spec.name] = module
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module


def _bindings() -> dict:
    """``(owner, name) -> id`` of every attribute of the loaded package."""
    out = {}
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "repro" or name.startswith("repro.")):
            continue
        for key, value in list(vars(module).items()):
            out[(name, key)] = id(value)
            if isinstance(value, type) and value.__module__ == name:
                for attr, member in value.__dict__.items():
                    out[(f"{name}.{key}", attr)] = id(member)
    return out


@pytest.mark.skipif(not TRACER_PATH.exists(), reason="perfbench/ is not in this checkout")
def test_tracer_installs_and_restores_every_binding():
    tracer = _load_tracer()
    before = _bindings()
    installed = tracer.install(tracer.Tracer())
    try:
        assert installed.replaced, "the tracer wrapped nothing"
        for owner, attr, original in installed.replaced:
            assert getattr(owner, attr) is not original
        wrapped = {attr for _, attr, _ in installed.replaced}
        for name in ("solve_line", "solve_grid", "batched_weiszfeld",
                     "batched_request_center", "reduce_cells", "simulate_batch",
                     "run_fused", "advance_lanes", "minimize", "tick"):
            assert name in wrapped, f"the tracer no longer wraps {name}"
    finally:
        installed.restore()
    after = _bindings()
    changed = sorted(key for key, ident in before.items() if after.get(key) != ident)
    assert not changed, f"restore() left these bindings changed: {changed[:10]}"
