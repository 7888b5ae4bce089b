"""REG001 — kernel/registry/parity-test completeness across files.

The fused-kernel fast path is only trustworthy because three artifacts
stay in lock-step: the :data:`repro.core.kernels.KERNELS` registry, which
binds each kernel to an algorithm *registry name* (the single source of
the engine's dispatch and of ``VECTORIZED``), the ``ALGORITHMS``
registry those names must exist in, and the bit-parity suite in
``tests/test_kernels.py`` that proves fused == scalar reference.  A new algorithm that lands in one place but not the others
either silently loses the fast path or — worse — gains an unproven one.

This project-wide rule checks, purely from the ASTs:

* every ``KERNELS`` key is an ``ALGORITHMS`` key (no dead kernels the
  engine can never select by name).  ``VECTORIZED`` needs no check of its
  own: it is a comprehension over ``KERNELS``, so its keys are exactly
  the ``KERNELS`` keys this check already ties to ``ALGORITHMS``;
* the parity test module references every kernel — either by importing
  ``KERNELS`` itself (parametrizing over the registry covers all
  entries, present and future) or by naming each kernel as a string
  literal.

The rule reads its source modules by fixed repo-relative path and
silently skips when they are absent (linting a tree that is not this
project, or fixtures).
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, Optional

from ..findings import Finding
from ..index import ModuleIndex, ParsedModule
from ..registry import rule

__all__ = ["check_reg001"]

KERNELS_PATH = "src/repro/core/kernels.py"
ALGORITHMS_PATH = "src/repro/algorithms/registry.py"
PARITY_TEST_PATH = "tests/test_kernels.py"


def _dict_assignment(module: ParsedModule, name: str) -> Optional[ast.Dict]:
    for node in module.tree.body:
        target = None
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            target = node.targets[0]
        elif isinstance(node, ast.AnnAssign):
            target = node.target
        if (
            isinstance(target, ast.Name)
            and target.id == name
            and isinstance(getattr(node, "value", None), ast.Dict)
        ):
            return node.value
    return None


def _string_keys(dict_node: ast.Dict) -> Dict[str, int]:
    """``{key: line}`` for every constant-string dict key."""
    keys: Dict[str, int] = {}
    for key in dict_node.keys:
        if isinstance(key, ast.Constant) and isinstance(key.value, str):
            keys[key.value] = key.lineno
    return keys


def _imports_kernels_registry(module: ParsedModule) -> bool:
    """Whether the test module binds the KERNELS registry itself.

    ``KERNELS`` is re-exported through ``repro.core``, so any from-import
    binding that name counts — parametrizing over the registry covers
    every present and future kernel by construction.
    """
    for node in ast.walk(module.tree):
        if isinstance(node, ast.ImportFrom) and any(
            alias.name == "KERNELS" for alias in node.names
        ):
            return True
    return False


def _string_literals(module: ParsedModule) -> set:
    return {
        node.value
        for node in ast.walk(module.tree)
        if isinstance(node, ast.Constant) and isinstance(node.value, str)
    }


@rule(
    "REG001",
    "every StepKernel is bound to a registry name and has a parity test",
    project=True,
)
def check_reg001(index: ModuleIndex) -> Iterator[Finding]:
    ker = index.module(KERNELS_PATH)
    reg = index.module(ALGORITHMS_PATH)
    if ker is None or reg is None:
        return
    kernels = _dict_assignment(ker, "KERNELS")
    algorithms = _dict_assignment(reg, "ALGORITHMS")
    if kernels is None or algorithms is None:
        return
    kernel_keys = _string_keys(kernels)
    algo_keys = _string_keys(algorithms)

    for name, line in sorted(kernel_keys.items()):
        if name not in algo_keys:
            yield Finding(
                path=ker.relpath, line=line, col=0, rule="REG001",
                message=f"StepKernel {name!r} is bound to a name with no "
                        "ALGORITHMS registry entry — dead kernel the engine "
                        "can never select",
            )

    parity = index.module(PARITY_TEST_PATH)
    if parity is None:
        first = min(kernel_keys.values(), default=1)
        yield Finding(
            path=ker.relpath, line=first, col=0, rule="REG001",
            message=f"kernel parity test module {PARITY_TEST_PATH} not found — "
                    "fused kernels without a bit-parity suite",
        )
        return
    if _imports_kernels_registry(parity):
        return  # parametrizes over KERNELS itself: covers every entry.
    literals = _string_literals(parity)
    for kernel_name, line in sorted(kernel_keys.items()):
        if kernel_name not in literals:
            yield Finding(
                path=ker.relpath, line=line, col=0, rule="REG001",
                message=f"kernel {kernel_name!r} is never referenced by "
                        f"{PARITY_TEST_PATH} — add it to the parity suite "
                        "(or parametrize over KERNELS)",
            )
