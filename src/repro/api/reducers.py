"""Table rows from grid cells: the one generic fold experiments share.

An experiment's ``finalize`` receives its computed cell payloads keyed
by unit key.  When its table is one row per grid point — the point's
axis coordinates followed by fields of that point's payload —
:func:`reduce_cells` builds the rows; anything bespoke (means per group,
pass criteria, notes) stays in the experiment's own ``finalize``.
"""

from __future__ import annotations

from typing import Any, Mapping, Sequence, Tuple

__all__ = ["reduce_cells"]


def reduce_cells(
    cells: Mapping[str, Any],
    points: Sequence[Tuple[str, Mapping[str, Any]]],
    columns: Sequence[str],
) -> list[list[Any]]:
    """One row per ``(unit key, axis coordinates)`` pair, in ``points`` order.

    Each row is the coordinates' values followed by the payload fields
    named in ``columns``.
    """
    return [[*point.values(), *(cells[key][col] for col in columns)]
            for key, point in points]
