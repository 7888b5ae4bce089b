"""REG001 bad fixture: the algorithm registry (missing 'ghost' and 'orphan-entry')."""


def _make_alpha():
    return object()


ALGORITHMS = {
    "alpha": _make_alpha,
}
