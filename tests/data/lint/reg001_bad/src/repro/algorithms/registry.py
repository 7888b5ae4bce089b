"""REG001 bad fixture: the algorithm registry (missing 'ghost')."""


def _make_alpha():
    return object()


ALGORITHMS = {
    "alpha": _make_alpha,
}
