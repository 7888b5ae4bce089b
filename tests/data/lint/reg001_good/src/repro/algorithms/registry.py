"""REG001 good fixture: every kernel is registry-addressable."""


def _make():
    return object()


ALGORITHMS = {
    "alpha": _make,
    "beta": _make,
    "beta-soft": _make,
    "scalar-only": _make,
}
