"""REG001 good fixture: every kernel and batched entry is registry-addressable."""


def _make():
    return object()


ALGORITHMS = {
    "alpha": _make,
    "beta": _make,
    "beta-soft": _make,
    "gamma": _make,
    "scalar-only": _make,
}
