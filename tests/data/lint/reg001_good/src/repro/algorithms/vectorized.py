"""REG001 good fixture: batched entries derived from KERNELS plus one loop."""

from repro.core.kernels import KERNELS


class KernelAlgorithm:
    def __init__(self, name):
        self.name = name


class BatchedGamma:
    pass


VECTORIZED = {
    **{name: (lambda name=name: KernelAlgorithm(name)) for name in KERNELS},
    "gamma": BatchedGamma,
}
