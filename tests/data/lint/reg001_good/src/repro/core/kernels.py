"""REG001 good fixture: every kernel bound to a registry name."""


class StepKernel:
    def __init__(self, name):
        self.name = name


_BETA = StepKernel("beta")

KERNELS = {
    "alpha": StepKernel("alpha"),
    "beta": _BETA,
    "beta-soft": _BETA,
}
