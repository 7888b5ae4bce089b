"""REG001 bad fixture: a kernel bound to a name the registry lacks."""


class StepKernel:
    def __init__(self, name):
        self.name = name


KERNELS = {
    "alpha": StepKernel("alpha"),
    "ghost": StepKernel("ghost"),  # no ALGORITHMS entry binds this name
}
