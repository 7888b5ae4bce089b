"""REG001 bad fixture: a batched entry no registry name reaches."""


class BatchedAlpha:
    pass


VECTORIZED = {
    "alpha": BatchedAlpha,
    "orphan-entry": BatchedAlpha,  # not in ALGORITHMS at all
}
