"""Exception types shared across the toolkit."""


class CapExceededError(RuntimeError):
    """A configured search-space cap was exceeded.

    Distinct from a negative verdict: the caller must not treat it as
    evidence either way.
    """


class TheoremViolationError(RuntimeError):
    """Bug sentinel: a guaranteed construction failed above the bound.

    Raised when the input size meets the proven threshold yet the witness
    search or extraction could not deliver, which can only mean an
    implementation defect.
    """


class PartitionConstructionError(RuntimeError):
    """A part or remainder failed to certify a witness: a bug, not retried."""
