"""Exception types for seeding runs that fail.

A bad argument is a caller's mistake and raises ValueError; a SeederError
means a run with valid arguments could not produce what was asked.
"""


class SeederError(Exception):
    """Base class for operational failures in the seeding pipeline."""


class StuckClockError(SeederError):
    """The clock never advanced while being probed."""


class NonMonotonicTimerError(SeederError):
    """The timer stepped backwards, or is not flagged monotonic."""


class InsufficientEntropyError(SeederError):
    """The trace's distinct-delta count is below the quality floor, or a seed
    run, or tuning until the floor is met, would exceed its time budget.

    Raised before any seed material is produced; nothing is written.
    """


class ShortStreamError(SeederError):
    """The byte stream ran dry before the requested block count.

    Carries the partial tally in ``partial`` so callers can still report it.
    """

    def __init__(self, message: str, partial):
        super().__init__(message)
        self.partial = partial
