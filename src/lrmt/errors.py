"""Exception hierarchy shared across the toolkit."""


class LrmtError(Exception):
    """Base class for all toolkit errors."""


class IngestError(LrmtError):
    """A file could not be read or written (unopenable, wrong format, too many bad rows)."""


class ValidationError(LrmtError):
    """A domain invariant or precondition was violated."""


class ProviderError(LrmtError):
    """A remote provider (translation or embedding) failed after retries."""
