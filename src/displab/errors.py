"""Exception types shared across the package."""


class DisplabError(Exception):
    """Base class for all displab errors."""


class ParseError(DisplabError):
    """Malformed digraph file, family string or CLI input."""


class SizeLimitError(DisplabError):
    """Input exceeds a hard size cap of the requested algorithm."""


class CapExceededError(DisplabError):
    """An enumeration would produce more objects than the configured cap."""

