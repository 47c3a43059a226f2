"""Shared exception types."""


class ResourceLimitError(RuntimeError):
    """A library enumeration exceeded its desk-scale cap."""
