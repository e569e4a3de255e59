"""Exception hierarchy shared by all modules."""


class PlethysmError(Exception):
    """Base class for all package errors."""


class MalformedPartitionError(PlethysmError, ValueError):
    """Blocks overlap, miss elements, a part sequence is not a partition, or a
    size or setting given by the user is out of range."""


class SizeMismatchError(PlethysmError, ValueError):
    """Operands live on different ground sets."""


class ResourceCapError(PlethysmError):
    """A request exceeds the configured enumeration or memory cap."""


class UnsupportedRegimeError(PlethysmError):
    """Coefficient query outside both the stable and the oracle regime."""


class InternalConsistencyError(PlethysmError):
    """A structural guarantee failed (refinement broke, non-integer multiplicity)."""
