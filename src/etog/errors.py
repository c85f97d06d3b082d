"""Shared exception types."""


class EtogError(Exception):
    """Base class for all library errors."""


class SpecMismatchError(EtogError):
    """An element was used under a group spec it does not belong to."""


class UnknownColorError(EtogError):
    """A word contains a color outside the declared alphabet."""


class FirstCoefficientMissingError(EtogError):
    """No usable leading coefficient was found for a non-identity word.

    Mathematically impossible when expanding up to the word's length; raised
    only to surface an implementation bug instead of mis-ordering elements.
    """


class InputFileError(EtogError):
    """An input file could not be read or is not ASCII text."""


class NotationError(EtogError, ValueError):
    """Malformed group spec, element literal, valuation file or condition spec,
    or a malformed argument to the constructor or function that owns the
    invariant (``FreeGroup``, ``MisorderedFreeGroup``, ``LexVectors``,
    ``reduce_word``, ``Valuation``, ``UnionCondition``, ``parity_condition``)."""


class UnknownGeneratorError(NotationError):
    """A letter refers to a generator outside the declared generating set."""


class ArenaError(EtogError, ValueError):
    """Malformed arena description."""


class MissingMachineEntryError(ArenaError):
    """A play needs the entry under ``key`` in ``table``, and it is not there.

    ``table`` is the mapping of a finite-memory strategy's moves or of its
    updates, or a positional strategy's ``choice``."""

    def __init__(self, message: str, table, key) -> None:
        super().__init__(message)
        self.table = table
        self.key = key


class MissingOutgoingEdgeError(ArenaError):
    """A declared node has no outgoing edge."""


class DuplicateNodeError(ArenaError):
    """The same node identifier was declared twice."""


class UnknownEndpointError(ArenaError):
    """An edge endpoint was never declared as a node."""
