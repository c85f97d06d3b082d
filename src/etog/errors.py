"""Shared exception types, and the one owner of error text.

Every refusal that quotes text from outside the library (a literal, a spec, a
file line, a path, a color or a node name) quotes it through :func:`echo`, so
that no refusal repeats a long input in full.
"""

# A refusal echoes user text up to this many characters, as a repr of at most
# this many characters plus its two quotes.
_ECHO_HEAD = 40


def echo(text: str) -> str:
    """``text`` as a refusal quotes it: its repr when that is at most
    :data:`_ECHO_HEAD` + 2 characters long, or else the repr of the longest
    head whose repr fits that bound, then ``…``, then the text's length, so
    that a refusal stays short however many characters the repr escapes."""
    heads = (text[:k] for k in range(min(len(text), _ECHO_HEAD), -1, -1))
    head = next(h for h in heads if len(repr(h)) <= _ECHO_HEAD + 2)
    if head == text:
        return repr(text)
    return f"{head!r}… ({len(text)} characters)"


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
    """An input file could not be read, is not ASCII text, or holds more than
    ``notation.MAX_INPUT_CHARS`` (2**20) characters."""


class NotationError(EtogError, ValueError):
    """Malformed group spec, element literal, valuation file or condition spec,
    or a malformed argument to the constructor or function that owns the
    invariant (``FreeGroup``, ``MisorderedFreeGroup``, ``LexVectors``,
    ``reduce_word``, ``Valuation``, ``UnionCondition``, ``parity_condition``,
    ``up_member_oracle``, ``verify_union_strategy``, ``negative_word_rows``)."""


class UnknownGeneratorError(NotationError):
    """A letter refers to a generator outside the declared generating set."""


class ArenaError(EtogError, ValueError):
    """Malformed arena description."""


class MissingMachineEntryError(ArenaError):
    """A play needs a strategy entry that is not there: a finite-memory
    strategy's move or update, or a positional strategy's choice.  The
    message names the state, node or edge of the missing entry."""


class MissingOutgoingEdgeError(ArenaError):
    """A declared node has no outgoing edge."""


class DuplicateNodeError(ArenaError):
    """The same node identifier was declared twice."""


class UnknownEndpointError(ArenaError):
    """An edge endpoint was never declared as a node."""
