"""Parsing and formatting of group specs and element literals; shipped data paths.

Group spec grammar (ASCII, whitespace-tolerant)::

    int | zlex(<d>) | free(<g1>,<g2>,...) | inv(<spec>) | prod(<spec>,<spec>)

Element literal grammar::

    e                    identity of any group
    3                    integer
    (1,0,-1)             lexicographic vector
    a b^-1 a             free word, space-separated letters
    [<elem>;<elem>]      product pair

Refusals quote the text they reject through :func:`errors.echo`, which owns
error text; ``parse_int`` is the one reader of integer literals.
"""

from __future__ import annotations

import re
import sys
from importlib import resources

from .errors import InputFileError, NotationError, echo
from .groups import (
    FreeGroup,
    Integers,
    InverseOrder,
    LexProduct,
    LexVectors,
    OrderedGroup,
    format_word,
    reduce_word,
)

_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*$")

# Specs nest by recursion; deeper input is refused before it can exhaust the
# interpreter stack.
MAX_NESTING = 100

# A zlex(<d>) element is a d-tuple; refuse dimensions no spec needs.
MAX_ZLEX_DIM = 1000

# Input files are read whole; longer input is refused before an endless device
# such as /dev/zero can exhaust memory.
MAX_INPUT_CHARS = 2**20


def _check_nesting(text: str) -> None:
    """Refuse specs whose parentheses nest deeper than :data:`MAX_NESTING`."""
    depth = 0
    for ch in text:
        if ch == "(":
            depth += 1
            if depth > MAX_NESTING:
                raise NotationError(f"spec nested deeper than {MAX_NESTING} levels")
        elif ch == ")":
            depth -= 1


def read_ascii(path: str) -> str:
    """The text of an ASCII input file of at most :data:`MAX_INPUT_CHARS`
    characters; failures raise :class:`InputFileError`."""
    try:
        with open(path, "r", encoding="ascii") as handle:
            text = handle.read(MAX_INPUT_CHARS + 1)
    except (OSError, ValueError) as exc:  # ValueError: non-ASCII bytes, NUL in path
        # an OSError's str() repeats the path; its strerror does not
        reason = exc.strerror if isinstance(exc, OSError) else exc
        raise InputFileError(f"cannot read {echo(path)}: {reason}") from None
    if len(text) > MAX_INPUT_CHARS:
        raise InputFileError(f"cannot read {echo(path)}: more than {MAX_INPUT_CHARS} characters")
    return text


def _data_path(name: str) -> str:
    return str(resources.files("etog").joinpath("data", name))


def shipped_arena_path() -> str:
    return _data_path("refutation_arena.txt")


def shipped_valuation_path() -> str:
    return _data_path("free_valuation.txt")


def parse_int(text: str, refusal: str, literal: str | None = None) -> int:
    """The integer that ``text`` spells; a malformed literal raises
    ``NotationError(refusal.format(shown))``.

    ``shown`` is :func:`echo` of ``literal`` (``text`` when omitted).  Decimal
    digits (those of ``str.isdecimal``) after at most one sign that ``int``
    still refuses are past Python's int-from-str digit limit: that refusal
    names the limit and does not echo the literal.
    """
    try:
        return int(text)
    except ValueError:
        if re.fullmatch(r"\s*[+-]?\d+\s*", text):
            limit = sys.get_int_max_str_digits()
            raise NotationError(f"integer literal has more than {limit} digits") from None
        raise NotationError(refusal.format(echo(text if literal is None else literal))) from None


def _split_top(text: str, separator: str) -> list[str]:
    """Split on a separator that is not nested inside (), [] pairs."""
    parts: list[str] = []
    depth = 0
    current: list[str] = []
    for ch in text:
        if ch in "([":
            depth += 1
        elif ch in ")]":
            depth -= 1
            if depth < 0:
                break
        if ch == separator and depth == 0:
            parts.append("".join(current))
            current = []
        else:
            current.append(ch)
    if depth != 0:
        raise NotationError(f"unbalanced brackets in {echo(text)}")
    parts.append("".join(current))
    return parts


def parse_group(text: str) -> OrderedGroup:
    """Parse a group spec string into an ordered-group object."""
    _check_nesting(text)
    text = text.strip()
    if text == "int":
        return Integers()
    if text.startswith("zlex(") and text.endswith(")"):
        body = text[len("zlex(") : -1].strip()
        dim = parse_int(body, "zlex dimension is not an integer: {}")
        if dim > MAX_ZLEX_DIM:
            raise NotationError(f"zlex dimension must be <= {MAX_ZLEX_DIM}")
        return LexVectors(dim)
    if text.startswith("free(") and text.endswith(")"):
        body = text[len("free(") : -1]
        names = [n.strip() for n in body.split(",")] if body.strip() else []
        for name in names:
            if not _NAME_RE.match(name):
                raise NotationError(f"bad generator name: {echo(name)}")
            if name == "e":
                raise NotationError("generator name 'e' collides with the identity literal")
        return FreeGroup(tuple(names))
    if text.startswith("inv(") and text.endswith(")"):
        return InverseOrder(parse_group(text[len("inv(") : -1]))
    if text.startswith("prod(") and text.endswith(")"):
        parts = _split_top(text[len("prod(") : -1], ",")
        if len(parts) != 2:
            raise NotationError("prod(...) takes exactly two specs")
        return LexProduct(parse_group(parts[0]), parse_group(parts[1]))
    raise NotationError(f"unrecognised group spec: {echo(text)}")


def format_group(spec: OrderedGroup) -> str:
    if isinstance(spec, Integers):
        return "int"
    if isinstance(spec, LexVectors):
        return f"zlex({spec.dim})"
    if isinstance(spec, FreeGroup):
        return f"free({','.join(spec.generators)})"
    if isinstance(spec, InverseOrder):
        return f"inv({format_group(spec.inner)})"
    if isinstance(spec, LexProduct):
        return f"prod({format_group(spec.left)},{format_group(spec.right)})"
    raise NotationError(f"unknown spec object: {spec!r}")


def _parse_letter(token: str) -> tuple[str, int]:
    symbol, exponent = token, 1
    if token.endswith("^-1"):
        symbol, exponent = token[:-3], -1
    elif token.endswith("^1"):
        symbol = token[:-2]
    if not symbol or "^" in symbol:
        raise NotationError(f"bad letter exponent in {echo(token)} (only ^-1 allowed)")
    return symbol, exponent


def parse_element(spec: OrderedGroup, text: str):
    """Parse an element literal under the given spec."""
    text = text.strip()
    if not text:
        raise NotationError("empty element literal")
    if text == "e":
        return spec.identity()
    if isinstance(spec, Integers):
        return parse_int(text, "not an integer literal: {}")
    if isinstance(spec, LexVectors):
        if not (text.startswith("(") and text.endswith(")")):
            raise NotationError(f"vector literal must look like (1,0,-1): {echo(text)}")
        body = text[1:-1].strip()
        entries = [p.strip() for p in body.split(",")] if body else []
        values = tuple(parse_int(p, "non-integer vector entry in {}", text) for p in entries)
        if len(values) != spec.dim:
            raise NotationError(
                f"vector has {len(values)} entries, spec needs {spec.dim}"
            )
        return values
    if isinstance(spec, FreeGroup):
        letters = []
        for token in text.split():
            symbol, exponent = _parse_letter(token)
            if symbol == "e":
                raise NotationError("'e' cannot appear inside a word literal")
            letters.append((symbol, exponent))
        return reduce_word(letters, spec.generators)
    if isinstance(spec, InverseOrder):
        return parse_element(spec.inner, text)
    if isinstance(spec, LexProduct):
        if not (text.startswith("[") and text.endswith("]")):
            raise NotationError(f"product literal must look like [x;y]: {echo(text)}")
        parts = _split_top(text[1:-1], ";")
        if len(parts) != 2:
            raise NotationError("product literal takes exactly two components")
        return (
            parse_element(spec.left, parts[0]),
            parse_element(spec.right, parts[1]),
        )
    raise NotationError(f"cannot parse element for spec {spec!r}")


def _int_text(value: int) -> str:
    try:
        return str(value)
    except ValueError:  # more digits than Python's int-to-str limit
        limit = sys.get_int_max_str_digits()
        raise NotationError(f"cannot print an integer of more than {limit} digits") from None


def format_element(spec: OrderedGroup, element) -> str:
    spec.validate(element)
    if isinstance(spec, Integers):
        return _int_text(element)
    if isinstance(spec, LexVectors):
        return "(" + ",".join(_int_text(a) for a in element) + ")"
    if isinstance(spec, FreeGroup):
        return format_word(element)
    if isinstance(spec, InverseOrder):
        return format_element(spec.inner, element)
    if isinstance(spec, LexProduct):
        return (
            "["
            + format_element(spec.left, element[0])
            + ";"
            + format_element(spec.right, element[1])
            + "]"
        )
    raise NotationError(f"unknown spec object: {spec!r}")
