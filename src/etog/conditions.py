"""Valuations, winning conditions, and membership for ultimately periodic words.

A valuation maps a finite color alphabet into an ordered group and extends to
finite words as a homomorphism.  An energy condition accepts an infinite word
when the sequence of its prefix values has an infinite decreasing subsequence;
a union condition accepts when any member does.  Membership is implemented for
ultimately periodic words only: every play induced by finite-state strategies
on a finite arena is of that shape, and there membership is decided by the
sign of the period's value (the prefix is irrelevant because the conditions
are prefix-independent).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Mapping, Sequence

from .errors import NotationError, UnknownColorError, echo
from .groups import LESS, Integers, InverseOrder, LexProduct, LexVectors, OrderedGroup
from .notation import (
    _check_nesting,
    _split_top,
    format_group,
    parse_element,
    parse_group,
    read_ascii,
)

Word = tuple[str, ...]


@dataclass(frozen=True)
class Valuation:
    """Map from a color alphabet into an ordered group."""

    colors: tuple[str, ...]
    group: OrderedGroup
    mapping: Mapping[str, object]

    def __post_init__(self) -> None:
        if not self.colors:
            raise NotationError("valuation defines no colors")
        if len(set(self.colors)) != len(self.colors):
            raise NotationError("duplicate color")
        if set(self.mapping) != set(self.colors):
            raise NotationError("valuation must assign exactly one image per color")
        for color in self.colors:
            if color.split() != [color]:  # words split on whitespace
                raise NotationError(f"bad color name {echo(color)}")
            self.group.validate(self.mapping[color])

    def value_of(self, color: str):
        try:
            return self.mapping[color]
        except KeyError:
            raise UnknownColorError(f"unknown color {echo(color)}") from None

    def val_word(self, word: Sequence[str]):
        """Homomorphic extension; the empty word maps to the identity."""
        compose, mapping = self.group.compose, self.mapping
        value = self.group.identity()
        for color in word:
            try:
                image = mapping[color]
            except KeyError:
                image = self.value_of(color)  # raises UnknownColorError
            value = compose(value, image)
        return value


@dataclass(frozen=True)
class UPWord:
    """Ultimately periodic word: ``prefix . period^omega``."""

    prefix: Word
    period: Word

    def __post_init__(self) -> None:
        if not self.period:
            raise NotationError("period must be non-empty")

    @classmethod
    def make(cls, prefix, period) -> "UPWord":
        """Coerce 'a b c' or an iterable of color names into each word tuple."""
        words = (tuple(w.split()) if isinstance(w, str) else tuple(w) for w in (prefix, period))
        return cls(*words)


@dataclass(frozen=True)
class EtogCondition:
    """Energy condition over the valuation's ordered group."""

    valuation: Valuation

    @property
    def colors(self) -> tuple[str, ...]:
        return self.valuation.colors

    def up_member(self, word: UPWord) -> bool:
        """Membership of an ultimately periodic word.

        True exactly when the period's value is negative; the prefix is
        validated but ignored (prefix-independence).
        """
        for color in word.prefix:
            self.valuation.value_of(color)
        return self.valuation.group.sign(self.valuation.val_word(word.period)) is LESS


@dataclass(frozen=True)
class UnionCondition:
    """Finite union of energy conditions over one shared color alphabet."""

    members: tuple[EtogCondition, ...]

    def __post_init__(self) -> None:
        if not self.members:
            raise NotationError("union needs at least one member")
        first = self.members[0].colors
        for member in self.members[1:]:
            if set(member.colors) != set(first):
                raise NotationError("union members must share one color alphabet")

    @property
    def colors(self) -> tuple[str, ...]:
        return self.members[0].colors

    def up_member(self, word: UPWord) -> bool:
        return any(member.up_member(word) for member in self.members)


def up_member_oracle(cond: EtogCondition, word: UPWord, horizon: int) -> bool:
    """Brute-force membership check used only as a test oracle.

    Scans the prefix values s_1..s_H of the repeated period (H = ``horizon``
    letters) for a strictly decreasing pair (i, j) with j - i a multiple of
    the period length: such a pair recurs forever and certifies an infinite
    decreasing subsequence, while an unaligned single decrease does not.

    Two prefix indices at distance k periods differ by the value of a chunk of
    k consecutive periods, and that chunk word depends only on (i mod p, k).
    s_j = s_i * value(chunk), so the pair descends exactly when the chunk's
    value is negative (left-invariance of the order, which the order-axiom
    suite checks separately); the scan below therefore walks the distinct
    (offset, gap) chunks instead of materialising every quadratic pair.
    Offsets with equal chunk values share one power loop, resumed where it
    stopped: the group operations are pure, so testing each (chunk value, gap)
    pair once decides the same set.  The prefix is validated, not read.
    """
    period = word.period
    p = len(period)
    if horizon < 2 * p:
        raise NotationError("horizon must cover at least two full periods")
    valuation = cond.valuation
    for color in word.prefix:
        valuation.value_of(color)
    group = valuation.group
    compose, sign = group.compose, group.sign
    reached: dict = {}  # chunk value -> (gaps scanned, chunk^gaps)
    for offset in range(p):
        # smallest 1-based prefix index in this residue class
        first_index = offset if offset >= 1 else p
        max_gap = (horizon - first_index) // p
        chunk = valuation.val_word(period[offset:] + period[:offset])
        gap, acc = reached.get(chunk, (0, group.identity()))
        while gap < max_gap:
            acc = compose(acc, chunk)
            gap += 1
            if sign(acc) is LESS:
                return True
        reached[chunk] = (gap, acc)
    return False


def parity_condition(priorities: int) -> EtogCondition:
    """The max-parity condition on colors '1'..'d' as an energy condition.

    Color k maps to the lexicographic vector with (-1)^k in the coordinate
    that ranks priority k (higher priorities in more significant positions),
    so a period is accepted exactly when the highest priority it repeats is
    odd.
    """
    if priorities < 1:
        raise NotationError("need at least one priority")
    group = LexVectors(priorities)
    mapping = {}
    for k in range(1, priorities + 1):
        vec = [0] * priorities
        vec[priorities - k] = (-1) ** k
        mapping[str(k)] = tuple(vec)
    colors = tuple(str(k) for k in range(1, priorities + 1))
    return EtogCondition(Valuation(colors, group, mapping))


def strictify(valuation: Valuation) -> Valuation:
    """Push a valuation into ``group x int`` so non-empty words never map to 0.

    Every color picks up a second coordinate of 1.  Lexicographic order keeps
    the negative-word set unchanged, while any word that used to sit exactly
    on the identity becomes strictly positive.
    """
    group = LexProduct(valuation.group, Integers())
    mapping = {c: (valuation.mapping[c], 1) for c in valuation.colors}
    return Valuation(valuation.colors, group, mapping)


def parse_valuation(text: str) -> Valuation:
    """Parse the line-based valuation format.

    First meaningful line ``group <spec>``, then one ``val <color> = <elem>``
    line per color; ``#`` starts a comment.
    """
    group: OrderedGroup | None = None
    colors: list[str] = []
    mapping: dict[str, object] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split(None, 1)
        if tokens[0] == "group":
            if group is not None:
                raise NotationError(f"line {lineno}: duplicate group line")
            if len(tokens) != 2:
                raise NotationError(f"line {lineno}: group line needs a spec")
            group = parse_group(tokens[1])
            continue
        if tokens[0] == "val":
            if group is None:
                raise NotationError(f"line {lineno}: 'group <spec>' must come first")
            rest = tokens[1] if len(tokens) == 2 else ""
            if "=" not in rest:
                raise NotationError(f"line {lineno}: expected 'val <color> = <element>'")
            color_part, literal = rest.split("=", 1)
            color = color_part.strip()
            if color in mapping:
                raise NotationError(f"line {lineno}: duplicate color {echo(color)}")
            colors.append(color)
            mapping[color] = parse_element(group, literal)
            continue
        raise NotationError(f"line {lineno}: unrecognised directive {echo(tokens[0])}")
    if group is None:
        raise NotationError("valuation file has no 'group' line")
    return Valuation(tuple(colors), group, mapping)


def load_valuation(path: str) -> Valuation:
    return parse_valuation(read_ascii(path))


def parse_condition(text: str):
    """Parse a condition spec string.

    ``etog(<valuation-file>)`` builds an energy condition from the file,
    ``inv-etog(<valuation-file>)`` the same valuation under the inverse order,
    and ``union(<cond>,<cond>)`` the union of two condition specs.  Relative
    file paths resolve against the current directory.
    """
    _check_nesting(text)
    text = text.strip()
    for head, invert in (("etog(", False), ("inv-etog(", True)):
        if text.startswith(head) and text.endswith(")"):
            valuation = load_valuation(text[len(head) : -1].strip())
            if invert:
                valuation = replace(valuation, group=InverseOrder(valuation.group))
            return EtogCondition(valuation)
    if text.startswith("union(") and text.endswith(")"):
        parts = _split_top(text[len("union(") : -1], ",")
        if len(parts) != 2:
            raise NotationError("union(...) takes exactly two condition specs")
        members: tuple[EtogCondition, ...] = ()
        for part in parts:
            cond = parse_condition(part)
            members += (cond,) if isinstance(cond, EtogCondition) else cond.members
        return UnionCondition(members)
    raise NotationError(f"unrecognised condition spec: {echo(text)}")


def describe_condition(cond) -> str:
    """Short human-readable description used in CLI reports."""
    if isinstance(cond, EtogCondition):
        return f"energy condition over {format_group(cond.valuation.group)}"
    return " u ".join(describe_condition(m) for m in cond.members)
