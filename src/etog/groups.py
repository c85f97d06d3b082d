"""Computable totally ordered groups.

The building blocks are plain integers, lexicographically ordered integer
vectors, and free groups, plus two combinators: order reversal and the
left-dominant lexicographic product.

Free groups are ordered through their truncated non-commutative power-series
expansion (g -> 1 + g, g^-1 -> 1 - g + g^2 - ...).  A non-identity element is
positive exactly when the first non-constant coefficient of its expansion is
positive, scanning monomials by total degree and then lexicographically in the
declared generator order.  ``magnus_coefficient`` reads one coefficient in
one pass over the word, so the scan stops at the first non-zero one without
expanding the series.  This order is total and invariant under multiplication
on both sides; the property suite checks these laws on random words.

Elements are validated where they enter the library: ``Valuation`` checks its
images, ``parse_element`` builds only valid elements and ``format_element``
checks before rendering.  ``compose``, ``invert``, ``sign`` and ``compare``
trust their operands.

Each group implements ``sign(x)``, the order of ``x`` against the identity;
``compare(x, y)`` is derived from it as ``sign(x * y^-1)``.  Nearly every order
query (membership, the oracle, the law checkers) is a sign test, so it never
builds the quotient.  The free group alone overrides ``compare``: it reads
degree 1 off the two whole operands, and only when every exponent sum
vanishes does it build the quotient for the scan from degree 2.

A free-group letter is a signed ``int``: ``letter(g, 1)`` is a positive code
that spells the generator name ``g`` (its UTF-8 bytes after a leading 0x01
byte, read as one big-endian number) and ``letter(g, -1)`` is its negation.  So
inversion, seam cancellation and the degree-1 counts compare plain integers,
and a word still carries its generator names without a group to look them up
in: ``validate`` can reject a word over foreign generators and
``format_word`` can print any word.  :func:`letter` and :func:`letter_parts`
are the only functions that know the encoding.

All values are immutable and every operation is a pure function, so the whole
module is safe for concurrent use.
"""

from __future__ import annotations

import enum
import itertools
import operator
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Sequence

from .errors import (
    FirstCoefficientMissingError,
    NotationError,
    SpecMismatchError,
    UnknownGeneratorError,
    echo,
)

Letter = int


def letter(symbol: str, exponent: int) -> Letter:
    """The code of ``symbol^exponent``; ``exponent`` is +1 or -1.

    The leading 0x01 byte keeps the code injective on every string, ``""``
    and names with leading NUL characters included, and makes it positive.
    """
    code = int.from_bytes(b"\x01" + symbol.encode("utf-8"), "big")
    return code if exponent > 0 else -code


def letter_parts(code: Letter) -> tuple[str, int]:
    """The ``(symbol, exponent)`` pair that :func:`letter` encoded as ``code``;
    :class:`ValueError` for any value that no :func:`letter` call returns."""
    magnitude = abs(code) if type(code) is int else 0
    raw = magnitude.to_bytes((magnitude.bit_length() + 7) // 8, "big")
    if raw[:1] != b"\x01":
        raise ValueError(f"not a letter code: {code!r}")
    return raw[1:].decode("utf-8"), 1 if code > 0 else -1


class Ordering(enum.Enum):
    """Three-way comparison result."""

    LESS = -1
    EQUAL = 0
    GREATER = 1

    def flipped(self) -> "Ordering":
        return _FLIPPED[self]

    def __str__(self) -> str:
        return self.name.title()


_FLIPPED = {
    Ordering.LESS: Ordering.GREATER,
    Ordering.EQUAL: Ordering.EQUAL,
    Ordering.GREATER: Ordering.LESS,
}


def _sign_ordering(value: int) -> Ordering:
    if value > 0:
        return Ordering.GREATER
    if value < 0:
        return Ordering.LESS
    return Ordering.EQUAL


@dataclass(frozen=True)
class FreeWord:
    """A reduced word over formal generators; the empty word is the identity.

    ``letters`` holds one signed-integer code per letter (see :func:`letter`),
    so the inverse of a letter is its negation.  Instances must stay reduced
    (no adjacent ``g g^-1`` pair, that is no adjacent codes ``c, -c``).
    Construct them through :func:`reduce_word`, :func:`multiply` or
    :meth:`inverse`, which preserve the invariant; the constructor itself
    trusts its input so the hot composition path stays cheap.  Membership in
    a particular free group is checked by :meth:`FreeGroup.validate` where a
    word enters the library, not by the word itself.
    """

    letters: tuple[Letter, ...] = ()

    @property
    def is_identity(self) -> bool:
        return not self.letters

    def __len__(self) -> int:
        return len(self.letters)

    def inverse(self) -> "FreeWord":
        return FreeWord(tuple([-c for c in reversed(self.letters)]))

    def __repr__(self) -> str:
        return f"FreeWord({format_word(self)})"


IDENTITY_WORD = FreeWord()


def format_word(word: FreeWord) -> str:
    """Space-separated letters, inverse letters as ``g^-1``; ``e`` if empty."""
    if not word.letters:
        return "e"
    parts = map(letter_parts, word.letters)
    return " ".join(s if e > 0 else f"{s}^-1" for s, e in parts)


def reduce_word(
    letters: Iterable[tuple[str, int]], generators: Sequence[str] | None = None
) -> FreeWord:
    """Free-group normal form of ``(symbol, exponent)`` pairs: cancel adjacent
    inverse pairs until none remain.

    When ``generators`` is given, letters outside it raise
    :class:`UnknownGeneratorError`.
    """
    known = frozenset(generators) if generators is not None else None
    stack: list[Letter] = []
    for symbol, exponent in letters:
        if known is not None and symbol not in known:
            raise UnknownGeneratorError(f"unknown generator {echo(symbol)}")
        if exponent not in (1, -1):
            raise NotationError(f"letter exponent must be +1 or -1, got {exponent!r}")
        code = letter(symbol, exponent)
        if stack and stack[-1] == -code:
            stack.pop()
        else:
            stack.append(code)
    return FreeWord(tuple(stack))


def multiply(x: FreeWord, y: FreeWord) -> FreeWord:
    """Concatenate two reduced words, cancelling at the seam only.

    When the seam letters do not cancel, the result is one concatenation of
    the two letter tuples; otherwise the cancelled letters are sliced off.
    """
    lx, ly = x.letters, y.letters
    if not lx:
        return y
    if not ly:
        return x
    if lx[-1] != -ly[0]:
        return FreeWord(lx + ly)
    i, j, n = len(lx), 0, len(ly)
    while i > 0 and j < n and lx[i - 1] == -ly[j]:
        i -= 1
        j += 1
    return FreeWord(lx[:i] + ly[j:])


def magnus_coefficient(word: FreeWord, monomial: tuple[str, ...]) -> int:
    """Coefficient of ``monomial`` in the expansion of ``word`` under ``g -> 1 + g``.

    One left-to-right pass keeps ``c[j]``, the coefficient of the monomial's
    first ``j`` symbols in the product so far.  A letter ``g`` multiplies by
    ``1 + g``: ``c[j] += c[j-1]`` wherever ``monomial[j-1] == g``, for ``j``
    downwards.  ``g^-1`` multiplies by ``1 - g + g^2 - ...``: the same slots
    take ``c[j] -= c[j-1]`` for ``j`` upwards.  Exact integers.  ``monomial``
    names its generators; the slots are keyed by their letter codes.
    """
    slots: dict[Letter, list[int]] = {}
    for j, symbol in enumerate(monomial, 1):
        slots.setdefault(letter(symbol, 1), []).append(j)
    c = [1] + [0] * len(monomial)
    for code in word.letters:
        if code > 0:
            for j in reversed(slots.get(code, ())):
                c[j] += c[j - 1]
        else:
            for j in slots.get(-code, ()):
                c[j] -= c[j - 1]
    return c[-1]


class OrderedGroup:
    """Base class for computable totally ordered groups.

    Subclasses provide ``identity``, ``compose``, ``invert``, ``sign`` and
    ``validate``; ``compare(x, y)`` is derived as ``sign(x * y^-1)``.
    Elements are plain immutable Python values tagged only by the spec they
    were created under.  ``validate`` raises :class:`SpecMismatchError` for an
    element of another spec; it runs where elements enter the library
    (``Valuation``, ``format_element``; the parsers build only valid
    elements).  The other operations trust their operands and do not validate
    them again.
    """

    def identity(self):
        raise NotImplementedError

    def compose(self, x, y):
        raise NotImplementedError

    def invert(self, x):
        raise NotImplementedError

    def sign(self, x) -> Ordering:
        """The order of ``x`` against the identity."""
        raise NotImplementedError

    def validate(self, x) -> None:
        raise NotImplementedError

    def compare(self, x, y) -> Ordering:
        return self.sign(self.compose(x, self.invert(y)))

    # convenience predicates used all over the condition layer
    def is_negative(self, x) -> bool:
        return self.sign(x) is Ordering.LESS


@dataclass(frozen=True)
class Integers(OrderedGroup):
    """The integers with addition and the usual order."""

    def identity(self) -> int:
        return 0

    def compose(self, x: int, y: int) -> int:
        return x + y

    def invert(self, x: int) -> int:
        return -x

    def sign(self, x: int) -> Ordering:
        return _sign_ordering(x)

    def validate(self, x) -> None:
        if not isinstance(x, int) or isinstance(x, bool):
            raise SpecMismatchError(f"not an integer element: {x!r}")


@dataclass(frozen=True)
class LexVectors(OrderedGroup):
    """Integer vectors of fixed dimension, ordered lexicographically.

    The leftmost coordinate dominates.
    """

    dim: int

    def __post_init__(self) -> None:
        if self.dim < 1:
            raise NotationError("zlex dimension must be >= 1")

    def identity(self) -> tuple[int, ...]:
        return (0,) * self.dim

    def compose(self, x, y):
        return tuple(map(operator.add, x, y))

    def invert(self, x):
        return tuple(map(operator.neg, x))

    def sign(self, x) -> Ordering:
        for a in x:
            if a:
                return _sign_ordering(a)
        return Ordering.EQUAL

    def validate(self, x) -> None:
        if (
            not isinstance(x, tuple)
            or len(x) != self.dim
            or not all(isinstance(a, int) and not isinstance(a, bool) for a in x)
        ):
            raise SpecMismatchError(f"not a {self.dim}-dimensional integer vector: {x!r}")


@dataclass(frozen=True)
class FreeGroup(OrderedGroup):
    """Free group on named generators, ordered via its power-series expansion.

    ``sign(w)`` is the sign of the first non-zero non-constant coefficient
    of ``w``, scanning monomials by degree and then lexicographically with
    generators ranked in declaration order.  Degree 1 is each generator's
    exponent sum, ``letters.count(c) - letters.count(-c)`` for its code ``c``
    in ``codes``, which construction derives from ``generators``; from degree
    2 on, each coefficient is read on its own with :func:`magnus_coefficient`,
    and the scan stops at the first non-zero one.  It skips every pure power
    g^d: killing the other generators maps w to (1 + g)^n_g, where n_g is g's
    exponent sum, so g^d's coefficient is C(n_g, d): 0 once degree 1 vanished.
    ``compare(x, y)`` reads degree 1 of ``x y^-1`` off the whole operands, as
    x's exponent sums less y's.  Only when every sum vanishes does it build
    ``x y^-1`` for the scan from degree 2; equal words end there, as the
    empty word.
    """

    generators: tuple[str, ...]
    codes: tuple[Letter, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not self.generators:
            raise NotationError("free group needs at least one generator")
        if len(set(self.generators)) != len(self.generators):
            raise NotationError("duplicate generator name")
        object.__setattr__(self, "codes", tuple(letter(g, 1) for g in self.generators))

    def identity(self) -> FreeWord:
        return IDENTITY_WORD

    compose = staticmethod(multiply)
    invert = staticmethod(FreeWord.inverse)

    def validate(self, x) -> None:
        mismatch = f"not a word over {self.generators}"
        if not isinstance(x, FreeWord):
            raise SpecMismatchError(f"{mismatch}: {x!r}")
        for c in x.letters:
            try:
                letter_parts(c)
            except ValueError:  # such a word has no repr: name the letter
                raise SpecMismatchError(f"{mismatch}: letter {c!r} is not a letter code") from None
        if not all(abs(c) in self.codes for c in x.letters):
            raise SpecMismatchError(f"{mismatch}: {x!r}")

    def compare(self, x: FreeWord, y: FreeWord) -> Ordering:
        # Degree 1 of x y^-1 is x's exponent sums less y's.  For x = p u s and
        # y = p v s, multiply cancels s and leaves p (u v^-1) p^-1; conjugation
        # keeps the lowest-degree terms, so the scan stops where u v^-1's would.
        lx, ly = x.letters, y.letters
        for c in self.codes:
            total = lx.count(c) - lx.count(-c) - ly.count(c) + ly.count(-c)
            if total:
                return _sign_ordering(total)
        w = multiply(x, y.inverse())
        return self._scan(w) if w.letters else Ordering.EQUAL

    def sign(self, w: FreeWord) -> Ordering:
        letters = w.letters
        if not letters:
            return Ordering.EQUAL
        for c in self.codes:
            total = letters.count(c) - letters.count(-c)
            if total:
                return _sign_ordering(total)
        return self._scan(w)  # degree-1 part vanished entirely

    def _monomials(self, max_degree: int) -> Iterator[tuple[str, ...]]:
        """Scan order from degree 2, less the pure powers g^d: C(0, d) = 0."""
        for degree in range(2, max_degree + 1):
            monos = itertools.product(self.generators, repeat=degree)
            yield from (m for m in monos if m.count(m[0]) < degree)

    def _scan(self, w: FreeWord) -> Ordering:
        """Sign of the first non-zero coefficient in :meth:`_monomials` order."""
        for mono in self._monomials(len(w.letters)):
            c = magnus_coefficient(w, mono)
            if c:
                return _sign_ordering(c)
        raise FirstCoefficientMissingError(
            f"no non-constant coefficient up to degree {len(w.letters)} for {w!r}"
        )


class MisorderedFreeGroup(FreeGroup):
    """A deliberately broken free-group order; test instrumentation only.

    It swaps the scan positions of the two monomials ``(g0, g1)`` and
    ``(g1,)`` in ``sign`` and compares as ``sign(x y^-1)``, without the free
    group's degree-1 shortcut, so that the law checkers can demonstrate their
    sensitivity (``etog check --inject-fault``).
    """

    def __post_init__(self) -> None:
        super().__post_init__()
        if len(self.generators) < 2:
            raise NotationError("the misorder fault needs at least two generators")

    compare = OrderedGroup.compare

    def sign(self, w: FreeWord) -> Ordering:
        return Ordering.EQUAL if w.is_identity else self._scan(w)

    def _monomials(self, max_degree: int) -> Iterator[tuple[str, ...]]:
        # degree 1 too, and at least through degree 2, where (g0, g1) lives
        g0, g1 = self.generators[0], self.generators[1]
        swap = {(g1,): (g0, g1), (g0, g1): (g1,)}
        for degree in range(1, max(max_degree, 2) + 1):
            for mono in itertools.product(self.generators, repeat=degree):
                yield swap.get(mono, mono)


@dataclass(frozen=True)
class InverseOrder(OrderedGroup):
    """The same group as ``inner`` with the order turned around."""

    inner: OrderedGroup

    def identity(self):
        return self.inner.identity()

    def compose(self, x, y):
        return self.inner.compose(x, y)

    def invert(self, x):
        return self.inner.invert(x)

    def sign(self, x) -> Ordering:
        return self.inner.sign(x).flipped()

    def validate(self, x) -> None:
        self.inner.validate(x)


@dataclass(frozen=True)
class LexProduct(OrderedGroup):
    """Direct product ordered lexicographically, left coordinate dominant."""

    left: OrderedGroup
    right: OrderedGroup

    def identity(self):
        return (self.left.identity(), self.right.identity())

    def compose(self, x, y):
        return (self.left.compose(x[0], y[0]), self.right.compose(x[1], y[1]))

    def invert(self, x):
        return (self.left.invert(x[0]), self.right.invert(x[1]))

    def sign(self, x) -> Ordering:
        first = self.left.sign(x[0])
        if first is not Ordering.EQUAL:
            return first
        return self.right.sign(x[1])

    def validate(self, x) -> None:
        if not isinstance(x, tuple) or len(x) != 2:
            raise SpecMismatchError(f"not a product pair: {x!r}")
        self.left.validate(x[0])
        self.right.validate(x[1])
