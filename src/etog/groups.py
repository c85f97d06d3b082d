"""Computable totally ordered groups.

The building blocks are plain integers, lexicographically ordered integer
vectors, and free groups, plus two combinators: order reversal and the
left-dominant lexicographic product.

Free groups are ordered through their truncated non-commutative power-series
expansion (g -> 1 + g, g^-1 -> 1 - g + g^2 - ...).  A non-identity element is
positive exactly when the first non-constant coefficient of its expansion is
positive, scanning monomials by total degree and then lexicographically in the
declared generator order.  This order is total and invariant under
multiplication on both sides; the property suite checks these laws on random
words instead of trusting them.

Elements are validated where they enter the library: ``Valuation`` checks its
images, ``parse_element`` builds only valid elements and ``format_element``
checks before rendering.  ``compose``, ``invert`` and ``compare`` trust their
operands.  ``magnus_expand`` returns its coefficients as a plain dict.

All values are immutable and every operation is a pure function, so the whole
module is safe for concurrent use.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Iterable, Sequence

from .errors import (
    FirstCoefficientMissingError,
    SpecMismatchError,
    UnknownGeneratorError,
)

Letter = tuple[str, int]


class Ordering(enum.Enum):
    """Three-way comparison result."""

    LESS = -1
    EQUAL = 0
    GREATER = 1

    def flipped(self) -> "Ordering":
        return Ordering(-self.value)

    def __str__(self) -> str:
        return _ORDERING_NAMES[self]


_ORDERING_NAMES = {
    Ordering.LESS: "Less",
    Ordering.EQUAL: "Equal",
    Ordering.GREATER: "Greater",
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

    Instances must stay reduced (no adjacent ``g g^-1`` pair).  Construct them
    through :func:`reduce_word`, :func:`multiply` or :meth:`inverse`, which
    preserve the invariant; the constructor itself trusts its input so the hot
    composition path stays cheap.  Membership in a particular free group is
    checked by :meth:`FreeGroup.validate` where a word enters the library, not
    by the word itself.
    """

    letters: tuple[Letter, ...] = ()

    @property
    def is_identity(self) -> bool:
        return not self.letters

    def __len__(self) -> int:
        return len(self.letters)

    def __mul__(self, other: "FreeWord") -> "FreeWord":
        return multiply(self, other)

    @property
    def exponent_sums(self) -> dict[str, int]:
        """Per-generator non-zero exponent totals; the degree-1 expansion."""
        sums: dict[str, int] = {}
        for symbol, exponent in self.letters:
            sums[symbol] = sums.get(symbol, 0) + exponent
        return {s: v for s, v in sums.items() if v}

    def inverse(self) -> "FreeWord":
        return FreeWord(tuple((s, -e) for s, e in reversed(self.letters)))

    def __repr__(self) -> str:
        return f"FreeWord({format_word(self)})"


IDENTITY_WORD = FreeWord()


def format_word(word: FreeWord) -> str:
    """Space-separated letters, inverse letters as ``g^-1``; ``e`` if empty."""
    if not word.letters:
        return "e"
    return " ".join(s if e > 0 else f"{s}^-1" for s, e in word.letters)


def reduce_word(
    letters: Iterable[Letter], generators: Sequence[str] | None = None
) -> FreeWord:
    """Free-group normal form: cancel adjacent inverse pairs until none remain.

    Idempotent.  When ``generators`` is given, letters outside it raise
    :class:`UnknownGeneratorError`.
    """
    known = frozenset(generators) if generators is not None else None
    stack: list[Letter] = []
    for symbol, exponent in letters:
        if known is not None and symbol not in known:
            raise UnknownGeneratorError(f"unknown generator {symbol!r}")
        if exponent not in (1, -1):
            raise ValueError(f"letter exponent must be +1 or -1, got {exponent!r}")
        if stack and stack[-1][0] == symbol and stack[-1][1] == -exponent:
            stack.pop()
        else:
            stack.append((symbol, exponent))
    return FreeWord(tuple(stack))


def multiply(x: FreeWord, y: FreeWord) -> FreeWord:
    """Concatenate two reduced words, cancelling at the seam only."""
    lx, ly = x.letters, y.letters
    i, j = len(lx), 0
    while i > 0 and j < len(ly):
        s, e = lx[i - 1]
        t, f = ly[j]
        if s == t and e == -f:
            i -= 1
            j += 1
        else:
            break
    return FreeWord(lx[:i] + ly[j:])


def _accumulate(table: dict, monomial: tuple[str, ...], value: int) -> None:
    table[monomial] = table.get(monomial, 0) + value


def magnus_expand(word: FreeWord, max_degree: int) -> dict[tuple[str, ...], int]:
    """Expand a reduced word under ``g -> 1 + g``.

    Returns the coefficients of the truncated non-commutative power series,
    keyed by monomial: a tuple of generator symbols of length <=
    ``max_degree``.  Zero coefficients are never stored, and the constant term
    ``()`` is always 1.  Inverse letters expand as the alternating geometric
    series ``1 - g + g^2 - ...`` cut at ``max_degree``; all products drop
    monomials above the cap.  Coefficients are exact arbitrary-precision integers.
    Coefficients of monomials of degree <= ``max_degree`` do not depend on the
    cap, because monomial degrees only ever add up.
    """
    if max_degree < 0:
        raise ValueError("max_degree must be >= 0")
    coeffs: dict[tuple[str, ...], int] = {(): 1}
    for symbol, exponent in word.letters:
        nxt: dict[tuple[str, ...], int] = {}
        for mono, c in coeffs.items():
            room = max_degree - len(mono)
            if exponent > 0:
                _accumulate(nxt, mono, c)
                if room >= 1:
                    _accumulate(nxt, mono + (symbol,), c)
            else:
                sign = 1
                for power in range(room + 1):
                    _accumulate(nxt, mono + (symbol,) * power, sign * c)
                    sign = -sign
        coeffs = {m: c for m, c in nxt.items() if c}
    return coeffs


class OrderedGroup:
    """Base class for computable totally ordered groups.

    Subclasses provide ``identity``, ``compose``, ``invert``, ``compare`` and
    ``validate``.  Elements are plain immutable Python values tagged only by
    the spec they were created under.  ``validate`` raises
    :class:`SpecMismatchError` for an element of another spec; it runs where
    elements enter the library (``Valuation``, ``format_element``; the parsers
    build only valid elements).  ``compose``, ``invert`` and ``compare`` trust
    their operands and do not validate them again.
    """

    def identity(self):
        raise NotImplementedError

    def compose(self, x, y):
        raise NotImplementedError

    def invert(self, x):
        raise NotImplementedError

    def compare(self, x, y) -> Ordering:
        raise NotImplementedError

    def validate(self, x) -> None:
        raise NotImplementedError

    # convenience predicates used all over the condition layer
    def is_negative(self, x) -> bool:
        return self.compare(x, self.identity()) is Ordering.LESS

    def is_positive(self, x) -> bool:
        return self.compare(x, self.identity()) is Ordering.GREATER


@dataclass(frozen=True)
class Integers(OrderedGroup):
    """The integers with addition and the usual order."""

    def identity(self) -> int:
        return 0

    def compose(self, x: int, y: int) -> int:
        return x + y

    def invert(self, x: int) -> int:
        return -x

    def compare(self, x: int, y: int) -> Ordering:
        return _sign_ordering(x - y)

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
            raise ValueError("dimension must be >= 1")

    def identity(self) -> tuple[int, ...]:
        return (0,) * self.dim

    def compose(self, x, y):
        return tuple(a + b for a, b in zip(x, y))

    def invert(self, x):
        return tuple(-a for a in x)

    def compare(self, x, y) -> Ordering:
        if x == y:
            return Ordering.EQUAL
        return Ordering.GREATER if x > y else Ordering.LESS

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

    ``compare(x, y)`` reduces ``x * y^-1`` and, if non-trivial, looks for the
    first non-constant non-zero coefficient of its expansion in
    degree-then-lexicographic monomial order (generators ranked in declaration
    order).  The sign of that coefficient decides the comparison.  Expansion
    depth starts small and deepens only while every coefficient so far
    vanishes, which is equivalent to expanding at ``len(word)`` outright
    because low-degree coefficients never depend on the cap.
    """

    generators: tuple[str, ...]

    def __post_init__(self) -> None:
        if not self.generators:
            raise ValueError("generator list must be non-empty")
        if len(set(self.generators)) != len(self.generators):
            raise ValueError("generator list must be duplicate-free")
        object.__setattr__(
            self, "_index", {g: i for i, g in enumerate(self.generators)}
        )

    def identity(self) -> FreeWord:
        return IDENTITY_WORD

    def word(self, letters: Iterable[Letter]) -> FreeWord:
        """Reduce raw letters into an element of this group."""
        return reduce_word(letters, self.generators)

    def compose(self, x: FreeWord, y: FreeWord) -> FreeWord:
        return multiply(x, y)

    def invert(self, x: FreeWord) -> FreeWord:
        return x.inverse()

    def validate(self, x) -> None:
        index = self._index  # type: ignore[attr-defined]
        if not isinstance(x, FreeWord) or any(s not in index for s, _ in x.letters):
            raise SpecMismatchError(f"not a word over {self.generators}: {x!r}")

    def compare(self, x: FreeWord, y: FreeWord) -> Ordering:
        # (p u)(p v)^-1 is the conjugate by p of u v^-1.  Conjugation only adds
        # terms of strictly higher degree than the lowest non-constant term, so
        # under the degree-graded scan both share the same leading coefficient;
        # stripping the common prefix keeps words short.
        k = 0
        limit = min(len(x.letters), len(y.letters))
        while k < limit and x.letters[k] == y.letters[k]:
            k += 1
        w = multiply(FreeWord(x.letters[k:]), FreeWord(y.letters[k:]).inverse())
        if w.is_identity:
            return Ordering.EQUAL
        sums = w.exponent_sums
        for g in self.generators:
            total = sums.get(g, 0)
            if total:
                return _sign_ordering(total)
        return self._scan(w, 2)  # degree-1 part vanished entirely

    def _monomial_key(self, monomial: tuple[str, ...]):
        index = self._index  # type: ignore[attr-defined]
        return (len(monomial), tuple(index[s] for s in monomial))

    def _scan(self, w: FreeWord, start: int) -> Ordering:
        """Sign of the first non-constant coefficient of a non-identity word,
        expanding from degree ``start`` up to the word's length."""
        for degree in range(start, len(w.letters) + 1):
            best = None
            for mono, c in magnus_expand(w, degree).items():
                if not mono:
                    continue
                key = self._monomial_key(mono)
                if best is None or key < best[0]:
                    best = (key, c)
            if best is not None:
                return _sign_ordering(best[1])
        raise FirstCoefficientMissingError(
            f"no non-constant coefficient up to degree {len(w.letters)} for {w!r}"
        )


class MisorderedFreeGroup(FreeGroup):
    """A deliberately broken free-group order; test instrumentation only.

    It swaps the scan positions of the two monomials ``(g0, g1)`` and
    ``(g1,)`` and compares without the prefix strip, so that the law checkers
    can demonstrate their sensitivity (``etog check --inject-fault``).
    """

    def __post_init__(self) -> None:
        super().__post_init__()
        if len(self.generators) < 2:
            raise ValueError("the misorder fault needs at least two generators")

    def compare(self, x: FreeWord, y: FreeWord) -> Ordering:
        w = multiply(x, y.inverse())
        if w.is_identity:
            return Ordering.EQUAL
        # the faulted scan mixes a degree-2 monomial into the degree-1
        # positions, so the first expansion must already cover degree 2
        return self._scan(w, min(2, len(w.letters)))

    def _monomial_key(self, monomial: tuple[str, ...]):
        g0, g1 = self.generators[0], self.generators[1]
        if monomial == (g1,):
            return (2, (0, 1))
        if monomial == (g0, g1):
            return (1, (1,))
        return super()._monomial_key(monomial)


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

    def compare(self, x, y) -> Ordering:
        return self.inner.compare(x, y).flipped()

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

    def compare(self, x, y) -> Ordering:
        first = self.left.compare(x[0], y[0])
        if first is not Ordering.EQUAL:
            return first
        return self.right.compare(x[1], y[1])

    def validate(self, x) -> None:
        if not isinstance(x, tuple) or len(x) != 2:
            raise SpecMismatchError(f"not a product pair: {x!r}")
        self.left.validate(x[0])
        self.right.validate(x[1])
