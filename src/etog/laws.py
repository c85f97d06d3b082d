"""Checkers for the laws the condition layer is built on.

Everything here returns a :class:`CheckResult` (or a list of them) instead of
raising, so the CLI can collect verdicts and the acceptance suite can assert
on them.  All sampling is driven by an explicit ``random.Random`` so runs are
reproducible; every result records the budget it was established under.
"""

from __future__ import annotations

import functools
import itertools
import random
from dataclasses import dataclass, replace
from typing import Callable, Iterable, Iterator, Sequence

from .conditions import EtogCondition, UPWord, Valuation, Word, load_valuation, up_member_oracle
from .groups import (
    EQUAL,
    GREATER,
    LESS,
    FreeGroup,
    FreeWord,
    Integers,
    InverseOrder,
    LexProduct,
    LexVectors,
    MisorderedFreeGroup,
    OrderedGroup,
    Ordering,
    format_word,
    letter,
    letter_parts,
    magnus_coefficient,
)
from .notation import shipped_valuation_path


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str
    counterexample: str | None = None

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        tail = f" counterexample: {self.counterexample}" if self.counterexample else ""
        return f"CHECK {self.name} {status} {self.detail}{tail}"


# ---------------------------------------------------------------------------
# word enumeration and sampling helpers


def words_up_to(alphabet: Sequence[str], max_len: int) -> Iterable[Word]:
    """All words over the alphabet with 1 <= length <= max_len."""
    for length in range(1, max_len + 1):
        yield from itertools.product(alphabet, repeat=length)


def reduced_words(generators: Sequence[str], max_len: int) -> Iterator[FreeWord]:
    """All reduced words over the generators and their inverses with length
    <= max_len, shortest first, starting with the empty word."""
    codes = [letter(g, 1) for g in generators]
    letters = codes + [-c for c in codes]
    frontier = [FreeWord()]
    yield from frontier
    for _ in range(max_len):
        frontier = [
            FreeWord(word + (c,))
            for word in frontier
            for c in letters
            if not word or word[-1] != -c
        ]
        yield from frontier


def _decoding_sampler(
    bound: int, span: int, words_of_length: Sequence[int], decode: Callable[[int], object]
) -> Callable[[random.Random], object]:
    """A sampler that makes one ``rng.randrange(bound)`` per call and decodes
    each distinct word once.

    The draw's lowest digit, base ``span``, is the length digit d, and a word
    with that digit reads only the lowest ``words_of_length[d]`` values of the
    digits above it.  So the draw modulo ``span * words_of_length[d]`` keeps
    exactly what ``decode`` reads: it is the key, and the word decoded from it
    is kept for the next draw with that key.  The sampler holds at most one
    word per distinct key drawn.
    """
    moduli = [span * count for count in words_of_length]
    decode = functools.cache(decode)

    def sample(rng: random.Random):
        code = rng.randrange(bound)
        return decode(code % moduli[code % span])

    return sample


def word_sampler(
    alphabet: Sequence[str], max_len: int, min_len: int = 0
) -> Callable[[random.Random], Word]:
    """A sampler of words over the alphabet: uniform length in [min_len,
    max_len], then uniform among the words of that length, from one draw.

    Each call makes one ``rng.randrange`` over span * n**max_len, where n is
    the alphabet size and span = max_len - min_len + 1, read as mixed-radix
    digits, least significant first: the base-span digit is the length less
    ``min_len``, and the next base-n digits, one per letter, index the
    letters.  Each distinct word is decoded once per sampler.
    """
    if not 0 <= min_len <= max_len:
        raise ValueError(
            f"word lengths need 0 <= min_len <= max_len, got min_len={min_len} max_len={max_len}"
        )
    alphabet = tuple(alphabet)
    n = len(alphabet)
    if not n and max_len:
        raise ValueError(f"an empty alphabet has no words of length up to max_len={max_len}")
    span = max_len - min_len + 1

    def decode(key: int) -> Word:
        code, length = divmod(key, span)
        letters = []
        for _ in range(min_len + length):
            code, digit = divmod(code, n)
            letters.append(alphabet[digit])
        return tuple(letters)

    words_of_length = [n ** (min_len + length) for length in range(span)]
    return _decoding_sampler(span * n**max_len, span, words_of_length, decode)


def reduced_word_sampler(codes: Sequence[int], max_len: int) -> Callable[[random.Random], FreeWord]:
    """A sampler of reduced words over the generators with these letter
    codes: uniform length in [0, max_len], then uniform among the reduced
    words of that length, from one draw.

    Each call makes one ``rng.randrange``, read as mixed-radix digits, least
    significant first.  With k = 2 * len(codes) letters, the generators and
    then their inverses: the base-(max_len + 1) digit is the length, the next
    base-k digit indexes the first letter, and each later base-(k - 1) digit
    r picks letter r, or letter k - 1 when letter r would cancel the previous
    letter.  The digits of one length map one to one onto the reduced words
    of that length, so nothing is rejected.  Each distinct word is decoded
    once per sampler.
    """
    if not codes:
        raise ValueError("no generators to draw reduced words over")
    if max_len < 0:
        raise ValueError(f"word lengths need max_len >= 0, got max_len={max_len}")
    letters = tuple(codes) + tuple(-c for c in codes)
    k = len(letters)
    span = max_len + 1

    def decode(key: int) -> FreeWord:
        code, length = divmod(key, span)
        if not length:
            return FreeWord()
        code, digit = divmod(code, k)
        word = [letters[digit]]
        for _ in range(length - 1):
            code, digit = divmod(code, k - 1)
            c = letters[digit]
            word.append(letters[-1] if c == -word[-1] else c)
        return FreeWord(word)

    words_of_length = [1] + [k * (k - 1) ** (length - 1) for length in range(1, span)]
    bound = span * k * (k - 1) ** max(max_len - 1, 0)
    return _decoding_sampler(bound, span, words_of_length, decode)


def element_sampler(spec: OrderedGroup, max_len: int = 6) -> Callable[[random.Random], object]:
    """A sampler of elements of the group: integers uniform in [-9, 9],
    vectors with each coordinate uniform in [-4, 4], free-group elements from
    :func:`reduced_word_sampler` with at most ``max_len`` letters (under
    either order), and lexicographic pairs drawn left, then right."""
    if isinstance(spec, Integers):
        return lambda rng: rng.randint(-9, 9)
    if isinstance(spec, LexVectors):
        dim = spec.dim
        return lambda rng: tuple(rng.randint(-4, 4) for _ in range(dim))
    if isinstance(spec, FreeGroup):
        return reduced_word_sampler(spec.codes, max_len)
    if isinstance(spec, InverseOrder):
        return element_sampler(spec.inner, max_len)
    if isinstance(spec, LexProduct):
        left, right = element_sampler(spec.left, max_len), element_sampler(spec.right, max_len)
        return lambda rng: (left(rng), right(rng))
    raise TypeError(f"no sampler for {spec!r}")


# ---------------------------------------------------------------------------
# the standard test-suite valuations


def standard_valuations() -> dict[str, Valuation]:
    """The fixed valuations every law is exercised against.

    ``int`` and ``zlex2`` use four-letter alphabets; ``free`` maps the five
    colors eps, a, a^-1, b, b^-1 to the like-named elements of the ordered
    free group on a, b, and ``inv-free`` is the same valuation under the
    reversed order.  ``free`` is read from the shipped valuation file, so the
    two are the pair whose union ``etog counterexample`` plays.
    """
    free = load_valuation(shipped_valuation_path())
    return {
        "int": Valuation(
            ("x", "y", "z", "w"),
            Integers(),
            {"x": -1, "y": 1, "z": 0, "w": 2},
        ),
        "zlex2": Valuation(
            ("c", "d", "u", "v"),
            LexVectors(2),
            {"c": (0, 1), "d": (-1, 0), "u": (1, -1), "v": (0, 0)},
        ),
        "free": free,
        "inv-free": replace(free, group=InverseOrder(free.group)),
    }


def negative_word_rows(valuation: Valuation, max_len: int) -> list[bytes]:
    """Which words over the valuation's colors have a negative value, as one
    ``bytes`` row per length 1..``max_len``: entry c of row L is 1 exactly
    when the word with base-n code c, in ``itertools.product`` order, is
    negative.

    Row L is built from the values of the words of length L - 1, one
    ``compose`` per word: each value times the image of its last color.  Only
    one length's values are kept to build the next row, and those of length
    ``max_len`` are not kept.  The sign of each distinct value is decided
    once, in a cache that holds each distinct value once.
    """
    group = valuation.group
    compose = group.compose
    images = [valuation.value_of(color) for color in valuation.colors]
    negative = functools.cache(lambda value: group.sign(value) is LESS)
    rows = []
    values = [group.identity()]
    for length in range(1, max_len + 1):
        products = (compose(value, image) for value in values for image in images)
        if length < max_len:
            products = values = list(products)
        rows.append(bytes(map(negative, products)))
    return rows


# ---------------------------------------------------------------------------
# closure of a word set and its complement under concatenation / cyclic shift


def check_closure(
    rows: Sequence[bytes],
    alphabet: Sequence[str],
    name: str = "closure",
) -> CheckResult:
    """Exhaustively verify concatenation and cyclic-shift closure.

    ``rows`` holds one ``bytes`` row per length 1..``max_len``, where max_len
    is ``len(rows)``, as :func:`negative_word_rows` builds them: entry c of
    row L is 1 when the word with base-n code c, in ``itertools.product``
    order, is in the set, and 0 when it is not.  For all non-empty u, v with
    |u|+|v| <= max_len the set and its complement must both be closed under
    concatenation, and for every word up to max_len membership must be
    constant on its cyclic shifts.  Returns the first counterexample if any.

    Membership is constant on all cyclic shifts exactly when it is constant
    under the shift by one letter, which takes the word with code
    c1 n^(L-1) + r to the one with code r n + c1; so each row
    must equal its transpose.  For a fixed u, the words u v with |v| = L form
    a contiguous slice J of row |u| + L, so one test per u covers every v
    against row L read as an integer V: V & ~J must be 0 when u is in the set,
    ~V & J when it is not.  Only a failing row is searched word by word, for
    the first counterexample in word order.
    """
    max_len = len(rows)
    detail = f"exhaustive up to length {max_len} over {len(alphabet)} colors"
    n = len(alphabet)

    def word(length: int, code: int) -> Word:
        letters = []
        for _ in range(length):
            code, digit = divmod(code, n)
            letters.append(alphabet[digit])
        return tuple(reversed(letters))

    rows = [b"", *rows]
    for length in range(2, max_len + 1):
        row = rows[length]
        m = len(row) // n
        rotated = bytearray(len(row))
        for c in range(n):
            rotated[c::n] = row[c * m:(c + 1) * m]
        if rotated == row:
            continue
        for code, value in enumerate(row):
            for cut in range(1, length):
                low = n ** (length - cut)
                shifted = (code % low) * n ** cut + code // low
                if row[shifted] != value:
                    return CheckResult(
                        name,
                        False,
                        detail,
                        "cyclic shift changes membership: "
                        f"{' '.join(word(length, code))} vs {' '.join(word(length, shifted))}",
                    )

    for len_u in range(1, max_len):
        for len_v in range(1, max_len - len_u + 1):
            row_v, joined = rows[len_v], rows[len_u + len_v]
            size = len(row_v)
            in_v = int.from_bytes(row_v, "big")
            for a, in_u in enumerate(rows[len_u]):
                in_uv = int.from_bytes(joined[a * size:(a + 1) * size], "big")
                bad = in_v & ~in_uv if in_u else ~in_v & in_uv
                if bad:
                    # the first v in word order is the most significant byte
                    b = size - 1 - (bad.bit_length() - 1) // 8
                    broken = "set" if in_u else "complement"
                    return CheckResult(
                        name, False, detail,
                        f"{broken} not closed under concatenation: "
                        f"{' '.join(word(len_u, a))} | {' '.join(word(len_v, b))}",
                    )
    return CheckResult(name, True, detail)


# ---------------------------------------------------------------------------
# the three mixing laws, restricted to ultimately periodic instances


def check_fairly_mixing(
    member: Callable[[UPWord], bool],
    alphabet: Sequence[str],
    rng: random.Random,
    samples: int = 1000,
    max_len: int = 4,
) -> list[CheckResult]:
    """Sample-based checker for the three mixing laws.

    All instances are ultimately periodic, so membership stays decidable:

    * (A) prefix invariance: gluing a finite prefix never changes membership
      (checked as an equality, which implies the prefix-transfer implication
      in both directions and actually detects prefix-dependent conditions);
    * (B) for S the condition or its complement: if x^omega and alpha both lie
      in S then x.alpha does too;
    * (C) interleavings built from finitely many head blocks followed by an
      alternating tail pair (u, v), so all three interleavings are ultimately
      periodic.  Each sample is tested on the side of S (the condition or its
      complement) that its odd interleaving lies on.

    This is a bounded checker, not a decision procedure: law (C) quantifies
    over arbitrary infinite block sequences which no finite search covers.
    """
    word = word_sampler(alphabet, max_len)
    nonempty = word_sampler(alphabet, max_len, min_len=1)

    def up() -> UPWord:
        return UPWord(word(rng), nonempty(rng))

    def show(alpha: UPWord) -> str:
        return f"[{' '.join(alpha.prefix)} | {' '.join(alpha.period)}]"

    def verdict(law: str, failure: str | None, hits: int | None = None) -> CheckResult:
        counted = "" if hits is None else f" hypothesis-hits={hits}"
        detail = f"samples={samples}{counted} max-len={max_len}"
        return CheckResult(f"fairly-mixing.{law}", failure is None, detail, failure)

    failure = None
    for _ in range(samples):
        x = word(rng)
        alpha = up()
        if member(UPWord(x + alpha.prefix, alpha.period)) != member(alpha):
            failure = f"prefix {' '.join(x) or '(empty)'} changes membership of {show(alpha)}"
            break
    results = [verdict("A", failure)]

    hits = 0
    failure = None
    for _ in range(samples):
        x = nonempty(rng)
        alpha = up()
        side = member(UPWord((), x))
        if member(alpha) != side:
            continue
        hits += 1
        if member(UPWord(x + alpha.prefix, alpha.period)) != side:
            failure = f"x={' '.join(x)} alpha={show(alpha)}"
            break
    results.append(verdict("B", failure, hits))

    hits = 0
    failure = None
    for _ in range(samples):
        heads = [nonempty(rng) for _ in range(2 * rng.randint(0, 2))]
        u = nonempty(rng)
        v = nonempty(rng)
        side = member(UPWord(tuple(c for w in heads[0::2] for c in w), u))
        if member(UPWord(tuple(c for w in heads[1::2] for c in w), v)) != side:
            continue
        if any(member(UPWord((), piece)) != side for piece in heads + [u, v]):
            continue
        hits += 1
        if member(UPWord(tuple(c for w in heads for c in w), u + v)) != side:
            rendered = [" ".join(w) for w in heads]
            failure = (
                f"heads={rendered} u={' '.join(u)} v={' '.join(v)} "
                f"interleavings in S={side} but the merge is not"
            )
            break
    results.append(verdict("C", failure, hits))
    return results


# ---------------------------------------------------------------------------
# invariant sub-semigroup induced by a valuation


def check_invariant_subsemigroup(
    valuation: Valuation, max_len: int = 4, name: str = "invariant-subsemigroup"
) -> CheckResult:
    """Check S = {group words with non-negative value} over the color alphabet.

    Enumerates every reduced word over the colors and their formal inverses up
    to ``max_len`` and verifies, exhaustively: closure of S under
    multiplication, closure of S under conjugation by arbitrary enumerated
    words, and that every word or its inverse lies in S.

    Membership of a word depends only on its image value (the valuation
    extends to a homomorphism with val(c^-1) = val(c)^-1), so the scans run
    over distinct values; counterexamples are reported as witness words.  The
    words are enumerated shortest first, and each word's value is one product:
    its parent's value times its last letter's image.
    """
    colors, group = valuation.colors, valuation.group
    detail = f"exhaustive up to length {max_len} over {len(colors)} colors"
    identity = group.identity()
    mul, inv = group.compose, group.invert
    codes = [letter(color, 1) for color in colors]
    letters = codes + [-c for c in codes]
    images = {}  # letter code -> image, for each color and its inverse
    for code, color in zip(codes, colors):
        image = valuation.value_of(color)
        images[code], images[-code] = image, inv(image)

    def in_s(value) -> bool:
        return group.sign(value) is not LESS

    # element -> the letters of the first (shortest) word that represents it.
    # Each reduced word's value is its parent's value times the image of its
    # last letter; only the previous length's words and values are kept, and
    # none of length max_len.
    witness: dict = {identity: ()}
    frontier = [((), identity)]
    for length in range(1, max_len + 1):
        children = (
            (word + (c,), mul(value, images[c]))
            for word, value in frontier
            for c in letters
            if not word or word[-1] != -c
        )
        if length < max_len:
            children = frontier = list(children)
        for word, value in children:
            witness.setdefault(value, word)

    def shown(g) -> str:
        return format_word(FreeWord(witness[g]))

    def fail(message: str) -> CheckResult:
        return CheckResult(name, False, detail, message)

    members = []
    for g in witness:
        if in_s(g):
            members.append(g)
        elif not in_s(inv(g)):
            return fail(f"neither {shown(g)} nor its inverse is in S")
    for x in members:
        for y in members:
            if not in_s(mul(x, y)):
                return fail(f"product escapes S: ({shown(x)}) ({shown(y)})")
    for g in witness:
        g_inv = inv(g)
        for x in members:
            if not in_s(mul(mul(g, x), g_inv)):
                return fail(f"conjugate escapes S: g={shown(g)} x={shown(x)}")
    return CheckResult(name, True, detail)


# ---------------------------------------------------------------------------
# order axioms


def order_axiom_battery(
    spec: OrderedGroup,
    rng: random.Random,
    samples: int = 10_000,
    max_word_len: int = 6,
) -> list[CheckResult]:
    """Randomised check of the total-order and bi-invariance laws.

    Each sample draws four elements and exercises: result totality plus swap
    consistency, equality exactly on trivial quotients, transitivity on the
    sampled triple, invariance under two-sided translation, and closure of the
    positive cone under products and conjugation.
    """
    identity = spec.identity()
    failures: dict[str, str | None] = {
        "totality": None,
        "antisymmetry-identity": None,
        "transitivity": None,
        "bi-invariance": None,
        "cone-product": None,
        "cone-conjugation": None,
    }

    def note(check: str, message: str) -> None:
        if failures[check] is None:
            failures[check] = message

    sample = element_sampler(spec, max_word_len)
    # looked up once: the loop below runs ``samples`` times
    compare, compose, invert = spec.compare, spec.compose, spec.invert
    for _ in range(samples):
        x, y, z, g = sample(rng), sample(rng), sample(rng), sample(rng)

        c_xy = compare(x, y)
        c_yx = compare(y, x)
        if not isinstance(c_xy, Ordering) or c_yx is not c_xy.flipped():
            note("totality", f"compare({x!r},{y!r})={c_xy} but swapped gives {c_yx}")

        trivial = compose(x, invert(y)) == identity
        if (c_xy is EQUAL) != trivial:
            note("antisymmetry-identity", f"x={x!r} y={y!r} compare={c_xy}")

        c_yz = compare(y, z)
        c_xz = compare(x, z)
        if c_xy is not GREATER and c_yz is not GREATER:
            if c_xz is GREATER:
                note("transitivity", f"x={x!r} y={y!r} z={z!r}")
        if c_xy is not LESS and c_yz is not LESS:
            if c_xz is LESS:
                note("transitivity", f"x={x!r} y={y!r} z={z!r}")

        low, high = (x, y) if c_xy is not GREATER else (y, x)
        translated = compare(
            compose(compose(g, low), z),
            compose(compose(g, high), z),
        )
        if translated is GREATER:
            note("bi-invariance", f"low={low!r} high={high!r} g={g!r} h={z!r}")

        if compare(x, identity) is GREATER:
            if compare(y, identity) is GREATER:
                if compare(compose(x, y), identity) is not GREATER:
                    note("cone-product", f"x={x!r} y={y!r}")
            conj = compose(compose(g, x), invert(g))
            if compare(conj, identity) is not GREATER:
                note("cone-conjugation", f"x={x!r} g={g!r}")

    detail = f"samples={samples} max-word-len={max_word_len}"
    return [
        CheckResult(f"order-axioms.{check}", message is None, detail, message)
        for check, message in failures.items()
    ]


def magnus_soundness(generators: Sequence[str], max_len: int) -> CheckResult:
    """Every non-identity reduced word of length <= max_len must have a
    non-zero coefficient of some degree from 1 to its own length."""
    checked = 0
    for word in reduced_words(generators, max_len):
        if not word:
            continue
        checked += 1
        codes = dict.fromkeys(abs(c) for c in word)
        symbols = tuple(letter_parts(c)[0] for c in codes)
        monomials = (
            mono
            for degree in range(1, len(word) + 1)
            for mono in itertools.product(symbols, repeat=degree)
        )
        if not any(magnus_coefficient(word, mono) for mono in monomials):
            return CheckResult(
                "magnus-soundness",
                False,
                f"words up to length {max_len}",
                f"no usable coefficient for {word!r}",
            )
    return CheckResult(
        "magnus-soundness", True, f"all {checked} reduced words up to length {max_len}"
    )


# ---------------------------------------------------------------------------
# aggregated battery (shared by the CLI and the acceptance suite)


def full_check_battery(
    seed: int,
    order_samples: int = 10_000,
    closure_max_len: int = 6,
    fm_samples: int = 1_000,
    subsemigroup_max_len: int = 4,
    per_law_max_period: int = 3,
    inject_fault: bool = False,
) -> list[CheckResult]:
    """Run every law checker at the given budgets.

    ``inject_fault`` checks :class:`MisorderedFreeGroup` instead of the free
    group's order; the battery is expected to fail (bi-invariance in
    particular), which demonstrates that the checks can actually see a broken
    order.
    """
    rng = random.Random(seed)
    results: list[CheckResult] = []
    suite = standard_valuations()

    free = suite["free"].group
    free_spec = MisorderedFreeGroup(free.generators) if inject_fault else free
    results.extend(order_axiom_battery(free_spec, rng, order_samples))
    for label, spec in (
        ("int", Integers()),
        ("zlex2", LexVectors(2)),
        ("inv-free", suite["inv-free"].group),
        ("prod-int-int", LexProduct(Integers(), Integers())),
    ):
        for result in order_axiom_battery(spec, rng, max(order_samples // 10, 100)):
            result.name = f"{result.name}.{label}"
            results.append(result)

    results.append(magnus_soundness(free.generators, max_len=5))

    for label, valuation in suite.items():
        rows = negative_word_rows(valuation, closure_max_len)
        results.append(check_closure(rows, valuation.colors, name=f"closure.{label}"))

    for label, valuation in suite.items():
        cond = EtogCondition(valuation)
        mismatch = None
        count = 0
        for period in words_up_to(valuation.colors, per_law_max_period):
            count += 1
            word = UPWord((), period)
            expected = up_member_oracle(cond, word, horizon=50 * len(period))
            if cond.up_member(word) != expected:
                mismatch = " ".join(period)
                break
        results.append(
            CheckResult(
                f"per-law.oracle-equivalence.{label}",
                mismatch is None,
                f"all {count} periods up to length {per_law_max_period}, horizon 50x period",
                mismatch,
            )
        )

    for label, valuation in suite.items():
        cond = EtogCondition(valuation)
        for result in check_fairly_mixing(
            cond.up_member, valuation.colors, rng, samples=fm_samples
        ):
            result.name = f"{result.name}.{label}"
            results.append(result)

    results.append(
        check_invariant_subsemigroup(
            suite["free"], max_len=subsemigroup_max_len, name="invariant-subsemigroup.free"
        )
    )
    return results
