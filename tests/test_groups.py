import operator
import random
import re
import sys
from itertools import combinations_with_replacement, product

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from etog.conditions import (
    EtogCondition,
    UnionCondition,
    UPWord,
    Valuation,
    parity_condition,
    up_member_oracle,
)
from etog.errors import (
    EtogError,
    FirstCoefficientMissingError,
    NotationError,
    SpecMismatchError,
    UnknownGeneratorError,
)
from etog.games import Player, PositionalStrategy, parse_arena, verify_union_strategy
from etog.groups import (
    FreeGroup,
    FreeWord,
    Integers,
    InverseOrder,
    LexProduct,
    LexVectors,
    MisorderedFreeGroup,
    Ordering,
    format_word,
    letter,
    letter_parts,
    magnus_coefficient,
    multiply,
    reduce_word,
)
from etog.laws import element_sampler, reduced_word_sampler, reduced_words
from etog.notation import (
    MAX_ZLEX_DIM,
    format_element,
    format_group,
    parse_element,
    parse_group,
    parse_int,
)

AB = FreeGroup(("a", "b"))
E = AB.identity()
# one digit more than Python prints
HUGE = 10 ** sys.get_int_max_str_digits()
# a condition, an arena and a strategy for the functions that own an invariant
INT_X = EtogCondition(Valuation(("x",), Integers(), {"x": 1}))
LOOP = parse_arena("node s A\nedge s x s\n")
LOOP_ALICE = PositionalStrategy(Player.ALICE, {"s": LOOP.edges[0]})


def word(text: str) -> FreeWord:
    return parse_element(AB, text)


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: FreeGroup(("a", "a")), "duplicate generator name"),
        (lambda: FreeGroup(()), "free group needs at least one generator"),
        (lambda: LexVectors(0), "zlex dimension must be >= 1"),
        (lambda: Valuation((), Integers(), {}), "valuation defines no colors"),
        (lambda: Valuation(("x", "y"), Integers(), {"x": 0}),
         "valuation must assign exactly one image per color"),
        (lambda: Valuation(("x", "a\tb"), Integers(), {"x": 0, "a\tb": 0}),
         "bad color name 'a\\tb'"),
        (lambda: Valuation(("x", ""), Integers(), {"x": 0, "": 0}), "bad color name ''"),
        (lambda: UnionCondition(()), "union needs at least one member"),
        (lambda: parity_condition(0), "need at least one priority"),
        (lambda: reduce_word([("a", 2)]), "letter exponent must be +1 or -1, got 2"),
        (lambda: MisorderedFreeGroup(("a",)), "the misorder fault needs at least two generators"),
        (lambda: up_member_oracle(INT_X, UPWord.make("", "x x"), 3),
         "horizon must cover at least two full periods"),
        (lambda: verify_union_strategy(LOOP, INT_X, "s", LOOP_ALICE, 0),
         "bob_memory_bound must be >= 1"),
    ],
    ids=["duplicate-generator", "no-generator", "zero-dimension", "no-color", "missing-image",
         "whitespace-in-color", "empty-color", "empty-union", "no-priority", "letter-exponent",
         "one-generator-fault", "short-oracle-horizon", "zero-bob-memory"],
)
def test_constructors_refuse_malformed_arguments_with_notation_errors(build, message):
    # the constructor or function owns the check: the CLI shows an EtogError,
    # and callers that catch ValueError keep working
    with pytest.raises(NotationError) as refused:
        build()
    assert str(refused.value) == message
    assert isinstance(refused.value, EtogError) and isinstance(refused.value, ValueError)


class TestReduce:
    def test_cancellation(self):
        assert reduce_word([("a", 1), ("a", -1), ("b", 1)]) == reduce_word([("b", 1)])

    def test_identity(self):
        assert reduce_word([]) == FreeWord()

    def test_nested_cancellation(self):
        letters = [("a", 1), ("b", 1), ("b", -1), ("a", -1)]
        assert reduce_word(letters) == FreeWord()

    def test_idempotent(self):
        once = reduce_word([("a", 1), ("a", -1), ("b", 1), ("a", 1)])
        assert reduce_word(map(letter_parts, once.letters)) == once

    def test_unknown_generator(self):
        with pytest.raises(UnknownGeneratorError):
            reduce_word([("c", 1)], generators=("a", "b"))

    def test_bad_exponent(self):
        with pytest.raises(ValueError):
            reduce_word([("a", 2)])


class TestWordTupleBase:
    """A word is stored as a tuple of letter codes, but it is no tuple value."""

    def test_a_word_is_no_vector_and_no_pair(self):
        a, b = letter("a", 1), letter("b", 1)
        with pytest.raises(SpecMismatchError, match="2-dimensional"):
            LexVectors(2).validate(FreeWord((a, b)))
        with pytest.raises(SpecMismatchError, match="product pair"):
            LexProduct(Integers(), Integers()).validate(FreeWord((a, a)))
        LexVectors(2).validate((a, b))
        LexProduct(Integers(), Integers()).validate((a, a))

    @pytest.mark.parametrize("op", [operator.lt, operator.le, operator.gt, operator.ge])
    def test_words_have_no_python_order(self, op):
        x, y = word("a"), word("b a")
        for left, right in [(x, y), (x, x), (x, y.letters), (x.letters, y), (E, ())]:
            with pytest.raises(TypeError):
                op(left, right)

    def test_a_word_never_equals_a_plain_tuple(self):
        w = word("a b^-1")
        assert type(w.letters) is tuple and w.letters == (letter("a", 1), letter("b", -1))
        assert w != w.letters and w.letters != w
        assert not (w == w.letters or w.letters == w or E == () or () == E)
        assert w == FreeWord(w.letters) and not (w != FreeWord(w.letters))
        assert hash(w) == hash(FreeWord(w.letters))
        assert {w: 1}.get(w.letters) is None and {w.letters: 1}.get(w) is None

    def test_repr_spells_the_letters(self):
        assert repr(word("a b^-1")) == "FreeWord(a b^-1)"
        assert repr(E) == "FreeWord(e)"


class TestComposeInvert:
    def test_int(self):
        assert Integers().compose(2, 3) == 5
        assert Integers().invert(7) == -7

    def test_free_reduction_after_concat(self):
        assert AB.compose(word("a b"), word("b^-1 a")) == word("a a")

    def test_lexvec(self):
        spec = LexVectors(2)
        assert spec.compose((1, 0), (0, -1)) == (1, -1)
        assert LexVectors(3).invert((1, -2, 0)) == (-1, 2, 0)

    def test_free_invert(self):
        assert AB.invert(word("a b a^-1")) == word("a b^-1 a^-1")

    def test_boundaries_reject_foreign_elements(self):
        # compose, invert and compare trust their operands; foreign elements
        # are stopped where they enter: a valuation's images, and rendering
        with pytest.raises(SpecMismatchError):
            Valuation(("x",), Integers(), {"x": word("a")})
        with pytest.raises(SpecMismatchError):
            Valuation(("x",), FreeGroup(("c", "d")), {"x": word("a")})
        with pytest.raises(SpecMismatchError):
            Valuation(("x",), LexProduct(Integers(), Integers()), {"x": 3})
        with pytest.raises(SpecMismatchError):
            format_element(AB, 3)


class TestMagnusCoefficient:
    def test_single_generator(self):
        assert magnus_coefficient(word("a"), ()) == 1
        assert magnus_coefficient(word("a"), ("a",)) == 1
        assert magnus_coefficient(word("a"), ("a", "a")) == 0

    def test_inverse_generator_geometric(self):
        assert magnus_coefficient(word("a^-1"), ("a",)) == -1
        assert magnus_coefficient(word("a^-1"), ("a", "a")) == 1

    def test_commutator_degree_two(self):
        w = word("a b a^-1 b^-1")
        degree_two = {m: magnus_coefficient(w, m) for m in product("ab", repeat=2)}
        assert degree_two == {("a", "a"): 0, ("a", "b"): 1, ("b", "a"): -1, ("b", "b"): 0}
        assert magnus_coefficient(w, ("a",)) == magnus_coefficient(w, ("b",)) == 0


class TestFreeCompare:
    def test_generator_positive(self):
        assert AB.compare(word("a"), E) is Ordering.GREATER

    def test_commutator_orientation(self):
        assert AB.compare(word("a b a^-1 b^-1"), E) is Ordering.GREATER
        assert AB.compare(word("b a b^-1 a^-1"), E) is Ordering.LESS

    def test_equal_iff_identity_quotient(self):
        assert AB.compare(word("a b"), word("a b")) is Ordering.EQUAL
        assert AB.compare(word("a b b^-1"), word("a")) is Ordering.EQUAL

    def test_generator_order_matters(self):
        ba = FreeGroup(("b", "a"))
        # under generator order b < a the commutator's leading monomial flips
        assert ba.compare(word("a b a^-1 b^-1"), E) is Ordering.LESS

    def test_inverse_order_swaps(self):
        inv = InverseOrder(Integers())
        assert inv.compare(3, 5) is Ordering.GREATER
        assert inv.compare(5, 3) is Ordering.LESS
        assert inv.compare(4, 4) is Ordering.EQUAL

    def test_product_left_dominant(self):
        spec = LexProduct(Integers(), Integers())
        assert spec.compare((1, -5), (0, 100)) is Ordering.GREATER
        assert spec.compare((0, -1), (0, 0)) is Ordering.LESS

    def test_deep_word_compares_without_error(self):
        # a commutator of commutators sits deep in the lower central series
        inner = word("a b a^-1 b^-1")
        nested = multiply(
            multiply(inner, word("b")),
            multiply(inner.inverse(), word("b^-1")),
        )
        assert AB.compare(nested, E) in (Ordering.LESS, Ordering.GREATER)


class TestMisorderFault:
    def test_requires_two_generators(self):
        with pytest.raises(ValueError):
            MisorderedFreeGroup(("a",))

    def test_breaks_translation_invariance(self):
        faulty = MisorderedFreeGroup(("a", "b"))
        low, high = word("b^-1"), E
        assert faulty.compare(low, high) is Ordering.LESS
        g = word("a^-1")
        assert (
            faulty.compare(faulty.compose(g, low), faulty.compose(g, high))
            is Ordering.GREATER
        )


class TestNotation:
    @pytest.mark.parametrize(
        "text",
        ["int", "zlex(2)", "free(a,b)", "inv(free(a,b))", "prod(int,free(a,b))",
         "prod(zlex(3),inv(int))"],
    )
    def test_group_round_trip(self, text):
        assert format_group(parse_group(text)) == text

    def test_element_literals(self):
        assert parse_element(Integers(), "-7") == -7
        assert parse_element(LexVectors(3), "(1,0,-1)") == (1, 0, -1)
        assert parse_element(AB, "a b^-1 b a") == word("a a")
        assert parse_element(AB, "e") == FreeWord()
        spec = LexProduct(Integers(), AB)
        assert parse_element(spec, "[3;a b]") == (3, word("a b"))
        assert parse_element(spec, "e") == (0, E)

    def test_element_errors(self):
        with pytest.raises(NotationError):
            parse_element(Integers(), "abc")
        with pytest.raises(NotationError):
            parse_element(LexVectors(2), "(1,2,3)")
        with pytest.raises(NotationError):
            parse_element(AB, "a c")
        with pytest.raises(NotationError):
            parse_group("zlex(0)")
        with pytest.raises(NotationError):
            parse_group("free(a,a)")
        with pytest.raises(NotationError):
            parse_group("free(e)")
        with pytest.raises(NotationError):
            parse_group("prod(int)")

    @pytest.mark.parametrize(
        "text, refusal",
        [
            # FreeGroup owns the empty-generator refusal; the parser only splits
            ("free()", "free group needs at least one generator"),
            ("free( )", "free group needs at least one generator"),
            ("free(,)", "bad generator name: ''"),
        ],
    )
    def test_free_spec_refusals(self, text, refusal):
        with pytest.raises(NotationError, match=f"^{re.escape(refusal)}$"):
            parse_group(text)

    def test_word_literal_errors_other_than_unknown_generators_propagate(self, monkeypatch):
        # only an unknown generator is a notation error; anything else is a bug
        def broken(letters, generators):
            raise RuntimeError("bug in reduce_word")

        monkeypatch.setattr("etog.notation.reduce_word", broken)
        with pytest.raises(RuntimeError, match="bug in reduce_word"):
            parse_element(AB, "a b")

    def test_parse_int_names_the_digit_limit_only_for_decimal_digits(self):
        limit = sys.get_int_max_str_digits()
        assert parse_int(" -17 ", "refused") == -17
        for text in ("--5", "+-5", "5-", "", "a", "9" * (limit + 1) + "x"):
            with pytest.raises(NotationError, match="^refused$"):
                parse_int(text, "refused")
        for text in ("9" * (limit + 1), "-" + "9" * (limit + 1), " +" + "0" * (limit + 1)):
            with pytest.raises(NotationError, match=f"^integer literal has more than {limit} digits$"):
                parse_int(text, "refused")

    def test_parse_int_echoes_only_the_head_of_a_long_literal(self):
        for text, shown in (
            ("a" * 40, repr("a" * 40)),
            ("a" * 41, repr("a" * 40) + "… (41 characters)"),
            ("x" + "9" * 5000, repr("x" + "9" * 39) + "… (5001 characters)"),
        ):
            with pytest.raises(NotationError) as caught:
                parse_int(text, "refused: {}")
            assert str(caught.value) == f"refused: {shown}"
        with pytest.raises(NotationError) as caught:
            parse_int("q", "bad entry in {}", "(1,q)")
        assert str(caught.value) == "bad entry in '(1,q)'"

    def test_zlex_dimension_capped(self):
        assert parse_group(f"zlex({MAX_ZLEX_DIM})") == LexVectors(MAX_ZLEX_DIM)
        for dim in (MAX_ZLEX_DIM + 1, 10**9):
            with pytest.raises(NotationError):
                parse_group(f"zlex({dim})")

    def test_format_element_round_trip(self):
        spec = parse_group("prod(zlex(2),free(a,b))")
        element = parse_element(spec, "[(1,-2);a b^-1]")
        assert parse_element(spec, format_element(spec, element)) == element

    @pytest.mark.parametrize(
        "spec, element",
        [("zlex(2)", (0, HUGE)), ("inv(int)", HUGE), ("prod(free(a),int)", (E, HUGE))],
        ids=["zlex", "inv-int", "prod"],
    )
    def test_format_element_refuses_an_int_past_the_digit_limit(self, spec, element):
        with pytest.raises(NotationError, match="digits"):
            format_element(parse_group(spec), element)


@given(st.integers(1, 5), st.data())
@settings(deadline=None)
def test_lex_vectors_compose_and_invert_match_a_coordinate_loop(dim, data):
    vector = st.tuples(*[st.integers(-(10**20), 10**20)] * dim)
    x, y = data.draw(vector), data.draw(vector)
    summed, negated = [], []
    for i in range(dim):
        summed.append(x[i] + y[i])
        negated.append(-x[i])
    spec = LexVectors(dim)
    assert spec.compose(x, y) == tuple(summed)
    assert spec.invert(x) == tuple(negated)
    assert type(spec.compose(x, y)) is tuple and type(spec.invert(x)) is tuple


letters = st.tuples(st.sampled_from(["a", "b"]), st.sampled_from([1, -1]))
raw_words = st.lists(letters, max_size=8)


@given(raw_words, raw_words, raw_words)
@example([("a", 1)], [("b", 1)], [])  # the seam does not cancel
@example([("a", 1), ("b", 1)], [("b", -1)], [])  # it cancels part of the way
@settings(deadline=None)
def test_group_axioms_on_free_words(x, y, z):
    wx, wy, wz = (reduce_word(w) for w in (x, y, z))
    assert multiply(multiply(wx, wy), wz) == multiply(wx, multiply(wy, wz))
    assert multiply(wx, FreeWord()) == wx
    assert multiply(FreeWord(), wx) == wx
    assert multiply(wx, wx.inverse()) == FreeWord()
    assert multiply(wx.inverse(), wx) == FreeWord()
    # tuple slicing and + give plain tuples, which FreeGroup.validate refuses:
    # every path of multiply (an empty operand, a seam that does not cancel,
    # one that cancels part of the way or down to e) must return a word
    built = [
        wx, wx.inverse(), parse_element(AB, format_word(wx)),
        multiply(wx, wy), multiply(wx, FreeWord()), multiply(FreeWord(), wx),
        multiply(wx, wx.inverse()), multiply(wx.inverse(), wx),
    ]
    assert [type(w) for w in built] == [FreeWord] * len(built)
    for w in built:
        AB.validate(w)


def test_word_enumeration_and_sampling_return_words():
    assert all(type(w) is FreeWord for w in reduced_words(AB.generators, 4))
    sample, rng = reduced_word_sampler(AB.codes, 6), random.Random(0)
    drawn = [sample(rng) for _ in range(500)]
    assert all(type(w) is FreeWord for w in drawn) and E in drawn


@given(raw_words)
@settings(deadline=None)
def test_reduced_words_have_no_adjacent_cancellation(x):
    pairs = [letter_parts(c) for c in reduce_word(x).letters]
    for left, right in zip(pairs, pairs[1:]):
        assert not (left[0] == right[0] and left[1] == -right[1])


def _brute_coefficient(w: FreeWord, monomial: tuple[str, ...]) -> int:
    """Coefficient of ``monomial`` in the expansion of ``w``, spelled out: sum
    over non-decreasing letter positions that spell the monomial.  A letter g
    (1 + g) may be used at most once; each use of g^-1 (1 - g + g^2 - ...)
    contributes -1."""
    letters = [letter_parts(c) for c in w.letters]
    total = 0
    for positions in combinations_with_replacement(range(len(letters)), len(monomial)):
        sign = 1
        for i, (p, symbol) in enumerate(zip(positions, monomial)):
            s, e = letters[p]
            if s != symbol or (e > 0 and i and positions[i - 1] == p):
                break
            if e < 0:
                sign = -sign
        else:
            total += sign
    return total


def test_magnus_coefficient_matches_brute_force():
    import random

    from etog.laws import element_sampler

    rng = random.Random(5)
    generators = ("a", "b", "c")
    monomials = [m for d in range(1, 5) for m in product(generators, repeat=d)]
    sample = element_sampler(FreeGroup(generators), 8)
    for _ in range(100):
        w = sample(rng)
        for m in monomials:
            assert magnus_coefficient(w, m) == _brute_coefficient(w, m), (w, m)


def _magnus_series(w: FreeWord, degree: int) -> dict[tuple[str, ...], int]:
    """Every non-zero coefficient of degree <= ``degree`` in the expansion of
    ``w``, from the definition: g -> 1 + X_g and g^-1 -> 1 - X_g + X_g^2 - ...,
    each truncated at ``degree``, multiplied out letter by letter from the
    left.  Keys are monomials as tuples of generator names; () is the
    constant term."""
    series = {(): 1}
    for code in w.letters:
        g, e = letter_parts(code)
        if e > 0:
            factor = {(): 1, (g,): 1}
        else:
            factor = {(g,) * k: (-1) ** k for k in range(degree + 1)}
        product_series: dict[tuple[str, ...], int] = {}
        for m, a in series.items():
            for f, b in factor.items():
                if len(m) + len(f) <= degree:
                    product_series[m + f] = product_series.get(m + f, 0) + a * b
        series = {m: c for m, c in product_series.items() if c}
    return series


def _quotient(x: FreeWord, y: FreeWord) -> FreeWord:
    """x*y^-1, reduced letter by letter by ``reduce_word``, not by ``multiply``."""
    return reduce_word(map(letter_parts, x.letters + tuple(-c for c in reversed(y.letters))))


def _brute_literal_compare(spec: FreeGroup, x: FreeWord, y: FreeWord) -> Ordering:
    """The comparison with brute-force coefficients: reduce x*y^-1 and take the
    first non-zero ``_brute_coefficient`` in degree-then-lex order."""
    w = _quotient(x, y)
    if not w:
        return Ordering.EQUAL
    for degree in range(1, len(w.letters) + 1):
        for m in product(spec.generators, repeat=degree):
            coefficient = _brute_coefficient(w, m)
            if coefficient:
                return Ordering.GREATER if coefficient > 0 else Ordering.LESS
    raise AssertionError(f"no usable coefficient for {w!r}")


def _literal_compare(spec: FreeGroup, x: FreeWord, y: FreeWord) -> Ordering:
    """The comparison spelled out with no shortcuts: reduce x*y^-1, expand it
    as a power series one degree deeper at a time, and take the first
    non-zero coefficient in degree-then-lex order."""
    w = _quotient(x, y)
    if not w:
        return Ordering.EQUAL
    for degree in range(1, len(w.letters) + 1):
        series = _magnus_series(w, degree)
        for m in product(spec.generators, repeat=degree):
            coefficient = series.get(m, 0)
            if coefficient:
                return Ordering.GREATER if coefficient > 0 else Ordering.LESS
    raise AssertionError(f"no usable coefficient for {w!r}")


def test_magnus_series_matches_brute_force():
    # the two references share no code: the series multiplies truncated
    # series, the brute force sums over letter positions
    import random

    from etog.laws import element_sampler

    rng = random.Random(11)
    generators = ("a", "b", "c")
    monomials = [m for d in range(1, 5) for m in product(generators, repeat=d)]
    sample = element_sampler(FreeGroup(generators), 7)
    for _ in range(60):
        w = sample(rng)
        series = _magnus_series(w, 4)
        assert set(series) <= {()} | set(monomials), w
        assert series.get((), 0) == 1, w
        for m in monomials:
            assert series.get(m, 0) == _brute_coefficient(w, m), (w, m)
    # words of the lower central series, decided past degree 1
    for weight in (2, 3):
        for _ in range(10):
            w = _commutator(rng, weight, generators)
            series = _magnus_series(w, 4)
            for m in monomials:
                assert series.get(m, 0) == _brute_coefficient(w, m), (w, m)
    for _ in range(100):
        x, y = sample(rng), sample(rng)
        assert _literal_compare(ABC, x, y) is _brute_literal_compare(ABC, x, y), (x, y)


def _commutator(rng, weight: int, generators: tuple[str, ...] = ("a", "b")) -> FreeWord:
    """A random non-trivial commutator bracket [x, y] = x y x^-1 y^-1 of this
    weight over the generators and their inverses, split at a random point at
    every level; a bracket that reduces to the identity is drawn again."""
    if weight == 1:
        return FreeWord((rng.choice([letter(g, e) for g in generators for e in (1, -1)]),))
    while True:
        split = rng.randint(1, weight - 1)
        x = _commutator(rng, split, generators)
        y = _commutator(rng, weight - split, generators)
        c = multiply(multiply(x, y), multiply(x.inverse(), y.inverse()))
        if c.letters:
            return c


def _stripped(x: FreeWord, y: FreeWord) -> tuple[tuple, tuple]:
    """x and y less their longest common prefix, then their longest common suffix."""
    lx, ly = x.letters, y.letters
    k = 0
    while k < min(len(lx), len(ly)) and lx[k] == ly[k]:
        k += 1
    i, j = len(lx), len(ly)
    while i > k and j > k and lx[i - 1] == ly[j - 1]:
        i, j = i - 1, j - 1
    return lx[k:i], ly[k:j]


def test_optimised_compare_matches_literal_expansion():
    # the production compare short-circuits on the degree-1 counts, scans a
    # conjugate of the stripped quotient and deepens lazily; all of that must
    # be invisible
    import random

    rng = random.Random(2024)
    from etog.laws import element_sampler

    sample = element_sampler(AB, 5)
    for _ in range(1200):
        x = sample(rng)
        y = sample(rng)
        assert AB.compare(x, y) is _literal_compare(AB, x, y), (x, y)
    # shared-prefix pairs make the scanned quotient a conjugate p (u v^-1) p^-1
    sample_prefix, sample = element_sampler(AB, 4), element_sampler(AB, 3)
    for _ in range(800):
        prefix = sample_prefix(rng)
        x = multiply(prefix, sample(rng))
        y = multiply(prefix, sample(rng))
        assert AB.compare(x, y) is _literal_compare(AB, x, y), (x, y)
    # shared suffixes, shared prefixes and suffixes, equal words, and one word
    # a suffix of the other exercise the seam cancellation in the quotient,
    # over 2 and 3 generators
    for spec in (AB, FreeGroup(("a", "b", "c"))):
        sample = element_sampler(spec, 3)
        for _ in range(400):
            prefix, suffix, u, v = (sample(rng) for _ in range(4))
            for x, y in (
                (u, v),
                (multiply(u, suffix), multiply(v, suffix)),
                (multiply(prefix, multiply(u, suffix)), multiply(prefix, multiply(v, suffix))),
                (u, u),
                (suffix, multiply(u, suffix)),
                (multiply(u, suffix), suffix),
            ):
                assert spec.compare(x, y) is _literal_compare(spec, x, y), (x, y)
    # directed pairs x = w c, y = w for a commutator c of weight 2 to 6, over
    # two and three generators: every exponent sum of x y^-1 = w c w^-1 is 0,
    # so degree 1 decides nothing, and the scan reads degree 2 to 6.  When
    # w c cancels at the seam, both stripped slices are non-empty and v's
    # sums are not 0: only the difference of the two slices' sums vanishes.
    # Two words w in three are made to end in the inverse of c's first letter.
    for spec, pairs, least_undecided in ((AB, 100, 30), (FreeGroup(("a", "b", "c")), 40, 12)):
        sample = element_sampler(spec, 3)
        undecided = 0
        for _ in range(pairs):
            c = _commutator(rng, rng.choice((2, 3, 4, 5, 6)), spec.generators)
            w = sample(rng)
            if rng.random() < 2 / 3:
                w = multiply(w, FreeWord((-c.letters[0],)))
            x = multiply(w, c)
            # compare's operands must be reduced; an unreduced identity would
            # make the scan run through every monomial up to its length
            assert x == _quotient(x, E), x
            expected = _literal_compare(spec, x, w)
            assert spec.compare(x, w) is expected, (x, w)
            assert spec.compare(w, x) is expected.flipped(), (w, x)
            u, v = _stripped(x, w)
            sums_vanish = all(
                u.count(g) - u.count(-g) == v.count(g) - v.count(-g) for g in spec.codes
            )
            undecided += bool(u and v and sums_vanish)
        assert undecided >= least_undecided, (spec, undecided)


ABC = FreeGroup(("a", "b", "c"))


def _free_words(generators: tuple[str, ...], max_size: int = 8):
    return st.lists(
        st.tuples(st.sampled_from(generators), st.sampled_from([1, -1])),
        max_size=max_size,
    ).map(reduce_word)


def _native(greater: bool, less: bool) -> Ordering:
    return Ordering.GREATER if greater else Ordering.LESS if less else Ordering.EQUAL


def _pair_reference(x) -> Ordering:
    # left coordinate dominates; the right one decides only on a tie
    if x[0]:
        return _native(x[0] > 0, x[0] < 0)
    return _literal_compare(AB, x[1], E)


# group spec, element strategy, reference sign computed without the group's sign
SIGN_CASES = {
    "int": (Integers(), st.integers(-50, 50), lambda x: _native(x > 0, x < 0)),
    "zlex(3)": (
        LexVectors(3),
        st.tuples(*[st.integers(-2, 2)] * 3),
        lambda x: _native(x > (0, 0, 0), x < (0, 0, 0)),
    ),
    "free(a,b,c)": (ABC, _free_words(ABC.generators), lambda x: _literal_compare(ABC, x, E)),
    # e against x is the sign of x^-1, i.e. the reversed order's sign of x
    "inv(free(a,b))": (
        InverseOrder(AB), _free_words(AB.generators), lambda x: _literal_compare(AB, E, x)
    ),
    "prod(int,free(a,b))": (
        LexProduct(Integers(), AB),
        st.tuples(st.integers(-2, 2), _free_words(AB.generators)),
        _pair_reference,
    ),
}


@pytest.mark.parametrize("name", sorted(SIGN_CASES))
@given(data=st.data())
@settings(deadline=None)
def test_sign_matches_independent_reference(name, data):
    spec, elements, reference = SIGN_CASES[name]
    x = data.draw(elements)
    assert spec.sign(x) is reference(x), x


@given(_free_words(ABC.generators, 4), _free_words(ABC.generators), _free_words(ABC.generators))
@settings(deadline=None)
def test_free_compare_strips_prefix_to_the_same_sign(prefix, u, v):
    x, y = multiply(prefix, u), multiply(prefix, v)
    assert ABC.compare(x, y) is _literal_compare(ABC, x, y), (x, y)


# specs whose compare forwards to their parts' compare: over the free group's
# own compare, over the misordered group's base-class one, and nested
FORWARDED_COMPARE_SPECS = {
    "inv(free(a,b))": InverseOrder(AB),
    "inv(misordered(a,b))": InverseOrder(MisorderedFreeGroup(("a", "b"))),
    "prod(int,int)": LexProduct(Integers(), Integers()),
    "prod(free(a,b),int)": LexProduct(AB, Integers()),
    "inv(prod(zlex(2),free(a,b)))": InverseOrder(LexProduct(LexVectors(2), AB)),
}


@pytest.mark.parametrize("name", sorted(FORWARDED_COMPARE_SPECS))
def test_forwarded_compare_is_the_sign_of_the_quotient(name):
    # the base contract compare(x, y) = sign(x * y^-1), against 2,100 pairs;
    # a third are equal and, for products, a third share their left part.
    # The order-axiom battery cannot see an unflipped InverseOrder.compare:
    # it is a valid order, only not this one.
    spec = FORWARDED_COMPARE_SPECS[name]
    sample, rng = element_sampler(spec, 4), random.Random(name)
    pair = isinstance(getattr(spec, "inner", spec), LexProduct)
    for i in range(2100):
        x, y = sample(rng), sample(rng)
        if i % 3 == 0:
            y = x
        elif i % 3 == 1 and pair:
            y = (x[0], y[1])
        quotient = spec.sign(spec.compose(x, spec.invert(y)))
        assert spec.compare(x, y) is quotient, (x, y)


class _EveryMonomialFreeGroup(FreeGroup):
    """The free group with the previous, unskipped scan order from degree 2."""

    def _monomials(self, max_degree: int):
        """Scan order from degree 2, where the degree-1 counts end."""
        for degree in range(2, max_degree + 1):
            yield from product(self.generators, repeat=degree)


def _balanced_reduced_words(generators: tuple[str, ...], max_len: int):
    """Every non-empty reduced word up to ``max_len`` whose exponent sums are all 0."""
    letters = [(g, e) for g in generators for e in (1, -1)]

    def extend(prefix: tuple, sums: dict):
        if prefix and not any(sums.values()):
            yield reduce_word(prefix)
        if len(prefix) == max_len:
            return
        for g, e in letters:
            if prefix and prefix[-1] == (g, -e):
                continue
            sums[g] += e
            yield from extend(prefix + ((g, e),), sums)
            sums[g] -= e

    return list(extend((), dict.fromkeys(generators, 0)))


def test_free_sign_skips_pure_powers_soundly():
    # once every exponent sum n_g is 0, g^d has coefficient C(0, d) = 0, so
    # skipping the pure powers must never change a sign
    ab, abc = AB.generators, ABC.generators
    commutator_ab = [letter_parts(c) for c in word("a b a^-1 b^-1").letters]
    commutator_ac = [letter_parts(c) for c in parse_element(ABC, "a c a^-1 c^-1").letters]
    long_words = []
    for k in range(1, 31):
        long_words.append((AB, reduce_word(commutator_ab * k)))
        long_words.append((ABC, reduce_word(commutator_ab + commutator_ac * k)))
    ab_words, abc_words = _balanced_reduced_words(ab, 8), _balanced_reduced_words(abc, 6)
    assert (len(ab_words), len(abc_words)) == (360, 384)
    short_words = [(AB, w) for w in ab_words] + [(ABC, w) for w in abc_words]
    for spec, w in short_words + long_words:
        unskipped = _EveryMonomialFreeGroup(spec.generators)
        assert spec.sign(w) is unskipped.sign(w), w
    for spec, w in short_words:
        assert spec.sign(w) is _literal_compare(spec, w, E), w


def test_magnus_soundness_guards_missing_coefficient():
    # every non-identity reduced word up to length 6 must expose a usable
    # coefficient at its own length, otherwise compare would raise
    from etog.laws import magnus_soundness

    result = magnus_soundness(("a", "b"), max_len=6)
    assert result.passed, result.counterexample


def test_first_coefficient_missing_is_reachable_only_by_bug():
    # sanity: the error type exists and compare never raises it on real input
    with pytest.raises(FirstCoefficientMissingError):
        raise FirstCoefficientMissingError("synthetic")


NAMES = ["", "\x00a", "a", "a^-1", "b", "\u00e4", "\u03b1\u03b2", "\U0001d49c", "g\x00"]


@given(st.text(), st.sampled_from([1, -1]))
@example("", 1)
@example("\x00a", -1)
@example("a^-1", 1)
@example("\u00e4", -1)
@settings(deadline=None)
def test_letter_round_trips_and_negates(symbol, exponent):
    code = letter(symbol, exponent)
    assert letter_parts(code) == (symbol, exponent)
    assert letter(symbol, -1) == -letter(symbol, 1)
    assert (code > 0) == (exponent > 0)


@given(st.text(), st.sampled_from([1, -1]), st.text(), st.sampled_from([1, -1]))
@example("", 1, "\x00", 1)
@example("a", 1, "\x00a", 1)
@example("a^-1", 1, "a", -1)
@settings(deadline=None)
def test_letter_is_injective(s, e, t, f):
    assert (letter(s, e) == letter(t, f)) == ((s, e) == (t, f))


def test_letter_codes_of_named_examples_are_distinct():
    codes = [letter(name, e) for name in NAMES for e in (1, -1)]
    assert len(set(codes)) == len(codes)
    assert [letter_parts(c) for c in codes] == [(n, e) for n in NAMES for e in (1, -1)]


def test_words_keep_their_generator_names():
    spec = FreeGroup(("\u00e4", "a^-1", ""))
    w = reduce_word([("a^-1", 1), ("\u00e4", -1), ("", 1)])
    spec.validate(w)
    assert format_word(w) == "a^-1 \u00e4^-1 "
    assert repr(w) == "FreeWord(a^-1 \u00e4^-1 )"
    message = r"^not a word over \('\\x00a', 'b'\): FreeWord\(a\)$"
    with pytest.raises(SpecMismatchError, match=message):
        FreeGroup(("\x00a", "b")).validate(reduce_word([("a", 1)]))


@pytest.mark.parametrize(
    "bad",
    [("a", 1), "a", True, 0, 2, 511],
    ids=["tuple", "str", "bool", "zero", "no-leading-byte", "not-utf8"],
)
def test_validate_rejects_letters_that_are_not_codes(bad):
    # such a word cannot even be printed; the mismatch names the letter
    message = rf"^not a word over \('a',\): letter {re.escape(repr(bad))} is not a letter code$"
    with pytest.raises(SpecMismatchError, match=message):
        FreeGroup(("a",)).validate(FreeWord((bad,)))
    with pytest.raises(SpecMismatchError, match=message):
        Valuation(("x",), FreeGroup(("a",)), {"x": FreeWord((bad,))})


def test_validate_names_a_letter_that_is_no_code_after_a_foreign_generator():
    # the foreign letter comes first, but the word still cannot be printed
    with pytest.raises(SpecMismatchError, match=r"letter 'a' is not a letter code$"):
        FreeGroup(("a",)).validate(FreeWord((letter("b", 1), "a")))


# multiply, FreeGroup.sign and magnus_coefficient as they were on
# (symbol, exponent) letter pairs, kept as a reference for the integer letters


def _pair_multiply(lx: tuple, ly: tuple) -> tuple:
    i, j = len(lx), 0
    while i > 0 and j < len(ly):
        s, e = lx[i - 1]
        t, f = ly[j]
        if s == t and e == -f:
            i -= 1
            j += 1
        else:
            break
    return lx[:i] + ly[j:]


def _pair_coefficient(letters: tuple, monomial: tuple[str, ...]) -> int:
    slots: dict[str, list[int]] = {}
    for j, symbol in enumerate(monomial, 1):
        slots.setdefault(symbol, []).append(j)
    c = [1] + [0] * len(monomial)
    for symbol, exponent in letters:
        if exponent > 0:
            for j in reversed(slots.get(symbol, ())):
                c[j] += c[j - 1]
        else:
            for j in slots.get(symbol, ()):
                c[j] -= c[j - 1]
    return c[-1]


def _pair_sign(generators: tuple[str, ...], letters: tuple) -> Ordering:
    if not letters:
        return Ordering.EQUAL
    for g in generators:
        total = letters.count((g, 1)) - letters.count((g, -1))
        if total:
            return Ordering.GREATER if total > 0 else Ordering.LESS
    for degree in range(2, len(letters) + 1):
        for mono in product(generators, repeat=degree):
            if mono.count(mono[0]) < degree:
                c = _pair_coefficient(letters, mono)
                if c:
                    return Ordering.GREATER if c > 0 else Ordering.LESS
    raise AssertionError(f"no usable coefficient for {letters!r}")


def test_integer_letters_match_pair_letters_on_every_oracle_power():
    # every chunk^k that up_member_oracle builds for the periods of length
    # <= 4 over the shipped valuation at horizon 50x period: each rotation's
    # value, powered k = 1..50 (equal chunk values share one power loop there)
    from etog.laws import standard_valuations

    valuation = standard_valuations()["free"]
    group, colors = valuation.group, valuation.colors
    pair_images = {c: tuple(map(letter_parts, valuation.value_of(c).letters)) for c in colors}
    seen = set()
    for length in range(1, 5):
        for period in product(colors, repeat=length):
            for offset in range(length):
                rotation = period[offset:] + period[:offset]
                chunk = valuation.val_word(rotation)
                pair_chunk = ()
                for color in rotation:
                    pair_chunk = _pair_multiply(pair_chunk, pair_images[color])
                assert tuple(map(letter_parts, chunk.letters)) == pair_chunk, rotation
                if chunk in seen:
                    continue
                seen.add(chunk)
                acc, pair_acc = group.identity(), ()
                for k in range(1, 51):
                    acc = multiply(acc, chunk)
                    pair_acc = _pair_multiply(pair_acc, pair_chunk)
                    assert tuple(map(letter_parts, acc.letters)) == pair_acc, (rotation, k)
                    assert group.sign(acc) is _pair_sign(group.generators, pair_acc), (
                        rotation,
                        k,
                    )
    assert len(seen) == 161
