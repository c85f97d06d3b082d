import itertools
import random
from collections import Counter
from dataclasses import FrozenInstanceError, dataclass, fields, replace
from typing import Callable

import pytest

from etog.conditions import (
    EtogCondition,
    UnionCondition,
    UPWord,
    Valuation,
    load_valuation,
    parse_condition,
)
from etog.groups import (
    FreeGroup,
    FreeWord,
    Integers,
    InverseOrder,
    LexProduct,
    LexVectors,
    MisorderedFreeGroup,
    OrderedGroup,
    format_word,
    letter,
    letter_parts,
    multiply,
)
from etog import laws
from etog.errors import NotationError
from etog.laws import (
    MAX_CLOSURE_LEN,
    CheckResult,
    check_closure,
    check_fairly_mixing,
    check_invariant_subsemigroup,
    element_sampler,
    full_check_battery,
    magnus_soundness,
    negative_word_rows,
    order_axiom_battery,
    reduced_word_sampler,
    reduced_words,
    standard_valuations,
    word_sampler,
    words_up_to,
)
from etog.notation import shipped_valuation_path

SUITE = standard_valuations()
INT_XY = Valuation(Integers(), {"x": -1, "y": 1})


def negative_word_predicate(valuation: Valuation):
    """The per-word reference for ``negative_word_rows``: whether the word's
    value, composed from scratch by ``val_word``, is negative."""
    return lambda word: valuation.group.sign(valuation.val_word(word)) == -1


def _rows(predicate, alphabet, max_len: int) -> list[bytes]:
    """The closure rows of a per-word predicate: one row per length 1..max_len,
    one entry per word in itertools.product order."""
    return [
        bytes(map(predicate, itertools.product(alphabet, repeat=length)))
        for length in range(1, max_len + 1)
    ]


class TestStandardValuations:
    def test_free_is_the_shipped_valuation(self):
        assert SUITE["free"] == load_valuation(shipped_valuation_path())

    def test_inv_free_is_the_inv_etog_twin_of_the_shipped_valuation(self):
        twin = parse_condition(f"inv-etog({shipped_valuation_path()})").valuation
        assert SUITE["inv-free"] == twin


class TestClosure:
    def test_int_negative_words_pass(self):
        result = check_closure(negative_word_rows(INT_XY, 6), ("x", "y"))
        assert result.passed, result.counterexample

    def test_prefix_defined_set_fails_on_shift(self):
        result = check_closure(_rows(lambda w: w[0] == "x", ("x", "y"), 3), ("x", "y"))
        assert not result.passed
        assert "cyclic shift" in result.counterexample

    def test_free_valuation_passes(self):
        valuation = SUITE["free"]
        result = check_closure(negative_word_rows(valuation, 5), valuation.colors)
        assert result.passed, result.counterexample

    def test_non_closed_set_fails_on_concatenation(self):
        # words of length exactly 1: concatenation leaves the set
        result = check_closure(_rows(lambda w: len(w) == 1, ("x", "y"), 3), ("x", "y"))
        assert not result.passed
        assert "concatenation" in result.counterexample

    def test_rows_past_the_length_bound_are_refused(self):
        assert MAX_CLOSURE_LEN == 10
        with pytest.raises(NotationError, match=r"^closure word length must be <= 10, got 11$"):
            negative_word_rows(INT_XY, MAX_CLOSURE_LEN + 1)

    def test_rows_at_the_length_bound_are_built(self):
        rows = negative_word_rows(INT_XY, MAX_CLOSURE_LEN)
        assert rows == _rows(negative_word_predicate(INT_XY), ("x", "y"), MAX_CLOSURE_LEN)

    def test_bound_is_the_number_of_rows(self):
        valuation = SUITE["free"]
        result = check_closure(negative_word_rows(valuation, 3), valuation.colors)
        assert result.passed
        assert result.detail == f"exhaustive up to length 3 over {len(valuation.colors)} colors"
        # a set that breaks closure only at length 3 is caught by its rows
        result = check_closure(_rows(lambda w: len(w) != 3, ("x", "y"), 3), ("x", "y"))
        assert result.counterexample == "set not closed under concatenation: x | x x"


class TestFairlyMixing:
    def test_int_condition_passes(self):
        cond = EtogCondition(INT_XY)
        rng = random.Random(5)
        results = check_fairly_mixing(cond.up_member, INT_XY.colors, rng, samples=800)
        assert all(r.passed for r in results), [r.line() for r in results]

    def test_empty_prefix_control_fails_condition_b(self):
        # x^omega and alpha have empty prefixes, so both are in the set, but
        # x.alpha has the prefix x
        results = check_fairly_mixing(
            lambda word: not word.prefix, ("x", "y"), random.Random(0), samples=200
        )
        assert results[1].line() == (
            "CHECK fairly-mixing.B FAIL samples=200 hypothesis-hits=1 max-len=4 "
            "counterexample: x=y alpha=[ | y x y y]"
        )

    def test_prefix_dependent_control_fails_condition_a(self):
        def first_letter_is_x(word: UPWord) -> bool:
            sequence = word.prefix + word.period
            return sequence[0] == "x"

        rng = random.Random(5)
        results = check_fairly_mixing(first_letter_is_x, ("x", "y"), rng, samples=500)
        by_name = {r.name: r for r in results}
        assert not by_name["fairly-mixing.A"].passed

    def test_union_fails_condition_c(self):
        valuation = SUITE["free"]
        union = UnionCondition(
            (
                EtogCondition(valuation),
                EtogCondition(replace(valuation, group=InverseOrder(valuation.group))),
            )
        )
        rng = random.Random(11)
        results = check_fairly_mixing(union.up_member, valuation.colors, rng, samples=1000)
        by_name = {r.name: r for r in results}
        assert not by_name["fairly-mixing.C"].passed

    def test_prefix_dependent_control_lines(self):
        def first_letter_is_x(word: UPWord) -> bool:
            return (word.prefix + word.period)[0] == "x"

        results = check_fairly_mixing(first_letter_is_x, ("x", "y"), random.Random(5), samples=500)
        assert [r.line() for r in results] == [
            "CHECK fairly-mixing.A FAIL samples=500 max-len=4 counterexample: "
            "prefix y y y y changes membership of [x y | y y]",
            "CHECK fairly-mixing.B PASS samples=500 hypothesis-hits=234 max-len=4",
            "CHECK fairly-mixing.C PASS samples=500 hypothesis-hits=107 max-len=4",
        ]

    def test_union_control_lines(self):
        valuation = SUITE["free"]
        reverse = replace(valuation, group=InverseOrder(valuation.group))
        union = UnionCondition((EtogCondition(valuation), EtogCondition(reverse)))
        results = check_fairly_mixing(
            union.up_member, valuation.colors, random.Random(11), samples=1000
        )
        assert [r.line() for r in results] == [
            "CHECK fairly-mixing.A PASS samples=1000 max-len=4",
            "CHECK fairly-mixing.B PASS samples=1000 hypothesis-hits=734 max-len=4",
            "CHECK fairly-mixing.C FAIL samples=1000 hypothesis-hits=23 max-len=4 "
            "counterexample: heads=[] u=a a^-1 a^-1 a^-1 v=a a eps "
            "interleavings in S=True but the merge is not",
        ]

    def test_union_condition_c_witness(self):
        # deterministic witness: blocks a and a^-1 repeat inside the union but
        # their merge has identity value and falls outside it
        valuation = SUITE["free"]
        union = UnionCondition(
            (
                EtogCondition(valuation),
                EtogCondition(replace(valuation, group=InverseOrder(valuation.group))),
            )
        )
        assert union.up_member(UPWord.make("", "a"))
        assert union.up_member(UPWord.make("", "a^-1"))
        assert not union.up_member(UPWord.make("", "a a^-1"))


@dataclass(frozen=True)
class PredicateFreeGroup(FreeGroup):
    """A free group whose non-negative words are those where ``holds`` is
    true: a membership predicate posing as an order, so that the invariant-
    subsemigroup check can be shown sets that no order has.  Test-only, like
    ``MisorderedFreeGroup``."""

    holds: Callable[[FreeWord], bool]

    def sign(self, w: FreeWord):
        return 0 if self.holds(w) else -1


class SwappedTwo(Integers):
    """Integers whose non-negative set holds -2 in place of 2: every element
    or its inverse is in it, but 1 + 1 is not.  Test-only, like
    ``MisorderedFreeGroup``."""

    def sign(self, x: int) -> int:
        return 0 if (x >= 0) != (abs(x) == 2) else -1


def predicate_valuation(holds, colors) -> Valuation:
    """Each color of a ``PredicateFreeGroup`` mapped to its own letter: every
    word's value is the reduced word itself, so the check's scan visits the
    words in their own order and tests ``holds`` on each."""
    group = PredicateFreeGroup(tuple(colors), holds)
    return Valuation(group, {c: FreeWord((letter(c, 1),)) for c in colors})


def even_length(w: FreeWord) -> bool:
    return len(w) % 2 == 0


def odd_length(w: FreeWord) -> bool:
    return len(w) % 2 == 1


class TestInvariantSubsemigroup:
    def test_free_valuation_passes(self):
        result = check_invariant_subsemigroup(SUITE["free"], max_len=3)
        assert result.passed, result.counterexample

    def test_identity_only_valuation_passes(self):
        valuation = Valuation(FreeGroup(("a", "b")), {"p": FreeWord(), "q": FreeWord()})
        result = check_invariant_subsemigroup(valuation, max_len=3)
        assert result.passed, result.counterexample

    @staticmethod
    def _assert_fails_as_the_per_letter_scan(holds):
        result = check_invariant_subsemigroup(predicate_valuation(holds, ("a", "b")), max_len=2)
        expected = _per_letter_subsemigroup(membership=holds, colors=("a", "b"), max_len=2)
        assert (result.passed, result.counterexample) == expected
        assert not result.passed

    def test_set_not_closed_under_products_fails(self):
        result = check_invariant_subsemigroup(Valuation(SwappedTwo(), {"x": 1}), max_len=2)
        assert result.line() == (
            "CHECK invariant-subsemigroup FAIL exhaustive up to length 2 over 1 colors "
            "counterexample: product escapes S: (x) (x)"
        )

    def test_even_length_control_fails(self):
        self._assert_fails_as_the_per_letter_scan(even_length)

    def test_odd_length_control_fails(self):
        self._assert_fails_as_the_per_letter_scan(odd_length)

    # The word-level scan makes about 700k predicate calls for each free
    # valuation at length 3, so those run at length 2 only.
    @pytest.mark.parametrize(
        "label, max_len",
        [(label, 2) for label in [*sorted(SUITE), "misordered-free"]]
        + [("int", 3), ("zlex2", 3)],
    )
    def test_value_and_word_sources_agree(self, label, max_len):
        if label == "misordered-free":
            free = SUITE["free"]
            valuation = replace(free, group=MisorderedFreeGroup(("a", "b")))
        else:
            valuation = SUITE[label]
        group = valuation.group

        def non_negative(word: FreeWord) -> bool:
            value = group.identity()
            for color, exponent in map(letter_parts, word.letters):
                image = valuation.value_of(color)
                if exponent < 0:
                    image = group.invert(image)
                value = group.compose(value, image)
            return group.compare(value, group.identity()) >= 0

        by_value = check_invariant_subsemigroup(valuation, max_len=max_len)
        by_word, _ = _per_letter_subsemigroup(
            membership=non_negative, colors=valuation.colors, max_len=max_len
        )
        assert by_value.passed == by_word == (label != "misordered-free")

    @pytest.mark.parametrize(
        "case",
        ["free-3", "misordered-free-2", "first-letter-positive", "last-letter-inverse",
         "even-length", "odd-length"],
    )
    def test_verdicts_and_witnesses_match_the_per_letter_scan(self, case):
        # each word's value, taken from its parent's, names the same first
        # counterexample as a value recomputed letter by letter
        free = SUITE["free"]
        valuations = {
            "free-3": (free, 3),
            "misordered-free-2": (
                replace(free, group=MisorderedFreeGroup(("a", "b"))), 2
            ),
        }
        predicates = {
            "first-letter-positive": lambda w: not w.letters or w.letters[0] > 0,
            "last-letter-inverse": lambda w: not w.letters or w.letters[-1] < 0,
            "even-length": even_length,
            "odd-length": odd_length,
        }
        if case in valuations:
            valuation, max_len = valuations[case]
            result = check_invariant_subsemigroup(valuation, max_len=max_len)
            expected = _per_letter_subsemigroup(valuation, max_len=max_len)
        else:
            holds, colors = predicates[case], ("a", "b", "c")
            result = check_invariant_subsemigroup(predicate_valuation(holds, colors), max_len=3)
            expected = _per_letter_subsemigroup(membership=holds, colors=colors, max_len=3)
        assert (result.passed, result.counterexample) == expected
        assert result.passed == (case == "free-3")


def _per_letter_subsemigroup(valuation=None, max_len=4, membership=None, colors=None):
    """(passed, counterexample) of the check_invariant_subsemigroup scan that
    took each word's value letter by letter from the identity, kept as the
    reference for the values taken from each word's parent."""
    if valuation is not None:
        colors = valuation.colors
        group = valuation.group
        mul, inv = group.compose, group.invert
        images = {}
        for color in colors:
            code, image = letter(color, 1), valuation.value_of(color)
            images[code], images[-code] = image, inv(image)

        def in_s(value) -> bool:
            return group.sign(value) >= 0

        def element(word: FreeWord):
            value = group.identity()
            for code in word.letters:
                value = mul(value, images[code])
            return value
    else:
        in_s, mul, inv = membership, multiply, FreeWord.inverse

        def element(word: FreeWord):
            return word

    witness: dict = {}
    for word in reduced_words(colors, max_len):
        witness.setdefault(element(word), word)
    members = []
    for g, word in witness.items():
        if in_s(g):
            members.append(g)
        elif not in_s(inv(g)):
            return False, f"neither {format_word(word)} nor its inverse is in S"
    for x in members:
        for y in members:
            if not in_s(mul(x, y)):
                return False, (
                    f"product escapes S: ({format_word(witness[x])}) ({format_word(witness[y])})"
                )
    for g, word in witness.items():
        g_inv = inv(g)
        for x in members:
            if not in_s(mul(mul(g, x), g_inv)):
                return False, (
                    f"conjugate escapes S: g={format_word(word)} x={format_word(witness[x])}"
                )
    return True, None


class TestReducedWords:
    @pytest.mark.parametrize("generators", [("a",), ("a", "b"), ("a", "b", "c")])
    def test_counts_order_and_reduction(self, generators):
        k, max_len = len(generators), 4
        words = list(reduced_words(generators, max_len))
        lengths = [len(w) for w in words]
        assert lengths == sorted(lengths)
        assert lengths.count(0) == 1
        for n in range(1, max_len + 1):
            assert lengths.count(n) == 2 * k * (2 * k - 1) ** (n - 1)
        assert len(set(words)) == len(words)
        for w in words:
            pairs = [letter_parts(c) for c in w.letters]
            assert {s for s, _ in pairs} <= set(generators)
            for (s, e), (t, f) in zip(pairs, pairs[1:]):
                assert not (s == t and e == -f)


class FlatNearZero(Integers):
    """Integers whose sign is 0 for -1, 0 and 1: a preorder that
    calls distinct neighbours equal, so antisymmetry and transitivity fail.
    Test-only, like ``MisorderedFreeGroup``."""

    def sign(self, x: int) -> int:
        return 0 if abs(x) <= 1 else super().sign(x)


class NonZeroIsGreater(Integers):
    """Integers whose every non-zero element has sign 1: each distinct pair
    compares greater both ways round, and x + (-x) leaves the positive cone.
    Test-only, like ``MisorderedFreeGroup``."""

    def sign(self, x: int) -> int:
        return 1 if x else 0


class _FixedSamples:
    """An rng whose ``randint`` returns the given integers in turn."""

    def __init__(self, values) -> None:
        self.values = iter(values)

    def randint(self, low: int, high: int) -> int:
        return next(self.values)


# each broken order with the exact set of order-axiom checks it fails
BROKEN_ORDERS = {
    "flat-near-zero": (FlatNearZero(), {"antisymmetry-identity", "transitivity"}),
    "non-zero-is-greater": (NonZeroIsGreater(), {"totality", "bi-invariance", "cone-product"}),
    "misordered-free": (MisorderedFreeGroup(("a", "b")), {"bi-invariance", "cone-conjugation"}),
}


class TestOrderAxioms:
    @pytest.mark.parametrize("label", sorted(SUITE))
    def test_suite_specs_pass(self, label):
        rng = random.Random(3)
        results = order_axiom_battery(SUITE[label].group, rng, samples=1500)
        assert all(r.passed for r in results), [r.line() for r in results if not r.passed]

    def test_fault_breaks_bi_invariance(self):
        rng = random.Random(0)
        faulty = MisorderedFreeGroup(("a", "b"))
        results = order_axiom_battery(faulty, rng, samples=2000)
        by_name = {r.name: r for r in results}
        assert not by_name["order-axioms.bi-invariance"].passed

    @pytest.mark.parametrize("label", BROKEN_ORDERS)
    def test_broken_order_fails_exactly_its_checks(self, label):
        group, broken = BROKEN_ORDERS[label]
        results = order_axiom_battery(group, random.Random(0), samples=2000)
        failed = {r.name.removeprefix("order-axioms.") for r in results if not r.passed}
        assert failed == broken
        assert all(r.counterexample for r in results if not r.passed)

    def test_every_order_axiom_check_fails_on_some_broken_order(self):
        results = order_axiom_battery(Integers(), random.Random(0), samples=1)
        names = {r.name.removeprefix("order-axioms.") for r in results}
        assert len(names) == 6
        assert set().union(*(broken for _, broken in BROKEN_ORDERS.values())) == names

    def test_flat_near_zero_fails_transitivity_in_both_directions(self):
        # x <= y <= z but x > z, and x >= y >= z but x < z: each is its own branch
        group = FlatNearZero()
        for x, y, z in ((2, 1, 0), (0, 1, 2)):
            results = order_axiom_battery(group, _FixedSamples([x, y, z, 0]), samples=1)
            by_name = {r.name: r for r in results}
            assert by_name["order-axioms.transitivity"].counterexample == f"x={x} y={y} z={z}"


class TestFullBattery:
    def test_small_budget_battery_passes(self):
        results = full_check_battery(
            seed=9,
            order_samples=500,
            closure_max_len=4,
            fm_samples=200,
            subsemigroup_max_len=2,
            per_law_max_period=2,
        )
        assert results
        assert all(r.passed for r in results), [r.line() for r in results if not r.passed]

    def test_verdicts_are_seed_independent(self):
        kwargs = dict(
            order_samples=300,
            closure_max_len=3,
            fm_samples=150,
            subsemigroup_max_len=2,
            per_law_max_period=2,
        )
        first = [(r.name, r.passed) for r in full_check_battery(seed=0, **kwargs)]
        for seed in range(1, 10):
            assert [(r.name, r.passed) for r in full_check_battery(seed=seed, **kwargs)] == first

    def test_injected_fault_fails_bi_invariance(self):
        results = full_check_battery(
            seed=9,
            order_samples=2500,
            closure_max_len=3,
            fm_samples=100,
            subsemigroup_max_len=2,
            per_law_max_period=2,
            inject_fault=True,
        )
        by_name = {r.name: r for r in results}
        assert not by_name["order-axioms.bi-invariance"].passed


@pytest.mark.parametrize("inject_fault", [False, True])
def test_battery_takes_the_free_group_from_the_suite(monkeypatch, inject_fault):
    # a third generator the shipped valuation does not use, so a battery that
    # builds free(a, b) by hand is caught
    shipped = standard_valuations()
    free = replace(shipped["free"], group=FreeGroup(("a", "b", "c")))
    suite = {**shipped, "free": free, "inv-free": replace(free, group=InverseOrder(free.group))}
    specs, generators = [], []

    def record_spec(spec, rng, samples=0):
        specs.append(spec)
        return []

    def record_generators(gens, max_len):
        generators.append(gens)
        return CheckResult("magnus-soundness", "recorded")

    monkeypatch.setattr(laws, "standard_valuations", lambda: suite)
    monkeypatch.setattr(laws, "order_axiom_battery", record_spec)
    monkeypatch.setattr(laws, "magnus_soundness", record_generators)
    full_check_battery(
        seed=0,
        closure_max_len=1,
        fm_samples=1,
        subsemigroup_max_len=1,
        per_law_max_period=1,
        inject_fault=inject_fault,
    )
    expected = MisorderedFreeGroup(("a", "b", "c")) if inject_fault else free.group
    assert specs[0] == expected
    assert InverseOrder(free.group) in specs[1:]
    assert generators == [("a", "b", "c")]


def test_battery_reports_an_oracle_mismatch(monkeypatch):
    # an oracle that calls every period a member disagrees with each valuation
    # on its first non-negative period
    monkeypatch.setattr(laws, "up_member_oracle", lambda cond, word, horizon: True)
    results = full_check_battery(
        seed=0,
        order_samples=100,
        closure_max_len=1,
        fm_samples=1,
        subsemigroup_max_len=1,
        per_law_max_period=1,
    )
    assert [r.line() for r in results if r.name.startswith("per-law.")] == [
        f"CHECK per-law.oracle-equivalence.{label} FAIL all {count} periods up to length 1, "
        f"horizon 50x period counterexample: {period}"
        for label, count, period in (
            ("int", 2, "y"), ("zlex2", 1, "c"), ("free", 1, "eps"), ("inv-free", 1, "eps")
        )
    ]


def test_magnus_soundness_reports_a_word_without_a_coefficient(monkeypatch):
    monkeypatch.setattr(laws, "magnus_coefficient", lambda word, monomial: 0)
    assert magnus_soundness(("a", "b"), 2).line() == (
        "CHECK magnus-soundness FAIL words up to length 2 "
        "counterexample: no usable coefficient for FreeWord(a)"
    )


def test_check_results_are_immutable():
    result = CheckResult("closure", "detail")
    with pytest.raises(FrozenInstanceError):
        result.name = "renamed"


def test_a_check_result_fails_exactly_when_it_holds_a_counterexample():
    assert [field.name for field in fields(CheckResult)] == ["name", "detail", "counterexample"]
    result = CheckResult("x", "d")
    assert result.passed and result.line() == "CHECK x PASS d"
    failed = replace(result, counterexample="oops")
    assert failed == CheckResult("x", "d", "oops")
    assert not failed.passed and failed.line() == "CHECK x FAIL d counterexample: oops"
    assert replace(failed, counterexample=None) == result


def test_words_up_to_counts():
    assert sum(1 for _ in words_up_to(("x", "y"), 3)) == 2 + 4 + 8


def _word_by_word_closure(predicate, alphabet, max_len):
    """The check_closure that the row method replaced, kept as the slow path:
    one dict entry per word, every shift and every (u, v) pair.  Returns the
    first counterexample, or None."""
    by_length: list[list[tuple]] = [[]]
    table: dict[tuple, bool] = {}
    for length in range(1, max_len + 1):
        bucket = list(itertools.product(alphabet, repeat=length))
        by_length.append(bucket)
        for word in bucket:
            table[word] = predicate(word)
    for word, value in table.items():
        for cut in range(1, len(word)):
            shifted = word[cut:] + word[:cut]
            if table[shifted] != value:
                return f"cyclic shift changes membership: {' '.join(word)} vs {' '.join(shifted)}"
    for len_u in range(1, max_len):
        for len_v in range(1, max_len - len_u + 1):
            for u in by_length[len_u]:
                in_u = table[u]
                for v in by_length[len_v]:
                    joined = table[u + v]
                    if in_u and table[v] and not joined:
                        return f"set not closed under concatenation: {' '.join(u)} | {' '.join(v)}"
                    if not in_u and not table[v] and joined:
                        return (
                            "complement not closed under concatenation: "
                            f"{' '.join(u)} | {' '.join(v)}"
                        )
    return None


def _necklace(word: tuple) -> tuple:
    return min(word[cut:] + word[:cut] for cut in range(len(word)))


def _closure_tables(rng: random.Random, alphabet: tuple, max_len: int):
    """Seeded word -> bool tables: random, shift-invariant, the rows of
    negative words of each suite valuation over the alphabet's first colors,
    and each of those with one word flipped or with one word's whole shift
    class flipped."""
    words = list(words_up_to(alphabet, max_len))
    necklaces = {w: _necklace(w) for w in words}
    tables = [{w: rng.random() < 0.5 for w in words}]
    for p in (0.5, 0.9):
        coin = {n: rng.random() < p for n in set(necklaces.values())}
        tables.append({w: coin[necklaces[w]] for w in words})
    for label in sorted(SUITE):
        suite = SUITE[label]
        colors = suite.colors[: len(alphabet)]
        valuation = Valuation(suite.group, {c: suite.mapping[c] for c in colors})
        # words lists each length in itertools.product order, as the rows do
        entries = b"".join(negative_word_rows(valuation, max_len))
        tables.append({w: bool(entry) for w, entry in zip(words, entries, strict=True)})
    for table in tables[:]:
        target = rng.choice(words)
        tables.append({**table, target: not table[target]})
        tables.append(
            {w: v != (necklaces[w] == necklaces[target]) for w, v in table.items()}
        )
    return tables


@pytest.mark.parametrize("colors", [1, 2, 3, 4])
@pytest.mark.parametrize("max_len", [1, 2, 3, 4, 5])
def test_row_closure_matches_word_by_word_closure(colors, max_len):
    rng = random.Random(100 * colors + max_len)
    alphabet = ("p", "q", "r", "s")[:colors]
    for table in _closure_tables(rng, alphabet, max_len):
        fast = check_closure(_rows(table.__getitem__, alphabet, max_len), alphabet)
        assert fast.counterexample == _word_by_word_closure(table.__getitem__, alphabet, max_len)


@pytest.mark.parametrize("label", sorted(SUITE))
def test_prefix_reuse_matches_val_word(label):
    # each row entry, built from its prefix's value, is the per-word
    # reference's answer from val_word
    valuation = SUITE[label]
    negative = negative_word_predicate(valuation)
    max_len = 4
    rows = negative_word_rows(valuation, max_len)
    assert len(rows) == max_len
    for length, row in enumerate(rows, 1):
        words = itertools.product(valuation.colors, repeat=length)
        assert len(row) == len(valuation.colors) ** length
        for word, entry in zip(words, row):
            assert entry == negative(word), word
    assert negative_word_rows(valuation, 0) == []


class _CountingGroup(OrderedGroup):
    """Delegates to ``inner``, counting ``compose`` calls and recording the
    argument of every ``sign`` call."""

    def __init__(self, inner: OrderedGroup):
        self.inner, self.composed, self.signed = inner, 0, []

    def identity(self):
        return self.inner.identity()

    def compose(self, x, y):
        self.composed += 1
        return self.inner.compose(x, y)

    def invert(self, x):
        return self.inner.invert(x)

    def sign(self, x):
        self.signed.append(x)
        return self.inner.sign(x)

    def validate(self, x):
        self.inner.validate(x)


@pytest.mark.parametrize("label", sorted(SUITE))
def test_negative_word_predicate_evaluates_each_prefix_once(label, monkeypatch):
    # the rows that replaced the predicate compose each word once, from its
    # prefix's value: sum of n**L compose calls, no val_word, and one sign
    # per distinct value
    valuation = SUITE[label]
    counting = _CountingGroup(valuation.group)
    n, max_len = len(valuation.colors), 4
    expected = _rows(negative_word_predicate(valuation), valuation.colors, max_len)
    values = {valuation.val_word(word) for word in words_up_to(valuation.colors, max_len)}

    def no_val_word(self, word):
        raise AssertionError("negative_word_rows called val_word")

    monkeypatch.setattr(Valuation, "val_word", no_val_word)
    rows = negative_word_rows(replace(valuation, group=counting), max_len)
    assert rows == expected
    assert counting.composed == sum(n**length for length in range(1, max_len + 1))
    assert len(counting.signed) == len(values)
    assert set(counting.signed) == values


def _random_word_before(rng, alphabet, max_len, min_len=0):
    """The per-draw random_word that word_sampler replaced, kept verbatim as
    the reference the samplers must match draw for draw."""
    n = len(alphabet)
    span = max_len - min_len + 1
    code, length = divmod(rng.randrange(span * n**max_len), span)
    letters = []
    for _ in range(min_len + length):
        code, digit = divmod(code, n)
        letters.append(alphabet[digit])
    return tuple(letters)


def _random_reduced_word_before(rng, codes, max_len):
    """The per-draw reduced-word sampler, kept verbatim as a reference."""
    letters = codes + tuple(-c for c in codes)
    k = len(letters)
    span = max_len + 1
    code, length = divmod(rng.randrange(span * k * (k - 1) ** max(max_len - 1, 0)), span)
    if not length:
        return FreeWord()
    code, digit = divmod(code, k)
    word = [letters[digit]]
    for _ in range(length - 1):
        code, digit = divmod(code, k - 1)
        c = letters[digit]
        word.append(letters[-1] if c == -word[-1] else c)
    return FreeWord(tuple(word))


def _sample_element_before(spec, rng, max_len=6):
    """The per-draw sample_element that element_sampler replaced, kept
    verbatim as a reference."""
    if isinstance(spec, Integers):
        return rng.randint(-9, 9)
    if isinstance(spec, LexVectors):
        return tuple(rng.randint(-4, 4) for _ in range(spec.dim))
    if isinstance(spec, FreeGroup):
        return _random_reduced_word_before(rng, spec.codes, max_len)
    if isinstance(spec, InverseOrder):
        return _sample_element_before(spec.inner, rng, max_len)
    if isinstance(spec, LexProduct):
        return (
            _sample_element_before(spec.left, rng, max_len),
            _sample_element_before(spec.right, rng, max_len),
        )
    raise TypeError(f"no sampler for {spec!r}")


def _assert_same_stream(sample, reference, seeds=(0, 1, 2), draws=2000):
    """A sampler built once draws what the reference draws, element for
    element, and leaves the rng where the reference leaves it."""
    for seed in seeds:
        built, before = random.Random(seed), random.Random(seed)
        for _ in range(draws):
            assert sample(built) == reference(before)
        assert built.random() == before.random()


_SPECS: dict[str, OrderedGroup] = {
    **{f"suite-{label}": valuation.group for label, valuation in SUITE.items()},
    "prod-int-int": LexProduct(Integers(), Integers()),
    "misordered": MisorderedFreeGroup(("a", "b")),
    **{f"free{n}": FreeGroup(("a", "b", "c")[:n]) for n in (1, 2, 3)},
}


@pytest.mark.parametrize("label", sorted(_SPECS))
def test_element_sampler_draws_the_per_draw_stream(label):
    spec = _SPECS[label]
    for max_len in (0, 1, 6):
        _assert_same_stream(
            element_sampler(spec, max_len),
            lambda rng: _sample_element_before(spec, rng, max_len),
        )


@pytest.mark.parametrize("min_len", [0, 1])
def test_word_sampler_draws_the_per_draw_stream(min_len):
    for colors in (("x",), ("x", "y"), SUITE["free"].colors):
        for max_len in (min_len, 4):
            _assert_same_stream(
                word_sampler(colors, max_len, min_len),
                lambda rng: _random_word_before(rng, colors, max_len, min_len),
            )


class _FixedDraw:
    """An rng whose ``randrange`` returns ``code`` and records its bound."""

    def __init__(self) -> None:
        self.code = 0
        self.bound = None

    def randrange(self, bound: int) -> int:
        self.bound = bound
        return self.code


def _each_code(sample) -> list:
    """What ``sample(rng)`` returns for each code of its draw, in code order."""
    rng = _FixedDraw()
    sample(rng)
    draws = []
    for code in range(rng.bound):
        rng.code = code
        draws.append(sample(rng))
    return draws


@pytest.mark.parametrize("generators", [("a",), ("a", "b"), ("a", "b", "c")])
def test_each_code_draws_a_distinct_word_of_its_length(generators):
    # with max_len equal to the drawn length, the codes of that length are in
    # bijection with the (reduced) words of that length
    codes = tuple(letter(g, 1) for g in generators)
    colors = ("x", "y", "z")[: len(generators)]
    for max_len in range(1, 5):
        span = max_len + 1
        for sample, before, words in (
            (
                reduced_word_sampler(codes, max_len),
                lambda rng: _random_reduced_word_before(rng, codes, max_len),
                reduced_words(generators, max_len),
            ),
            (
                word_sampler(colors, max_len),
                lambda rng: _random_word_before(rng, colors, max_len),
                [()] + list(words_up_to(colors, max_len)),
            ),
        ):
            # one sampler, each code drawn twice: the second pass repeats
            # every key and must read the words the first pass decoded
            drawn = _each_code(sample)
            assert drawn == _each_code(before)
            assert _each_code(sample) == drawn
            of_length = [w for code, w in enumerate(drawn) if code % span == max_len]
            assert Counter(of_length) == Counter(w for w in words if len(w) == max_len)
    # min_len == max_len leaves a single length, so the length digit has base 1
    fixed = _each_code(word_sampler(colors, 3, min_len=3))
    assert Counter(fixed) == Counter(itertools.product(colors, repeat=3))


class _CountingRandom(random.Random):
    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        self.calls = Counter()

    def randrange(self, *args, **kwargs):
        self.calls["randrange"] += 1
        return super().randrange(*args, **kwargs)

    def randint(self, *args, **kwargs):
        self.calls["randint"] += 1
        return super().randint(*args, **kwargs)

    def choice(self, *args, **kwargs):
        self.calls["choice"] += 1
        return super().choice(*args, **kwargs)


@pytest.mark.parametrize("generators", [("a",), ("a", "b"), ("a", "b", "c")])
def test_each_sampled_word_costs_one_randrange(generators):
    samplers = [
        word_sampler(("x", "y", "z"), 4),
        element_sampler(FreeGroup(generators), 6),
        word_sampler(("x", "y", "z"), 2),
        word_sampler(("x", "y", "z"), 2, min_len=1),
        reduced_word_sampler(tuple(letter(g, 1) for g in generators), 2),
        element_sampler(FreeGroup(generators), 2),
    ]
    for sample in samplers:
        rng = _CountingRandom(0)
        drawn = []
        for n in range(1, 301):
            drawn.append(sample(rng))
            assert rng.calls == Counter(randrange=n)
        # 300 draws repeat some words, and a repeat costs the same one draw
        assert len(set(drawn)) < 300
    # the group's letter codes draw what its generator names draw
    by_name, by_group = random.Random(4), random.Random(4)
    by_name_sample = reduced_word_sampler([letter(g, 1) for g in generators], 6)
    sample = element_sampler(FreeGroup(generators), 6)
    for _ in range(100):
        assert by_name_sample(by_name) == sample(by_group)


def test_sampled_word_lengths_stay_in_bounds():
    rng = random.Random(0)
    for generators in (("a",), ("a", "b")):
        sample = element_sampler(FreeGroup(generators), 0)
        assert {sample(rng) for _ in range(20)} == {FreeWord()}
    sample = word_sampler(("x", "y"), 0)
    assert {sample(rng) for _ in range(20)} == {()}
    sample = word_sampler(("x", "y"), 3, min_len=3)
    assert {len(sample(rng)) for _ in range(50)} == {3}
    sample = element_sampler(FreeGroup(("a", "b")), 3)
    assert {len(sample(rng)) for _ in range(200)} == {0, 1, 2, 3}


def test_reduced_word_sampler_decodes_only_the_words_it_draws(monkeypatch):
    # an eager table at max_len=10 over two generators would build all
    # 1 + 4 * (3**10 - 1) / 2 = 118,097 reduced words
    built = []

    def counting_free_word(*args):
        built.append(args)
        return FreeWord(*args)

    monkeypatch.setattr(laws, "FreeWord", counting_free_word)
    sample = reduced_word_sampler((letter("a", 1), letter("b", 1)), 10)
    rng = random.Random(0)
    drawn = [sample(rng) for _ in range(200)]
    assert len(built) <= 200
    assert len(built) == len(set(drawn))


def _never_draws(word: UPWord) -> bool:
    raise AssertionError("no draw should be made")


@pytest.mark.parametrize(
    "draw, bounds",
    [
        (
            lambda: check_fairly_mixing(_never_draws, ("x", "y"), random.Random(0), max_len=0),
            "min_len=1 max_len=0",
        ),
        (lambda: word_sampler(("x", "y"), 2, min_len=3), "min_len=3 max_len=2"),
        (lambda: word_sampler(("x", "y"), -1), "min_len=0 max_len=-1"),
        (lambda: element_sampler(FreeGroup(("a", "b")), -1), "max_len=-1"),
        (lambda: reduced_word_sampler((), 3), "no generators"),
        (lambda: word_sampler((), 2), "empty alphabet .* max_len=2"),
    ],
    ids=[
        "fairly-mixing-max-len-0",
        "min-len-above-max-len",
        "negative-max-len",
        "reduced-negative-max-len",
        "reduced-no-generators",
        "empty-alphabet",
    ],
)
def test_sampler_bounds_are_checked_when_it_is_built(draw, bounds):
    with pytest.raises(ValueError, match=bounds):
        draw()
