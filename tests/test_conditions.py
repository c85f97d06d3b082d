from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from etog.conditions import (
    EtogCondition,
    UnionCondition,
    UPWord,
    Valuation,
    parity_condition,
    parse_condition,
    parse_valuation,
    strictify,
    up_member_oracle,
)
from etog.errors import NotationError, UnknownColorError
from etog.groups import (
    FreeWord,
    Integers,
    InverseOrder,
    LexVectors,
    OrderedGroup,
)
from etog.laws import standard_valuations

SUITE = standard_valuations()
FREE_VAL = SUITE["free"]
W1 = EtogCondition(FREE_VAL)
W2 = EtogCondition(replace(FREE_VAL, group=InverseOrder(FREE_VAL.group)))
UNION = UnionCondition((W1, W2))

INT_XY = Valuation(Integers(), {"x": -1, "y": 1})


class TestValuation:
    def test_val_word_int(self):
        assert INT_XY.val_word(("x", "x", "y")) == -1

    def test_val_word_free_cancels(self):
        assert FREE_VAL.val_word(("eps", "a", "eps", "a^-1")) == FreeWord()

    def test_empty_word_is_identity(self):
        assert INT_XY.val_word(()) == 0

    def test_unknown_color(self):
        with pytest.raises(UnknownColorError, match=r"^unknown color 'q'$"):
            INT_XY.val_word(("x", "q"))
        # the first unknown color is named, not a later one
        with pytest.raises(UnknownColorError, match=r"^unknown color 'q'$"):
            INT_XY.val_word(("x", "q", "r"))


class TestMembership:
    def test_zero_value_cycle_outside_union(self):
        word = UPWord.make("eps", "a eps a^-1 eps")
        assert not W1.up_member(word)
        assert not W2.up_member(word)
        assert not UNION.up_member(word)

    def test_nonzero_value_cycle_in_union(self):
        word = UPWord.make("", "eps a eps b")
        assert UNION.up_member(word)
        assert W1.up_member(word) != W2.up_member(word)

    def test_strictly_decreasing_int(self):
        cond = EtogCondition(Valuation(Integers(), {"x": -1}))
        assert cond.up_member(UPWord.make("", "x"))

    def test_prefix_is_validated_but_ignored(self):
        cond = EtogCondition(INT_XY)
        assert cond.up_member(UPWord.make("y y y", "x"))
        with pytest.raises(UnknownColorError, match=r"^unknown color 'q'$"):
            cond.up_member(UPWord.make("q", "x"))
        with pytest.raises(UnknownColorError, match=r"^unknown color 'r'$"):
            cond.up_member(UPWord.make("y", "x r"))

    def test_union_members_share_alphabet(self):
        other = EtogCondition(INT_XY)
        with pytest.raises(ValueError):
            UnionCondition((W1, other))

    def test_period_must_be_nonempty(self):
        with pytest.raises(ValueError):
            UPWord.make("x", "")


class TestOracle:
    def test_decreasing_int(self):
        cond = EtogCondition(Valuation(Integers(), {"x": -1}))
        assert up_member_oracle(cond, UPWord.make("", "x"), 4)

    def test_bounded_free_loop(self):
        assert not up_member_oracle(W1, UPWord.make("", "a eps a^-1 eps"), 8)

    def test_lex_descent_at_period_boundary(self):
        cond = EtogCondition(Valuation(LexVectors(2), {"c": (0, 1), "d": (-1, 0)}))
        assert up_member_oracle(cond, UPWord.make("", "c d"), 6)

    def test_horizon_precondition(self):
        cond = EtogCondition(INT_XY)
        with pytest.raises(ValueError):
            up_member_oracle(cond, UPWord.make("", "x y"), 3)

    @pytest.mark.parametrize("label", sorted(SUITE))
    def test_matches_membership_on_short_periods(self, label):
        valuation = SUITE[label]
        cond = EtogCondition(valuation)
        import itertools

        for length in (1, 2, 3):
            for period in itertools.product(valuation.colors, repeat=length):
                word = UPWord((), period)
                assert cond.up_member(word) == up_member_oracle(
                    cond, word, horizon=50 * length
                ), period

    @pytest.mark.parametrize("label", sorted(SUITE))
    def test_membership_is_the_period_sign(self, label):
        # a period belongs to the condition exactly when its value is negative
        valuation = SUITE[label]
        cond = EtogCondition(valuation)
        import itertools

        for period in itertools.product(valuation.colors, repeat=2):
            negative = valuation.group.sign(valuation.val_word(period)) == -1
            assert cond.up_member(UPWord((), period)) == negative

    def test_prefix_colors_are_validated_like_membership(self):
        word = UPWord(("zzz",), ("a",))
        with pytest.raises(UnknownColorError):
            W1.up_member(word)
        with pytest.raises(UnknownColorError):
            up_member_oracle(W1, word, 100)

    @pytest.mark.parametrize("label", sorted(SUITE))
    def test_matches_the_offset_by_offset_scan(self, label):
        _assert_matches_offset_by_offset_scan(SUITE[label])

    def test_matches_the_offset_by_offset_scan_beyond_gap_one(self):
        # Under a sign that is not an order, a chunk can turn "negative" only
        # at a later gap, so every offset's own gap bound is observable:
        # period x at horizon 6 needs gap 3, period x z at horizon 7 needs
        # gap 3 at offset 1, one past offset 0's bound for the same value -1.
        valuation = SUITE["int"]
        deep = replace(valuation, group=_BelowMinusThree())
        cond = EtogCondition(deep)
        assert up_member_oracle(cond, UPWord((), ("x",)), 6)
        assert up_member_oracle(cond, UPWord((), ("x", "z")), 7)
        assert not up_member_oracle(cond, UPWord((), ("x", "z")), 6)
        _assert_matches_offset_by_offset_scan(deep)

    def test_each_distinct_chunk_value_is_powered_once(self):
        # eps eps a rotates onto the chunk value a at all three offsets, each
        # with 49 gaps at horizon 150: one power loop, not three
        counting = _CountingSigns(FREE_VAL.group)
        cond = EtogCondition(replace(FREE_VAL, group=counting))
        assert not up_member_oracle(cond, UPWord((), ("eps", "eps", "a")), 150)
        assert counting.signs == 49
        counting.signs = 0
        assert not _offset_by_offset_oracle(cond, UPWord((), ("eps", "eps", "a")), 150)
        assert counting.signs == 147


class _BelowMinusThree(Integers):
    """Integers whose "sign" is -1 exactly at x <= -3; not an order."""

    def sign(self, x: int) -> int:
        return -1 if x <= -3 else 1


class _CountingSigns(OrderedGroup):
    """Delegates to ``inner`` and counts the ``sign`` calls."""

    def __init__(self, inner: OrderedGroup) -> None:
        self.inner = inner
        self.signs = 0

    def identity(self):
        return self.inner.identity()

    def compose(self, x, y):
        return self.inner.compose(x, y)

    def invert(self, x):
        return self.inner.invert(x)

    def validate(self, x) -> None:
        self.inner.validate(x)

    def sign(self, x) -> int:
        self.signs += 1
        return self.inner.sign(x)


def _offset_by_offset_oracle(cond: EtogCondition, word: UPWord, horizon: int) -> bool:
    """The reference: the previous ``up_member_oracle`` body, verbatim.  It
    powers every offset's chunk from scratch, whatever the other offsets did."""
    period = word.period
    p = len(period)
    if horizon < 2 * p:
        raise ValueError("horizon must cover at least two full periods")
    group = cond.valuation.group
    identity = group.identity()
    for offset in range(p):
        # smallest 1-based prefix index in this residue class
        first_index = offset if offset >= 1 else p
        max_gap = (horizon - first_index) // p
        if max_gap < 1:
            continue
        shifted = period[offset:] + period[:offset]
        chunk = cond.valuation.val_word(shifted)
        acc = identity
        for _gap in range(1, max_gap + 1):
            acc = group.compose(acc, chunk)
            if group.sign(acc) == -1:
                return True
    return False


def _assert_matches_offset_by_offset_scan(valuation: Valuation) -> None:
    # horizons 2p .. 2p+11 give the offsets of one period different gap bounds
    import itertools

    cond = EtogCondition(valuation)
    for length in (1, 2, 3, 4):
        for period in itertools.product(valuation.colors, repeat=length):
            word = UPWord((), period)
            for horizon in range(2 * length, 2 * length + 12):
                assert up_member_oracle(cond, word, horizon) == _offset_by_offset_oracle(
                    cond, word, horizon
                ), (period, horizon)


class TestParityEncoding:
    def test_valuation_vectors_d2(self):
        cond = parity_condition(2)
        assert cond.valuation.mapping["2"] == (1, 0)
        assert cond.valuation.mapping["1"] == (0, -1)

    def test_valuation_vectors_d3(self):
        cond = parity_condition(3)
        assert cond.valuation.mapping["3"] == (-1, 0, 0)
        assert cond.valuation.mapping["2"] == (0, 1, 0)
        assert cond.valuation.mapping["1"] == (0, 0, -1)

    def test_odd_limsup_accepted(self):
        cond = parity_condition(2)
        assert cond.up_member(UPWord.make("", "1"))
        assert not cond.up_member(UPWord.make("", "1 2"))

    @pytest.mark.parametrize("d", [1, 2, 3, 4])
    def test_matches_limsup_rule_exhaustively(self, d):
        import itertools

        cond = parity_condition(d)
        for length in (1, 2, 3):
            for period in itertools.product(cond.colors, repeat=length):
                expected = max(int(c) for c in period) % 2 == 1
                assert cond.up_member(UPWord((), period)) == expected


class TestStrictify:
    def test_zero_color_becomes_positive(self):
        v = strictify(Valuation(Integers(), {"x": 0}))
        value = v.val_word(("x",))
        assert value == (0, 1)
        assert v.group.sign(value) == 1

    def test_negative_color_stays_negative(self):
        v = strictify(Valuation(Integers(), {"x": -1}))
        assert v.group.sign(v.val_word(("x",))) == -1

    def test_identity_color_of_free_valuation(self):
        v = strictify(FREE_VAL)
        assert v.group.sign(v.val_word(("eps",))) == 1

    def test_negative_word_set_is_preserved(self):
        import itertools

        original = SUITE["int"]
        lifted = strictify(original)
        for length in (1, 2, 3):
            for word in itertools.product(original.colors, repeat=length):
                negative = original.group.sign(original.val_word(word)) == -1
                assert (lifted.group.sign(lifted.val_word(word)) == -1) == negative
                assert lifted.val_word(word) != lifted.group.identity()


class TestParsing:
    def test_valuation_file(self, tmp_path):
        text = """
        # comment
        group int
        val x = -1   # trailing comment
        val y = 1
        """
        v = parse_valuation(text)
        assert v.colors == ("x", "y")
        assert v.val_word(("x", "y")) == 0

    def test_valuation_requires_group_first(self):
        with pytest.raises(NotationError):
            parse_valuation("val x = 1\ngroup int")

    def test_valuation_rejects_duplicates(self):
        with pytest.raises(NotationError):
            parse_valuation("group int\nval x = 1\nval x = 2")

    def test_condition_specs(self, tmp_path):
        path = tmp_path / "val.txt"
        path.write_text("group free(a,b)\nval p = a\nval q = b^-1\n")
        cond = parse_condition(f"etog({path})")
        assert isinstance(cond, EtogCondition)
        inv = parse_condition(f"inv-etog({path})")
        assert isinstance(inv.valuation.group, InverseOrder)
        union = parse_condition(f"union(etog({path}),inv-etog({path}))")
        assert isinstance(union, UnionCondition)
        assert len(union.members) == 2
        # same period flips membership between the two orientations
        word = UPWord.make("", "p")
        assert cond.up_member(word) != inv.up_member(word)
        assert union.up_member(word)

    def test_condition_spec_errors(self):
        with pytest.raises(NotationError):
            parse_condition("nonsense(x)")


up_words = st.builds(
    UPWord,
    st.lists(st.sampled_from(["x", "y"]), max_size=4).map(tuple),
    st.lists(st.sampled_from(["x", "y"]), min_size=1, max_size=4).map(tuple),
)


@given(up_words, st.lists(st.sampled_from(["x", "y"]), max_size=4).map(tuple))
@settings(deadline=None)
def test_prefix_irrelevance(word, extra_prefix):
    cond = EtogCondition(INT_XY)
    assert cond.up_member(word) == cond.up_member(
        UPWord(extra_prefix + word.prefix, word.period)
    )


@given(up_words)
@settings(deadline=None)
def test_period_robustness(word):
    cond = EtogCondition(INT_XY)
    base = cond.up_member(word)
    unrolled = UPWord(word.prefix, word.period + word.period)
    absorbed = UPWord(word.prefix + word.period, word.period)
    assert cond.up_member(unrolled) == base
    assert cond.up_member(absorbed) == base
