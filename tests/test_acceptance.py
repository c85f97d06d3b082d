"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Every criterion is exact (booleans / equality, no numeric tolerance) and
carries a wall-clock budget which is asserted as well.  Run with
``pytest tests/test_acceptance.py -v`` (add ``-s`` to see the lines live).
"""

import random
import time

from etog.cli import run_counterexample
from etog.conditions import (
    EtogCondition,
    UPWord,
    parity_condition,
    up_member_oracle,
)
from etog.games import (
    Player,
    parse_arena,
    play_lasso,
    positional_strategies,
    solve_energy_game,
)
from etog.groups import FreeGroup
from etog.laws import (
    check_closure,
    check_fairly_mixing,
    check_invariant_subsemigroup,
    negative_word_rows,
    order_axiom_battery,
    standard_valuations,
    words_up_to,
)
from test_laws import even_length, predicate_valuation

SUITE = standard_valuations()


class _Budget:
    def __init__(self, criterion: str, seconds: float):
        self.criterion = criterion
        self.seconds = seconds

    def __enter__(self):
        self.started = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.started
        status = "PASS" if exc_type is None else "FAIL"
        print(f"CRITERION {self.criterion} {status} elapsed={elapsed:.2f}s budget={self.seconds:.0f}s")
        if exc_type is None:
            assert elapsed < self.seconds, (
                f"criterion {self.criterion} exceeded its {self.seconds}s budget "
                f"({elapsed:.2f}s)"
            )
        return False


def test_criterion_1_counterexample_reproduction():
    with _Budget("1 counterexample-reproduction", 10.0):
        report = run_counterexample(bob_memory=2, ramsey_depth=3)
        by_name = {v.name: v for v in report.verdicts}
        beaten = [v for name, v in by_name.items() if name.endswith("-beaten")]
        assert len(beaten) == 2
        assert all(v.passed for v in beaten)
        # the beating opponents drive the cycle value back to the identity
        assert "cycle='eps a eps a^-1'" in beaten[0].detail
        assert "cycle='eps b eps b^-1'" in beaten[1].detail
        assert by_name["counterexample.alternating-wins"].passed
        distinct = by_name["counterexample.distinct-prefix-products"]
        assert distinct.passed and "paths=64" in distinct.detail
        assert report.all_passed


def test_criterion_2_membership_oracle_equivalence():
    with _Budget("2 membership-oracle-equivalence", 60.0):
        for label, valuation in SUITE.items():
            cond = EtogCondition(valuation)
            for period in words_up_to(valuation.colors, 5):
                word = UPWord((), period)
                expected = up_member_oracle(cond, word, horizon=50 * len(period))
                assert cond.up_member(word) == expected, (label, period)


def test_criterion_3_order_axioms_for_the_free_group_order():
    with _Budget("3 order-axioms", 30.0):
        rng = random.Random(0xE706)
        results = order_axiom_battery(
            FreeGroup(("a", "b")), rng, samples=10_000, max_word_len=6
        )
        failed = [r for r in results if not r.passed]
        assert not failed, [r.line() for r in failed]


def test_criterion_4_closure_laws():
    with _Budget("4 closure-laws", 60.0):
        for label, valuation in SUITE.items():
            result = check_closure(
                negative_word_rows(valuation, 6),
                valuation.colors,
                name=f"closure.{label}",
            )
            assert result.passed, result.line()


def _random_parity_arena(rng):
    n = rng.randint(1, 5)
    names = [f"n{i}" for i in range(n)]
    lines = [f"node {x} {'A' if rng.random() < 0.5 else 'B'}" for x in names]
    for name in names:
        for _ in range(rng.randint(1, 3)):
            lines.append(f"edge {name} {rng.randint(1, 3)} {rng.choice(names)}")
    return parse_arena("\n".join(lines))


def test_criterion_5_parity_equivalence():
    with _Budget("5 parity-equivalence", 120.0):
        rng = random.Random(0x9A41)
        cond = parity_condition(3)
        for _ in range(100):
            arena = _random_parity_arena(rng)
            solution = solve_energy_game(arena, cond)
            sigmas = positional_strategies(arena, Player.ALICE)
            taus = positional_strategies(arena, Player.BOB)
            for start in arena.nodes:
                expected = (
                    Player.ALICE
                    if any(
                        all(
                            max(
                                int(c)
                                for c in play_lasso(arena, start, sigma, tau).cycle_colors
                            )
                            % 2
                            == 1
                            for tau in taus
                        )
                        for sigma in sigmas
                    )
                    else Player.BOB
                )
                assert solution.winners[start] == expected


def test_criterion_6_non_permuting_witness():
    with _Budget("6 non-permuting-witness", 10.0):
        primary = EtogCondition(SUITE["free"])
        assert not primary.up_member(UPWord.make("", "a a^-1 b b^-1"))
        verdicts = [
            primary.up_member(UPWord.make("", "a b a^-1 b^-1")),
            primary.up_member(UPWord.make("", "b a b^-1 a^-1")),
        ]
        assert verdicts.count(True) == 1
        # documented orientation: a b a^-1 b^-1 is positive under the shipped
        # order, so the reversed commutator is the member
        assert verdicts == [False, True]


def test_criterion_7_fairly_mixing_battery():
    with _Budget("7 fairly-mixing-battery", 60.0):
        rng = random.Random(0xF41)
        for label, valuation in SUITE.items():
            cond = EtogCondition(valuation)
            results = check_fairly_mixing(
                cond.up_member, valuation.colors, rng, samples=1000
            )
            failed = [r for r in results if not r.passed]
            assert not failed, (label, [r.line() for r in failed])

        def first_letter_is_x(word: UPWord) -> bool:
            return (word.prefix + word.period)[0] == "x"

        control = check_fairly_mixing(first_letter_is_x, ("x", "y"), rng, samples=1000)
        by_name = {r.name: r for r in control}
        assert not by_name["fairly-mixing.A"].passed


def test_criterion_8_invariant_subsemigroup():
    with _Budget("8 invariant-subsemigroup", 30.0):
        result = check_invariant_subsemigroup(SUITE["free"], max_len=4)
        assert result.passed, result.line()
        control = check_invariant_subsemigroup(
            predicate_valuation(even_length, SUITE["free"].colors), max_len=2
        )
        assert not control.passed
