import contextlib
import errno
import io
import os
import subprocess
import sys
from dataclasses import FrozenInstanceError
from pathlib import Path

import pytest

import etog
from etog import games
from etog.cli import (
    MAX_BOB_MEMORY,
    MAX_RAMSEY_DEPTH,
    RunReport,
    build_parser,
    build_refutation_setup,
    main,
    run_counterexample,
    shipped_arena_path,
    shipped_valuation_path,
)
from etog.conditions import EtogCondition
from etog.errors import InputFileError, echo
from etog.laws import standard_valuations
from etog.notation import MAX_INPUT_CHARS, read_ascii

VAL = shipped_valuation_path()


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestCompare:
    def test_commutator_positive(self, capsys):
        code, out, _ = run(capsys, "compare", "free(a,b)", "a b a^-1 b^-1", "e")
        assert code == 0 and out.strip() == "Greater"

    def test_int(self, capsys):
        code, out, _ = run(capsys, "compare", "int", "3", "5")
        assert code == 0 and out.strip() == "Less"

    def test_inverse_int(self, capsys):
        code, out, _ = run(capsys, "compare", "inv(int)", "3", "5")
        assert code == 0 and out.strip() == "Greater"

    def test_parse_error_exit_code(self, capsys):
        code, _, err = run(capsys, "compare", "free(a,b)", "a c", "e")
        assert code == 2 and "error" in err

    @pytest.mark.parametrize("token", ["a^-1^-1", "a^1^-1", "a^-1^1", "^-1"])
    def test_stacked_or_bare_exponent_names_the_token(self, capsys, token):
        # these used to report "unknown generator 'a^-1'" (or '')
        code, _, err = run(capsys, "compare", "free(a,b)", token, "e")
        assert code == 2
        assert err == f"error: bad letter exponent in {token!r} (only ^-1 allowed)\n"

    @pytest.mark.parametrize(
        "spec, left, right, expected",
        [
            # equal exponent sums: degree 1 cannot decide these pairs
            ("free(a,b)", "a b", "b a", "Greater"),
            ("free(a,b)", "a b a", "a a b", "Less"),
            # a common prefix a b b and suffix b a a, equal whole-word sums:
            # degree 2 decides
            ("free(a,b)", "a b b a b b a a", "a b b b a b a a", "Greater"),
            ("free(a,b)", "a b b b a b a a", "a b b a b b a a", "Less"),
            ("inv(zlex(2))", "(0,1)", "(0,0)", "Less"),
            ("zlex(3)", "(0,0,-1)", "(0,0,1)", "Less"),
            ("inv(zlex(3))", "(1,-5,0)", "(1,-4,9)", "Greater"),
        ],
    )
    def test_free_group_and_lexicographic_signs(self, capsys, spec, left, right, expected):
        code, out, _ = run(capsys, "compare", spec, left, right)
        assert (code, out) == (0, f"{expected}\n")


class TestMembership:
    def test_zero_commutator_word_is_non_member(self, capsys):
        code, out, _ = run(
            capsys,
            "membership",
            "--cond", f"etog({VAL})",
            "--period", "a a^-1 b b^-1",
        )
        assert code == 0
        assert "non-member" in out
        assert "sign = Equal" in out

    def test_exactly_one_commutator_orientation_is_member(self, capsys):
        verdicts = []
        for period in ("a b a^-1 b^-1", "b a b^-1 a^-1"):
            _, out, _ = run(
                capsys, "membership", "--cond", f"etog({VAL})", "--period", period
            )
            verdicts.append(out.strip().splitlines()[-1])
        assert sorted(verdicts) == ["member", "non-member"]
        # the orientation is fixed by the order convention: the commutator
        # a b a^-1 b^-1 is positive, so its inverse is the member
        assert verdicts == ["non-member", "member"]

    def test_union_membership(self, capsys):
        code, out, _ = run(
            capsys,
            "membership",
            "--cond", f"union(etog({VAL}),inv-etog({VAL}))",
            "--period", "eps a eps b",
        )
        assert code == 0
        assert out.strip().splitlines()[-1] == "member"

    def test_union_report_lists_each_member_and_the_verdict(self, capsys):
        code, out, _ = run(
            capsys,
            "membership",
            "--cond", f"union(etog({VAL}),inv-etog({VAL}))",
            "--period", "eps a eps b",
        )
        assert code == 0
        assert out.splitlines()[1:] == [
            "period: eps a eps b",
            "  member 0: period value = a b, sign = Greater, member = False",
            "  member 1: period value = a b, sign = Less, member = True",
            "member",
        ]

    def test_bad_prefix_color_is_reported_before_a_bad_period_color(self, capsys):
        code, _, err = run(
            capsys, "membership", "--cond", f"union(etog({VAL}),inv-etog({VAL}))",
            "--prefix", "zz", "--period", "yy",
        )
        assert code == 2 and err == "error: unknown color 'zz'\n"

    def test_machine_output(self, capsys):
        code, out, _ = run(
            capsys,
            "membership",
            "--cond", f"etog({VAL})",
            "--period", "b a b^-1 a^-1",
            "--machine",
        )
        assert code == 0 and out.strip() == "RESULT membership member"

    def test_unknown_color_fails(self, capsys):
        code, _, err = run(
            capsys, "membership", "--cond", f"etog({VAL})", "--period", "zz"
        )
        assert code == 2 and "error" in err

    def test_huge_period_value_is_refused_only_where_it_is_printed(self, capsys, tmp_path):
        # the period value has more digits than Python prints; RESULT needs none
        argv = _huge_value_membership(tmp_path)
        code, out, err = run(capsys, *argv, "--machine")
        assert (code, out, err) == (0, "RESULT membership non-member\n", "")
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert err == f"error: cannot print an integer of more than {sys.get_int_max_str_digits()} digits\n"


class TestSolve:
    def test_two_loop_arena(self, capsys, tmp_path):
        arena = tmp_path / "arena.txt"
        arena.write_text("node n A\nedge n x n\nedge n y n\n")
        valfile = tmp_path / "val.txt"
        valfile.write_text("group int\nval x = -1\nval y = 1\n")
        code, out, _ = run(
            capsys, "solve", "--arena", str(arena), "--cond", f"etog({valfile})"
        )
        assert code == 0
        assert "node n: Alice" in out
        assert "n -> 0" in out  # witness picks the first declared edge (color x)

    def test_parity_arena_matches_hand_solution(self, capsys, tmp_path):
        # w1 loops on priority 1 (odd: good), w2 loops on 2, the chooser owns s
        arena = tmp_path / "arena.txt"
        arena.write_text(
            "node w1 A\nnode w2 B\nnode s B\n"
            "edge w1 1 w1\nedge w2 2 w2\nedge s 1 w1\nedge s 1 w2\n"
        )
        valfile = tmp_path / "val.txt"
        valfile.write_text(
            "group zlex(2)\nval 1 = (0,-1)\nval 2 = (1,0)\n"
        )
        code, out, _ = run(
            capsys, "solve", "--arena", str(arena), "--cond", f"etog({valfile})"
        )
        assert code == 0
        assert "node w1: Alice" in out
        assert "node w2: Bob" in out
        assert "node s: Bob" in out

    def test_machine_output(self, capsys, tmp_path):
        arena = tmp_path / "arena.txt"
        arena.write_text(
            "node w1 A\nnode w2 B\nnode s B\n"
            "edge w1 1 w1\nedge w2 2 w2\nedge s 1 w1\nedge s 1 w2\n"
        )
        valfile = tmp_path / "val.txt"
        valfile.write_text("group zlex(2)\nval 1 = (0,-1)\nval 2 = (1,0)\n")
        argv = ["solve", "--arena", str(arena), "--cond", f"etog({valfile})"]
        code, out, _ = run(capsys, *argv, "--machine")
        assert code == 0
        assert out.splitlines() == [
            "RESULT solve.method first-cycle exact",
            "RESULT solve.winner w1 Alice",
            "RESULT solve.winner w2 Bob",
            "RESULT solve.winner s Bob",
            "RESULT solve.witness Alice w1 0",
            "RESULT solve.witness Bob s 3",
            "RESULT solve.witness Bob w2 1",
        ]
        # the human report is unchanged
        code, out, _ = run(capsys, *argv)
        assert code == 0
        assert out.splitlines() == [
            "node w1: Alice",
            "node w2: Bob",
            "node s: Bob",
            "witness (Alice):",
            "  w1 -> 0",
            "witness (Bob):",
            "  s -> 3",
            "  w2 -> 1",
        ]

    def test_union_condition_refused(self, capsys, tmp_path):
        arena = tmp_path / "arena.txt"
        arena.write_text("node n A\nedge n eps n\n")
        code, _, err = run(
            capsys,
            "solve",
            "--arena", str(arena),
            "--cond", f"union(etog({VAL}),inv-etog({VAL}))",
        )
        assert code == 2
        assert "counterexample" in err
        assert err.startswith("error: ")

    def test_two_node_int_arena_machine_output(self, capsys, tmp_path):
        arena = tmp_path / "arena.txt"
        arena.write_text(
            "node m A\nnode n B\nedge m x n\nedge m y m\nedge n x m\nedge n y n\n"
        )
        valfile = tmp_path / "int.txt"
        valfile.write_text("group int\nval x = -1\nval y = 1\n")
        code, out, _ = run(
            capsys, "solve", "--arena", str(arena), "--cond", f"etog({valfile})", "--machine"
        )
        assert code == 0
        assert out.splitlines() == [
            "RESULT solve.method first-cycle exact",
            "RESULT solve.winner m Bob",
            "RESULT solve.winner n Bob",
            "RESULT solve.witness Alice m 0",
            "RESULT solve.witness Bob n 3",
        ]


class TestCounterexample:
    def test_default_bounds_reproduce(self, capsys):
        code, out, _ = run(capsys, "counterexample", "--bob-memory", "2", "--ramsey-depth", "3")
        assert code == 0
        assert "union not half-positional (within stated bounds)" in out
        assert out.count("PASS") == 4
        assert "cycle='eps a eps a^-1'" in out
        assert "cycle='eps b eps b^-1'" in out

    def test_machine_lines_carry_bounds(self, capsys):
        code, out, _ = run(capsys, "counterexample", "--machine")
        assert code == 0
        for line in out.splitlines():
            if line.startswith("CHECK counterexample"):
                assert "bob-memory=" in line or "depth=" in line

    def test_larger_bounds_also_reproduce(self, capsys):
        # pins machines=84404 and both beating cycles, not only the verdicts
        code, out, _ = run(
            capsys, "counterexample", "--bob-memory", "3", "--ramsey-depth", "6",
            "--machine",
        )
        assert code == 0
        assert out == (GOLDEN / "counterexample-bob-memory3-depth6.txt").read_text()

    def test_setup_unites_the_pair_the_law_battery_certifies(self):
        suite = standard_valuations()
        _, union, valuation = build_refutation_setup()
        assert valuation == suite["free"]
        assert union.members == (EtogCondition(suite["free"]), EtogCondition(suite["inv-free"]))

    def test_no_beating_opponent_fails_each_positional_verdict(self, monkeypatch):
        # cannot happen on the shipped arena, so the verifier is replaced
        def never_beaten(arena, union, start, alice, bob_memory):
            return games.UnionVerdict(machines_checked=5)

        monkeypatch.setattr(games, "verify_union_strategy", never_beaten)
        lines = [verdict.line() for verdict in run_counterexample(2, 3).verdicts]
        assert lines[:2] == [
            f"CHECK counterexample.positional-{i}-beaten FAIL bob-memory=2 machines=5 "
            "counterexample: no beating opponent found"
            for i in (0, 1)
        ]

    def test_beating_cycle_of_non_identity_value_fails(self, monkeypatch):
        def beaten_on_eps_a(arena, union, start, alice, bob_memory):
            by_color = {edge.color: edge for edge in arena.edges}
            lasso = games.Lasso((), (by_color["eps"], by_color["a"]))
            return games.UnionVerdict(machines_checked=3, beating_lasso=lasso)

        monkeypatch.setattr(games, "verify_union_strategy", beaten_on_eps_a)
        lines = [verdict.line() for verdict in run_counterexample(2, 3).verdicts]
        assert lines[:2] == [
            f"CHECK counterexample.positional-{i}-beaten FAIL bob-memory=2 machines=3 "
            "counterexample: beating cycle eps a has non-identity value"
            for i in (0, 1)
        ]

    def test_cancelling_seam_fails_distinct_prefix_products(self, monkeypatch):
        monkeypatch.setattr(games, "ramsey_distinct_check", lambda: "a b^-1 cancels at the seam")
        assert run_counterexample(2, 3).verdicts[-1].line() == (
            "CHECK counterexample.distinct-prefix-products FAIL depth=3 paths=64 "
            "counterexample: a b^-1 cancels at the seam"
        )

    def test_a_failing_verdict_exits_1_without_the_claim(self, capsys, monkeypatch):
        monkeypatch.setattr(games, "ramsey_distinct_check", lambda: "a b^-1 cancels at the seam")
        code, out, err = run(capsys, "counterexample", "--machine")
        assert (code, err) == (1, "experiment did NOT reproduce\n")
        assert "CHECK counterexample.distinct-prefix-products FAIL" in out
        assert "union not half-positional" not in out

    def test_reports_are_immutable(self):
        report = RunReport("check", {}, (), 0.0)
        with pytest.raises(FrozenInstanceError):
            report.duration_s = 1.0

    def test_ramsey_depth_is_capped_where_4_to_the_depth_still_prints(self, capsys):
        # Python's int-to-str limit cannot go below 640 digits; 4^1000 has 603
        assert len(str(4**MAX_RAMSEY_DEPTH)) <= sys.int_info.str_digits_check_threshold
        code, out, _ = run(capsys, "counterexample", "--ramsey-depth", str(MAX_RAMSEY_DEPTH),
                           "--machine")
        assert code == 0
        assert "CHECK counterexample.distinct-prefix-products PASS " \
            f"depth={MAX_RAMSEY_DEPTH} paths={4**MAX_RAMSEY_DEPTH}\n" in out
        with pytest.raises(SystemExit) as exc:
            main(["counterexample", "--ramsey-depth", str(MAX_RAMSEY_DEPTH + 1)])
        assert exc.value.code == 2
        assert f"must be <= {MAX_RAMSEY_DEPTH}" in capsys.readouterr().err

    def test_bob_memory_is_capped_at_parse_time(self, capsys):
        # parsed only: a run at the cap takes about a minute
        args = build_parser().parse_args(["counterexample", "--bob-memory", str(MAX_BOB_MEMORY)])
        assert args.bob_memory == MAX_BOB_MEMORY == 4
        with pytest.raises(SystemExit) as exc:
            main(["counterexample", "--bob-memory", "5", "--machine"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: etog ")
        assert err.endswith("error: argument --bob-memory: must be <= 4, got 5\n")
        assert err.count("error: ") == 1

    def test_ramsey_depth_cap_prints_under_the_lowest_digit_limit(self, capsys):
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(sys.int_info.str_digits_check_threshold)  # 640
        try:
            code, out, _ = run(capsys, "counterexample", "--ramsey-depth", "1000", "--machine")
            assert code == 0
            assert "CHECK counterexample.distinct-prefix-products PASS " \
                f"depth=1000 paths={4**1000}\n" in out
            with pytest.raises(SystemExit) as exc:
                main(["counterexample", "--ramsey-depth", "1001", "--machine"])
            assert exc.value.code == 2
        finally:
            sys.set_int_max_str_digits(limit)


class TestCheck:
    def test_small_budget_passes(self, capsys):
        code, out, _ = run(
            capsys, "check", "--seed", "3", "--samples", "300", "--max-len", "3",
            "--machine",
        )
        assert code == 0
        assert "FAIL" not in out
        assert "CHECK order-axioms.bi-invariance PASS" in out

    def test_injected_fault_fails_bi_invariance(self, capsys):
        code, out, _ = run(
            capsys, "check", "--seed", "3", "--samples", "2500", "--max-len", "3",
            "--inject-fault", "--machine",
        )
        assert code == 1
        assert "CHECK order-axioms.bi-invariance FAIL" in out

    def test_seed_env_fallback(self, capsys, monkeypatch):
        monkeypatch.setenv("ETOG_SEED", "17")
        code, out, _ = run(capsys, "check", "--samples", "200", "--max-len", "3")
        assert code == 0
        assert "seed: 17" in out

    def test_without_a_seed_or_etog_seed_it_runs_seed_0(self, capsys, monkeypatch):
        # the fairly-mixing hit counts differ between seeds 0 and 1 at this budget
        monkeypatch.delenv("ETOG_SEED", raising=False)
        argv = ["check", "--samples", "1", "--max-len", "1", "--machine"]
        unseeded = run(capsys, *argv)
        assert unseeded == run(capsys, *argv, "--seed", "0")
        assert unseeded != run(capsys, *argv, "--seed", "1")
        code, out, _ = run(capsys, *argv[:-1])
        assert code == 0 and "  seed: 0\n" in out

    def test_output_is_deterministic(self, capsys):
        _, first, _ = run(capsys, "check", "--seed", "5", "--samples", "200", "--max-len", "3")
        _, second, _ = run(capsys, "check", "--seed", "5", "--samples", "200", "--max-len", "3")
        # elapsed differs; verdict lines must not
        strip = lambda text: [l for l in text.splitlines() if l.startswith("CHECK")]
        assert strip(first) == strip(second)

    def test_verdicts_independent_of_seed(self, capsys):
        _, first, _ = run(capsys, "check", "--seed", "1", "--samples", "200", "--max-len", "3")
        _, second, _ = run(capsys, "check", "--seed", "2", "--samples", "200", "--max-len", "3")
        strip = lambda text: [
            l.split()[1:3] for l in text.splitlines() if l.startswith("CHECK")
        ]
        assert strip(first) == strip(second)

    @pytest.mark.parametrize("seed", ["1", "2", "3"])
    def test_seeds_the_goldens_do_not_pin(self, capsys, seed):
        # the battery passes at CLI defaults, and the injected fault stays
        # visible through the samplers
        code, out, _ = run(capsys, "check", "--seed", seed, "--machine")
        assert code == 0, out
        code, out, _ = run(
            capsys, "check", "--inject-fault", "--seed", seed, "--samples", "2000",
            "--max-len", "4", "--machine",
        )
        assert code == 1
        assert any(
            line.startswith("CHECK order-axioms.bi-invariance FAIL") for line in out.splitlines()
        )


def _bad_bytes_valuation(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_bytes(b"group int\nval x = \xff\n")
    return ["membership", "--cond", f"etog({path})", "--period", "x"]


def _huge_value_membership(tmp_path):
    # 12 * (10^4300 - 1) has 4302 digits, past Python's default limit of 4300
    path = tmp_path / "huge.txt"
    path.write_text(f"group int\nval x = {'9' * 4300}\nval y = 1\n")
    return ["membership", "--cond", f"etog({path})", "--period", " ".join(["x"] * 12)]


def _mismatched_union(tmp_path):
    (tmp_path / "i.txt").write_text("group int\nval x = 1\n")
    (tmp_path / "j.txt").write_text("group int\nval y = 1\n")
    return ["membership", "--cond", "union(etog(i.txt),etog(j.txt))", "--period", "x"]


NINES = "9" * 5000  # past Python's int-from-str digit limit, 4300 by default
LETTERS = "a" * 5000  # as long, but no integer at all
HEAD = repr("a" * 40)  # a refusal echoes the first 40 characters of a long literal
ASTRAL = "\U00012544" * 40  # short, but its repr is 402 characters long
DIGIT_LIMIT = f"integer literal has more than {sys.get_int_max_str_digits()} digits"


def _valuation_file(text):
    """The argv maker of a membership run whose valuation file holds ``text``."""

    def make_argv(tmp_path):
        (tmp_path / "v.txt").write_text(text)
        return ["membership", "--cond", "etog(v.txt)", "--period", "x"]

    return make_argv


def _arena_file(text):
    """The argv maker of a solve run, under the shipped valuation, whose arena
    file holds ``text``."""

    def make_argv(tmp_path):
        (tmp_path / "arena.txt").write_text(text)
        return ["solve", "--arena", "arena.txt", "--cond", f"etog({VAL})"]

    return make_argv


def _argparse_refusal(argv):
    """The last line of argparse's refusal of ``argv``.  How it lists the
    choices of an invalid one depends on the Python version."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        try:
            main(argv)
        except SystemExit:
            pass
    return err.getvalue().splitlines(keepends=True)[-1]


# Refusals owned by a constructor, a parser, the file reader, the solver,
# parse_int or the ETOG_SEED reader, each with the end of its stderr (argparse
# prints its usage lines first).  An argv may start with NAME=value items,
# which set environment variables as in a shell.
PINNED_REFUSALS = {
    "duplicate-generator": (
        lambda tmp_path: ["compare", "free(a,a)", "e", "e"],
        "error: duplicate generator name\n",
    ),
    "zero-zlex-dimension": (
        lambda tmp_path: ["compare", "zlex(0)", "e", "e"],
        "error: zlex dimension must be >= 1\n",
    ),
    "unknown-generator": (
        lambda tmp_path: ["compare", "free(a,b)", "a c", "e"],
        "error: unknown generator 'c'\n",
    ),
    "valuation-without-colors": (
        _valuation_file("group int\n"),
        "error: valuation defines no colors\n",
    ),
    "solve-union": (
        lambda tmp_path: ["solve", "--arena", shipped_arena_path(),
                          "--cond", f"union(etog({VAL}),inv-etog({VAL}))"],
        "error: union conditions have no exact positional solver; use "
        "verify_union_strategy or the 'counterexample' command for a bounded verdict\n",
    ),
    "int-literal-past-digit-limit": (
        lambda tmp_path: ["compare", "int", NINES, "2"],
        f"error: {DIGIT_LIMIT}\n",
    ),
    "vector-entry-past-digit-limit": (
        lambda tmp_path: ["compare", "zlex(2)", f"({NINES},0)", "e"],
        f"error: {DIGIT_LIMIT}\n",
    ),
    "zlex-dimension-past-digit-limit": (
        lambda tmp_path: ["compare", f"zlex({NINES})", "e", "e"],
        f"error: {DIGIT_LIMIT}\n",
    ),
    "valuation-literal-past-digit-limit": (
        _valuation_file(f"group int\nval x = {NINES}\n"),
        f"error: {DIGIT_LIMIT}\n",
    ),
    "check-samples-past-digit-limit": (
        lambda tmp_path: ["check", "--samples", NINES],
        f"etog check: error: argument --samples: {DIGIT_LIMIT}\n",
    ),
    "check-seed-past-digit-limit": (
        lambda tmp_path: ["check", "--seed", NINES],
        f"etog check: error: argument --seed: {DIGIT_LIMIT}\n",
    ),
    "etog-seed-past-digit-limit": (
        lambda tmp_path: [f"ETOG_SEED={NINES}", "check", "--samples", "1", "--max-len", "1"],
        f"error: ETOG_SEED: {DIGIT_LIMIT}\n",
    ),
    "etog-seed-not-an-integer": (
        lambda tmp_path: ["ETOG_SEED=abc", "check", "--samples", "1", "--max-len", "1"],
        "error: ETOG_SEED: not an integer: 'abc'\n",
    ),
    "whitespace-in-color": (
        _valuation_file("group int\nval x = 1\nval a\tb = -1\n"),
        "error: bad color name 'a\\tb'\n",
    ),
    "long-int-literal": (
        lambda tmp_path: ["compare", "int", LETTERS, "1"],
        f"error: not an integer literal: {HEAD}… (5000 characters)\n",
    ),
    "etog-seed-long-literal": (
        lambda tmp_path: [f"ETOG_SEED={LETTERS}", "check", "--samples", "1", "--max-len", "1"],
        f"error: ETOG_SEED: not an integer: {HEAD}… (5000 characters)\n",
    ),
    "long-vector-entry": (
        lambda tmp_path: ["compare", "zlex(2)", f"(1,{LETTERS})", "(0,0)"],
        f"error: non-integer vector entry in {repr('(1,' + 'a' * 37)}… (5004 characters)\n",
    ),
    "long-vector-literal": (
        lambda tmp_path: ["compare", "zlex(2)", LETTERS, "e"],
        f"error: vector literal must look like (1,0,-1): {HEAD}… (5000 characters)\n",
    ),
    "long-group-spec": (
        lambda tmp_path: ["compare", LETTERS, "e", "e"],
        f"error: unrecognised group spec: {HEAD}… (5000 characters)\n",
    ),
    "long-letter-exponent": (
        lambda tmp_path: ["compare", "free(a,b)", f"{LETTERS}^2", "e"],
        f"error: bad letter exponent in {HEAD}… (5002 characters) (only ^-1 allowed)\n",
    ),
    "long-unknown-color": (
        lambda tmp_path: ["membership", "--cond", f"etog({VAL})", "--period", LETTERS],
        f"error: unknown color {HEAD}… (5000 characters)\n",
    ),
    "long-condition-spec": (
        lambda tmp_path: ["membership", "--cond", LETTERS, "--period", "a"],
        f"error: unrecognised condition spec: {HEAD}… (5000 characters)\n",
    ),
    "long-valuation-directive": (
        _valuation_file(f"group int\n{LETTERS}\n"),
        f"error: line 2: unrecognised directive {HEAD}… (5000 characters)\n",
    ),
    "long-duplicate-color": (
        _valuation_file(f"group int\nval {LETTERS} = 1\nval {LETTERS} = 2\n"),
        f"error: line 3: duplicate color {HEAD}… (5000 characters)\n",
    ),
    "long-bad-color-name": (
        _valuation_file(f"group int\nval x = 1\nval {LETTERS}\tb = -1\n"),
        f"error: bad color name {HEAD}… (5002 characters)\n",
    ),
    "long-arena-directive": (
        _arena_file(f"{LETTERS}\n"),
        f"error: line 1: unrecognised directive {HEAD}… (5000 characters)\n",
    ),
    "long-arena-color": (
        _arena_file(f"node s A\nedge s {LETTERS} s\n"),
        f"error: line 2: unknown color {HEAD}… (5000 characters)\n",
    ),
    "long-edge-source": (
        _arena_file(f"node s A\nedge s eps s\nedge {LETTERS} eps s\n"),
        f"error: edge source {HEAD}… (5000 characters) not declared\n",
    ),
    "long-edge-target": (
        _arena_file(f"node s A\nedge s eps {LETTERS}\n"),
        f"error: edge target {HEAD}… (5000 characters) not declared\n",
    ),
    "long-node-declared-twice": (
        _arena_file(f"node {LETTERS} A\nnode {LETTERS} B\n"),
        f"error: node {HEAD}… (5000 characters) declared twice\n",
    ),
    "long-sink-node": (
        _arena_file(f"node s A\nnode {LETTERS} B\nedge s eps s\n"),
        f"error: node {HEAD}… (5000 characters) has no outgoing edge\n",
    ),
    "long-generator-name": (
        lambda tmp_path: ["compare", f"free(a,{LETTERS}-)", "e", "e"],
        f"error: bad generator name: {HEAD}… (5001 characters)\n",
    ),
    "long-unknown-generator": (
        lambda tmp_path: ["compare", "free(a,b)", LETTERS, "e"],
        f"error: unknown generator {HEAD}… (5000 characters)\n",
    ),
    "long-product-literal": (
        lambda tmp_path: ["compare", "prod(int,int)", LETTERS, "e"],
        f"error: product literal must look like [x;y]: {HEAD}… (5000 characters)\n",
    ),
    "long-unbalanced-brackets": (
        lambda tmp_path: ["compare", "prod(int,int)", f"[{LETTERS})]", "e"],
        f"error: unbalanced brackets in {HEAD}… (5001 characters)\n",
    ),
    # an OSError's own text would repeat the path; the refusal names it once
    "long-unreadable-path": (
        lambda tmp_path: ["membership", "--cond", f"etog({LETTERS})", "--period", "a"],
        f"error: cannot read {HEAD}… (5000 characters): File name too long\n",
    ),
    "duplicate-group-line": (
        _valuation_file("group int\ngroup int\nval x = 1\n"),
        "error: line 2: duplicate group line\n",
    ),
    "val-line-without-equals": (
        _valuation_file("group int\n\nval x 1\n"),
        "error: line 3: expected 'val <color> = <element>'\n",
    ),
    "three-member-union": (
        lambda tmp_path: ["membership", "--cond", f"union(etog({VAL}),etog({VAL}),etog({VAL}))",
                          "--period", "a"],
        "error: union(...) takes exactly two condition specs\n",
    ),
    "three-component-product-literal": (
        lambda tmp_path: ["compare", "prod(int,int)", "[1;2;3]", "e"],
        "error: product literal takes exactly two components\n",
    ),
    # the closure rows grow as n^L; past the bound they would exhaust memory
    "check-max-len-past-closure-bound": (
        lambda tmp_path: ["check", "--samples", "1", "--max-len", "11"],
        "error: closure word length must be <= 10, got 11\n",
    ),
    # each character's repr is ten characters long, so only four fit the echo
    "escaped-astral-literal": (
        lambda tmp_path: ["compare", "zlex(2)", ASTRAL, "e"],
        f"error: vector literal must look like (1,0,-1): {ASTRAL[:4]!r}… (40 characters)\n",
    ),
    "missing-valuation-file": (
        lambda tmp_path: ["membership", "--cond", "etog(missing.txt)", "--period", "a"],
        "error: cannot read 'missing.txt': No such file or directory\n",
    ),
    # argparse's own refusals, whose arguments the parser quotes through echo
    "long-unknown-command": (
        lambda tmp_path: [LETTERS],
        _argparse_refusal(["x"]).replace("'x'", f"{HEAD}… (5000 characters)", 1),
    ),
    "long-unrecognized-option": (
        lambda tmp_path: ["check", f"--{LETTERS}"],
        f"etog: error: unrecognized arguments: {repr('--' + 'a' * 38)}… (5002 characters)\n",
    ),
    "long-unrecognized-argument": (
        lambda tmp_path: ["check", "--seed", "1", LETTERS],
        f"etog: error: unrecognized arguments: {HEAD}… (5000 characters)\n",
    ),
}


def _run_refusal(capsys, monkeypatch, argv):
    """Exit code and stderr of ``etog`` on ``argv``; leading ``NAME=value``
    items set environment variables first."""
    while "=" in argv[0]:
        name, value = argv.pop(0).split("=", 1)
        monkeypatch.setenv(name, value)
    try:
        code = main(argv)
    except SystemExit as exc:  # argparse rejects bad arguments this way
        code = exc.code
    return code, capsys.readouterr().err


@pytest.mark.parametrize(
    "make_argv",
    [
        lambda tmp_path: ["solve", "--arena", str(tmp_path / "nonexistent"),
                          "--cond", f"etog({VAL})"],
        lambda tmp_path: ["membership", "--cond", "etog(missing.txt)", "--period", "a"],
        _bad_bytes_valuation,
        lambda tmp_path: ["compare", "inv(" * 2000 + "int" + ")" * 2000, "1", "2"],
        lambda tmp_path: ["compare", "zlex(1001)", "e", "e"],
        lambda tmp_path: ["counterexample", "--bob-memory", "0"],
        lambda tmp_path: ["counterexample", "--bob-memory", str(MAX_BOB_MEMORY + 1)],
        lambda tmp_path: ["counterexample", "--ramsey-depth", "-1"],
        lambda tmp_path: ["counterexample", "--ramsey-depth", "1001"],
        lambda tmp_path: ["check", "--samples", "0"],
        lambda tmp_path: ["check", "--samples", "-5"],
        lambda tmp_path: ["check", "--max-len", "0"],
        lambda tmp_path: ["membership", "--cond", f"etog({VAL})", "--period", ""],
        _mismatched_union,
        _arena_file("# no nodes\n"),
        _huge_value_membership,
        *(make_argv for make_argv, _ in PINNED_REFUSALS.values()),
    ],
    ids=["missing-arena", "missing-valuation", "non-ascii-valuation",
         "deep-nesting", "huge-zlex-dimension", "zero-bob-memory", "bob-memory-over-cap",
         "negative-ramsey-depth", "ramsey-depth-over-cap", "zero-check-samples",
         "negative-check-samples", "zero-check-max-len", "empty-period",
         "union-alphabet-mismatch", "empty-arena", "huge-period-value",
         *PINNED_REFUSALS],
)
def test_input_failures_exit_2_without_traceback(capsys, tmp_path, monkeypatch, make_argv):
    monkeypatch.chdir(tmp_path)
    code, err = _run_refusal(capsys, monkeypatch, make_argv(tmp_path))
    assert code == 2
    assert "error" in err and "Traceback" not in err


@pytest.mark.parametrize("make_argv, refusal", PINNED_REFUSALS.values(), ids=PINNED_REFUSALS)
def test_refusal_prints_one_pinned_error_line(capsys, tmp_path, monkeypatch, make_argv, refusal):
    monkeypatch.chdir(tmp_path)
    code, err = _run_refusal(capsys, monkeypatch, make_argv(tmp_path))
    assert code == 2
    # the whole stderr, or argparse's usage lines and then the refusal
    assert err == refusal or (err.startswith("usage: etog ") and err.endswith(refusal))
    assert err.count("error: ") == 1
    if DIGIT_LIMIT in refusal or "…" in refusal:
        # the refusal names the limit, or echoes only the head of a long
        # literal, not its 5000 characters; at 80 columns argparse's two
        # usage lines alone take about 120 bytes
        assert len(refusal.encode()) < 200 and len(err.encode()) < 400


@pytest.mark.skipif(not os.path.exists("/dev/zero"), reason="no /dev/zero on this system")
def test_an_endless_input_file_is_refused_at_the_size_bound(capsys, monkeypatch):
    # /dev/zero never ends; a read without a bound ran out of memory
    argv = ["solve", "--arena", "/dev/zero", "--cond", f"etog({VAL})"]
    code, err = _run_refusal(capsys, monkeypatch, argv)
    assert (code, err) == (
        2, f"error: cannot read '/dev/zero': more than {MAX_INPUT_CHARS} characters\n"
    )


def test_an_input_file_of_exactly_the_size_bound_is_read(tmp_path):
    path = tmp_path / "bound.txt"
    path.write_text("#" * MAX_INPUT_CHARS)
    assert len(read_ascii(str(path))) == MAX_INPUT_CHARS


def test_an_input_file_one_character_over_the_size_bound_is_refused(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    Path("over.txt").write_text("#" * (MAX_INPUT_CHARS + 1))
    with pytest.raises(InputFileError) as refused:
        read_ascii("over.txt")
    assert str(refused.value) == f"cannot read 'over.txt': more than {MAX_INPUT_CHARS} characters"


# argparse repeats the astral arguments as their repr, 402 characters long
@pytest.mark.parametrize(
    "argv, echoed",
    [
        (["check", f"--s={LETTERS}"], "'… (50"),
        (["check", f"--machine={LETTERS}"], "'… (50"),
        (["check", f"-h{LETTERS}"], "'… (50"),
        (["check", f"--machine={ASTRAL}"], f"{ASTRAL[:4]!r}… (40 characters)"),
        (["check", f"-h{ASTRAL}"], f"{ASTRAL[:4]!r}… (40 characters)"),
        ([ASTRAL], f"{ASTRAL[:4]!r}… (40 characters)"),
    ],
    ids=["ambiguous-option", "ignored-explicit-argument", "ignored-short-explicit-argument",
         "astral-ignored-explicit-argument", "astral-ignored-short-explicit-argument",
         "astral-invalid-command"],
)
def test_argparse_quotes_an_argument_or_its_tail_through_echo(capsys, monkeypatch, argv, echoed):
    code, err = _run_refusal(capsys, monkeypatch, argv)
    assert code == 2
    assert echoed in err
    assert len(err.encode()) < 400


BACKSLASHES = "\\" * 40


@pytest.mark.parametrize(
    "text, quoted",
    [
        ("a" * 40, HEAD),
        ("a" * 41, f"{HEAD}… (41 characters)"),
        ("\x1f" * 20, repr("\x1f" * 10) + "… (20 characters)"),
        (ASTRAL, f"{ASTRAL[:4]!r}… (40 characters)"),
        (BACKSLASHES, f"{BACKSLASHES[:20]!r}… (40 characters)"),
    ],
    ids=["40-letters", "41-letters", "20-controls", "40-astral", "40-backslashes"],
)
def test_echo_bounds_the_repr_it_prints(text, quoted):
    # the repr, or the longest head whose repr fits 42 characters
    assert echo(text) == quoted
    assert len(quoted.split("…")[0]) <= 42


def test_arena_error_does_not_depend_on_the_hash_seed(tmp_path):
    # four nodes, three of them sinks: the error names the first sink in
    # declaration order (Alice's nodes, then Bob's), under every hash seed
    (tmp_path / "arena.txt").write_text("node a A\nnode b B\nnode c A\nnode d B\nedge a x a\n")
    (tmp_path / "int.txt").write_text("group int\nval x = 1\n")
    argv = [sys.executable, "-m", "etog.cli", "solve", "--arena", "arena.txt",
            "--cond", "etog(int.txt)"]
    errors = set()
    for seed in range(8):
        env = dict(os.environ, PYTHONHASHSEED=str(seed),
                   PYTHONPATH=str(Path(etog.__file__).parent.parent))
        proc = subprocess.run(argv, cwd=tmp_path, env=env, capture_output=True, text=True)
        assert proc.returncode == 2, proc.stderr
        errors.add(proc.stderr)
    assert errors == {"error: node 'c' has no outgoing edge\n"}


def _compare_into(stdout):
    """``etog compare int 1 2`` in a child process, its stdout on ``stdout``."""
    env = dict(os.environ, PYTHONPATH=str(Path(etog.__file__).parent.parent))
    argv = [sys.executable, "-m", "etog.cli", "compare", "int", "1", "2"]
    return subprocess.run(argv, env=env, stdout=stdout, stderr=subprocess.PIPE, text=True)


def test_a_closed_stdout_pipe_exits_1_with_nothing_on_stderr():
    read_end, write_end = os.pipe()
    os.close(read_end)  # before the child starts, so its first write fails
    try:
        proc = _compare_into(write_end)
    finally:
        os.close(write_end)
    assert (proc.returncode, proc.stderr) == (1, "")


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full device")
def test_a_full_stdout_prints_one_error_line_and_exits_2():
    with open("/dev/full", "wb") as full:
        proc = _compare_into(full)
    expected = f"error: cannot write output: {os.strerror(errno.ENOSPC)}\n"
    assert (proc.returncode, proc.stderr) == (2, expected)


GOLDEN = Path(__file__).parent / "golden"


@pytest.mark.parametrize(
    "name, code, argv",
    [
        ("check-seed0.txt", 0,
         ["check", "--seed", "0", "--samples", "2000", "--max-len", "4", "--machine"]),
        ("check-inject-fault-seed0.txt", 1,
         ["check", "--inject-fault", "--seed", "0", "--samples", "2000",
          "--max-len", "4", "--machine"]),
        ("counterexample-bob-memory2.txt", 0,
         ["counterexample", "--bob-memory", "2", "--machine"]),
        # arenas too large for a reference solver in tier-1 (3^12 and 2^16
        # positional pairs); their transcripts pin the solver's answer
        ("solve-int-12x3.txt", 0,
         ["solve", "--arena", str(GOLDEN / "solve-int-12x3.arena"),
          "--cond", f"etog({GOLDEN / 'solve-int.valuation'})", "--machine"]),
        ("solve-free-16x2.txt", 0,
         ["solve", "--arena", str(GOLDEN / "solve-free-16x2.arena"),
          "--cond", f"etog({VAL})", "--machine"]),
        # CLI defaults: closure runs up to length 6
        ("check-seed0-defaults.txt", 0, ["check", "--seed", "0", "--machine"]),
        # 2^24 positional pairs
        ("solve-free-24x2.txt", 0,
         ["solve", "--arena", str(GOLDEN / "solve-free-24x2.arena"),
          "--cond", f"etog({VAL})", "--machine"]),
        # 2^40 positional pairs; recorded with the strategy-enumerating
        # solver, which took about 12 s on it
        ("solve-free-40x2.txt", 0,
         ["solve", "--arena", str(GOLDEN / "solve-free-40x2.arena"),
          "--cond", f"etog({VAL})", "--machine"]),
    ],
)
def test_machine_output_matches_golden_transcript(capsys, name, code, argv):
    # pins every CHECK detail and counterexample text, not only the verdicts
    actual_code, out, _ = run(capsys, *argv)
    assert actual_code == code
    assert out == (GOLDEN / name).read_text()
