"""Command-line front end.

Subcommands: compare, membership, solve, check, counterexample.  Reports are
printed both as human-readable text and, with --machine, as greppable
``CHECK <name> PASS|FAIL <detail>`` lines.  The --machine output is a pure
function of the arguments, input files and seed; the human-readable report
adds the elapsed time.  The exit code is 0 exactly when every requested
verdict passes.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from dataclasses import dataclass, field

from . import games, laws
from .conditions import (
    EtogCondition,
    UnionCondition,
    UPWord,
    describe_condition,
    parse_condition,
)
from .errors import EtogError, NotationError, echo
from .groups import Ordering
from .laws import CheckResult
from .notation import (
    format_element,
    parse_element,
    parse_group,
    parse_int,
    shipped_arena_path,
    shipped_valuation_path,
)

DEFAULT_SEED = 0
# 4^1000 has 603 digits, under the 640-digit floor of Python's int-to-str limit
MAX_RAMSEY_DEPTH = 1000


@dataclass
class RunReport:
    command: str
    inputs: dict[str, str]
    verdicts: list[CheckResult] = field(default_factory=list)
    duration_s: float = 0.0

    @property
    def all_passed(self) -> bool:
        return all(v.passed for v in self.verdicts)

    def render(self, machine: bool) -> str:
        lines = []
        if not machine:
            lines.append(f"command: {self.command}")
            for key, value in self.inputs.items():
                lines.append(f"  {key}: {value}")
        for verdict in self.verdicts:
            lines.append(verdict.line())
        if not machine:
            lines.append(f"elapsed: {self.duration_s:.2f}s")
        return "\n".join(lines)


def _resolve_seed(args) -> int:
    if args.seed is not None:
        return args.seed
    env = os.environ.get("ETOG_SEED")
    if env is not None:
        try:
            return parse_int(env, "not an integer: {}")
        except NotationError as exc:
            raise NotationError(f"ETOG_SEED: {exc}") from None
    return DEFAULT_SEED


def _int(text: str) -> int:
    """An integer option value; argparse prints the refusal after the option."""
    try:
        return parse_int(text, "not an integer: {}")
    except NotationError as exc:  # argparse would replace a ValueError's message
        raise argparse.ArgumentTypeError(str(exc)) from None


def _positive_int(text: str, cap: int | None = None) -> int:
    value = _int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    if cap is not None and value > cap:
        raise argparse.ArgumentTypeError(f"must be <= {cap}, got {value}")
    return value


# ---------------------------------------------------------------------------
# subcommands


def cmd_compare(args) -> int:
    spec = parse_group(args.spec)
    left = parse_element(spec, args.left)
    right = parse_element(spec, args.right)
    print(spec.compare(left, right))
    return 0


def cmd_membership(args) -> int:
    cond = parse_condition(args.cond)
    word = UPWord.make(args.prefix or "", args.period)
    members = cond.members if isinstance(cond, UnionCondition) else (cond,)
    decided = [part.up_member(word) for part in members]
    verdict = "member" if any(decided) else "non-member"
    if args.machine:
        print(f"RESULT membership {verdict}")
        return 0
    lines = []  # all rendered before any is printed, so a refusal prints nothing
    for i, (part, member) in enumerate(zip(members, decided)):
        group, value = part.valuation.group, part.valuation.val_word(word.period)
        lines.append(
            f"  member {i}: period value = {format_element(group, value)}, "
            f"sign = {group.sign(value)}, member = {member}"
        )
    print(f"condition: {describe_condition(cond)}")
    print(f"period: {' '.join(word.period)}")
    for line in lines:
        print(line)
    print(verdict)
    return 0


def cmd_solve(args) -> int:
    cond = parse_condition(args.cond)
    arena = games.load_arena(args.arena, alphabet=cond.colors)
    solution = games.solve_energy_game(arena, cond)
    witnesses = (solution.alice_strategy, solution.bob_strategy)
    if args.machine:
        print("RESULT solve.method first-cycle exact")
        for node in arena.nodes:
            print(f"RESULT solve.winner {node} {solution.winners[node]}")
        for strategy in witnesses:
            for node, edge in sorted(strategy.choice.items()):
                print(f"RESULT solve.witness {strategy.owner} {node} {edge.index}")
        return 0
    for node in arena.nodes:
        print(f"node {node}: {solution.winners[node]}")
    for strategy in witnesses:
        print(f"witness ({strategy.owner}):")
        for node, edge in sorted(strategy.choice.items()):
            print(f"  {node} -> {edge.index}")
    return 0


def build_refutation_setup():
    """The shipped 3-node arena plus the union of the two mutually inverse
    free-group energy conditions over it: the law battery's ``free`` and ``inv-free``."""
    suite = laws.standard_valuations()
    valuation = suite["free"]
    union = UnionCondition((EtogCondition(valuation), EtogCondition(suite["inv-free"])))
    arena = games.load_arena(shipped_arena_path(), alphabet=valuation.colors)
    return arena, union, valuation


def run_counterexample(bob_memory: int, ramsey_depth: int) -> RunReport:
    """Reproduce the refutation experiment on the shipped arena.

    Both positional strategies of the first player must be beaten within the
    memory bound by an opponent that drives the cycle value back to the
    identity; the alternating two-state strategy must win within the bound;
    and the sign-pattern prefix products must all be distinct.  That last
    check is exact at every depth (see ``games.ramsey_distinct_check``);
    ``ramsey_depth`` only names the depth, and its 4^depth sign patterns,
    in the report.
    """
    started = time.perf_counter()
    arena, union, valuation = build_refutation_setup()
    start = arena.alice_nodes[0]
    report = RunReport(
        "counterexample",
        {
            "arena": shipped_arena_path(),
            "valuation": shipped_valuation_path(),
            "bob-memory": str(bob_memory),
            "ramsey-depth": str(ramsey_depth),
        },
    )

    for sigma in games.positional_strategies(arena, games.Player.ALICE):
        name = f"counterexample.positional-{sigma.choice[start].index}-beaten"
        verdict = games.verify_union_strategy(arena, union, start, sigma, bob_memory)
        if verdict.wins_within_bound:
            report.verdicts.append(
                CheckResult(name, False, f"bob-memory={bob_memory}", "no beating opponent found")
            )
            continue
        cycle = verdict.beating_lasso.cycle_colors
        shown = " ".join(cycle)
        detail = f"bob-memory={bob_memory} machines={verdict.machines_checked}"
        if valuation.group.sign(valuation.val_word(cycle)) is Ordering.EQUAL:
            result = CheckResult(name, True, f"{detail} cycle='{shown}' cycle-value=identity")
        else:
            result = CheckResult(name, False, detail, f"beating cycle {shown} has non-identity value")
        report.verdicts.append(result)

    alternating = games.alternating_strategy(arena, start)
    verdict = games.verify_union_strategy(arena, union, start, alternating, bob_memory)
    detail = f"bob-memory={bob_memory} machines={verdict.machines_checked}"
    report.verdicts.append(
        CheckResult(
            "counterexample.alternating-wins",
            verdict.wins_within_bound,
            detail,
            None
            if verdict.wins_within_bound
            else f"beaten; cycle {' '.join(verdict.beating_lasso.cycle_colors)}",
        )
    )

    cancelled = games.ramsey_distinct_check()
    report.verdicts.append(
        CheckResult(
            "counterexample.distinct-prefix-products",
            cancelled is None,
            f"depth={ramsey_depth} paths={4**ramsey_depth}",
            cancelled,
        )
    )
    report.duration_s = time.perf_counter() - started
    return report


def cmd_counterexample(args) -> int:
    report = run_counterexample(args.bob_memory, args.ramsey_depth)
    print(report.render(args.machine))
    if report.all_passed:
        print("union not half-positional (within stated bounds)")
        return 0
    print("experiment did NOT reproduce", file=sys.stderr)
    return 1


def cmd_check(args) -> int:
    seed = _resolve_seed(args)
    started = time.perf_counter()
    results = laws.full_check_battery(
        seed,
        order_samples=args.samples,
        closure_max_len=args.max_len,
        inject_fault=args.inject_fault,
    )
    report = RunReport(
        "check",
        {
            "seed": str(seed),
            "order-samples": str(args.samples),
            "closure-max-len": str(args.max_len),
            "inject-fault": str(args.inject_fault),
        },
        results,
        time.perf_counter() - started,
    )
    print(report.render(args.machine))
    return 0 if report.all_passed else 1


class _Parser(argparse.ArgumentParser):
    """An argument parser whose own refusals quote argument text through
    :func:`echo`.  argparse's refusals repeat an argument (an invalid choice,
    an unrecognized argument, an ambiguous option) or its tail after an option
    name (an ignored explicit argument), raw or as its repr.  The longest tail
    of each argument that a refusal repeats is quoted through ``echo`` instead;
    text of up to 40 characters, which ``echo`` quotes as its repr, prints
    unchanged."""

    _argv: tuple[str, ...] = ()

    def parse_known_args(self, args=None, namespace=None):
        self._argv = tuple(sys.argv[1:] if args is None else args)
        return super().parse_known_args(self._argv, namespace)

    def error(self, message):
        for text in self._argv:
            tail = next((text[i:] for i in range(len(text)) if text[i:] in message), "")
            quoted = echo(tail)
            if quoted != repr(tail):
                message = message.replace(repr(tail), quoted).replace(tail, quoted)
        super().error(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="etog",
        description=(
            "energy conditions over totally ordered groups: compare group "
            "elements, decide membership of ultimately periodic words, solve "
            "finite arenas, and reproduce the union counterexample"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("compare", help="compare two elements under a group spec")
    p.add_argument("spec", help="group spec, e.g. free(a,b) or inv(int)")
    p.add_argument("left")
    p.add_argument("right")
    p.set_defaults(handler=cmd_compare)

    p = sub.add_parser("membership", help="ultimately periodic word membership")
    p.add_argument("--cond", required=True, help="etog(<file>) | inv-etog(<file>) | union(..,..)")
    p.add_argument("--prefix", default="", help="finite prefix, space-separated colors")
    p.add_argument("--period", required=True, help="period, space-separated colors")
    p.add_argument("--machine", action="store_true")
    p.set_defaults(handler=cmd_membership)

    p = sub.add_parser("solve", help="solve an arena for a single energy condition")
    p.add_argument("--arena", required=True)
    p.add_argument("--cond", required=True)
    p.add_argument("--machine", action="store_true")
    p.set_defaults(handler=cmd_solve)

    p = sub.add_parser(
        "counterexample",
        help="reproduce the union-not-half-positional experiment on the shipped arena",
    )
    p.add_argument("--bob-memory", type=_positive_int, default=2)
    p.add_argument("--ramsey-depth", type=lambda t: _positive_int(t, MAX_RAMSEY_DEPTH), default=3)
    p.add_argument("--machine", action="store_true")
    p.set_defaults(handler=cmd_counterexample)

    p = sub.add_parser("check", help="run the full law battery")
    p.add_argument("--seed", type=_int, default=None, help="fallback: ETOG_SEED env var")
    p.add_argument(
        "--samples", type=_positive_int, default=10_000, help="order-axiom sample budget"
    )
    p.add_argument(
        "--max-len", type=_positive_int, default=6, help="closure word length bound"
    )
    p.add_argument(
        "--inject-fault",
        action="store_true",
        help="deliberately misorder two monomials to demonstrate check sensitivity",
    )
    p.add_argument("--machine", action="store_true")
    p.set_defaults(handler=cmd_check)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except EtogError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
