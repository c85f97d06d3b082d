"""The benchmark's four workloads.

Each workload is a closed loop with one client and one item in flight.  Its
constructor is the set-up (it parses what the workload needs and generates the
seeded inputs), ``run_item`` is the timed call into ``etog``, and ``check``
judges the results of a whole pass afterwards, outside the timed region and
outside any trace.  Calls go through module attributes (``games.play_lasso``,
not a name imported from ``etog.games``) so that the traced run sees them.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import math
import random
import re

from etog import cli, conditions, games

# law-battery at CLI defaults prints this many CHECK lines
LAW_BATTERY_CHECKS = 52

INT_VALUATION = "group int\nval x = -1\nval y = 1\nval z = 0\nval w = 2\n"


class Pass:
    """Verdict tally of one pass over a workload's items."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.counts: dict[str, int] = {}
        self._digest = hashlib.sha256()

    def verdict(self, ok: bool, fingerprint: str) -> None:
        self.attempted += 1
        self.failed += not ok
        self._digest.update(fingerprint.encode() + b"\n")

    @property
    def fingerprint(self) -> str:
        return self._digest.hexdigest()


def _run_cli(argv: list[str]):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return code, out.getvalue()


class Refutation:
    """``etog counterexample --bob-memory 3 --machine`` on the shipped arena.

    The inputs are the shipped files, so the seed changes nothing.
    """

    beaten_cycles = {
        "counterexample.positional-0-beaten": "cycle='eps a eps a^-1'",
        "counterexample.positional-1-beaten": "cycle='eps b eps b^-1'",
    }
    verdicts = (
        *beaten_cycles,
        "counterexample.alternating-wins",
        "counterexample.distinct-prefix-products",
    )

    def __init__(self, seed: int, bob_memory: int = 3):
        # the CLI parses these again; parsing here fails early on a bad checkout
        conditions.load_valuation(cli.shipped_valuation_path())
        games.load_arena(cli.shipped_arena_path())
        self.items = [["counterexample", "--bob-memory", str(bob_memory), "--machine"]]

    def run_item(self, argv):
        return _run_cli(argv)

    def check(self, items, results, tally: Pass) -> None:
        machines = 0
        for result in results:
            if isinstance(result, Exception):
                for name in self.verdicts:
                    tally.verdict(False, f"{name} raised {result!r}")
                continue
            code, text = result
            lines = {line.split()[1]: line for line in text.splitlines() if line.startswith("CHECK ")}
            for name in self.verdicts:
                line = lines.get(name, "")
                ok = code == 0 and line.split()[2:3] == ["PASS"]
                ok = ok and self.beaten_cycles.get(name, "") in line
                tally.verdict(ok, f"{code} {line}")
            # recorded, never asserted: an exact verifier may replace the enumerator
            machines += sum(int(m) for m in re.findall(r"machines=(\d+)", text))
        tally.counts["machines"] = machines


class LawBattery:
    """``etog check --seed <seed> --machine``: the law battery at CLI defaults."""

    def __init__(self, seed: int, extra_args: tuple[str, ...] = ()):
        self.items = [["check", "--seed", str(seed), "--machine", *extra_args]]

    def run_item(self, argv):
        return _run_cli(argv)

    def check(self, items, results, tally: Pass) -> None:
        for result in results:
            if isinstance(result, Exception):
                for _ in range(LAW_BATTERY_CHECKS):
                    tally.verdict(False, repr(result))
                continue
            code, text = result
            lines = [line for line in text.splitlines() if line.startswith("CHECK ")]
            for line in lines[:LAW_BATTERY_CHECKS]:
                tally.verdict(code == 0 and line.split()[2] == "PASS", line)
            # a missing or surplus CHECK line is a wrong verdict too
            for _ in range(abs(len(lines) - LAW_BATTERY_CHECKS)):
                tally.verdict(False, f"{code} check-line count {len(lines)}")


class OracleSweep:
    """Acceptance criterion 2 on the shipped ``free`` valuation.

    Every period of length <= ``max_len`` (3,905 at length 5), in a seeded
    order; one item is one period, checked by ``up_member`` and by the
    brute-force oracle at horizon 50x period.
    """

    def __init__(self, seed: int, max_len: int = 5):
        valuation = conditions.load_valuation(cli.shipped_valuation_path())
        self.cond = conditions.EtogCondition(valuation)
        periods = [
            period
            for length in range(1, max_len + 1)
            for period in itertools.product(valuation.colors, repeat=length)
        ]
        random.Random(seed).shuffle(periods)
        self.items = [conditions.UPWord((), period) for period in periods]

    def run_item(self, word):
        member = self.cond.up_member(word)
        oracle = conditions.up_member_oracle(self.cond, word, horizon=50 * len(word.period))
        return member, oracle

    def check(self, items, results, tally: Pass) -> None:
        for word, result in zip(items, results):
            ok = not isinstance(result, Exception) and result[0] == result[1]
            tally.verdict(ok, f"{' '.join(word.period)} {result!r}")


class Solve:
    """``solve_energy_game`` on a seeded batch of random arenas.

    Arena i uses the ``int``, ``free`` and ``parity(3)`` conditions in turn,
    has 6 to 12 nodes of random owner and out-degree 1 to 3.  The positional
    enumeration costs |sigma| * |tau| = the product of the out-degrees, so
    arenas above ``max_pairs`` are redrawn to keep a pass near three seconds;
    the sizes left still span three orders of magnitude.  The batch comes from
    a fixed generator and the seed only shuffles its order, as in
    ``OracleSweep``: how long an arena takes depends on who wins where, so
    batches drawn per seed would move p90 by half between seeds.
    """

    def __init__(self, seed: int, arenas: int = 120, max_pairs: int = 4096):
        rng = random.Random(0)
        valuation_int = conditions.parse_valuation(INT_VALUATION)
        valuation_free = conditions.load_valuation(cli.shipped_valuation_path())
        conds = [
            ("int", conditions.EtogCondition(valuation_int)),
            ("free", conditions.EtogCondition(valuation_free)),
            ("parity", conditions.parity_condition(3)),
        ]
        self.items = []
        for i in range(arenas):
            label, cond = conds[i % len(conds)]
            text = self._arena_text(rng, cond.colors, max_pairs)
            self.items.append((label, cond, games.parse_arena(text, cond.colors)))
        random.Random(seed).shuffle(self.items)

    @staticmethod
    def _arena_text(rng: random.Random, colors, max_pairs: int) -> str:
        while True:
            size = rng.randint(6, 12)
            degrees = [rng.randint(1, 3) for _ in range(size)]
            if math.prod(degrees) <= max_pairs:
                break
        lines = [f"node n{i} {rng.choice('AB')}" for i in range(size)]
        for i, degree in enumerate(degrees):
            for _ in range(degree):
                lines.append(f"edge n{i} {rng.choice(colors)} n{rng.randrange(size)}")
        return "\n".join(lines)

    def run_item(self, item):
        _label, cond, arena = item
        return games.solve_energy_game(arena, cond)

    def check(self, items, results, tally: Pass) -> None:
        for (label, cond, arena), solution in zip(items, results):
            if isinstance(solution, Exception):
                tally.verdict(False, f"{label} raised {solution!r}")
                continue
            try:
                ok = self._witnesses_agree(cond, arena, solution)
                if label == "parity":
                    ok = ok and self._parity_agrees(arena, solution)
            except Exception as exc:  # a raising check is a wrong verdict
                tally.verdict(False, f"{label} check raised {exc!r}")
                continue
            fingerprint = " ".join(
                [label]
                + [f"{node}:{solution.winners[node]}" for node in arena.nodes]
                + [f"{n}>{e.index}" for n, e in sorted(solution.alice_strategy.choice.items())]
                + [f"{n}>{e.index}" for n, e in sorted(solution.bob_strategy.choice.items())]
            )
            tally.verdict(ok, fingerprint)

    @staticmethod
    def _witnesses_agree(cond, arena, solution) -> bool:
        """The witness play from each node is won by the node's winner."""
        for node in arena.nodes:
            lasso = games.play_lasso(arena, node, solution.alice_strategy, solution.bob_strategy)
            alice_wins = cond.up_member(lasso.up_word())
            if alice_wins != (solution.winners[node] is games.Player.ALICE):
                return False
        return True

    @staticmethod
    def _parity_agrees(arena, solution) -> bool:
        """Brute force over positional pairs with the max-priority rule."""
        sigmas = games.positional_strategies(arena, games.Player.ALICE)
        taus = games.positional_strategies(arena, games.Player.BOB)
        for node in arena.nodes:
            alice_wins = any(
                all(
                    max(int(c) for c in games.play_lasso(arena, node, sigma, tau).cycle_colors) % 2
                    for tau in taus
                )
                for sigma in sigmas
            )
            if alice_wins != (solution.winners[node] is games.Player.ALICE):
                return False
        return True


WORKLOADS = {
    "refutation": Refutation,
    "law-battery": LawBattery,
    "oracle-sweep": OracleSweep,
    "solve": Solve,
}
