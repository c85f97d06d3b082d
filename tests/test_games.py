import itertools
import math
import random
import sys
from collections import Counter
from dataclasses import FrozenInstanceError, fields, replace

import pytest

from etog import games
from etog.cli import shipped_arena_path
from etog.conditions import (
    EtogCondition,
    UnionCondition,
    UPWord,
    Valuation,
    parity_condition,
    parse_valuation,
    up_member_oracle,
)
from etog.errors import (
    ArenaError,
    DuplicateNodeError,
    EtogError,
    MissingMachineEntryError,
    MissingOutgoingEdgeError,
    UnknownColorError,
    UnknownEndpointError,
)
from etog.games import (
    Lasso,
    MealyStrategy,
    Player,
    PositionalStrategy,
    Solution,
    alternating_strategy,
    parse_arena,
    play_lasso,
    positional_strategies,
    ramsey_distinct_check,
    solve_energy_game,
    verify_union_strategy,
)
from etog.groups import FreeWord, Integers, InverseOrder, MisorderedFreeGroup, reduce_word
from etog.laws import standard_valuations

REFUTATION_ARENA = """
node sq A
node lc B
node rc B
edge sq eps lc
edge sq eps rc
edge lc a sq
edge lc a^-1 sq
edge rc b sq
edge rc b^-1 sq
"""

SUITE = standard_valuations()
FREE_VAL = SUITE["free"]
UNION = UnionCondition(
    (
        EtogCondition(FREE_VAL),
        EtogCondition(replace(FREE_VAL, group=InverseOrder(FREE_VAL.group))),
    )
)


@pytest.fixture
def refutation_arena():
    return parse_arena(REFUTATION_ARENA, alphabet=FREE_VAL.colors)


def bob_alternator(arena, node, first_color, second_color):
    """Two-state Bob machine alternating two colors out of one node."""
    first = next(e for e in arena.out_edges[node] if e.color == first_color)
    second = next(e for e in arena.out_edges[node] if e.color == second_color)
    moves, updates = {}, {}
    for state, pick in ((0, first), (1, second)):
        moves[(state, node)] = pick
        for other in arena.bob_nodes:
            if other != node:
                moves[(state, other)] = arena.out_edges[other][0]
        for edge in arena.edges:
            if edge.source == node:
                updates[(state, edge)] = 1 - state
            else:
                updates[(state, edge)] = state
    return MealyStrategy(Player.BOB, (0, 1), 0, moves, updates)


class TestArenaParsing:
    def test_refutation_arena_shape(self, refutation_arena):
        assert len(refutation_arena.nodes) == 3
        assert len(refutation_arena.edges) == 6
        assert refutation_arena.alice_nodes == ("sq",)
        assert refutation_arena.bob_nodes == ("lc", "rc")

    def test_sink_node_rejected(self):
        with pytest.raises(MissingOutgoingEdgeError):
            parse_arena("node a A\nnode b B\nedge a x b\n")

    def test_duplicate_node_rejected(self):
        with pytest.raises(DuplicateNodeError):
            parse_arena("node a A\nnode a B\nedge a x a\n")

    def test_unknown_endpoint_rejected(self):
        with pytest.raises(UnknownEndpointError):
            parse_arena("node a A\nedge a x ghost\nedge a x a\n")

    def test_unknown_color_rejected(self):
        with pytest.raises(UnknownColorError):
            parse_arena("node a A\nedge a q a\n", alphabet=("x", "y"))

    def test_single_self_loop_is_valid(self):
        arena = parse_arena("node a A\nedge a x a\n")
        assert arena.nodes == ("a",)

    def test_malformed_lines_rejected(self):
        with pytest.raises(ArenaError):
            parse_arena("node a C\nedge a x a\n")
        with pytest.raises(ArenaError):
            parse_arena("nonsense\n")

    def test_refusals_come_duplicate_then_endpoint_then_sink(self):
        # b is declared twice, an edge leads to the undeclared ghost, c is a sink
        lines = ["node a A", "node b B", "node c A", "node b A",
                 "edge a x b", "edge b x ghost", "edge b y a"]
        with pytest.raises(DuplicateNodeError, match=r"^node 'b' declared twice$"):
            make_arena(lines)
        lines.remove("node b A")
        with pytest.raises(UnknownEndpointError, match=r"^edge target 'ghost' not declared$"):
            make_arena(lines)
        lines.remove("edge b x ghost")
        with pytest.raises(MissingOutgoingEdgeError, match=r"^node 'c' has no outgoing edge$"):
            make_arena(lines)

    def test_out_edges_maps_each_node_to_its_edges_in_order(self):
        rng = random.Random(34)
        arenas = [differential_arena(rng, "xyz", owners) for owners in ["AB"] * 40 + ["A", "B"] * 5]
        arenas += [random_two_out_arena(seed, "xyz", 14 + seed % 11) for seed in range(10)]
        for arena in arenas:
            assert tuple(arena.out_edges) == arena.nodes
            for node, edges in arena.out_edges.items():
                assert type(edges) is tuple
                assert edges == tuple(edge for edge in arena.edges if edge.source == node)
            joined = [edge for edges in arena.out_edges.values() for edge in edges]
            assert tuple(sorted(joined, key=lambda edge: edge.index)) == arena.edges


class TestAlternatingStrategy:
    def test_bob_node_rejected(self, refutation_arena):
        with pytest.raises(ArenaError, match=r"^node 'lc' is not an Alice node$"):
            alternating_strategy(refutation_arena, "lc")

    def test_undeclared_node_rejected(self, refutation_arena):
        with pytest.raises(ArenaError, match=r"^node 'zz' is not an Alice node$"):
            alternating_strategy(refutation_arena, "zz")


class TestPlayLasso:
    def test_positional_alice_vs_alternating_bob(self, refutation_arena):
        left = next(e for e in refutation_arena.out_edges["sq"] if e.target == "lc")
        sigma = PositionalStrategy(Player.ALICE, {"sq": left})
        tau = bob_alternator(refutation_arena, "lc", "a", "a^-1")
        lasso = play_lasso(refutation_arena, "sq", sigma, tau)
        assert lasso.cycle_colors == ("eps", "a", "eps", "a^-1")

    def test_alternating_alice_vs_positional_bob(self, refutation_arena):
        sigma = alternating_strategy(refutation_arena, "sq")
        tau = PositionalStrategy(
            Player.BOB,
            {
                "lc": next(e for e in refutation_arena.out_edges["lc"] if e.color == "a"),
                "rc": next(e for e in refutation_arena.out_edges["rc"] if e.color == "b"),
            },
        )
        lasso = play_lasso(refutation_arena, "sq", sigma, tau)
        assert lasso.cycle_colors == ("eps", "a", "eps", "b")

    def test_self_loop_lasso(self):
        arena = parse_arena("node a A\nedge a x a\n")
        sigma = PositionalStrategy(Player.ALICE, {"a": arena.edges[0]})
        tau = PositionalStrategy(Player.BOB, {})
        lasso = play_lasso(arena, "a", sigma, tau)
        assert lasso.stem == () and len(lasso.cycle) == 1

    def test_deterministic(self, refutation_arena):
        sigma = alternating_strategy(refutation_arena, "sq")
        tau = bob_alternator(refutation_arena, "lc", "a^-1", "a")
        first = play_lasso(refutation_arena, "sq", sigma, tau)
        second = play_lasso(refutation_arena, "sq", sigma, tau)
        assert first == second

    def test_lasso_bound(self, refutation_arena):
        sigma = alternating_strategy(refutation_arena, "sq")
        tau = bob_alternator(refutation_arena, "rc", "b", "b^-1")
        lasso = play_lasso(refutation_arena, "sq", sigma, tau)
        joint_states = len(refutation_arena.nodes) * 2 * 2
        assert len(lasso.stem) + len(lasso.cycle) <= joint_states + 1

    @pytest.mark.parametrize("table", ["moves", "updates"])
    def test_missing_entry_names_its_table_and_key(self, refutation_arena, table):
        # take out each entry of one table in turn; a play that needs it
        # raises a message that names the table and the key, and holds
        # nothing else; a play that does not need it is unchanged
        sigma = alternating_strategy(refutation_arena, "sq")
        full = bob_alternator(refutation_arena, "lc", "a", "a^-1")
        expected = play_lasso(refutation_arena, "sq", sigma, full)
        stops = 0
        for key in getattr(full, table):
            partial = {"moves": dict(full.moves), "updates": dict(full.updates)}
            del partial[table][key]
            bob = MealyStrategy(Player.BOB, full.states, 0, partial["moves"], partial["updates"])
            try:
                lasso = play_lasso(refutation_arena, "sq", sigma, bob)
            except MissingMachineEntryError as missing:
                state, entry = key
                named = (
                    f"no move for state {state!r} at node {entry!r}"
                    if table == "moves"
                    else f"no update for state {state!r} on edge {entry.index}"
                )
                assert str(missing) == named and vars(missing) == {}
                stops += 1
            else:
                assert lasso == expected  # the play never needs this entry
        assert stops > 0

    @pytest.mark.parametrize("owner", ["A", "B"])
    def test_positional_strategy_without_a_choice_names_its_node(self, owner):
        arena = parse_arena(f"node s {owner}\nedge s x s\n")
        alice = PositionalStrategy(Player.ALICE, {})
        bob = PositionalStrategy(Player.BOB, {})
        with pytest.raises(MissingMachineEntryError, match=r"^no move at node 's'$") as raised:
            play_lasso(arena, "s", alice, bob)
        assert vars(raised.value) == {}

    def test_unknown_start_node(self, refutation_arena):
        sigma = alternating_strategy(refutation_arena, "sq")
        tau = bob_alternator(refutation_arena, "lc", "a", "a^-1")
        with pytest.raises(ArenaError, match=r"^unknown start node 'zz'$"):
            play_lasso(refutation_arena, "zz", sigma, tau)


def make_arena(lines):
    return parse_arena("\n".join(lines))


LONG = "a" * 5000  # a node and color name
OTHER = "a" * 4999 + "b"  # no node of LONG_ARENA
SHOWN = f"{'a' * 40!r}… (5000 characters)"  # how a refusal quotes either
LONG_ARENA = make_arena(
    [f"node {LONG} A", "node s B", f"edge {LONG} {LONG} {LONG}", f"edge s {LONG} {LONG}"]
)
LONG_COND = EtogCondition(Valuation(Integers(), {LONG: 1}))
NOBODY = (PositionalStrategy(Player.ALICE, {}), PositionalStrategy(Player.BOB, {}))


@pytest.mark.parametrize(
    "refuse, message",
    [
        (lambda: play_lasso(LONG_ARENA, OTHER, *NOBODY), f"unknown start node {SHOWN}"),
        (lambda: verify_union_strategy(LONG_ARENA, LONG_COND, OTHER, NOBODY[0], 1),
         f"unknown start node {SHOWN}"),
        (lambda: alternating_strategy(LONG_ARENA, OTHER), f"node {SHOWN} is not an Alice node"),
        (lambda: alternating_strategy(LONG_ARENA, LONG),
         f"node {SHOWN} needs two outgoing edges to alternate"),
        (lambda: play_lasso(LONG_ARENA, LONG, *NOBODY), f"no move at node {SHOWN}"),
        (lambda: MealyStrategy(Player.ALICE, (0,), 0, {}, {}).move(0, LONG),
         f"no move for state 0 at node {SHOWN}"),
        (lambda: PositionalStrategy(Player.ALICE, {LONG: LONG_ARENA.edges[1]}).move(None, LONG),
         f"strategy picks an edge not leaving {SHOWN}"),
        (lambda: MealyStrategy(Player.ALICE, (0,), 0, {(0, LONG): LONG_ARENA.edges[1]}, {})
         .move(0, LONG), f"strategy picks an edge not leaving {SHOWN}"),
        (lambda: solve_energy_game(LONG_ARENA, EtogCondition(FREE_VAL)),
         f"arena colors outside the condition alphabet: [{SHOWN}]"),
    ],
    ids=["play-start", "verify-start", "not-alice", "one-edge", "no-choice", "no-move",
         "edge-elsewhere", "mealy-edge-elsewhere", "alphabet"],
)
def test_refusals_quote_long_names_by_head_and_length(refuse, message):
    with pytest.raises(EtogError) as refused:
        refuse()
    assert str(refused.value) == message and len(message) < 200


def random_arena(rng, max_nodes, max_out, colors):
    n = rng.randint(1, max_nodes)
    names = [f"n{i}" for i in range(n)]
    lines = [f"node {x} {'A' if rng.random() < 0.5 else 'B'}" for x in names]
    for name in names:
        for _ in range(rng.randint(1, max_out)):
            lines.append(f"edge {name} {rng.choice(colors)} {rng.choice(names)}")
    return make_arena(lines)


class TestSolver:
    def test_two_loop_alice_node(self):
        arena = make_arena(["node n A", "edge n x n", "edge n y n"])
        cond = EtogCondition(Valuation(Integers(), {"x": -1, "y": 1}))
        solution = solve_energy_game(arena, cond)
        assert solution.winners == {"n": Player.ALICE}
        assert solution.alice_strategy.choice["n"].color == "x"

    def test_two_loop_bob_node(self):
        arena = make_arena(["node n B", "edge n x n", "edge n y n"])
        cond = EtogCondition(Valuation(Integers(), {"x": -1, "y": 1}))
        solution = solve_energy_game(arena, cond)
        assert solution.winners == {"n": Player.BOB}
        assert solution.bob_strategy.choice["n"].color == "y"

    def test_two_cycle_gadget_all_bob(self):
        # both simple cycles have negative value, so alternating them cannot
        # save the opponent: the whole gadget is winning despite owning no node
        arena = make_arena(
            [
                "node c B",
                "node m B",
                "node k B",
                "edge c x1 m",
                "edge m x2 c",
                "edge c y1 k",
                "edge k y2 c",
            ]
        )
        cond = EtogCondition(Valuation(Integers(), {"x1": -1, "x2": 0, "y1": 1, "y2": -2}))
        solution = solve_energy_game(arena, cond)
        assert all(w is Player.ALICE for w in solution.winners.values())

    def test_union_condition_refused(self, refutation_arena):
        with pytest.raises(EtogError, match="union"):
            solve_energy_game(refutation_arena, UNION)

    def test_alphabet_mismatch(self):
        arena = make_arena(["node n A", "edge n q n"])
        cond = EtogCondition(Valuation(Integers(), {"x": -1}))
        with pytest.raises(UnknownColorError):
            solve_energy_game(arena, cond)

    def test_a_condition_that_is_no_energy_condition_is_a_type_error(self):
        arena = make_arena(["node n A", "edge n x n"])
        with pytest.raises(TypeError, match="^expected an energy condition, got object$"):
            solve_energy_game(arena, object())

    def test_solutions_and_verdicts_are_immutable(self):
        arena = make_arena(["node n A", "edge n x n"])
        cond = EtogCondition(Valuation(Integers(), {"x": -1}))
        solution = solve_energy_game(arena, cond)
        with pytest.raises(FrozenInstanceError):
            solution.winners = {}
        alice = solution.alice_strategy
        verdict = verify_union_strategy(arena, UnionCondition((cond,)), "n", alice, 1)
        with pytest.raises(FrozenInstanceError):
            verdict.machines_checked = 0

    def test_misordered_group_is_a_named_failure(self):
        # under the broken order t p is not negative but its rotation p t is,
        # so n1 and n2 get different winners on one cycle and n2 has no edge
        # into its own region: the theorem's hypothesis fails
        arena = make_arena(
            ["node n0 A", "node n1 A", "node n2 A",
             "edge n0 p n2", "edge n1 t n2", "edge n2 p n1"]
        )
        p, t = reduce_word([("a", 1)]), reduce_word([("a", -1), ("b", -1)])
        misordered = MisorderedFreeGroup(("a", "b"))
        cond = EtogCondition(Valuation(misordered, {"p": p, "t": t}))
        assert not cond.up_member(UPWord((), ("t", "p")))
        assert cond.up_member(UPWord((), ("p", "t")))
        with pytest.raises(RuntimeError, match="^no uniform positional witness exists$"):
            solve_energy_game(arena, cond)

    def test_search_deeper_than_the_recursion_limit(self):
        # the first start walks the whole cycle before it closes
        size = 1500
        assert size > sys.getrecursionlimit()
        arena = make_arena(
            [f"node n{i} {'AB'[i % 2]}" for i in range(size)]
            + [f"edge n{i} x n{(i + 1) % size}" for i in range(size)]
        )
        cond = EtogCondition(Valuation(Integers(), {"x": -1}))
        solution = solve_energy_game(arena, cond)
        assert set(solution.winners.values()) == {Player.ALICE}
        assert len(solution.alice_strategy.choice) + len(solution.bob_strategy.choice) == size

    def test_refutation_arena_single_condition_is_positional(self, refutation_arena):
        # sanity control: each member of the union alone admits a positional
        # winner (here the opponent) from every node
        solution = solve_energy_game(refutation_arena, EtogCondition(FREE_VAL))
        assert all(w is Player.BOB for w in solution.winners.values())

    def test_agrees_with_bruteforce_oracle_on_small_arenas(self):
        rng = random.Random(100)
        valuation = Valuation(Integers(), {"x": -1, "y": 1})
        cond = EtogCondition(valuation)

        def lasso_accepted(arena, start, sigma, tau):
            word = play_lasso(arena, start, sigma, tau).up_word()
            return up_member_oracle(cond, word, horizon=50 * len(word.period))

        def oracle(arena):
            sigmas = positional_strategies(arena, Player.ALICE)
            taus = positional_strategies(arena, Player.BOB)
            return {
                start: Player.ALICE
                if any(
                    all(lasso_accepted(arena, start, sg, t) for t in taus)
                    for sg in sigmas
                )
                else Player.BOB
                for start in arena.nodes
            }

        for _ in range(150):
            arena = random_arena(rng, max_nodes=3, max_out=2, colors=("x", "y"))
            assert solve_energy_game(arena, cond).winners == oracle(arena)

        # exhaustive over every 1- and 2-node arena with <= 2 outgoing edges
        def edge_choices(name, names):
            options = [(name, c, t) for t in names for c in ("x", "y")]
            single = [[e] for e in options]
            double = [
                [e1, e2] for i, e1 in enumerate(options) for e2 in options[i + 1 :]
            ]
            return single + double

        for names in (["m"], ["m", "n"]):
            for owners in itertools.product("AB", repeat=len(names)):
                pools = [edge_choices(name, names) for name in names]
                for picks in itertools.product(*pools):
                    lines = [
                        f"node {x} {o}" for x, o in zip(names, owners)
                    ] + [
                        f"edge {s} {c} {t}" for pick in picks for s, c, t in pick
                    ]
                    arena = make_arena(lines)
                    assert solve_energy_game(arena, cond).winners == oracle(arena)

    def test_witnesses_are_uniform(self):
        # the returned strategies must win from every node of their region
        rng = random.Random(7)
        valuation = Valuation(Integers(), {"x": -1, "y": 1})
        cond = EtogCondition(valuation)
        for _ in range(40):
            arena = random_arena(rng, max_nodes=4, max_out=3, colors=("x", "y"))
            solution = solve_energy_game(arena, cond)
            sigmas = positional_strategies(arena, Player.ALICE)
            taus = positional_strategies(arena, Player.BOB)
            for start, winner in solution.winners.items():
                if winner is Player.ALICE:
                    for tau in taus:
                        lasso = play_lasso(arena, start, solution.alice_strategy, tau)
                        assert cond.up_member(lasso.up_word())
                else:
                    for sigma in sigmas:
                        lasso = play_lasso(arena, start, sigma, solution.bob_strategy)
                        assert not cond.up_member(lasso.up_word())

    def test_parity_consistency_small(self):
        rng = random.Random(21)
        cond = parity_condition(3)
        for _ in range(25):
            arena = random_arena(rng, max_nodes=4, max_out=2, colors=("1", "2", "3"))
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
                                for c in play_lasso(arena, start, sg, t).cycle_colors
                            )
                            % 2
                            == 1
                            for t in taus
                        )
                        for sg in sigmas
                    )
                    else Player.BOB
                )
                assert solution.winners[start] == expected


def lasso_replay_solution(arena, cond):
    """Reference solver: one ``play_lasso`` per (sigma, tau, start), judged by
    ``up_member`` on the whole lasso, with the witnesses picked as the first
    strategies in enumeration order that win on their player's region."""
    sigmas = positional_strategies(arena, Player.ALICE)
    taus = positional_strategies(arena, Player.BOB)
    alice_wins = {
        (i, j, start): cond.up_member(play_lasso(arena, start, sigma, tau).up_word())
        for i, sigma in enumerate(sigmas)
        for j, tau in enumerate(taus)
        for start in arena.nodes
    }
    wins_by_sigma = [
        {s for s in arena.nodes if all(alice_wins[i, j, s] for j in range(len(taus)))}
        for i in range(len(sigmas))
    ]
    wins_by_tau = [
        {s for s in arena.nodes if not any(alice_wins[i, j, s] for i in range(len(sigmas)))}
        for j in range(len(taus))
    ]
    alice_region = set().union(*wins_by_sigma)
    bob_region = set(arena.nodes) - alice_region
    winners = {
        s: Player.ALICE if s in alice_region else Player.BOB for s in arena.nodes
    }
    alice = next(sg for sg, won in zip(sigmas, wins_by_sigma) if won == alice_region)
    bob = next(t for t, won in zip(taus, wins_by_tau) if won == bob_region)
    return winners, alice, bob


def differential_arena(rng, colors, owners, max_nodes=7, max_pairs=256):
    """At most ``max_nodes`` nodes of out-degree 1 to 3 and at most
    ``max_pairs`` positional pairs; ``owners`` is "A", "B" or "AB" (random
    owner per node).  In about half of the arenas the first edge of n0 is a
    self-loop."""
    while True:
        degrees = [rng.randint(1, 3) for _ in range(rng.randint(1, max_nodes))]
        if math.prod(degrees) <= max_pairs:
            break
    names = [f"n{i}" for i in range(len(degrees))]
    lines = [f"node {x} {rng.choice(owners)}" for x in names]
    for name, degree in zip(names, degrees):
        for _ in range(degree):
            lines.append(f"edge {name} {rng.choice(colors)} {rng.choice(names)}")
    if rng.random() < 0.5:
        lines[len(names)] = f"edge n0 {rng.choice(colors)} n0"
    return make_arena(lines)


class TestSolverAgainstLassoReplay:
    @pytest.mark.parametrize(
        "cond",
        [EtogCondition(SUITE["int"]), EtogCondition(FREE_VAL), parity_condition(3)],
        ids=["int", "free", "parity"],
    )
    def test_winners_and_witnesses_match(self, cond):
        rng = random.Random(2024)
        shapes = set()
        for owners in ["AB"] * 60 + ["A"] * 10 + ["B"] * 10:
            arena = differential_arena(rng, cond.colors, owners)
            winners, alice, bob = lasso_replay_solution(arena, cond)
            solution = solve_energy_game(arena, cond)
            assert solution.winners == winners
            assert solution.alice_strategy.choice == alice.choice
            assert solution.bob_strategy.choice == bob.choice
            if not arena.alice_nodes:
                shapes.add("no-alice")
            elif not arena.bob_nodes:
                shapes.add("no-bob")
            else:
                shapes.add("mixed")
            if any(e.source == e.target for e in arena.edges):
                shapes.add("self-loop")
        assert shapes == {"no-alice", "no-bob", "mixed", "self-loop"}


def full_pair_solution(arena, cond):
    """Reference solver: ``solve_energy_game`` as it was before it skipped
    pairs, walking every (sigma, tau) pair once and folding every mask."""
    if isinstance(cond, UnionCondition):
        raise ValueError(
            "union conditions have no exact positional solver; "
            "use verify_union_strategy for a bounded verdict"
        )
    if not isinstance(cond, EtogCondition):
        raise TypeError(f"expected an energy condition, got {type(cond).__name__}")
    missing = arena.colors - set(cond.colors)
    if missing:
        raise UnknownColorError(f"arena colors outside the condition alphabet: {sorted(missing)}")

    sigmas = positional_strategies(arena, Player.ALICE)
    taus = positional_strategies(arena, Player.BOB)
    nodes = arena.nodes  # Alice's nodes first, so a pair's moves concatenate
    size = len(nodes)
    index = {node: i for i, node in enumerate(nodes)}

    def moves(strategy, owned):
        edges = [strategy.choice[node] for node in owned]
        return [index[e.target] for e in edges], [e.color for e in edges]

    sigma_moves = [moves(sigma, arena.alice_nodes) for sigma in sigmas]
    tau_moves = [moves(tau, arena.bob_nodes) for tau in taus]
    member_cache: dict[tuple[str, ...], bool] = {}
    everyone = (1 << size) - 1
    wins_by_sigma = [everyone] * len(sigmas)
    beaten_by_tau = [0] * len(taus)

    # Under a positional pair every node has one successor, so the play from
    # any start runs into a cycle of the successor graph.  A start that enters
    # a cycle at another node repeats a rotation of the same period; its value
    # is a conjugate of the period's value, and a bi-invariant order keeps the
    # sign under conjugation.  So one membership call per cycle decides every
    # start that reaches it, and one walk per pair decides every start.
    # mark[v] is -1 before v is reached, the start's index while v lies on
    # the current walk, and LOST or WON once v's play is decided.
    LOST, WON = size, size + 1
    for i, (a_next, a_colors) in enumerate(sigma_moves):
        for j, (b_next, b_colors) in enumerate(tau_moves):
            succ = a_next + b_next
            mark = [-1] * size
            mask = 0
            for start in range(size):
                if mark[start] >= 0:
                    continue
                path = []
                node = start
                while mark[node] < 0:
                    mark[node] = start
                    path.append(node)
                    node = succ[node]
                outcome = mark[node]
                if outcome == start:  # the walk closed a new cycle at node
                    colors = a_colors + b_colors
                    cycle = tuple(colors[v] for v in path[path.index(node) :])
                    hit = member_cache.get(cycle)
                    if hit is None:
                        hit = cond.up_member(UPWord((), cycle))
                        member_cache[cycle] = hit
                    outcome = WON if hit else LOST
                for v in path:
                    mark[v] = outcome
                if outcome == WON:
                    for v in path:
                        mask |= 1 << v
            wins_by_sigma[i] &= mask
            beaten_by_tau[j] |= mask

    alice_region = 0
    for region in wins_by_sigma:
        alice_region |= region
    winners = {
        node: Player.ALICE if alice_region >> i & 1 else Player.BOB
        for i, node in enumerate(nodes)
    }
    # a tau wins exactly where no sigma beats it, so its region is Bob's
    # whole region when the starts it loses are Alice's whole region
    alice_witness = next(
        (s for s, region in zip(sigmas, wins_by_sigma) if region == alice_region), None
    )
    bob_witness = next(
        (t for t, beaten in zip(taus, beaten_by_tau) if beaten == alice_region), None
    )
    if alice_witness is None or bob_witness is None:
        # cannot happen for an energy condition; means the condition is not
        # positionally determined after all
        raise RuntimeError("no uniform positional witness exists")
    return Solution(winners, alice_witness, bob_witness)


def simple_cycles(arcs):
    """Every simple cycle once, as its arcs from its least node, where
    ``arcs[v]`` holds the arcs out of node v: a depth-first search from each
    node s follows arcs into nodes above s that are not on the current path
    and yields the path whenever an arc closes it back at s."""
    for least in range(len(arcs)):
        path = []
        on_path = 1 << least
        stack = [iter(arcs[least])]
        while stack:
            arc = next(stack[-1], None)
            if arc is None:
                stack.pop()
                if path:
                    on_path ^= 1 << path.pop()[2]
                continue
            target = arc[2]
            if target == least:
                yield (*path, arc)
            elif target > least and not on_path >> target & 1:
                path.append(arc)
                on_path |= 1 << target
                stack.append(iter(arcs[target]))


def lost_starts(choice, cycles, preds):
    """The starts one positional strategy loses, as a node mask: the
    backward closure, in the arena cut to ``choice``, of the nodes of the
    cycles the opponent wins whose edges it chooses.  ``cycles`` maps the
    strategy's player's edges on such cycles to their nodes, and
    ``preds[v]`` holds the opponent's nodes with an edge into v."""
    preds = list(preds)
    chosen = 0
    for bit, source, target in choice:
        chosen |= bit
        preds[target] |= source
    lost = 0
    for edges, nodes in cycles.items():
        if chosen & edges == edges:
            lost |= nodes
    frontier = lost
    while frontier:
        low = frontier & -frontier
        frontier ^= low
        new = preds[low.bit_length() - 1] & ~lost
        lost |= new
        frontier |= new
    return lost


def cycle_fold_solution(arena, cond):
    """Reference solver: ``solve_energy_game`` as it was before the
    first-cycle search.  A positional strategy loses from v exactly when the
    arena cut to its edges reaches from v a simple cycle its player loses, so
    the simple cycles are listed once, each strategy's lost starts are a
    backward closure, and the smaller side is folded in full: the starts all
    of its strategies lose are the other side's region.  Each witness is the
    first strategy in enumeration order that loses exactly the other
    player's region.  An arc is (1 << edge index, 1 << source, target)."""
    nodes = arena.nodes  # Alice's nodes first
    index = {node: i for i, node in enumerate(nodes)}
    alices = len(arena.alice_nodes)
    arcs = [[] for _ in nodes]
    preds = ([0] * len(nodes), [0] * len(nodes))
    lost_to = ({}, {})  # per player: its edges on a cycle it loses -> the cycles' nodes
    for edge in arena.edges:
        source, target = index[edge.source], index[edge.target]
        arcs[source].append((1 << edge.index, 1 << source, target))
        preds[source >= alices][target] |= 1 << source
    member = {}
    for cycle in simple_cycles(arcs):
        edges, on_cycle = [0, 0], 0
        for bit, source, _ in cycle:
            edges[source >= 1 << alices] |= bit
            on_cycle |= source
        colors = tuple(arena.edges[bit.bit_length() - 1].color for bit, _, _ in cycle)
        if colors not in member:
            member[colors] = cond.up_member(UPWord((), colors))
        loser = int(member[colors])
        lost_to[loser][edges[loser]] = lost_to[loser].get(edges[loser], 0) | on_cycle
    owned_arcs = (arcs[:alices], arcs[alices:])

    def analyse(player):
        for choice in itertools.product(*owned_arcs[player]):
            yield choice, lost_starts(choice, lost_to[player], preds[1 - player])

    sizes = [math.prod(map(len, choices)) for choices in owned_arcs]
    small = int(sizes[1] < sizes[0])
    analysed = list(analyse(small))
    regions = [(1 << len(nodes)) - 1] * 2
    for _, lost in analysed:
        regions[1 - small] &= lost
    regions[small] ^= regions[1 - small]
    witnesses = []
    for player in (0, 1):
        scanned = analysed if player == small else analyse(player)
        witnesses.append(next(c for c, lost in scanned if lost == regions[1 - player]))
    winners = {v: Player.ALICE if regions[0] >> i & 1 else Player.BOB for i, v in enumerate(nodes)}
    alice, bob = (
        PositionalStrategy(
            owner, {v: arena.edges[arc[0].bit_length() - 1] for v, arc in zip(own, c)}
        )
        for owner, own, c in zip(Player, (arena.alice_nodes, arena.bob_nodes), witnesses)
    )
    return Solution(winners, alice, bob)


ZERO_INT = Valuation(Integers(), {"x": 0, "y": 0})


def full_pair_arenas(cond):
    """The random arenas the solver is checked on against the full pair walk."""
    rng = random.Random(2610)
    for owners in ["AB"] * 50 + ["A"] * 10 + ["B"] * 10:
        yield differential_arena(rng, cond.colors, owners, max_nodes=10, max_pairs=4096)


FULL_PAIR_CONDITIONS = pytest.mark.parametrize(
    "cond",
    [
        EtogCondition(SUITE["int"]),
        EtogCondition(FREE_VAL),
        parity_condition(3),
        EtogCondition(SUITE["inv-free"]),
        # every cycle has value e, so every sigma wins the same starts
        EtogCondition(ZERO_INT),
    ],
    ids=["int", "free", "parity", "inv-free", "zero-int"],
)

# Work the solver does, summed over full_pair_arenas: first-cycle searches run
# (one per start and one per tested witness edge) and membership calls made.
# A solver that tests every candidate edge, or that re-solves more than the
# fixed node, searches more and still answers right.
SOLVER_WORK = {
    "int": (574, 289),
    "free": (548, 264),
    "parity": (589, 247),
    "inv-free": (565, 272),
    "zero-int": (523, 239),
}

# 14-node arenas of out-degree 2, too many pairs for the other differential
# tests: (condition, seed of random_two_out_arena).  Alice owns 8, 6 and 7
# nodes.
TWO_OUT_ARENAS = [
    (EtogCondition(SUITE["int"]), 5),
    (EtogCondition(FREE_VAL), 6),
    (parity_condition(3), 11),
]

# 2-out arenas of 14 to 24 nodes, too many pairs for the full pair walk:
# (condition, seed and size of random_two_out_arena)
FOLD_CONDITIONS = [EtogCondition(SUITE["int"]), EtogCondition(FREE_VAL), parity_condition(3)]
FOLD_ARENAS = [(FOLD_CONDITIONS[seed % 3], seed, 14 + seed % 11) for seed in range(36)]


def random_two_out_arena(seed, colors, size=14):
    rng = random.Random(seed)
    names = [f"n{i}" for i in range(size)]
    lines = [f"node {x} {rng.choice('AB')}" for x in names]
    for name in names:
        for _ in range(2):
            lines.append(f"edge {name} {rng.choice(colors)} {rng.choice(names)}")
    return make_arena(lines)


def assert_same_solution(solution, expected):
    assert solution.winners == expected.winners
    assert solution.alice_strategy.choice == expected.alice_strategy.choice
    assert solution.bob_strategy.choice == expected.bob_strategy.choice


class TestSolverAgainstFullPairWalk:
    @FULL_PAIR_CONDITIONS
    def test_winners_and_witnesses_match(self, cond):
        for arena in full_pair_arenas(cond):
            assert_same_solution(solve_energy_game(arena, cond), full_pair_solution(arena, cond))

    @FULL_PAIR_CONDITIONS
    def test_each_cycle_decided_once_per_call(self, cond, monkeypatch):
        # the solver refuses wrapped conditions, so membership is recorded
        # on the class: no period is asked twice in one call, and each answer
        # is that of an uncached call
        uncached = EtogCondition.up_member
        calls = []

        def recording(self, word):
            answer = uncached(self, word)
            calls.append((word, answer))
            return answer

        monkeypatch.setattr(EtogCondition, "up_member", recording)
        asked = 0
        for arena in full_pair_arenas(cond):
            calls.clear()
            solve_energy_game(arena, cond)
            periods = [word.period for word, _ in calls]
            assert len(periods) == len(set(periods))
            for word, answer in calls:
                assert answer is uncached(cond, UPWord((), word.period))
            asked += len(calls)
        assert asked

    @FULL_PAIR_CONDITIONS
    def test_pairs_walked_stay_pinned(self, cond, request, monkeypatch):
        # no strategy is enumerated, so the work is the first-cycle searches
        # and the membership calls they make
        searches = calls = 0
        search, uncached = games._alice_wins, EtogCondition.up_member

        def counting_search(*args):
            nonlocal searches
            searches += 1
            return search(*args)

        def counting_member(self, word):
            nonlocal calls
            calls += 1
            return uncached(self, word)

        monkeypatch.setattr(games, "_alice_wins", counting_search)
        monkeypatch.setattr(EtogCondition, "up_member", counting_member)
        for arena in full_pair_arenas(cond):
            solve_energy_game(arena, cond)
        assert (searches, calls) == SOLVER_WORK[request.node.callspec.id]

    @FULL_PAIR_CONDITIONS
    def test_a_first_candidate_edge_fails_its_test(self, cond):
        # a witness node of its player's region takes a later edge into the
        # region only when the first one failed its search, so the greedy
        # witness search is exercised for both players; under ZERO_INT Alice
        # loses every cycle and every edge keeps Bob's region
        refused = set()
        for arena in full_pair_arenas(cond):
            solution = solve_energy_game(arena, cond)
            for strategy in (solution.alice_strategy, solution.bob_strategy):
                owner = strategy.owner
                for node, edge in strategy.choice.items():
                    into_region = [
                        e for e in arena.out_edges[node] if solution.winners[e.target] is owner
                    ]
                    if solution.winners[node] is owner and edge is not into_region[0]:
                        refused.add(owner)
        assert refused == (set() if cond.valuation is ZERO_INT else {Player.ALICE, Player.BOB})

    @pytest.mark.parametrize("cond, seed", TWO_OUT_ARENAS, ids=["int", "free", "parity"])
    def test_two_out_arenas_of_14_nodes(self, cond, seed):
        arena = random_two_out_arena(seed, cond.colors)
        solution = solve_energy_game(arena, cond)
        assert_same_solution(solution, full_pair_solution(arena, cond))
        # both players win somewhere, so neither region is trivial
        assert set(solution.winners.values()) == {Player.ALICE, Player.BOB}


class TestSolverAgainstCycleFold:
    def test_two_out_arenas_of_14_to_24_nodes(self):
        shapes = Counter()
        for cond, seed, size in FOLD_ARENAS:
            arena = random_two_out_arena(seed, cond.colors, size)
            solution = solve_energy_game(arena, cond)
            assert_same_solution(solution, cycle_fold_solution(arena, cond))
            shapes[len(set(solution.winners.values()))] += 1
        # some arenas are won by one player throughout, some are split
        assert set(shapes) == {1, 2}

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_two_out_free_arenas_of_30_nodes(self, seed):
        arena = random_two_out_arena(seed, FREE_VAL.colors, 30)
        cond = EtogCondition(FREE_VAL)
        assert_same_solution(solve_energy_game(arena, cond), cycle_fold_solution(arena, cond))


class TestUnionVerification:
    def test_positional_left_beaten_by_memory_two(self, refutation_arena):
        left = next(e for e in refutation_arena.out_edges["sq"] if e.target == "lc")
        sigma = PositionalStrategy(Player.ALICE, {"sq": left})
        verdict = verify_union_strategy(refutation_arena, UNION, "sq", sigma, 2)
        assert not verdict.wins_within_bound
        assert verdict.beating_lasso.cycle_colors == ("eps", "a", "eps", "a^-1")
        assert FREE_VAL.val_word(verdict.beating_lasso.cycle_colors) == FreeWord()
        # the returned machine must reproduce the beating play exactly
        replay = play_lasso(refutation_arena, "sq", sigma, verdict.beating_strategy)
        assert replay.cycle_colors == verdict.beating_lasso.cycle_colors

    def test_positional_right_beaten_by_memory_two(self, refutation_arena):
        right = next(e for e in refutation_arena.out_edges["sq"] if e.target == "rc")
        sigma = PositionalStrategy(Player.ALICE, {"sq": right})
        verdict = verify_union_strategy(refutation_arena, UNION, "sq", sigma, 2)
        assert not verdict.wins_within_bound
        assert verdict.beating_lasso.cycle_colors == ("eps", "b", "eps", "b^-1")

    def test_a_verdict_wins_exactly_when_it_holds_no_beating_lasso(self, refutation_arena):
        names = [field.name for field in fields(games.UnionVerdict)]
        assert names == ["machines_checked", "beating_strategy", "beating_lasso"]
        assert games.UnionVerdict(5).wins_within_bound
        sigma = positional_strategies(refutation_arena, Player.ALICE)[0]
        beaten = verify_union_strategy(refutation_arena, UNION, "sq", sigma, 2)
        verdict = games.UnionVerdict(3, beaten.beating_strategy, beaten.beating_lasso)
        assert not verdict.wins_within_bound

    def test_alternating_alice_wins_within_bound_three(self, refutation_arena):
        sigma = alternating_strategy(refutation_arena, "sq")
        verdict = verify_union_strategy(refutation_arena, UNION, "sq", sigma, 3)
        assert verdict.wins_within_bound
        assert verdict.machines_checked > 0

    def test_every_winning_cycle_is_nonidentity_reduced(self, refutation_arena):
        # alternation forces a-letters and b-letters to interleave, so no
        # opponent behaviour can cancel the cycle value back to the identity
        sigma = alternating_strategy(refutation_arena, "sq")
        verdict = verify_union_strategy(refutation_arena, UNION, "sq", sigma, 2)
        assert verdict.wins_within_bound

    def test_bound_validation(self, refutation_arena):
        sigma = alternating_strategy(refutation_arena, "sq")
        with pytest.raises(ValueError):
            verify_union_strategy(refutation_arena, UNION, "sq", sigma, 0)

    def test_one_player_arena_nonzero_cycle_wins(self):
        # with no opponent nodes the union is positionally winnable exactly
        # when the chosen cycle has non-identity value
        arena = parse_arena(
            "node s A\nnode t A\nedge s eps t\nedge t a s\nedge t a^-1 s\n",
            alphabet=FREE_VAL.colors,
        )
        good = PositionalStrategy(
            Player.ALICE,
            {
                "s": arena.out_edges["s"][0],
                "t": next(e for e in arena.out_edges["t"] if e.color == "a"),
            },
        )
        verdict = verify_union_strategy(arena, UNION, "s", good, 3)
        assert verdict.wins_within_bound

    def test_one_player_arena_zero_cycle_loses(self):
        arena = parse_arena(
            "node s A\nedge s eps s\n",
            alphabet=FREE_VAL.colors,
        )
        stuck = PositionalStrategy(Player.ALICE, {"s": arena.edges[0]})
        verdict = verify_union_strategy(arena, UNION, "s", stuck, 2)
        assert not verdict.wins_within_bound


# (wins_within_bound, machines_checked, beating cycle colors) per (Alice
# strategy, memory bound) on the refutation arena
REFUTATION_VERDICTS = {
    ("positional-0", 1): (True, 2, None),
    ("positional-1", 1): (True, 2, None),
    ("alternating", 1): (True, 4, None),
    ("positional-0", 2): (False, 5, ("eps", "a", "eps", "a^-1")),
    ("positional-1", 2): (False, 5, ("eps", "b", "eps", "b^-1")),
    ("alternating", 2): (True, 448, None),
}

# the same triple for 30 draws of (random arena of at most 4 nodes, positional
# Alice strategy, start node, memory bound 1..3) from random.Random(7)
RANDOM_VERDICTS = [
    (True, 1, None),
    (True, 6, None),
    (True, 304, None),
    (True, 1, None),
    (True, 2, None),
    (True, 2, None),
    (False, 1, ("eps",)),
    (True, 1, None),
    (True, 1, None),
    (False, 1, ("eps", "eps")),
    (True, 3, None),
    (True, 140, None),
    (False, 2, ("a", "a^-1")),
    (True, 6, None),
    (True, 3, None),
    (True, 3, None),
    (True, 1, None),
    (True, 47, None),
    (True, 1, None),
    (True, 226, None),
    (True, 1, None),
    (False, 6, ("a", "a^-1")),
    (True, 3, None),
    (True, 6, None),
    (False, 1, ("eps",)),
    (True, 3, None),
    (True, 47, None),
    (True, 47, None),
    (True, 28, None),
    (False, 1, ("eps",)),
]


def verdict_summary(verdict):
    cycle = None if verdict.beating_lasso is None else verdict.beating_lasso.cycle_colors
    return verdict.wins_within_bound, verdict.machines_checked, cycle


class RecordingCondition:
    """Passes membership through to a condition and records each call."""

    def __init__(self, cond):
        self.cond = cond
        self.colors = cond.colors
        self.calls = []

    def up_member(self, word):
        answer = self.cond.up_member(word)
        self.calls.append((word, answer))
        return answer


def random_union_draws():
    """(arena, positional Alice strategy, start, memory bound) for each draw
    behind RANDOM_VERDICTS, in order."""
    rng = random.Random(7)
    for _ in RANDOM_VERDICTS:
        arena = random_arena(rng, max_nodes=4, max_out=2, colors=FREE_VAL.colors)
        sigma = rng.choice(positional_strategies(arena, Player.ALICE))
        start = rng.choice(arena.nodes)
        yield arena, sigma, start, rng.randint(1, 3)


class TestUnionVerifierCharacterisation:
    """Pins the enumeration order: machine counts and the first beating
    machine must not move under a refactor of the verifier."""

    @pytest.mark.parametrize("case", sorted(REFUTATION_VERDICTS))
    def test_refutation_arena(self, refutation_arena, case):
        label, memory = case
        if label == "alternating":
            alice = alternating_strategy(refutation_arena, "sq")
        else:
            alice = positional_strategies(refutation_arena, Player.ALICE)[int(label[-1])]
        verdict = verify_union_strategy(refutation_arena, UNION, "sq", alice, memory)
        assert verdict_summary(verdict) == REFUTATION_VERDICTS[case]

    def test_random_arenas(self):
        observed = []
        for arena, sigma, start, memory in random_union_draws():
            verdict = verify_union_strategy(arena, UNION, start, sigma, memory)
            observed.append(verdict_summary(verdict))
            if not verdict.wins_within_bound:
                # the returned machine is complete and replays the beating play
                replay = play_lasso(arena, start, sigma, verdict.beating_strategy)
                assert replay == verdict.beating_lasso
        assert observed == RANDOM_VERDICTS

    def test_each_cycle_decided_once_and_as_the_whole_lasso(
        self, refutation_arena, monkeypatch
    ):
        # every completed play is judged through the verifier's membership
        # cache; its answer must equal an uncached call on the whole lasso.
        # The reference enumerates the same plays in the same order (see
        # TestUnionVerifierAgainstReplay) and records each completed one.
        built = []

        def counting_lasso(stem, cycle):
            built.append(Lasso(stem, cycle))
            return built[-1]

        alternating = alternating_strategy(refutation_arena, "sq")
        cases = [(refutation_arena, alternating, "sq", 2), *random_union_draws()]
        pinned = [REFUTATION_VERDICTS[("alternating", 2)], *RANDOM_VERDICTS]
        for (arena, alice, start, memory), expected in zip(cases, pinned, strict=True):
            completed = []
            replay_union_verdict(arena, UNION, start, alice, memory, completed)
            built.clear()
            recorder = RecordingCondition(UNION)
            with monkeypatch.context() as patch:
                patch.setattr(games, "Lasso", counting_lasso)
                verdict = verify_union_strategy(arena, recorder, start, alice, memory)
            assert verdict_summary(verdict) == expected
            assert len(completed) == verdict.machines_checked
            cycles = [word.period for word, _ in recorder.calls]
            assert len(cycles) == len(set(cycles))
            assert set(cycles) == {lasso.cycle_colors for lasso in completed}
            decided = {word.period: answer for word, answer in recorder.calls}
            for lasso in completed:
                assert decided[lasso.cycle_colors] == UNION.up_member(lasso.up_word())
            if not verdict.wins_within_bound:
                assert completed[-1] == verdict.beating_lasso
                assert not decided[verdict.beating_lasso.cycle_colors]
            # a lasso is built for the beating play only
            assert built == ([] if verdict.wins_within_bound else [verdict.beating_lasso])

    @pytest.mark.parametrize("memory", [2, 3, 4, 200])
    def test_deep_bound_beats_positional_left(self, refutation_arena, memory):
        # positional-0 is beaten after m^2 + m - 1 machines, at a deep bound too
        alice = positional_strategies(refutation_arena, Player.ALICE)[0]
        verdict = verify_union_strategy(refutation_arena, UNION, "sq", alice, memory)
        assert not verdict.wins_within_bound
        assert verdict.machines_checked == memory**2 + memory - 1
        assert verdict.beating_lasso.cycle_colors == ("eps", "a", "eps", "a^-1")
        assert play_lasso(refutation_arena, "sq", alice, verdict.beating_strategy) == (
            verdict.beating_lasso
        )

    def test_play_deciding_more_entries_than_the_recursion_limit(self):
        # every step of this one-player play decides a move and an update, so
        # its 2,000 entries are decided on one branch before the first play
        # completes; its cycle has the identity value and beats Alice at once
        size = 1000
        arena = make_arena(
            [f"node v{i} B" for i in range(size)]
            + [f"edge v{i} eps v{(i + 1) % size}" for i in range(size)]
        )
        alice = PositionalStrategy(Player.ALICE, {})
        verdict = verify_union_strategy(arena, UNION, "v0", alice, 1)
        assert not verdict.wins_within_bound and verdict.machines_checked == 1
        assert verdict.beating_lasso.cycle_colors == ("eps",) * size

    def test_missing_machine_entry_is_an_arena_error(self, refutation_arena):
        lc_a = refutation_arena.out_edges["lc"][0]
        bob = MealyStrategy(Player.BOB, (0,), 0, {(0, "lc"): lc_a}, {})
        with pytest.raises(ArenaError, match=r"^no move for state 0 at node 'rc'$"):
            bob.move(0, "rc")
        with pytest.raises(ArenaError, match=r"^no update for state 0 on edge 2$"):
            bob.advance(0, lc_a)

    def test_unknown_start_node(self, refutation_arena):
        alice = alternating_strategy(refutation_arena, "sq")
        with pytest.raises(ArenaError, match=r"^unknown start node 'zz'$"):
            verify_union_strategy(refutation_arena, UNION, "zz", alice, 2)

    def test_incomplete_alice_machine_is_reported_not_enumerated(self, refutation_arena):
        alternating = alternating_strategy(refutation_arena, "sq")
        alice = MealyStrategy(
            Player.ALICE, alternating.states, "first", alternating.moves, {}
        )
        with pytest.raises(ArenaError, match=r"^no update for state 'first' on edge 0$"):
            verify_union_strategy(refutation_arena, UNION, "sq", alice, 2)

    def test_alice_machine_missing_a_move_is_reported_not_enumerated(self, refutation_arena):
        # the second visit to sq needs the move of state 'second', left out
        alternating = alternating_strategy(refutation_arena, "sq")
        moves = {key: edge for key, edge in alternating.moves.items() if key[0] == "first"}
        alice = MealyStrategy(
            Player.ALICE, alternating.states, "first", moves, alternating.updates
        )
        message = r"^no move for state 'second' at node 'sq'$"
        with pytest.raises(MissingMachineEntryError, match=message):
            verify_union_strategy(refutation_arena, UNION, "sq", alice, 2)
        with pytest.raises(MissingMachineEntryError, match=message):
            replay_union_verdict(refutation_arena, UNION, "sq", alice, 2)

    def test_positional_alice_missing_a_choice_is_reported_not_enumerated(
        self, refutation_arena
    ):
        alice = PositionalStrategy(Player.ALICE, {})
        message = r"^no move at node 'sq'$"
        with pytest.raises(MissingMachineEntryError, match=message):
            verify_union_strategy(refutation_arena, UNION, "sq", alice, 2)
        with pytest.raises(MissingMachineEntryError, match=message):
            replay_union_verdict(refutation_arena, UNION, "sq", alice, 2)


class Undecided(Exception):
    """A Bob entry that a play needs and the reference has not decided yet;
    its arguments are the table and the key."""


class BobTable(dict):
    """One table of the reference's Bob machine; a lookup of a key it lacks
    raises :class:`Undecided`."""

    def __missing__(self, key):
        raise Undecided(self, key)


def replay_union_verdict(arena, cond, start, alice, bound, completed=None):
    """Reference verifier: the enumeration of ``verify_union_strategy`` with
    every play run again from the start node by ``play_lasso`` after each
    undecided Bob entry, and every completed play judged without a cache.
    Returns (wins, machines, beating tables, beating lasso), and appends each
    completed play's lasso to ``completed`` when it is given.  A missing entry
    of Alice's strategy raises the library's ``MissingMachineEntryError``."""
    moves, updates = BobTable(), BobTable()
    bob = MealyStrategy(Player.BOB, tuple(range(bound)), 0, moves, updates)
    machines = 0

    def explore():
        nonlocal machines
        try:
            lasso = play_lasso(arena, start, alice, bob)
        except Undecided as undecided:
            table, key = undecided.args
            if table is moves:
                options = arena.out_edges[key[1]]
            else:
                used = 1 + max(updates.values(), default=0)
                options = range(min(used + 1, bound))
            for option in options:
                table[key] = option
                lasso = explore()
                if lasso is not None:
                    return lasso
                del table[key]
            return None
        machines += 1
        if completed is not None:
            completed.append(lasso)
        return None if cond.up_member(lasso.up_word()) else lasso

    lasso = explore()
    if lasso is None:
        return True, machines, None, None
    states = tuple(range(1 + max(updates.values(), default=0)))
    for state in states:
        for node in arena.bob_nodes:
            moves.setdefault((state, node), arena.out_edges[node][0])
        for edge in arena.edges:
            updates.setdefault((state, edge), state)
    return False, machines, (states, dict(moves), dict(updates)), lasso


def union_verdict_tables(verdict):
    machine = verdict.beating_strategy
    tables = None if machine is None else (machine.states, machine.moves, machine.updates)
    return verdict.wins_within_bound, verdict.machines_checked, tables, verdict.beating_lasso


def random_alice_machine(rng, arena):
    """A random Alice Mealy machine with two or three states."""
    states = tuple(range(rng.randint(2, 3)))
    moves = {(s, n): rng.choice(arena.out_edges[n]) for s in states for n in arena.alice_nodes}
    updates = {(s, e): rng.choice(states) for s in states for e in arena.edges}
    return MealyStrategy(Player.ALICE, states, 0, moves, updates)


# (seed, draws, max_nodes, max_out) of the random Alice machine draws; at
# most 3 nodes at out-degree 3: at 4, one draw of seed 1500 checks 261,483
# machines
ALICE_MACHINE_DRAWS = {"out-degree-three": (1500, 100, 3, 3), "out-degree-two": (2026, 200, 4, 2)}


def random_alice_machine_draws(seed, draws, max_nodes, max_out):
    """(arena, random Alice machine, start, memory bound 1..3) per draw."""
    rng = random.Random(seed)
    for _ in range(draws):
        arena = random_arena(rng, max_nodes, max_out, colors=FREE_VAL.colors)
        alice = random_alice_machine(rng, arena)
        yield arena, alice, rng.choice(arena.nodes), rng.randint(1, 3)


class TestUnionVerifierAgainstReplay:
    """The verifier resumes its play from the step that decided an entry;
    the reference plays again from the start node.  Both must enumerate the
    same machines in the same order."""

    def check(self, arena, alice, start, memory):
        verdict = verify_union_strategy(arena, UNION, start, alice, memory)
        reference = replay_union_verdict(arena, UNION, start, alice, memory)
        assert union_verdict_tables(verdict) == reference
        return verdict

    @pytest.mark.parametrize("memory", [1, 2])
    def test_refutation_arena(self, refutation_arena, memory):
        alices = [
            *positional_strategies(refutation_arena, Player.ALICE),
            alternating_strategy(refutation_arena, "sq"),
        ]
        for alice in alices:
            self.check(refutation_arena, alice, "sq", memory)

    def test_random_union_draws(self):
        for arena, sigma, start, memory in random_union_draws():
            self.check(arena, sigma, start, memory)

    def test_shipped_arena_at_memory_three(self):
        arena = games.load_arena(shipped_arena_path(), FREE_VAL.colors)
        alices = [
            *positional_strategies(arena, Player.ALICE),
            alternating_strategy(arena, "sq"),
        ]
        verdicts = [self.check(arena, alice, "sq", 3) for alice in alices]
        assert [v.machines_checked for v in verdicts] == [11, 11, 84404]

    def test_random_alice_machines_out_degree_three(self):
        outcomes = set()
        draws = ALICE_MACHINE_DRAWS["out-degree-three"]
        for arena, alice, start, memory in random_alice_machine_draws(*draws):
            verdict = self.check(arena, alice, start, memory)
            outcomes.add(verdict.wins_within_bound)
        assert outcomes == {True, False}

    def test_random_alice_machines(self):
        outcomes = set()
        draws = ALICE_MACHINE_DRAWS["out-degree-two"]
        for arena, alice, start, memory in random_alice_machine_draws(*draws):
            verdict = self.check(arena, alice, start, memory)
            outcomes.add(verdict.wins_within_bound)
        assert outcomes == {True, False}


def benois_beating_walk(arena, valuation, start, alice):
    """Exact reference decider for the union of the free-group energy
    condition over ``valuation`` and its inverse-order twin, against Bob
    strategies of any memory.  Returns ``None`` when Alice's finite-memory
    strategy wins from ``start``, or the stem and the cycle of a beating
    play, as arena edges.

    A lasso lies outside the union exactly when its cycle has value e, so
    Bob beats Alice exactly when the product of the arena and her machine
    has a non-empty closed walk of value e, reachable from the start: Bob
    walks to it and repeats it, with one state per step.  Each product edge
    becomes one letter edge per letter of its colour's image (an e-edge for
    e), and the relation "a walk from p to q of value e" is saturated, after
    Benois (*Parties rationnelles du groupe libre*, 1969), under four rules:
    the diagonal; an e-edge extends a pair; pairs compose; an edge labelled
    x, then a pair, then an edge labelled x^-1, gives a pair.  A witness is
    a letter edge out of a product vertex q labelled l, followed by a walk
    back to q of value l^-1: a pair for an e-edge, and for a letter x a
    pair, an edge labelled x^-1 and a pair.
    """
    # the product vertices reachable from the start, each with a shortest
    # stem of arena edges, and the product edges between them
    root = (start, alice.initial_state())
    stems = {root: ()}
    product = []
    queue = [root]
    for vertex in queue:
        node, state = vertex
        options = [alice.move(state, node)] if node in arena.alice_nodes else arena.out_edges[node]
        for edge in options:
            target = (edge.target, alice.advance(state, edge))
            product.append((vertex, edge, target))
            if target not in stems:
                stems[target] = stems[vertex] + (edge,)
                queue.append(target)
    # letter edges (source, letter or None for e, target, the arena edge a
    # product edge's last letter edge completes, else None)
    letter_edges = []
    for i, (source, edge, target) in enumerate(product):
        labels = valuation.mapping[edge.color].letters or (None,)
        hops = [source, *(("via", i, k) for k in range(1, len(labels))), target]
        for k, label in enumerate(labels):
            done = edge if k == len(labels) - 1 else None
            letter_edges.append((hops[k], label, hops[k + 1], done))
    leaving = {}
    for letter_edge in letter_edges:
        leaving.setdefault(letter_edge[0], []).append(letter_edge)

    # pair -> how it was derived; each derivation names pairs found earlier
    pairs = {(v, v): () for v in leaving}  # the diagonal: the empty walk
    while True:
        ends = {}
        for p, q in pairs:
            ends.setdefault(p, []).append(q)
        found = {}
        for p, q in pairs:
            for e in leaving[q]:  # an e-edge extends a pair
                if e[1] is None:
                    found.setdefault((p, e[2]), ("extend", (p, q), e))
            for r in ends.get(q, ()):  # pairs compose
                found.setdefault((p, r), ("compose", (p, q), (q, r)))
        for x in letter_edges:  # x, then a pair, then x^-1
            if x[1] is not None:
                for q in ends.get(x[2], ()):
                    for y in leaving[q]:
                        if y[1] == -x[1]:
                            found.setdefault((x[0], y[2]), ("wrap", x, (x[2], q), y))
        new = {pair: how for pair, how in found.items() if pair not in pairs}
        if not new:
            break
        pairs.update(new)

    def walk(pair):
        """The letter edges of the walk that ``pair`` was derived from."""
        rule, *parts = pairs[pair] or ("diagonal",)
        if rule == "extend":
            return walk(parts[0]) + [parts[1]]
        if rule == "compose":
            return walk(parts[0]) + walk(parts[1])
        if rule == "wrap":
            return [parts[0], *walk(parts[1]), parts[2]]
        return []

    def back(x, q):
        """A walk from the target of letter edge x to q whose value is the
        inverse of x's label, or None."""
        if x[1] is None:
            return walk((x[2], q)) if (x[2], q) in pairs else None
        for y in letter_edges:
            if y[1] == -x[1] and (x[2], y[0]) in pairs and (y[2], q) in pairs:
                return [*walk((x[2], y[0])), y, *walk((y[2], q))]
        return None

    for q in stems:
        for x in leaving[q]:
            rest = back(x, q)
            if rest is not None:
                closed = [x, *rest]
                return stems[q], tuple(e[3] for e in closed if e[3] is not None)
    return None


def walk_machine(arena, stem, cycle):
    """Bob's Mealy machine that plays ``stem`` and then repeats ``cycle``,
    with one state per step."""
    steps = stem + cycle
    moves, updates = {}, {}
    for i, edge in enumerate(steps):
        if edge.source in arena.bob_nodes:
            moves[(i, edge.source)] = edge
        updates[(i, edge)] = i + 1 if i + 1 < len(steps) else len(stem)
    return MealyStrategy(Player.BOB, tuple(range(len(steps))), 0, moves, updates)


# a valuation with multi-letter images, so that product edges become paths of
# letter edges, and its union with its inverse-order twin
MULTI_VAL = parse_valuation(
    "group free(a,b)\nval p = a b\nval q = b^-1 a^-1\nval r = a b^-1\nval s = e\n"
)
MULTI_UNION = UnionCondition(
    (
        EtogCondition(MULTI_VAL),
        EtogCondition(replace(MULTI_VAL, group=InverseOrder(MULTI_VAL.group))),
    )
)


class TestBenoisDeciderAgainstEnumerator:
    """The exact decider and the bounded enumerator must agree where both
    speak: a strategy that the enumerator beats with at most three Bob
    states is beaten for the decider too, so a strategy the decider proves
    winning survives every such machine; and every closed walk the decider
    returns has value e and beats Alice in replay."""

    def check(self, arena, alice, start, valuation=FREE_VAL, union=UNION):
        """(decider says Alice wins, enumerator at memory 3 says she wins)."""
        walk = benois_beating_walk(arena, valuation, start, alice)
        verdict = verify_union_strategy(arena, union, start, alice, 3)
        assert walk is not None or verdict.wins_within_bound
        if walk is not None:
            stem, cycle = walk
            assert cycle and valuation.val_word([e.color for e in cycle]) == FreeWord()
            lasso = play_lasso(arena, start, alice, walk_machine(arena, stem, cycle))
            assert lasso == Lasso(stem, cycle)
            assert not union.up_member(lasso.up_word())
        return walk is None, verdict.wins_within_bound

    def test_shipped_arena(self):
        arena = games.load_arena(shipped_arena_path(), FREE_VAL.colors)
        alices = [
            *positional_strategies(arena, Player.ALICE),
            alternating_strategy(arena, "sq"),
        ]
        walks = [benois_beating_walk(arena, FREE_VAL, "sq", alice) for alice in alices]
        # both positional strategies are beaten by criterion 1's cycles, and
        # the alternating strategy wins against every Bob strategy
        cycles = [None if w is None else tuple(e.color for e in w[1]) for w in walks]
        assert cycles == [("eps", "a", "eps", "a^-1"), ("eps", "b", "eps", "b^-1"), None]
        for memory in (1, 2):
            for alice, walk in zip(alices, walks):
                verdict = verify_union_strategy(arena, UNION, "sq", alice, memory)
                assert walk is not None or verdict.wins_within_bound
        # memory 3, and the replay of both walks
        assert [self.check(arena, alice, "sq") for alice in alices] == [
            (False, False), (False, False), (True, True)
        ]

    def test_random_union_draws(self):
        outcomes = [
            self.check(arena, sigma, start) for arena, sigma, start, _ in random_union_draws()
        ]
        assert Counter(outcomes) == {(True, True): 24, (False, False): 6}

    # (decider says Alice wins, enumerator at memory 3 says she wins) -> draws.
    # In the one draw of out-degree three where they differ, the draw at
    # index 37, Alice owns no node, the decider's cycle has 12 steps, and the
    # enumerator finds no beating machine at memory 4 either (7,419,242
    # machines).
    @pytest.mark.parametrize(
        "draws, expected",
        [
            ("out-degree-three", {(True, True): 57, (False, False): 42, (False, True): 1}),
            ("out-degree-two", {(True, True): 156, (False, False): 44}),
        ],
    )
    def test_random_alice_machine_draws(self, draws, expected):
        outcomes = [
            self.check(arena, alice, start)
            for arena, alice, start, _ in random_alice_machine_draws(*ALICE_MACHINE_DRAWS[draws])
        ]
        assert Counter(outcomes) == expected

    def test_multi_letter_images(self):
        rng = random.Random(29)
        outcomes = []
        for _ in range(100):
            arena = random_arena(rng, max_nodes=4, max_out=2, colors=MULTI_VAL.colors)
            alice = random_alice_machine(rng, arena)
            start = rng.choice(arena.nodes)
            outcomes.append(self.check(arena, alice, start, MULTI_VAL, MULTI_UNION))
        assert Counter(outcomes) == {(True, True): 72, (False, False): 28}

    def test_walk_that_needs_composition(self):
        # the only cycle reads a (b b^-1)(a a^-1) a^-1, and every rotation
        # of it needs two pairs composed; no random draw above needs that
        colors = ["a", "b", "b^-1", "a", "a^-1", "a^-1"]
        size = len(colors)
        arena = make_arena(
            [f"node v{i} B" for i in range(size)]
            + [f"edge v{i} {c} v{(i + 1) % size}" for i, c in enumerate(colors)]
        )
        alice = PositionalStrategy(Player.ALICE, {})
        assert self.check(arena, alice, "v0") == (False, False)


def enumerate_prefix_products(depth):
    """Reference for ``ramsey_distinct_check``: every sign pattern in
    {+1,-1}^(2*depth), every partial product checked against the identity and
    the products before it.  Returns ``(paths, passed, counterexample)``.  It
    calls ``games.multiply``, so a patched ``multiply`` reaches it too."""
    generators = ("a", "b")
    paths = 0
    for signs in itertools.product((1, -1), repeat=2 * depth):
        paths += 1
        word = FreeWord()
        seen: set[FreeWord] = set()
        for position, sign in enumerate(signs):
            word = games.multiply(word, reduce_word([(generators[position % 2], sign)]))
            if not word:
                return paths, False, f"identity at step {position + 1} of {signs}"
            if word in seen:
                return paths, False, f"repeat at step {position + 1} of {signs}"
            seen.add(word)
    return paths, True, None


class TestRamseyDistinctness:
    @pytest.mark.parametrize("depth", range(1, 7))
    def test_exact_check_agrees_with_the_enumeration(self, depth):
        assert enumerate_prefix_products(depth) == (4**depth, True, None)
        assert ramsey_distinct_check() is None

    def test_multiply_cancelling_a_against_b_inverse_fails_both(self, monkeypatch):
        a, b_inverse = reduce_word([("a", 1)]), reduce_word([("b", -1)])
        real_multiply = games.multiply

        def cancelling(x, y):
            if x.letters[-1:] == a.letters and y.letters[:1] == b_inverse.letters:
                return real_multiply(FreeWord(x.letters[:-1]), FreeWord(y.letters[1:]))
            return real_multiply(x, y)

        monkeypatch.setattr(games, "multiply", cancelling)
        assert ramsey_distinct_check() == "a b^-1 cancels at the seam"
        paths, passed, counterexample = enumerate_prefix_products(1)
        assert not passed and counterexample == "identity at step 2 of (1, -1)"
