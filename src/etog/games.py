"""Finite arenas, strategies, lasso evaluation and game solving.

Arenas are two-player edge-colored graphs; every node has an outgoing edge so
plays never get stuck.  Strategies are positional (one fixed edge per owned
node) or finite-memory Mealy machines updated on every observed edge.  A play
of two finite-state strategies is eventually periodic, so it is returned as a
lasso (stem + cycle) whose cycle decides membership.

``solve_energy_game`` plays the first-cycle game (Ehrenfeucht & Mycielski,
IJGT 1979): from a start the players move until the play returns to a node on
its path, and the cycle it closes, read from that node, decides the winner.
When both players' sets of winning cycles are closed under joining and
splitting at a shared node, the infinite game is positionally determined and
each node's winner is its first-cycle winner (Bjorklund, Sandberg & Vorobyov,
TCS 2004).  Energy conditions over a bi-ordered group meet that condition: a
closed walk's value is a product of conjugates of the values of the cycles it
splits into, a bi-invariant order keeps the sign of a conjugate, and negative
values are closed under products, as are non-negative ones.  The starts are
decided in declaration order, each one then ending the later searches as a
sink with its winner.  Each witness is built greedily, node by node, as the
first strategy in enumeration order that wins its player's whole region.
When a node of a player's region has no edge into that region, the condition
broke the theorem's hypothesis and the solver raises ``RuntimeError``.
For unions of energy conditions no such restriction holds (that failure is the
point of the refutation experiment), so ``verify_union_strategy`` only offers
an honestly bounded verdict against all opponent machines up to a given
memory size.  It builds the opponent machine lazily in its own play loop:
an entry the play needs and that is not decided yet takes its first option,
and each further option resumes the play from that step.  The entries decided
on the current branch sit on an explicit stack, so no bound is limited by
Python's recursion depth.  Each completed play is judged from its own path,
deciding each distinct cycle once per call, and a lasso is built only for a
beating play.
"""

from __future__ import annotations

import enum
import functools
import itertools
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Mapping

from .conditions import EtogCondition, UnionCondition, UPWord
from .errors import (
    ArenaError,
    DuplicateNodeError,
    EtogError,
    MissingMachineEntryError,
    MissingOutgoingEdgeError,
    NotationError,
    UnknownColorError,
    UnknownEndpointError,
    echo,
)
from .groups import format_word, multiply, reduce_word
from .notation import read_ascii


class Player(enum.Enum):
    ALICE = "Alice"
    BOB = "Bob"

    def __str__(self) -> str:
        return self.value


# Read once: on Python 3.10 and 3.11 every ``Player.ALICE`` runs the enum
# metaclass's Python-level ``__getattr__``.
ALICE, BOB = Player


@dataclass(frozen=True, eq=False)
class Edge:
    """One declared edge.  Only :func:`parse_arena` builds edges, and each one
    stands for its index in one arena, so equality is identity."""

    source: str
    color: str
    target: str
    index: int  # position in the arena's declaration order


@dataclass(frozen=True)
class Arena:
    """A finite two-player arena; :func:`parse_arena` is its only builder.

    ``out_edges`` maps each declared node to the tuple of its outgoing edges.
    The constructor builds it while checking that every node has one: nodes
    come in declaration order, Alice's first (the order of ``nodes``), and
    each node's edges in declaration order (``Edge.index``).
    """

    alice_nodes: tuple[str, ...]
    bob_nodes: tuple[str, ...]
    edges: tuple[Edge, ...]
    out_edges: Mapping[str, tuple[Edge, ...]] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not self.alice_nodes and not self.bob_nodes:
            raise ArenaError("arena declares no nodes")
        out_edges: dict[str, list[Edge]] = {}
        for node in self.nodes:
            if node in out_edges:
                raise DuplicateNodeError(f"node {echo(node)} declared twice")
            out_edges[node] = []
        for edge in self.edges:
            if edge.source not in out_edges:
                raise UnknownEndpointError(f"edge source {echo(edge.source)} not declared")
            if edge.target not in out_edges:
                raise UnknownEndpointError(f"edge target {echo(edge.target)} not declared")
            out_edges[edge.source].append(edge)
        for node, edges in out_edges.items():
            if not edges:
                raise MissingOutgoingEdgeError(f"node {echo(node)} has no outgoing edge")
            out_edges[node] = tuple(edges)
        object.__setattr__(self, "out_edges", out_edges)

    @property
    def nodes(self) -> tuple[str, ...]:
        return self.alice_nodes + self.bob_nodes

    @property
    def colors(self) -> frozenset[str]:
        return frozenset(edge.color for edge in self.edges)


def parse_arena(text: str, alphabet: Iterable[str] | None = None) -> Arena:
    """Parse the line-based arena format.

    ``node <name> <A|B>`` declares a node, ``edge <src> <color> <dst>`` an
    edge; ``#`` starts a comment.  When ``alphabet`` is given, edge colors
    outside it are rejected.
    """
    known_colors = frozenset(alphabet) if alphabet is not None else None
    alice: list[str] = []
    bob: list[str] = []
    edges: list[Edge] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        if tokens[0] == "node":
            if len(tokens) != 3 or tokens[2] not in ("A", "B"):
                raise ArenaError(f"line {lineno}: expected 'node <name> <A|B>'")
            (alice if tokens[2] == "A" else bob).append(tokens[1])
        elif tokens[0] == "edge":
            if len(tokens) != 4:
                raise ArenaError(f"line {lineno}: expected 'edge <src> <color> <dst>'")
            color = tokens[2]
            if known_colors is not None and color not in known_colors:
                raise UnknownColorError(f"line {lineno}: unknown color {echo(color)}")
            edges.append(Edge(tokens[1], color, tokens[3], len(edges)))
        else:
            raise ArenaError(f"line {lineno}: unrecognised directive {echo(tokens[0])}")
    return Arena(tuple(alice), tuple(bob), tuple(edges))


def load_arena(path: str, alphabet: Iterable[str] | None = None) -> Arena:
    return parse_arena(read_ascii(path), alphabet)


@dataclass(frozen=True)
class PositionalStrategy:
    """One fixed outgoing edge per owned node."""

    owner: Player
    choice: Mapping[str, Edge]

    def initial_state(self):
        return None

    def move(self, state, node: str) -> Edge:
        try:
            edge = self.choice[node]
        except KeyError:
            raise MissingMachineEntryError(f"no move at node {echo(node)}") from None
        if edge.source != node:
            raise ArenaError(f"strategy picks an edge not leaving {echo(node)}")
        return edge

    def advance(self, state, edge: Edge):
        return None


@dataclass(frozen=True)
class MealyStrategy:
    """Finite-memory strategy: a move per (state, owned node), updated on
    every observed edge (both players' moves drive the update)."""

    owner: Player
    states: tuple
    initial: object
    moves: Mapping[tuple[object, str], Edge]
    updates: Mapping[tuple[object, Edge], object]

    def initial_state(self):
        return self.initial

    def move(self, state, node: str) -> Edge:
        try:
            edge = self.moves[(state, node)]
        except KeyError:
            missing = f"no move for state {state!r} at node {echo(node)}"
            raise MissingMachineEntryError(missing) from None
        if edge.source != node:
            raise ArenaError(f"strategy picks an edge not leaving {echo(node)}")
        return edge

    def advance(self, state, edge: Edge):
        try:
            return self.updates[(state, edge)]
        except KeyError:
            missing = f"no update for state {state!r} on edge {edge.index}"
            raise MissingMachineEntryError(missing) from None


Strategy = PositionalStrategy | MealyStrategy


@dataclass(frozen=True)
class Lasso:
    """Stem plus cycle of an eventually periodic play."""

    stem: tuple[Edge, ...]
    cycle: tuple[Edge, ...]

    @property
    def cycle_colors(self) -> tuple[str, ...]:
        return tuple(edge.color for edge in self.cycle)

    def up_word(self) -> UPWord:
        return UPWord(tuple(edge.color for edge in self.stem), self.cycle_colors)


def play_lasso(arena: Arena, start: str, alice: Strategy, bob: Strategy) -> Lasso:
    """Simulate the unique play of a strategy pair until the joint state
    (node, Alice state, Bob state) repeats; deterministic.  An incomplete
    Mealy machine raises :class:`MissingMachineEntryError` at the first step
    that needs an entry it lacks."""
    if start not in arena.out_edges:
        raise ArenaError(f"unknown start node {echo(start)}")
    alice_nodes = arena.alice_nodes
    joint = (start, alice.initial_state(), bob.initial_state())
    seen: dict[tuple, int] = {}  # joint state -> path index at which it was left
    path: list[Edge] = []
    while joint not in seen:
        node, a_state, b_state = joint
        edge = alice.move(a_state, node) if node in alice_nodes else bob.move(b_state, node)
        seen[joint] = len(path)
        path.append(edge)
        joint = (edge.target, alice.advance(a_state, edge), bob.advance(b_state, edge))
    cut = seen[joint]
    return Lasso(tuple(path[:cut]), tuple(path[cut:]))


def positional_strategies(arena: Arena, owner: Player) -> list[PositionalStrategy]:
    """All positional strategies of one player, in lexicographic order over
    (node declaration order, edge declaration order)."""
    nodes = arena.alice_nodes if owner is ALICE else arena.bob_nodes
    choices = itertools.product(*(arena.out_edges[node] for node in nodes))
    return [PositionalStrategy(owner, dict(zip(nodes, c))) for c in choices]


@dataclass(frozen=True)
class Solution:
    winners: dict[str, Player]
    alice_strategy: PositionalStrategy
    bob_strategy: PositionalStrategy


def _check_alphabet(arena: Arena, cond) -> None:
    missing = arena.colors - set(cond.colors)
    if missing:
        shown = ", ".join(map(echo, sorted(missing)))
        raise UnknownColorError(f"arena colors outside the condition alphabet: [{shown}]")


def _alice_wins(start: int, arcs: list, alices: int, member, known: Mapping[int, bool]) -> bool:
    """Whether Alice wins the first-cycle game from node ``start``.

    ``arcs[v]`` holds the (colour, target) pairs out of node v, nodes below
    ``alices`` are Alice's, and ``known`` maps decided nodes to whether Alice
    wins from them.  A play that enters a node of ``known`` ends with its
    winner; one that returns to a node on its path closes a cycle, whose
    colours are read from that node and decided by ``member``.  A minimax
    over the simple paths from the start: Alice needs one winning move and
    Bob one refutation.  The path sits on an explicit stack, so Python's
    recursion limit does not bound it.
    """
    path, colors, options = [start], [], [iter(arcs[start])]
    at = {start: 0}  # node -> its position on the path
    won = None  # the outcome of the move just tried at the end of the path
    while True:
        node = path[-1]
        mover = node < alices
        if won is not mover:
            arc = next(options[-1], None)
            if arc is not None:
                color, target = arc
                if target in at:
                    won = member((*colors[at[target]:], color))
                elif target in known:
                    won = known[target]
                else:
                    at[target] = len(path)
                    path.append(target)
                    colors.append(color)
                    options.append(iter(arcs[target]))
                    won = None
                continue
            won = not mover
        # the node is decided: hand its outcome to the move that reached it
        del at[path.pop()]
        options.pop()
        if not path:
            return won
        colors.pop()


def solve_energy_game(arena: Arena, cond) -> Solution:
    """Exact solver for a single energy condition, by the first-cycle game.

    Alice wins from a node when some positional strategy of hers defeats
    every reply; by the first-cycle theorem (module docstring) that is when
    she wins the first-cycle game from it.  The starts are searched in
    declaration order.  A decided start then ends every later search at once
    with its winner: a node whose winner is known acts as an absorbing sink,
    which prefix-independence and determinacy make sound.

    The returned witnesses are the first strategies in enumeration order that
    win uniformly on their player's whole region.  Each player's nodes are
    fixed in declaration order, keeping every edge fixed so far.  A node in
    the opponent's region takes its first edge, which no play of a uniform
    winner reaches.  A node v of the player's own region takes the first edge
    into that region after which the player still wins the first-cycle game
    from v, searched with the opponent's region as decided; the last such
    edge needs no search.  Testing v alone is enough: if the player wins from
    v, then from any node x of the region, the uniform strategy played until
    the play reaches v and the winning one from v on wins, by
    prefix-independence, so the whole region is kept.  A node of the
    player's region without an edge into it means the condition is not
    positionally determined after all, and raises ``RuntimeError``.
    """
    if isinstance(cond, UnionCondition):
        raise EtogError(
            "union conditions have no exact positional solver; use verify_union_strategy"
            " or the 'counterexample' command for a bounded verdict"
        )
    if not isinstance(cond, EtogCondition):
        raise TypeError(f"expected an energy condition, got {type(cond).__name__}")
    _check_alphabet(arena, cond)

    nodes = arena.nodes  # Alice's nodes first
    index = {node: i for i, node in enumerate(nodes)}
    alices = len(arena.alice_nodes)
    member = functools.cache(lambda cycle: cond.up_member(UPWord((), cycle)))
    # arcs[v]: the (colour, target) pairs of the edges out of node v
    arcs = [[(edge.color, index[edge.target]) for edge in arena.out_edges[node]] for node in nodes]
    wins: dict[int, bool] = {}  # decided node -> whether Alice wins from it
    for start in range(len(nodes)):
        wins[start] = _alice_wins(start, arcs, alices, member, wins)
    witnesses = []
    for owner, own in zip(Player, (range(alices), range(alices, len(nodes)))):
        alice = owner is ALICE
        lost = {v: won for v, won in wins.items() if won is not alice}
        fixed = list(arcs)
        choice = {}
        for v in own:
            options = [0] if v in lost else [i for i, (_, t) in enumerate(arcs[v]) if t not in lost]
            if not options:
                raise RuntimeError("no uniform positional witness exists")
            for i in options:
                fixed[v] = [arcs[v][i]]
                if i == options[-1] or _alice_wins(v, fixed, alices, member, lost) is alice:
                    break
            choice[nodes[v]] = arena.out_edges[nodes[v]][i]
        witnesses.append(PositionalStrategy(owner, choice))
    winners = {v: ALICE if wins[i] else BOB for i, v in enumerate(nodes)}
    return Solution(winners, *witnesses)


_MISSING = object()  # a machine entry not decided yet


@dataclass(frozen=True)
class UnionVerdict:
    """Outcome of the bounded verification of an Alice strategy.

    ``wins_within_bound`` holds exactly when no beating lasso was found.  It
    only speaks about opponents with at most the ``bob_memory_bound`` states
    that :func:`verify_union_strategy` was given; it is not a proof over all
    strategies.
    """

    machines_checked: int
    beating_strategy: MealyStrategy | None = None
    beating_lasso: Lasso | None = None

    @property
    def wins_within_bound(self) -> bool:
        return self.beating_lasso is None


def verify_union_strategy(
    arena: Arena, cond, start: str, alice: Strategy, bob_memory_bound: int
) -> UnionVerdict:
    """Test an Alice strategy against every Bob machine with few states.

    Enumerates Bob Mealy strategies with at most ``bob_memory_bound`` states
    up to extensionality on reachable joint states.  Its own copy of the
    :func:`play_lasso` loop reads Bob's partial tables: an entry not decided
    yet takes its first option where the play needs it, and a frame holds
    the other options and that step.  Once a play completes without
    beating Alice, the newest frame with an option left takes the next one,
    and the play is rewound to that frame's step and resumed; exhausted
    frames are dropped with their entries.  The search is depth first over
    this explicit stack, so Python's recursion limit does not bound it.
    Fresh states are introduced in canonical order, so no two enumerated
    machines behave identically on the induced play.  ``machines_checked``
    counts completed plays.  Each one is judged from the colours of its path
    from the cycle start on: conditions are prefix-independent, so each
    distinct cycle is decided once per call.  Returns the first beating
    machine in that order, completed with its unreached entries, and its
    lasso, the only one built, if any.  An incomplete Alice machine raises
    :class:`MissingMachineEntryError` where the play needs the entry.
    """
    if bob_memory_bound < 1:
        raise NotationError("bob_memory_bound must be >= 1")
    _check_alphabet(arena, cond)
    if start not in arena.out_edges:
        raise ArenaError(f"unknown start node {echo(start)}")

    alice_nodes = arena.alice_nodes
    out_edges = arena.out_edges
    moves: dict[tuple[int, str], Edge] = {}
    updates: dict[tuple[int, Edge], int] = {}
    machines = 0
    member = functools.cache(lambda cycle: cond.up_member(UPWord((), cycle)))
    # The play: joint states (node, Alice state, Bob state) in path order,
    # each with the path index at which it was left, and the edges and
    # colours played from them.  Bob states 0 .. used - 1 are introduced.
    seen: dict[tuple, int] = {}
    joints: list[tuple] = []
    path: list[Edge] = []
    colors: list[str] = []
    joint = (start, alice.initial_state(), 0)
    used = 1
    # One frame per entry decided on the current branch, oldest first:
    # (table, key, its untried options, path length and joint state at the
    # step that decided it, states introduced before it).
    frames: list[tuple[dict, tuple, Iterator, int, tuple, int]] = []
    while True:
        while joint not in seen:
            node, a_state, b_state = joint
            if node in alice_nodes:
                edge = alice.move(a_state, node)
            else:
                key = (b_state, node)
                edge = moves.get(key, _MISSING)
                if edge is _MISSING:
                    options = iter(out_edges[node])
                    edge = moves[key] = next(options)
                    frames.append((moves, key, options, len(path), joint, used))
            a_next = alice.advance(a_state, edge)
            key = (b_state, edge)
            b_next = updates.get(key, _MISSING)
            if b_next is _MISSING:
                # states are introduced in canonical order: the options are
                # the states introduced so far and, within the bound, one more
                options = iter(range(min(used + 1, bob_memory_bound)))
                b_next = updates[key] = next(options)
                frames.append((updates, key, options, len(path), joint, used))
            seen[joint] = len(path)
            joints.append(joint)
            path.append(edge)
            colors.append(edge.color)
            joint = (edge.target, a_next, b_next)
        machines += 1
        cut = seen[joint]
        cycle = tuple(colors[cut:])
        if not member(cycle):
            break
        while frames:
            table, key, options, length, joint, used = frames[-1]
            option = next(options, None)  # no option is None
            if option is not None:
                table[key] = option
                if table is updates:
                    used = max(used, option + 1)
                break
            del table[key]
            frames.pop()
        else:
            return UnionVerdict(machines)
        for dropped in joints[length:]:
            del seen[dropped]
        del joints[length:], path[length:], colors[length:]
    lasso = Lasso(tuple(path[:cut]), tuple(path[cut:]))
    # unreached entries are irrelevant; fill them deterministically
    states = tuple(range(used))
    for state in states:
        for node in arena.bob_nodes:
            moves.setdefault((state, node), out_edges[node][0])
        for edge in arena.edges:
            updates.setdefault((state, edge), state)
    machine = MealyStrategy(BOB, states, 0, moves, updates)
    return UnionVerdict(machines, machine, lasso)


def alternating_strategy(arena: Arena, node: str) -> MealyStrategy:
    """Two-state Alice strategy that alternates the first two edges of one
    node (her other nodes keep their first declared edge)."""
    if node not in arena.alice_nodes:
        raise ArenaError(f"node {echo(node)} is not an Alice node")
    options = arena.out_edges[node]
    if len(options) < 2:
        raise ArenaError(f"node {echo(node)} needs two outgoing edges to alternate")
    moves: dict[tuple[object, str], Edge] = {}
    updates: dict[tuple[object, Edge], object] = {}
    for state, pick, flipped in (("first", options[0], "second"), ("second", options[1], "first")):
        for other in arena.alice_nodes:
            moves[(state, other)] = pick if other == node else arena.out_edges[other][0]
        for edge in arena.edges:
            updates[(state, edge)] = flipped if edge.source == node else state
    return MealyStrategy(ALICE, ("first", "second"), "first", moves, updates)


def ramsey_distinct_check() -> str | None:
    """Check the hypothesis feeding the infinite-Ramsey step of the refutation.

    Against the alternating strategy every opponent behaviour yields the
    partial products a^(e1), a^(e1) b^(d1), a^(e1) b^(d1) a^(e2), ... for some
    signs in {+1,-1}; they must be pairwise distinct and non-identity at every
    depth.  By induction on k, the k-th product is a reduced word of length k
    whose last letter is from the generator of step k.  Step k+1 appends a
    letter of the other generator, and ``multiply`` cancels only at the seam,
    so when no seam x^±1 y^±1 of distinct generators cancels, the product
    grows by exactly one letter.  Words of distinct lengths are distinct and
    none is empty, so the eight seams a^±1 b^±1 and b^±1 a^±1 decide the claim
    at every depth.  Returns the first seam that cancels, or None.
    """
    letters = {g: [reduce_word([(g, sign)]) for sign in (1, -1)] for g in "ab"}
    for first, second in (("a", "b"), ("b", "a")):
        for x, y in itertools.product(letters[first], letters[second]):
            if len(multiply(x, y)) != 2:
                return f"{format_word(x)} {format_word(y)} cancels at the seam"
    return None
