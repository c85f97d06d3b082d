"""Energy conditions over totally ordered groups.

Computable bi-invariant orders (integers, lexicographic vectors, free groups
via truncated power-series expansion, order reversal, lexicographic products),
winning conditions with decidable membership on ultimately periodic words,
checkers for the laws the construction rests on, and finite-arena game
solving, including the experiment showing that a union of two such conditions
defeats every positional strategy.
"""

from .conditions import (
    EtogCondition,
    UnionCondition,
    UPWord,
    Valuation,
    load_valuation,
    parity_condition,
    parse_condition,
    parse_valuation,
    strictify,
    up_member_oracle,
)
from .errors import EtogError
from .games import (
    Arena,
    Edge,
    Lasso,
    MealyStrategy,
    Player,
    PositionalStrategy,
    alternating_strategy,
    load_arena,
    parse_arena,
    play_lasso,
    positional_strategies,
    ramsey_distinct_check,
    solve_energy_game,
    verify_union_strategy,
)
from .groups import (
    FreeGroup,
    FreeWord,
    Integers,
    InverseOrder,
    LexProduct,
    LexVectors,
    OrderedGroup,
    letter,
    letter_parts,
    magnus_coefficient,
    multiply,
    reduce_word,
)
from .notation import format_element, format_group, parse_element, parse_group

__version__ = "0.1.0"
