"""The library reads the ``Player`` members once, at module level, and never
through the enum class on a hot path.

``Player.ALICE`` runs the enum metaclass's Python-level ``__getattr__`` on
Python 3.10 and 3.11, so every member read in a game loop costs a Python call.
``games`` binds ``ALICE, BOB = Player``; everything else uses those names.
"""

import ast
from pathlib import Path

import pytest

import etog
from etog.games import ALICE, BOB, Player

MEMBERS = {"Player": {"ALICE", "BOB"}}
SOURCES = sorted(Path(etog.__file__).parent.glob("*.py"))


def _member_reads(tree: ast.AST):
    """``(line, text)`` of each ``Player.X`` attribute read, also through a
    module (``games.Player.ALICE``)."""
    for node in ast.walk(tree):
        if not isinstance(node, ast.Attribute):
            continue
        owner = node.value
        name = owner.id if isinstance(owner, ast.Name) else getattr(owner, "attr", None)
        if node.attr in MEMBERS.get(name, ()):
            yield node.lineno, ast.unparse(node)


def test_the_guard_reads_every_library_module():
    names = {path.name for path in SOURCES}
    assert {"groups.py", "conditions.py", "laws.py", "games.py", "cli.py"} <= names


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_no_member_is_read_through_its_enum(path):
    reads = list(_member_reads(ast.parse(path.read_text(encoding="utf-8"))))
    assert reads == [], f"{path.name}: read the module-level names instead: {reads}"


def test_the_guard_sees_a_member_read():
    tree = ast.parse("a = Player.ALICE\nb = games.Player.BOB\nc = Player.name\nd = ALICE")
    assert list(_member_reads(tree)) == [(1, "Player.ALICE"), (2, "games.Player.BOB")]


def test_bound_names_are_the_members_in_order():
    assert (ALICE, BOB) == tuple(Player)
