"""The library-size counter in ``tools/count_lines.py`` counts only code."""

import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "tools" / "count_lines.py"
_SPEC = importlib.util.spec_from_file_location("count_lines", _PATH)
count_lines = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(count_lines)


@pytest.mark.parametrize(
    "source, expected",
    [
        # a docstring, a comment, a blank line and one statement over two lines
        ('"""A docstring\nover two lines."""\n# a comment\n\ntotal = (1 +\n         2)\n', 2),
        # a string inside a statement counts on each of its lines
        ('def f():\n    "docstring"\n    return """one\ntwo"""\n', 3),
    ],
    ids=["docstring-comment-blank", "string-in-a-statement"],
)
def test_only_code_lines_count(source, expected):
    assert count_lines.code_lines(source) == expected


def test_main_prints_each_module_and_the_total(tmp_path, capsys):
    (tmp_path / "a.py").write_text('"""doc"""\nx = 1\n')
    (tmp_path / "b.py").write_text("y = 2\nz = 3\n")
    assert count_lines.main([str(tmp_path)]) == 0
    assert capsys.readouterr().out.split() == ["a.py", "1", "b.py", "2", "total", "3"]
