"""Count the lines of code in each module of a package directory.

A line counts when it holds a token other than a comment, a line break, an
indent or dedent, or a string that forms a whole statement (a docstring).
A token that spans lines, such as a triple-quoted string, counts on each of
them.  Usage, from the root of the repository::

    python tools/count_lines.py [DIR]    # DIR defaults to src/etog

It prints each module's count and then the total.
"""

import io
import sys
import tokenize
from pathlib import Path

_NOT_CODE = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENCODING,
    tokenize.ENDMARKER,
}


def code_lines(source: str) -> int:
    """The number of lines of ``source`` that count as code."""
    lines: set[int] = set()
    statement: list[tokenize.TokenInfo] = []

    def close_statement() -> None:
        if not all(token.type == tokenize.STRING for token in statement):
            for token in statement:
                lines.update(range(token.start[0], token.end[0] + 1))
        statement.clear()

    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in _NOT_CODE:
            statement.append(token)
        elif token.type in (tokenize.NEWLINE, tokenize.ENDMARKER):
            close_statement()
    return len(lines)


def main(argv: list[str]) -> int:
    directory = Path(argv[0] if argv else "src/etog")
    counts = {path.name: code_lines(path.read_text(encoding="utf-8"))
              for path in sorted(directory.glob("*.py"))}
    width = max(map(len, counts), default=0)
    for name, count in counts.items():
        print(f"{name:<{width}} {count:>5}")
    print(f"{'total':<{width}} {sum(counts.values()):>5}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
