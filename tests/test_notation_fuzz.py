"""Fuzz the text parsers, which, with the constructors they call, are the
gate for group elements.

``compose``, ``invert`` and ``compare`` trust their operands, so whatever the
parsers accept must be a valid element, and whatever they refuse must be
refused with an ``EtogError`` (the CLI turns those into exit code 2) whose
message stays short however long the input.
"""

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from etog.conditions import parse_condition, parse_valuation
from etog.errors import EtogError
from etog.games import parse_arena
from etog.notation import parse_element, parse_group

ELEMENT_SPECS = [
    parse_group(text)
    for text in ("int", "zlex(2)", "free(a,b)", "inv(zlex(1))", "prod(int,free(a))")
]

# grammar fragments, so that the fuzzer also reaches past the first token
FRAGMENTS = [
    "int", "zlex(", "free(", "inv(", "prod(", "etog(", "inv-etog(", "union(",
    "v.txt", "group ", "val ", "node ", "edge ", "(", ")", "[", "]", ",", ";",
    "=", "#", " ", "\n", "a", "b", "x", "e", "A", "B", "^-1", "^1", "^", "-",
    "0", "1", "2", "9", "\x00",
    "9" * 4301,  # one digit past Python's default int-from-str limit
    "a" * 5000,  # a name, color, path or literal far past what a refusal echoes
]
PAST_LIMIT = FRAGMENTS[-2]

# no "/" in the text, so that a condition spec cannot name a file outside the
# test's own directory
arbitrary_text = st.text(
    st.characters(blacklist_categories=("Cs",), blacklist_characters="/"),
    max_size=40,
)
grammar_text = st.lists(st.sampled_from(FRAGMENTS), max_size=16).map("".join)


# the longest refusal message; a long input is echoed by its head and length
MAX_REFUSAL = 200


def _parsed_or_refused(parse, *args):
    """The parse result, or ``None`` when the input is refused with a short
    ``EtogError``; any other exception escapes and fails the test."""
    try:
        return parse(*args)
    except EtogError as exc:
        assert len(str(exc)) <= MAX_REFUSAL, str(exc)[:MAX_REFUSAL]
        return None


@settings(
    max_examples=1000,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(text=st.one_of(arbitrary_text, grammar_text))
# the digit-limit refusal of each integer site: literal, entry, dimension, file
@example(text=PAST_LIMIT)
@example(text=f"({PAST_LIMIT},0)")
@example(text=f"zlex({PAST_LIMIT})")
@example(text=f"group int\nval x = {PAST_LIMIT}")
def test_parsers_refuse_only_with_etog_errors(tmp_path, monkeypatch, text):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "v.txt").write_text("group free(a,b)\nval x = a\nval y = b^-1\n")
    _parsed_or_refused(parse_group, text)
    _parsed_or_refused(parse_valuation, text)
    _parsed_or_refused(parse_arena, text)
    for condition in (text, f"etog({text})"):
        _parsed_or_refused(parse_condition, condition)
    for spec in ELEMENT_SPECS:
        element = _parsed_or_refused(parse_element, spec, text)
        if element is not None:
            spec.validate(element)
