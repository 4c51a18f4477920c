"""Fuzzing of every text parser: arbitrary input never escapes as a traceback.

Each parser may fail only with an ``NcgError`` (a ``FormatError`` names the
file and line) or, for ``import_ntriples``, the ``ValueError`` its docstring
documents.
"""

from hypothesis import example, given, settings
from hypothesis import strategies as st

from ncgkit import (
    NcgError,
    UnitLabel,
    import_ntriples,
    parse_phrase_file,
    parse_sentence_indices,
    parse_triple_lines,
    parse_unit_file,
)
from ncgkit.model import DocumentLines

# text biased towards the parsers' own delimiters and digits
_ALPHABET = st.sampled_from(list("0123456789\t\n\r |()<>\"\\{}[]:,.-_ab#@"))
TEXT = st.one_of(st.text(), st.text(_ALPHABET))
HUGE_INT = "9" * 5000


@settings(max_examples=300)
@given(TEXT)
@example(HUGE_INT)
def test_parse_sentence_indices(text):
    try:
        parse_sentence_indices(text, issues=[])
    except NcgError:
        pass


@settings(max_examples=300)
@given(TEXT, TEXT, st.sampled_from(["token", "char"]), st.booleans())
@example(f"1\t{HUGE_INT}\t2\tx", "a b\n", "token", False)
@example("2\t0\t1\tx", "a b\n\nc\n", "token", False)
def test_parse_phrase_file(text, document, offset_unit, strict):
    lines = document.splitlines()
    for sentences in (DocumentLines("p", lines), list(DocumentLines("p", lines))):
        try:
            parse_phrase_file(text, sentences, strict=strict,
                              offset_unit=offset_unit, issues=[])
        except NcgError:
            pass


@settings(max_examples=300)
@given(TEXT)
@example('{"has": ' + HUGE_INT + "}")
@example("[" * 5000)
@example('{"has": {"x": ' * 600 + "{}" + "}}" * 600)
def test_parse_unit_file(text):
    try:
        parse_unit_file(text, UnitLabel.RESULTS, issues=[])
    except NcgError:
        pass


@settings(max_examples=300)
@given(TEXT)
def test_parse_triple_lines(text):
    try:
        parse_triple_lines(text, issues=[])
    except NcgError:
        pass


@settings(max_examples=300)
@given(TEXT)
@example('<a> <b> "\\u00zz" .')
def test_import_ntriples(text):
    try:
        import_ntriples(text)
    except ValueError as exc:
        assert str(exc).startswith("line ")
