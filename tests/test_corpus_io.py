import configparser
import gc
import json
import os
import shutil
import sys
import tempfile
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ncgkit import (
    AlternationError,
    CorpusManifest,
    DocumentLines,
    FormatError,
    NcgError,
    Node,
    PhraseColumns,
    PhraseSpan,
    PredicateKind,
    Sentence,
    SpanOutOfRange,
    SpanTextMismatch,
    Triple,
    UnitLabel,
    UnitTree,
    build_graph,
    compare,
    corpus_stats,
    export_ntriples,
    flatten,
    iter_papers,
    load_corpus,
    parse_phrase_file,
    parse_sentence_indices,
    parse_triple_lines,
    parse_unit_file,
    score_all,
    unit_stats,
    validate_corpus,
    write_triple_lines,
    write_unit_file,
)
from ncgkit import codec
from ncgkit.corpus_io import DEFAULT_LAYOUT, PROVENANCE_KEY, _read
from ncgkit.issues import ERROR, WARNING
from ncgkit.model import Predicate, canonical_text


class TestSentenceIndices:
    def test_basic(self):
        assert parse_sentence_indices("3\n7\n12\n") == {3, 7, 12}

    def test_empty_file(self):
        assert parse_sentence_indices("") == set()

    def test_duplicates_collapse_with_warning(self):
        issues = []
        assert parse_sentence_indices("7\n7\n", issues=issues) == {7}
        assert [i.code for i in issues] == ["duplicate-sentence-index"]

    def test_a_note_without_a_location_names_its_line(self):
        issues = []
        parse_sentence_indices("1\n1\n", issues=issues)
        assert [i.location for i in issues] == ["line 2"]
        assert str(FormatError("x", line=2)) == "line 2: x"

    def test_non_integer_line(self):
        with pytest.raises(FormatError):
            parse_sentence_indices("3\nseven\n")

    def test_zero_rejected(self):
        with pytest.raises(FormatError):
            parse_sentence_indices("0\n")

    def test_blank_lines_allowed(self):
        assert parse_sentence_indices("3\n\n7\n") == {3, 7}

    @pytest.mark.parametrize("text", ["1_0", "+1", "\u0661", "-1", "1 0"])
    def test_one_integer_rule(self, text):
        """The rule of the phrase file: ASCII digits, an optional minus sign."""
        with pytest.raises(FormatError, match="not a positive sentence index"):
            parse_sentence_indices(f"3\n{text}\n")
        assert parse_sentence_indices(" 10 \n010\n") == {10}


def sentence_159() -> Sentence:
    tokens = ("As", "expected", "adding", "features", "computed", "by",
              "neural", "networks", "consistently", "improves", "the",
              "performance", "over", "the", "baseline", "performance")
    return Sentence("cho2014", 159, tokens)


class TestPhraseFile:
    def test_valid_span(self):
        spans = parse_phrase_file("159\t2\t4\tadding features", [sentence_159()])
        assert len(spans) == 1
        span = spans[0]
        assert (span.sentence_index, span.start_tok, span.end_tok) == (159, 2, 4)
        assert span.text == "adding features"

    def test_out_of_range_strict(self):
        with pytest.raises(SpanOutOfRange):
            parse_phrase_file("159\t14\t20\tx y", [sentence_159()], strict=True)

    def test_out_of_range_lenient_drops_span(self):
        issues = []
        spans = parse_phrase_file("159\t14\t20\tx y", [sentence_159()],
                                  issues=issues)
        assert spans == []
        assert [(i.code, i.severity) for i in issues] == [("span-out-of-range", ERROR)]

    def test_unknown_sentence_index(self):
        with pytest.raises(SpanOutOfRange):
            parse_phrase_file("7\t0\t1\tAs", [sentence_159()], strict=True)

    def test_text_mismatch_strict(self):
        with pytest.raises(SpanTextMismatch):
            parse_phrase_file("159\t2\t4\tadding feature", [sentence_159()],
                              strict=True)

    def test_text_mismatch_lenient_repairs(self):
        issues = []
        spans = parse_phrase_file("159\t2\t4\tadding feature", [sentence_159()],
                                  issues=issues)
        assert spans[0].text == "adding features"
        assert [(i.code, i.severity) for i in issues] == [("span-text-mismatch", WARNING)]

    def test_a_note_without_a_location_names_its_line(self):
        issues = []
        parse_phrase_file("159\t14\t20\tx y\n159\t2\t4\tadding feature\n",
                          [sentence_159()], issues=issues)
        assert [(i.code, i.location) for i in issues] == [
            ("span-out-of-range", "line 1"), ("span-text-mismatch", "line 2")]

    def test_mismatch_messages_name_the_canonical_surface(self):
        line = "159\t2\t4\tadding  feature"
        issues = []
        spans = parse_phrase_file(line, [sentence_159()], issues=issues,
                                  location="p/phrases.tsv")
        assert spans == [PhraseSpan(159, 2, 4, "adding features")]
        assert [i.as_line() for i in issues] == [
            "p/phrases.tsv:1\tspan-text-mismatch\tWarning\t"
            "surface 'adding feature' repaired to 'adding features'"]
        with pytest.raises(SpanTextMismatch) as info:
            parse_phrase_file(line, [sentence_159()], strict=True, location="p/phrases.tsv")
        assert str(info.value) == ("p/phrases.tsv:1: surface 'adding feature' "
                                   "!= covered tokens 'adding features'")

    def test_surface_differing_only_by_whitespace_is_kept(self):
        line = "159\t2\t4\t adding \u3000 features\xa0"
        for strict in (False, True):
            issues = []
            spans = parse_phrase_file(line, [sentence_159()], strict=strict, issues=issues)
            assert spans == [PhraseSpan(159, 2, 4, "adding features")]
            assert issues == []

    def test_line_of_only_tabs_is_skipped(self):
        issues = []
        spans = parse_phrase_file("\t\t\t\n1\t0\t1\ta\n\t\n", DocumentLines("p", ["a b"]),
                                  strict=True, issues=issues)
        assert spans == [PhraseSpan(1, 0, 1, "a")] and issues == []

    @pytest.mark.parametrize("fields", ["1_59\t2\t4", "159\t+2\t4", "159\t2\t\u0664",
                                        "159\t2\t4 4"])
    def test_one_integer_rule(self, fields):
        """``int()`` would read ``1_59`` as 159; the sentence file refuses it too."""
        with pytest.raises(FormatError, match="non-integer span fields"):
            parse_phrase_file(f"{fields}\tadding features", [sentence_159()])
        spans = parse_phrase_file(" 159 \t02\t4\tadding features", [sentence_159()])
        assert spans == [PhraseSpan(159, 2, 4, "adding features")]

    def test_negative_offset_is_a_span_out_of_range(self):
        issues = []
        spans = parse_phrase_file("159\t-1\t4\tx\n159\t2\t4\tadding features",
                                  [sentence_159()], issues=issues)
        assert spans == [PhraseSpan(159, 2, 4, "adding features")]
        assert [i.code for i in issues] == ["span-out-of-range"]

    def test_column_count_enforced(self):
        with pytest.raises(FormatError):
            parse_phrase_file("159\t2\t4", [sentence_159()])

    def test_char_offsets(self):
        sent = sentence_159()
        start = len("As expected ")
        end = start + len("adding features")
        spans = parse_phrase_file(f"159\t{start}\t{end}\tadding features",
                                  [sent], offset_unit="char")
        assert (spans[0].start_tok, spans[0].end_tok) == (2, 4)

    def test_char_offsets_must_align(self):
        """Off token boundaries, a strict load names the line, as for token
        offsets; a lenient one notes the issue there."""
        location = "papers/p1/phrases.tsv"
        with pytest.raises(SpanOutOfRange) as info:
            parse_phrase_file("159\t1\t5\ts expe", [sentence_159()],
                              offset_unit="char", strict=True, location=location)
        assert str(info.value) == f"{location}:1: char span [1, 5) not on token boundaries"
        issues = []
        assert parse_phrase_file("159\t1\t5\ts expe", [sentence_159()], offset_unit="char",
                                 issues=issues, location=location) == []
        assert [i.as_line() for i in issues] == [
            f"{location}:1\tspan-out-of-range\tError\tchar span [1, 5) not on token boundaries"]

    @settings(max_examples=200)
    @given(st.lists(st.lists(st.sampled_from(["a", "b", "c d", "\u2013", "\U0001d465"]),
                             max_size=4).map(" ".join), max_size=6).map("\n".join),
           st.lists(st.tuples(st.integers(-1, 7), st.integers(-1, 7), st.integers(-1, 8),
                              st.sampled_from(["a", "b c", " d  a", "\u2013 \U0001d465"])),
                    max_size=5),
           st.booleans(), st.sampled_from(["token", "char"]))
    @example("a b\n\u2013 \U0001d465", [(1, 0, 2, "b c"), (5, 0, 1, "a"),
                                         (2, 0, 2, " \u2013  \U0001d465")], False, "token")
    @example("a b\nc", [(1, 2, 3, "b"), (1, 1, 3, "b"), (2, 0, 1, "a")], False, "char")
    def test_positional_lookup_matches_search_by_index(self, doc, rows, strict, offset_unit):
        """A loaded paper's lines and any list of sentences give the same
        columns, issues and errors: spans out of range are dropped, and a
        mismatched text is stored as the covered join."""
        lines = doc.splitlines()
        eager = [Sentence("p", i, tuple(line.split())) if line.split() else None
                 for i, line in enumerate(lines, 1)]
        unordered = [s for s in reversed(eager) if s is not None]
        text = "".join(f"{i}\t{start}\t{end}\t{surface}\n"
                       for i, start, end, surface in rows)

        def outcome(sentences):
            issues = []
            try:
                spans = parse_phrase_file(text, sentences, strict=strict,
                                          offset_unit=offset_unit, issues=issues)
            except NcgError as exc:
                return type(exc), str(exc)
            assert isinstance(spans, PhraseColumns)
            assert spans.texts() == [
                " ".join(eager[s.sentence_index - 1].tokens[s.start_tok:s.end_tok])
                for s in spans]
            return spans, [i.as_line() for i in issues]

        lazy = outcome(DocumentLines("p", lines))
        assert lazy == outcome(eager)
        assert lazy == outcome(unordered)

    @settings(max_examples=100)
    @given(st.integers(0, 15), st.integers(1, 16))
    def test_accepted_spans_satisfy_invariants(self, start, end):
        sent = sentence_159()
        text = " ".join(sent.tokens[start:end])
        line = f"159\t{start}\t{end}\t{text}"
        issues = []
        spans = parse_phrase_file(line, [sent], issues=issues)
        for span in spans:
            assert 0 <= span.start_tok < span.end_tok <= len(sent.tokens)
            assert span.text == " ".join(sent.tokens[span.start_tok:span.end_tok])


class TestUnitFile:
    def test_hoisted_results_unit(self, results_unit_text):
        tree = parse_unit_file(results_unit_text, UnitLabel.RESULTS)
        labels = sorted(n.label for n in tree.nodes())
        assert labels == ["ACE datasets", "Contribution", "F1 measure",
                          "GENIA dataset", "Results"]
        results = tree.unit_node
        assert results.provenance == [
            "Our neural transition -based model achieves the best results in "
            "ACE datasets and comparable results in GENIA dataset in terms of "
            "F1 measure ."]
        flat = flatten(tree)
        assert len(flat.triples) == 6

    def test_minimal_unit(self):
        tree = parse_unit_file('{"has": {"Results": {"from sentence": "s"}}}',
                               UnitLabel.RESULTS)
        assert tree.unit_node.label == "Results"
        assert tree.unit_node.edges == []
        assert tree.unit_node.provenance == ["s"]

    def test_stack_lstm_fragment_dangles(self, data_dir):
        text = (data_dir / "stack_lstm_fragment.json").read_text(encoding="utf-8")
        issues = []
        tree = parse_unit_file(text, UnitLabel.MODEL, issues=issues)
        stack = tree.root.edges[0][1]
        assert stack.label == "Stack - LSTM"
        assert stack.provenance  # provenance from inside the incorporate value
        dangling = [p.text for p, c in stack.edges if c is None]
        assert dangling == ["to represent", "has"]
        assert [i.code for i in issues] == ["dangling-predicate"] * 2 + ["root-not-unit"]
        # the fragment's top level is employ -> Stack - LSTM, not has -> Model
        assert "root-not-unit" in {i.code for i in issues}

    def test_list_values_with_embedded_provenance(self, data_dir):
        text = (data_dir / "conll_pilot_stage.json").read_text(encoding="utf-8")
        tree = parse_unit_file(text, UnitLabel.RESULTS)
        conll = None
        for node in tree.nodes():
            if node.label == "CoNLL":
                conll = node
        assert conll is not None
        assert len(conll.edges) == 2  # two list literals
        assert conll.provenance and conll.provenance[0].startswith("First,")

    def test_alternation_error(self):
        with pytest.raises(AlternationError):
            parse_unit_file('{"has": {"Results": {"in": {"ACE": "oops"}}}}',
                            UnitLabel.RESULTS)
        with pytest.raises(AlternationError, match="node 'ACE' maps to a list"):
            parse_unit_file('{"has": {"Results": {"in": {"ACE": [{}]}}}}',
                            UnitLabel.RESULTS)

    def test_the_first_error_in_file_order_is_raised(self):
        # the first key's node holds an error; the next key is blank
        text = '{"has": {"Results": {"in": {"A": {"on": {"B": 1}}}, " ": "x"}}}'
        with pytest.raises(AlternationError, match="node 'B' maps to a leaf value"):
            parse_unit_file(text, UnitLabel.RESULTS)

    def test_malformed_json(self):
        with pytest.raises(FormatError):
            parse_unit_file('{"has": ', UnitLabel.RESULTS)

    def test_non_object_top_level(self):
        with pytest.raises(FormatError):
            parse_unit_file('["x"]', UnitLabel.RESULTS)

    def test_repeated_predicate_keeps_every_value(self):
        text = '{"has": {"Results": {"on": "A", "of": "B", "on": "C"}}}'
        as_list = '{"has": {"Results": {"on": ["A", "C"], "of": "B"}}}'
        tree = parse_unit_file(text, UnitLabel.RESULTS)
        assert [(p.text, c) for p, c in tree.unit_node.edges] == [
            ("on", "A"), ("on", "C"), ("of", "B")]
        assert flatten(tree) == flatten(parse_unit_file(as_list, UnitLabel.RESULTS))

    def test_repeated_provenance_key_keeps_every_value(self):
        text = ('{"has": {"Results": {"from sentence": "s1", "on": {"A": {}, '
                '"from sentence": "s2", "from sentence": ["s3", "s4"]}}}}')
        assert parse_unit_file(text, UnitLabel.RESULTS).unit_node.provenance == [
            "s1", "s2", "s3", "s4"]

    def test_repeated_node_label_is_refused(self):
        with pytest.raises(FormatError, match="repeated node label 'A'"):
            parse_unit_file('{"has": {"Results": {"on": {"A": {}, "B": {}, "A": {}}}}}',
                            UnitLabel.RESULTS)

    def test_write_groups_edges_by_predicate_in_first_seen_order(self):
        results = Node("Results")
        for predicate, value in [("p", "a"), ("q", "b"), ("p", "c")]:
            results.add(Predicate(predicate), value)
        written = write_unit_file(UnitTree.from_unit_node(UnitLabel.RESULTS, results))
        assert json.loads(written) == {"has": {"Results": {"p": ["a", "c"], "q": "b"}}}
        reread = parse_unit_file(written, UnitLabel.RESULTS).unit_node
        assert [(p.text, c) for p, c in reread.edges] == [("p", "a"), ("p", "c"), ("q", "b")]

    def test_write_round_trips(self, results_unit_text, data_dir):
        for text in (results_unit_text,
                     (data_dir / "conll_adjudicated_stage.json").read_text(
                         encoding="utf-8")):
            tree = parse_unit_file(text, UnitLabel.RESULTS)
            written = write_unit_file(tree)
            reparsed = parse_unit_file(written, UnitLabel.RESULTS)
            assert write_unit_file(reparsed) == written

    def test_write_renders_each_list_element_as_a_single_value(self):
        text = '{"has": {"Results": {"on": [{}, "x", {"A": {}}, {"A": {"of": "y"}}]}}}'
        tree = parse_unit_file(text, UnitLabel.RESULTS)
        assert [c if c is None or isinstance(c, str) else c.label
                for _, c in tree.unit_node.edges] == [None, "x", "A", "A"]
        assert json.loads(write_unit_file(tree)) == json.loads(text)

    @pytest.mark.parametrize("predicate, child, message", [
        ("from sentence", "x", "cannot write the predicate 'from sentence' of 'Model': "
                               "the unit format reads that key as provenance"),
        ("uses", Node("from sentence"), "cannot write the node 'from sentence': "
                                        "the unit format reads that key as provenance"),
    ], ids=["reserved-predicate", "reserved-label"])
    def test_write_refuses_a_tree_the_format_cannot_carry(self, predicate, child, message):
        model = Node("Model")
        model.add(Predicate(predicate), child)
        with pytest.raises(FormatError) as info:
            write_unit_file(UnitTree.from_unit_node(UnitLabel.MODEL, model))
        assert str(info.value) == message

    def test_two_provenance_strings_are_written_as_a_list(self):
        results = Node("Results", provenance=["s1", "s2"])
        results.add(Predicate("on"), "x")
        written = write_unit_file(UnitTree.from_unit_node(UnitLabel.RESULTS, results))
        assert json.loads(written) == {"has": {"Results": {"on": "x",
                                                           PROVENANCE_KEY: ["s1", "s2"]}}}
        assert parse_unit_file(written, UnitLabel.RESULTS).unit_node == results

    def test_write_keeps_a_root_with_the_reserved_label(self):
        # the root's label is never written, so it cannot be read as provenance
        root = Node(PROVENANCE_KEY)
        root.add(Predicate("has"), Node("Model"))
        tree = UnitTree(UnitLabel.MODEL, root)
        assert json.loads(write_unit_file(tree)) == {"has": {"Model": {}}}


HUGE_INT = "9" * 5000
NOT_SCALAR = f"{PROVENANCE_KEY!r} holds an object or a nested list"


@pytest.mark.parametrize("body, expected", [
    ('"on": null, "from sentence": null', ([("on", None)], [])),
    ('"on": [], "from sentence": []', ([("on", None)], [])),
    ('"on": {}', ([("on", None)], [])),
    ('"from sentence": {}', NOT_SCALAR),
    ('"on": [["x"]], "from sentence": ["s", ["x"]]', NOT_SCALAR),
    ('"on": true, "from sentence": [true, false]', ([("on", "true")], ["true", "false"])),
    ('"on": 1.00, "from sentence": 1.00', ([("on", "1.00")], ["1.00"])),
    ('"on": 1e400, "from sentence": -Infinity', ([("on", "1e400")], ["-Infinity"])),
    ('"on": -0, "from sentence": [-0, null]', ([("on", "-0")], ["-0"])),
    (f'"on": {HUGE_INT}, "from sentence": {HUGE_INT}', ([("on", HUGE_INT)], [HUGE_INT])),
    ('"on": "x", " ": "y"', "empty predicate key"),
    ('"on": {"\\t": {}}', "empty node label"),
    ('"on": {"A": 1}', "node 'A' maps to a leaf value; a predicate map is required "
                       "at node depth"),
], ids=["null", "empty-list", "empty-object", "object-provenance", "nested-list",
        "true", "1.00", "1e400", "-0", "5000-digits", "blank-predicate-key",
        "blank-node-label", "node-maps-to-a-number"])
def test_unit_file_values_parse_and_load_alike(tmp_path, body, expected):
    """A scalar keeps its JSON text, as a predicate value and as provenance;
    what the format refuses is one format-error when the corpus loads."""
    text = '{"has": {"Results": {' + body + '}}}'
    d = make_paper(tmp_path, "t", "p", units=MINIMAL_UNITS)
    (d / "info-units" / "Results.json").write_text(text, encoding="utf-8")
    corpus, issues = load_corpus(CorpusManifest(root_path=tmp_path))
    errors = [(i.location, i.message) for i in issues if i.code == "format-error"]
    units = corpus.get("p").units
    if isinstance(expected, str):
        with pytest.raises(FormatError) as info:
            parse_unit_file(text, UnitLabel.RESULTS)
        assert info.value.args[0] == expected
        assert errors == [("t/p/info-units/Results.json", expected)]
        assert UnitLabel.RESULTS not in units
        return
    edges, provenance = expected
    assert errors == []
    for tree in (parse_unit_file(text, UnitLabel.RESULTS), units[UnitLabel.RESULTS]):
        assert [(p.text, c) for p, c in tree.unit_node.edges] == edges
        assert tree.unit_node.provenance == provenance


def test_a_unit_file_deeper_than_the_recursion_limit(tmp_path):
    """A tree or one format-error, never a RecursionError: ``json`` refuses
    the file on Python 3.11, and the reader does not recurse."""
    depth = sys.getrecursionlimit() + 200
    text = ('{"has": {"Results": ' + '{"on": {"x": ' * depth + '{}'
            + '}}' * depth + '}}')
    d = make_paper(tmp_path, "t", "p", units=MINIMAL_UNITS)
    (d / "info-units" / "Results.json").write_text(text, encoding="utf-8")
    corpus, issues = load_corpus(CorpusManifest(root_path=tmp_path))
    errors = [i.message for i in issues if i.code == "format-error"]
    try:
        tree = parse_unit_file(text, UnitLabel.RESULTS)
    except FormatError as exc:
        assert str(exc) == "malformed unit file: nested too deeply"
        assert errors == [str(exc)]
        assert UnitLabel.RESULTS not in corpus.get("p").units
    else:
        assert len(list(tree.nodes())) == depth + 2
        assert errors == []
        assert corpus.get("p").units[UnitLabel.RESULTS] == tree


LABELS = st.one_of(st.text(), st.text(st.sampled_from(list('ab {}"\\'))),
                   st.just(PROVENANCE_KEY)).filter(canonical_text)
PREDICATES = st.one_of(st.text(), st.sampled_from(["has", "in", PROVENANCE_KEY])
                       ).filter(canonical_text)


@st.composite
def wide_unit_trees(draw, max_depth=3, max_fanout=3):
    """Trees with any label, literal and predicate text, repeated predicates
    included, and dangling edges."""

    def build(depth: int) -> Node:
        node = Node(draw(LABELS))
        for _ in range(draw(st.integers(0, max_fanout if depth < max_depth else 0))):
            kind = draw(st.sampled_from(["node", "literal", "dangling"]))
            child = (build(depth + 1) if kind == "node"
                     else draw(st.text()) if kind == "literal" else None)
            node.add(Predicate(draw(PREDICATES)), child)
        return node

    return UnitTree.from_unit_node(draw(st.sampled_from(list(UnitLabel))), build(0))


def grouped(node: Node) -> tuple:
    """A node's label and content edges, the edges grouped by predicate text
    in order of first use: the unit format keeps no order between the
    different predicates of a node.  A childless node reads as a literal."""
    first = {}
    for predicate, _ in node.edges:
        first.setdefault(predicate.text, len(first))
    edges = sorted(((p.text, c) for p, c in node.edges if c is not None),
                   key=lambda edge: first[edge[0]])
    return (node.label, [(p, grouped(c) if isinstance(c, Node) else (c, []))
                         for p, c in edges])


def _unwritable_tree(tree: UnitTree) -> bool:
    """A reserved predicate, or a node below the root with the reserved
    label; the root's label is never written."""
    return any(p.text == PROVENANCE_KEY
               or isinstance(c, Node) and c.label == PROVENANCE_KEY
               for node in tree.nodes() for p, c in node.edges)


@settings(max_examples=300)
@given(wide_unit_trees())
def test_written_unit_file_parses_back_or_the_writer_refuses(tree):
    try:
        written = write_unit_file(tree)
    except FormatError:
        assert _unwritable_tree(tree)
        return
    assert grouped(parse_unit_file(written, tree.unit).root) == grouped(tree.root)


class TestTripleLines:
    def test_double_pipe(self):
        triples = parse_triple_lines("(Results||on||QASent dataset)")
        assert triples[0].key() == ("Results", "on", "QASent dataset")
        assert triples[0].predicate.kind is PredicateKind.TEXTUAL

    def test_filler_has(self):
        triples = parse_triple_lines("(Contribution||has||Results)")
        assert triples[0].predicate.kind is PredicateKind.FILLER_HAS

    def test_single_pipe_lenient_with_warning(self):
        issues = []
        triples = parse_triple_lines("(Contribution|has||Results)", issues=issues)
        assert triples[0].key() == ("Contribution", "has", "Results")
        assert [i.code for i in issues] == ["single-pipe-delimiter"]

    def test_a_note_without_a_location_names_its_line(self):
        issues = []
        parse_triple_lines("\n(Contribution|has||Results)\n", issues=issues)
        assert [i.location for i in issues] == ["line 2"]
        parse_triple_lines("(Contribution|has||Results)\n", issues=issues, location="t.txt")
        assert [i.location for i in issues] == ["line 2", "t.txt:1"]

    def test_field_count_violation(self):
        with pytest.raises(FormatError):
            parse_triple_lines("(a||b)")

    def test_blank_field(self):
        with pytest.raises(FormatError) as info:
            parse_triple_lines("(a||b||c)\n(a|| \t||c)\n", location="t.txt")
        assert str(info.value) == "t.txt:2: empty field in triple line '(a|| \\t||c)'"

    def test_results_file_parses_thirteen(self, results_triples_text):
        issues = []
        triples = parse_triple_lines(results_triples_text, issues=issues)
        assert len(triples) == 13
        # the file mixes | and || on four lines
        assert len([i for i in issues if i.code == "single-pipe-delimiter"]) == 4

    def test_write_empty(self):
        assert write_triple_lines([]) == ""

    def test_write_single(self):
        assert write_triple_lines([Triple.of("a", "has", "b")]) == "(a||has||b)\n"

    def test_round_trip(self, results_triples_text):
        triples = parse_triple_lines(results_triples_text)
        assert parse_triple_lines(write_triple_lines(triples)) == triples

    def test_write_refuses_a_field_the_format_cannot_carry(self):
        with pytest.raises(FormatError) as info:
            write_triple_lines([Triple.of("a", "has", "b"), Triple.of("a|", "has", "c")])
        assert str(info.value) == ("cannot write ('a|', 'has', 'c'): the subject 'a|' "
                                   "holds '||' or starts or ends with '|'")
        # a single | inside a field round-trips
        written = write_triple_lines([Triple.of("a|b", "x|y", "c")])
        assert [t.key() for t in parse_triple_lines(written)] == [("a|b", "x|y", "c")]


def _unwritable_field(value: str) -> bool:
    return "||" in value or value.startswith("|") or value.endswith("|")


# text biased towards the line format's delimiters
FIELDS = st.one_of(st.text(), st.text(st.sampled_from(list("|ab ()\t"))))


@settings(max_examples=300)
@given(st.lists(st.tuples(FIELDS, FIELDS, FIELDS), max_size=4))
@example([("a|", "has", "c")])
@example([("a", "b||c", "d")])
def test_written_triple_lines_parse_back_or_the_writer_refuses(rows):
    triples = [Triple.of(*row) for row in rows
               if all(canonical_text(field) for field in row)]
    try:
        written = write_triple_lines(triples)
    except FormatError:
        assert any(_unwritable_field(f) for t in triples for f in t.key())
        return
    assert [t.key() for t in parse_triple_lines(written)] == [t.key() for t in triples]


# ---------------------------------------------------------------------------
# corpus loading


def make_paper(root, task, paper, text="a b c\nd e f\n", sentences="1\n",
               units=None, triples=None):
    d = root / task / paper
    (d / "info-units").mkdir(parents=True, exist_ok=True)
    (d / "text.txt").write_text(text, encoding="utf-8")
    if sentences is not None:
        (d / "sentences.txt").write_text(sentences, encoding="utf-8")
    for name, payload in (units or {}).items():
        (d / "info-units" / f"{name}.json").write_text(
            json.dumps(payload), encoding="utf-8")
    if triples:
        (d / "triples").mkdir(exist_ok=True)
        for name, payload in triples.items():
            (d / "triples" / f"{name}.txt").write_text(payload, encoding="utf-8")
    return d


#: The characters ``str.splitlines`` breaks at that end no line in text
#: mode: VT, FF, FS, GS, RS, NEL, LS and PS.  Each is whitespace to ``str.split``.
IN_LINE_BREAKS = ["\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]


def text_mode_lines(fh) -> list[str]:
    """The lines of a file opened in text mode, without their line ends."""
    return [line.removesuffix("\n") for line in fh]


@pytest.mark.parametrize("newline", ["\r\n", "\r"])
def test_the_line_parsers_read_cr_and_crlf_as_lf(newline):
    sentences = [Sentence("p", 1, ("a", "b")), Sentence("p", 2, ("c",))]
    phrases = "1\t0\t2\ta b\n\n2\t0\t1\tc\n"
    triples = "(a||b||c)\n\n(c||d||e)\n"
    assert parse_sentence_indices("1\n\n2\n".replace("\n", newline)) == {1, 2}
    assert (parse_phrase_file(phrases.replace("\n", newline), sentences)
            == parse_phrase_file(phrases, sentences))
    assert parse_triple_lines(triples.replace("\n", newline)) == parse_triple_lines(triples)
    with pytest.raises(FormatError) as caught:
        parse_triple_lines(f"{triples}bad\n".replace("\n", newline))
    assert caught.value.line == 4


MINIMAL_UNITS = {
    "ResearchProblem": {"has": {"Research Problem": {"has": "a b c"}}},
    "Model": {"has": {"Model": {"name": "d"}}},
    "Results": {"has": {"Results": {"improves": "e f"}}},
}
MINIMAL_UNITS_LABELS = (UnitLabel.RESEARCH_PROBLEM, UnitLabel.MODEL, UnitLabel.RESULTS)


class TestLoadCorpus:
    def test_empty_directory(self, tmp_path, monkeypatch):
        corpus, issues = load_corpus(CorpusManifest(root_path=tmp_path))
        assert len(corpus) == 0
        assert [i.as_line() for i in issues] == [".\tempty-corpus\tWarning\tno papers found"]
        # the root is located at . however it is spelled
        monkeypatch.chdir(tmp_path.parent)
        relative = load_corpus(CorpusManifest(root_path=Path(tmp_path.name)))[1]
        assert relative == issues

    def test_basic_load(self, tmp_path):
        make_paper(tmp_path, "t1", "p1", units=MINIMAL_UNITS)
        make_paper(tmp_path, "t2", "p2", units=MINIMAL_UNITS)
        corpus, issues = load_corpus(CorpusManifest(root_path=tmp_path))
        assert corpus.paper_ids() == ["p1", "p2"]
        paper = corpus.get("p1")
        assert paper.total_sentence_count == 2
        assert paper.total_token_count == 6
        assert paper.contribution_sentence_indices == {1}
        assert set(paper.units) == {UnitLabel.RESEARCH_PROBLEM, UnitLabel.MODEL,
                                    UnitLabel.RESULTS}
        # triples derived from the trees
        assert len(paper.triples[UnitLabel.RESULTS]) == 2

    def test_unknown_unit_file_skipped_with_issue(self, tmp_path):
        make_paper(tmp_path, "t", "p",
                   units={**MINIMAL_UNITS, "Objective": {"has": {"Objective": {}}}})
        corpus, issues = load_corpus(CorpusManifest(root_path=tmp_path))
        assert "unknown-unit-label" in {i.code for i in issues}
        assert UnitLabel.RESULTS in corpus.get("p").units
        assert len(corpus.get("p").units) == 3

    def test_missing_text_skips_paper_with_error(self, tmp_path):
        make_paper(tmp_path, "t", "good", units=MINIMAL_UNITS)
        d = tmp_path / "t" / "bad"
        (d / "info-units").mkdir(parents=True)
        (d / "sentences.txt").write_text("1\n", encoding="utf-8")
        corpus, issues = load_corpus(CorpusManifest(root_path=tmp_path))
        assert corpus.paper_ids() == ["good"]
        assert ("missing-text", ERROR) in {(i.code, i.severity) for i in issues}

    def test_a_unit_file_that_is_a_directory_is_absent(self, tmp_path):
        d = make_paper(tmp_path, "t", "p", units=MINIMAL_UNITS)
        (d / "info-units" / "Results.json").unlink()
        absent = load_corpus(CorpusManifest(root_path=tmp_path))
        (d / "info-units" / "Results.json").mkdir()
        assert load_corpus(CorpusManifest(root_path=tmp_path)) == absent
        assert UnitLabel.RESULTS not in absent[0].get("p").units

    def test_a_listed_task_without_papers_is_an_empty_task(self, tmp_path):
        make_paper(tmp_path / "data", "t", "p", units=MINIMAL_UNITS)
        (tmp_path / "data" / "empty").mkdir()
        layout = {role: f"data/{pattern}" for role, pattern in DEFAULT_LAYOUT.items()}
        corpus, issues = load_corpus(CorpusManifest(
            root_path=tmp_path, layout=layout, task_names=["nosuch", "t", "empty"]))
        assert corpus.paper_ids() == ["p"]
        assert [i.as_line() for i in issues if i.code == "empty-task"] == [
            f"data/{task}\tempty-task\tWarning\tno papers found for the listed task {task!r}"
            for task in ("nosuch", "empty")]
        # a task the layout finds is not listed, so an empty one is not reported
        _, issues = load_corpus(CorpusManifest(root_path=tmp_path, layout=layout))
        assert "empty-task" not in {i.code for i in issues}

    @pytest.mark.parametrize("kind", ["directory", "broken-symlink", "symlink-loop", "fifo"])
    @pytest.mark.parametrize("name, code", [("text.txt", "missing-text"),
                                            ("sentences.txt", "missing-sentences"),
                                            ("phrases.tsv", "missing-phrases")])
    def test_a_non_regular_file_is_absent(self, tmp_path, kind, name, code):
        absent, odd = tmp_path / "absent", tmp_path / "odd"
        for root in (absent, odd):
            make_paper(root, "t", "p", units=MINIMAL_UNITS)
            (root / "t" / "p" / "phrases.tsv").write_text("1\t0\t1\ta\n", encoding="utf-8")
            (root / "t" / "p" / name).unlink()
        path = odd / "t" / "p" / name
        if kind == "directory":
            path.mkdir()
        elif kind == "broken-symlink":
            path.symlink_to(tmp_path / "nowhere")
        elif kind == "symlink-loop":
            path.symlink_to(name)  # opening it fails with ELOOP
        elif hasattr(os, "mkfifo"):
            os.mkfifo(path)  # opened without O_NONBLOCK, reading it would hang
        else:
            pytest.skip("no FIFOs on this platform")

        def load(root):
            corpus, issues = load_corpus(CorpusManifest(root_path=root))
            return corpus.paper_ids(), [(i.code, i.severity, i.message) for i in issues]

        assert load(odd) == load(absent)
        assert (code, f"t/p/{name}") in {(i.code, i.location) for i in
                                         load_corpus(CorpusManifest(root_path=odd))[1]}

    def test_unit_file_component_holding_the_paper_is_discovered(self, tmp_path):
        d = make_paper(tmp_path, "t", "p1", units=MINIMAL_UNITS)
        make_paper(tmp_path, "t", "p2", units=MINIMAL_UNITS)
        # a file named for another paper is not this paper's
        shutil.copyfile(d / "info-units" / "Model.json", d / "info-units" / "p2-Model.json")
        for path in tmp_path.glob("t/*/info-units/*.json"):
            if "-" not in path.name:
                path.rename(path.with_name(f"{path.parent.parent.name}-{path.name}"))
        layout = {"units": "{task}/{paper}/info-units/{paper}-{Unit}.json"}
        corpus, issues = load_corpus(CorpusManifest(root_path=tmp_path, layout=layout))
        assert [i.code for i in issues] == ["missing-phrases", "missing-triples"] * 2
        for paper in corpus.papers():
            assert set(paper.units) == set(MINIMAL_UNITS_LABELS)

    def test_missing_text_strict_raises(self, tmp_path):
        d = tmp_path / "t" / "bad"
        d.mkdir(parents=True)
        with pytest.raises(FormatError):
            load_corpus(CorpusManifest(root_path=tmp_path, strict=True))

    def test_deterministic(self, tmp_path):
        make_paper(tmp_path, "t", "p1", units=MINIMAL_UNITS)
        make_paper(tmp_path, "t", "p2", units=MINIMAL_UNITS)
        a, issues_a = load_corpus(CorpusManifest(root_path=tmp_path))
        b, issues_b = load_corpus(CorpusManifest(root_path=tmp_path))
        assert a == b
        assert issues_a == issues_b

    def test_triples_only_unit_gets_nested(self, tmp_path):
        make_paper(tmp_path, "t", "p", units=MINIMAL_UNITS,
                   triples={"Baselines": "(Contribution||has||Baselines)\n"
                                        "(Baselines||compared against||prior work)\n"
                                        "(Baselines||compared against||prior work)\n"})
        corpus, _ = load_corpus(CorpusManifest(root_path=tmp_path))
        paper = corpus.get("p")
        assert UnitLabel.BASELINES in paper.units
        assert paper.units[UnitLabel.BASELINES].unit_node.label == "Baselines"
        # the stored list is the rebuilt tree's, so the repeated line collapses
        stored = paper.triples[UnitLabel.BASELINES]
        assert stored == flatten(paper.units[UnitLabel.BASELINES]).triples
        assert len(stored) == 2

    def test_tree_and_file_mismatch_reported(self, tmp_path):
        make_paper(tmp_path, "t", "p", units=MINIMAL_UNITS,
                   triples={"Results": "(Contribution||has||Results)\n"
                                       "(Results||improves||something else)\n"
                                       "(Results||beats||the baseline)\n"})
        corpus, issues = load_corpus(CorpusManifest(root_path=tmp_path))
        paper = corpus.get("p")
        tree_triples = flatten(paper.units[UnitLabel.RESULTS]).triples
        assert paper.triples[UnitLabel.RESULTS] == tree_triples
        mismatch = [i for i in issues if i.code == "triples-file-mismatch"]
        assert len(mismatch) == 1
        assert mismatch[0].message.endswith(
            "file-only: [('Results', 'beats', 'the baseline'), "
            "('Results', 'improves', 'something else')]")
        assert corpus_stats(corpus).overall.ann_triples == 6
        assert unit_stats(corpus).per_unit[UnitLabel.RESULTS].n_triples == len(tree_triples)

    def test_file_fields_are_compared_with_the_tree_canonically(self, tmp_path):
        make_paper(tmp_path, "t", "p", units=MINIMAL_UNITS,
                   triples={"Results": "( Contribution ||has||\tResults)\n"
                                       "(Results|| improves ||e  f )\n",
                            "Code": "(Contribution||has|| Code )\n"
                                    "( Code||url  is|| x\ty )\n"})
        corpus, issues = load_corpus(CorpusManifest(root_path=tmp_path))
        assert "triples-file-mismatch" not in {i.code for i in issues}
        assert [t.key() for t in corpus.get("p").triples[UnitLabel.CODE]] == [
            ("Contribution", "has", "Code"), ("Code", "url is", "x y")]

    def test_mismatch_lists_canonical_keys(self, tmp_path):
        make_paper(tmp_path, "t", "p", units=MINIMAL_UNITS,
                   triples={"Results": "(Contribution||has|| Results)\n"
                                       "(Results||improves||e \t f)\n"
                                       "(Results||beats||the  baseline )\n"})
        _, issues = load_corpus(CorpusManifest(root_path=tmp_path))
        assert [i.as_line() for i in issues if i.code == "triples-file-mismatch"] == [
            "t/p/Results\ttriples-file-mismatch\tWarning\t"
            "tree-only: []; file-only: [('Results', 'beats', 'the baseline')]"]

    def test_consumers_never_flatten_a_loaded_corpus(self, trial_root, monkeypatch):
        corpus, _ = load_corpus(CorpusManifest(root_path=trial_root))
        papers = corpus.paper_ids()[:4]

        def outputs():
            return (validate_corpus(corpus), corpus_stats(corpus), unit_stats(corpus),
                    score_all(corpus, corpus), compare(corpus, UnitLabel.RESULTS, papers))

        before = outputs()

        def no_flatten(tree):
            raise AssertionError("flatten called after load")

        for name, module in list(sys.modules.items()):
            if name.startswith("ncgkit") and getattr(module, "flatten", None) is flatten:
                monkeypatch.setattr(module, "flatten", no_flatten)
        assert outputs() == before

    def test_load_flattens_each_tree_once(self, unit_profile_root, tmp_path, monkeypatch):
        # a shipped tree with its file, a file that nests and one that does not
        make_paper(tmp_path, "t", "p", units=MINIMAL_UNITS,
                   triples={"Results": "(Contribution||has||Results)\n"
                                       "(Results||improves||e f)\n",
                            "Code": "(Contribution||has||Code)\n(Code||url||x)\n",
                            "Tasks": "(Tasks||has||x)\n"})
        flattened = []

        def spy(tree):
            flattened.append(tree)
            return flatten(tree)

        monkeypatch.setattr(codec, "flatten", spy)
        for root in (unit_profile_root, tmp_path):
            flattened.clear()
            corpus, issues = load_corpus(CorpusManifest(root_path=root))
            trees = [tree for paper in corpus for tree in paper.units.values()]
            assert sorted(map(id, flattened)) == sorted(map(id, trees))
        assert len(trees) == 4
        assert [i.location for i in issues if i.code.startswith(("nest", "triples"))] == [
            "t/p/Tasks"]

    def test_strict_mode_raises_on_bad_file(self, tmp_path):
        make_paper(tmp_path, "t", "p", sentences="NaN\n", units=MINIMAL_UNITS)
        with pytest.raises(FormatError):
            load_corpus(CorpusManifest(root_path=tmp_path, strict=True))

    def test_manifest_ini_round_trip(self, tmp_path):
        make_paper(tmp_path / "data", "t", "R69764", units=MINIMAL_UNITS)
        manifest_path = tmp_path / "corpus.ini"
        manifest_path.write_text(
            "[corpus]\nroot = data\ntasks = t\n\n"
            "[totals.tokens]\nR69764 = 123\n", encoding="utf-8")
        manifest = CorpusManifest.from_ini(manifest_path)
        corpus, _ = load_corpus(manifest)
        # option keys keep their case so mixed-case paper ids resolve
        assert corpus.get("R69764").total_token_count == 123

    def test_custom_layout_loads_like_the_default(self, comparison_root, tmp_path):
        default = tmp_path / "default"
        shutil.copytree(comparison_root, default)
        papers = sorted((default / "papers").iterdir())
        # every role gets files: one phrase per paper, and a Results triples
        # file for all papers but the last (its missing-triples warning stays)
        for paper in papers:
            first = int((paper / "sentences.txt").read_text(encoding="utf-8").split()[0])
            line = (paper / "text.txt").read_text(encoding="utf-8").splitlines()[first - 1]
            (paper / "phrases.tsv").write_text(
                f"{first}\t0\t2\t{' '.join(line.split()[:2])}\n", encoding="utf-8")
        for paper in papers[:-1]:
            tree = parse_unit_file((paper / "info-units" / "Results.json").read_text(
                encoding="utf-8"), UnitLabel.RESULTS)
            (paper / "triples").mkdir()
            (paper / "triples" / "Results.txt").write_text(
                write_triple_lines(flatten(tree).triples), encoding="utf-8")
        # the tasks are found below data/, as the text pattern says
        layout = {"text": "data/{task}/{paper}.d/plain.txt",
                  "sentences": "data/{task}/{paper}.d/contribution-lines.txt",
                  "phrases": "data/{task}/{paper}.d/spans.tsv",
                  "units": "data/{task}/{paper}.d/units/{Unit}/tree.json",
                  "triples": "data/{task}/{paper}.d/flat/{Unit}.lines"}
        custom = tmp_path / "custom"
        base = CorpusManifest(root_path=default)
        for paper in papers:
            ids = {"task": "papers", "paper": paper.name}
            pairs = [(base.resolve(role, **ids), layout[role].format(**ids))
                     for role in ("text", "sentences", "phrases")]
            for role, folder, suffix in (("units", "info-units", ".json"),
                                         ("triples", "triples", ".txt")):
                pairs += [(path, layout[role].format(Unit=path.stem, **ids))
                          for path in (paper / folder).glob(f"*{suffix}")]
            for source, target in pairs:
                (custom / target).parent.mkdir(parents=True, exist_ok=True)
                shutil.copyfile(source, custom / target)
        manifest = tmp_path / "custom.ini"
        manifest.write_text("[corpus]\nroot = custom\n\n[layout]\n" + "".join(
            f"{role} = {pattern}\n" for role, pattern in layout.items()), encoding="utf-8")

        want, want_issues = load_corpus(base)
        got, got_issues = load_corpus(CorpusManifest.from_ini(manifest))
        assert got.paper_ids() == want.paper_ids() == [p.name for p in papers]
        assert [i.code for i in got_issues] == [i.code for i in want_issues] == [
            "missing-triples"]
        # a paper is located at the text pattern's path through its {paper} component
        assert [i.location for i in got_issues] == [f"data/papers/{papers[-1].name}.d"]
        assert corpus_stats(got) == corpus_stats(want)
        assert corpus_stats(want).overall.ann_phrases == len(papers)
        assert all(set(p.triples) == set(p.units) for p in got.papers())
        assert export_ntriples(build_graph(got)) == export_ntriples(build_graph(want))

    def test_tasks_are_the_directories_that_fill_the_task_component(self, tmp_path):
        make_paper(tmp_path / "data", "t2", "p2", units=MINIMAL_UNITS)
        make_paper(tmp_path / "data", "t1", "p1", units=MINIMAL_UNITS)
        make_paper(tmp_path, "elsewhere", "p3", units=MINIMAL_UNITS)
        (tmp_path / "data" / "not-a-task.txt").write_text("", encoding="utf-8")
        layout = {role: "data/" + pattern for role, pattern in DEFAULT_LAYOUT.items()}
        corpus, _ = load_corpus(CorpusManifest(root_path=tmp_path, layout=layout))
        assert list(corpus.tasks) == ["t1", "t2"]
        assert corpus.paper_ids() == ["p1", "p2"]
        listed = CorpusManifest(root_path=tmp_path, layout=layout, task_names=["t2", "t1"])
        assert list(load_corpus(listed)[0].tasks) == ["t2", "t1"]

    def test_a_repeated_placeholder_takes_one_value(self, tmp_path):
        d = make_paper(tmp_path, "t", "p", units=MINIMAL_UNITS)
        for path in list((d / "info-units").iterdir()):
            path.rename(path.with_name(f"{path.stem}-{path.name}"))
        # a name the component fills only with two different values
        (d / "info-units" / "Model-Zebra.json").write_text(
            json.dumps({"has": {"Model": {"name": "z"}}}), encoding="utf-8")
        layout = {"units": "{task}/{paper}/info-units/{Unit}-{Unit}.json"}
        corpus, issues = load_corpus(CorpusManifest(root_path=tmp_path, layout=layout))
        paper = corpus.get("p")
        assert set(paper.units) == set(MINIMAL_UNITS_LABELS)
        assert paper.triples[UnitLabel.MODEL][-1].key() == ("Model", "name", "d")
        assert [i.code for i in issues] == ["missing-phrases", "missing-triples"]

    def test_a_directory_that_cannot_be_listed_is_an_error(self, tmp_path, monkeypatch):
        make_paper(tmp_path, "t", "p", units=MINIMAL_UNITS)
        scandir = os.scandir

        def refuse_the_root(path):
            if os.path.samefile(path, tmp_path):
                raise PermissionError(13, "Permission denied", str(path))
            return scandir(path)

        monkeypatch.setattr(os, "scandir", refuse_the_root)
        with pytest.raises(PermissionError):
            load_corpus(CorpusManifest(root_path=tmp_path))

    @pytest.mark.parametrize("word", sorted(configparser.ConfigParser.BOOLEAN_STATES))
    def test_strict_takes_the_configparser_boolean_words(self, tmp_path, word):
        manifest = tmp_path / "m.ini"
        manifest.write_text(f"[corpus]\nstrict = {word.upper()}\n", encoding="utf-8")
        assert (CorpusManifest.from_ini(manifest).strict
                is configparser.ConfigParser.BOOLEAN_STATES[word])

    def test_a_unit_string_holding_a_lone_surrogate_is_a_format_error(self, tmp_path):
        units = {**MINIMAL_UNITS, "Results": {"has": {"Results": {"improves": "x \ud800 y"}}},
                 "Code": {"has": {"Code": {"a\\ud800": "\U0001f600 \\ud800"}}}}
        make_paper(tmp_path, "t", "p", units=units)
        assert "\\ud800" in (tmp_path / "t" / "p" / "info-units" / "Results.json").read_text()
        corpus, issues = load_corpus(CorpusManifest(root_path=tmp_path))
        assert [i.as_line() for i in issues if i.code == "format-error"] == [
            "t/p/info-units/Results.json\tformat-error\tError\t"
            "malformed unit file: a \\u escape gives the lone surrogate '\\ud800'"]
        paper = corpus.get("p")
        assert UnitLabel.RESULTS not in paper.units
        assert paper.triples[UnitLabel.CODE][-1].key() == ("Code", "a\\ud800",
                                                            "\U0001f600 \\ud800")

    def test_glob_metacharacters_in_ids(self, tmp_path):
        results = {"Results": "(Contribution||has||Results)\n(Results||improves||e f)\n"}
        make_paper(tmp_path, "t", "p[1]", units=MINIMAL_UNITS, triples=results)
        make_paper(tmp_path, "t[1]", "p2", units=MINIMAL_UNITS, triples=results)
        corpus, issues = load_corpus(CorpusManifest(root_path=tmp_path))
        assert corpus.paper_ids() == ["p[1]", "p2"]
        assert {i.code for i in issues} == {"missing-phrases"}
        assert [i.location for i in issues] == ["t/p[1]/phrases.tsv", "t[1]/p2/phrases.tsv"]
        for paper in corpus.papers():
            assert len(paper.units) == 3
            assert len(paper.triples[UnitLabel.RESULTS]) == 2

    @pytest.mark.parametrize("newline", ["\r\n", "\r"])
    def test_crlf_and_cr_files_load_as_in_text_mode(self, tmp_path, newline):
        for root in (tmp_path / "lf", tmp_path / "other"):
            d = make_paper(root, "t", "p", text="a b c\n\nd e f\n", sentences="1\n3\n1\n",
                           units=MINIMAL_UNITS,
                           triples={"Results": "(Contribution||has||Results)\n"
                                               "(Results|improves|e f)\n"})
            (d / "phrases.tsv").write_text("3\t0\t2\td e\n1\t0\t9\tz\n", encoding="utf-8")
            (d / "info-units" / "Baselines.json").write_text(
                '{\n  "has": {\n    "Baselines": [\n}\n', encoding="utf-8")
        for path in (tmp_path / "other").rglob("*"):
            if path.is_file():
                path.write_bytes(path.read_bytes().replace(b"\n", newline.encode()))
        lf, lf_issues = load_corpus(CorpusManifest(root_path=tmp_path / "lf"))
        other, other_issues = load_corpus(CorpusManifest(root_path=tmp_path / "other"))
        assert other == lf
        assert other_issues == lf_issues
        lines = [i.as_line() for i in lf_issues]
        assert any("Baselines.json:4\tformat-error\tError\tmalformed unit file" in line
                   for line in lines)
        assert {i.code for i in lf_issues} >= {
            "format-error", "duplicate-sentence-index", "span-out-of-range",
            "single-pipe-delimiter"}

    @settings(max_examples=150, deadline=None)
    @given(st.lists(st.sampled_from(["\r", "\r\n", "\n", "\x0b", "\x1c", "\u2028",
                                     "\t", " ", "\ufeff", "a", "b c"])
                    | st.text(max_size=3), max_size=12).map("".join),
           st.booleans())
    @example("a\r\nb\rc\x0bd\x1ce\u2028f\tg", True)
    def test_document_lines_equal_eager_sentences(self, text, bom):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "t" / "p" / "text.txt"
            path.parent.mkdir(parents=True)
            path.write_bytes((("\ufeff" if bom else "") + text).encode("utf-8"))
            with open(path, encoding="utf-8-sig") as fh:
                lines = text_mode_lines(fh)
            corpus, _ = load_corpus(CorpusManifest(root_path=tmp))
        eager = [Sentence("p", i, tuple(line.split())) if line.split() else None
                 for i, line in enumerate(lines, 1)]
        paper = corpus.get("p")
        assert isinstance(paper.sentences, DocumentLines)
        assert paper.sentences == eager and eager == paper.sentences
        assert list(paper.sentences) == eager
        assert [paper.sentences[i] for i in range(len(eager))] == eager
        assert paper.sentences[1:-1] == eager[1:-1]
        assert paper.total_sentence_count == len(eager)
        assert paper.total_token_count == sum(len(s.tokens) for s in eager if s)

    @settings(max_examples=50, deadline=None)
    @given(st.permutations(["\n", "\r", "\r\n", *IN_LINE_BREAKS]),
           st.lists(st.text(max_size=4), min_size=12, max_size=12))
    def test_token_count_is_the_sum_over_lines(self, breaks, pieces):
        # each line end and each of the eight in-line breaks, each between
        # two drawn pieces
        text = "".join(p + b for p, b in zip(pieces, breaks + [""]))
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "t" / "p" / "text.txt"
            path.parent.mkdir(parents=True)
            path.write_bytes(text.encode("utf-8"))
            with open(path, encoding="utf-8-sig") as fh:
                lines = text_mode_lines(fh)
            corpus, _ = load_corpus(CorpusManifest(root_path=tmp))
        paper = corpus.get("p")
        assert paper.total_token_count == sum(len(line.split()) for line in lines)
        assert paper.total_sentence_count == len(lines)

    def test_trial_load_builds_no_triple_from_a_file_with_a_tree(self, trial_root,
                                                                monkeypatch):
        assert list(trial_root.glob("*/*/triples/*.txt"))
        built = []
        init = Triple.__init__
        from_canonical = Triple._from_canonical

        def counting(triple, *args, **kwargs):
            built.append(triple)
            init(triple, *args, **kwargs)

        def counting_canonical(cls, *args):
            triple = from_canonical(*args)
            built.append(triple)
            return triple

        monkeypatch.setattr(Triple, "__init__", counting)
        monkeypatch.setattr(Triple, "_from_canonical", classmethod(counting_canonical))
        corpus, _ = load_corpus(CorpusManifest(root_path=trial_root))
        stored = [t for p in corpus.papers() for ts in p.triples.values() for t in ts]
        assert all(set(p.units) == set(p.triples) for p in corpus.papers())
        # every Triple made at load is a flattened tree's stored one
        assert len(built) == len(stored)
        assert {id(t) for t in built} == {id(t) for t in stored}

    def test_each_referenced_sentence_is_built_once(self, trial_root, monkeypatch):
        built = []
        build = DocumentLines._sentence

        def counting(lines, index, line):
            built.append((lines.paper_id, index))
            return build(lines, index, line)

        monkeypatch.setattr(DocumentLines, "_sentence", counting)
        corpus, issues = load_corpus(CorpusManifest(root_path=trial_root))
        assert not issues
        referenced = {(p.paper_id, s.sentence_index) for p in corpus.papers()
                      for s in p.phrases}
        # load tokenizes only the lines that phrases point at, each once,
        # however many spans a line carries
        assert sorted(built) == sorted(referenced)
        assert sum(len(p.phrases) for p in corpus.papers()) > len(referenced)

    def test_loaded_triple_objects_are_the_tree_strings(self, trial_root):
        corpus, _ = load_corpus(CorpusManifest(root_path=trial_root))
        objects = 0
        for paper in corpus.papers():
            for unit, tree in paper.units.items():
                strings = {id(c.label if isinstance(c, Node) else c)
                           for node in tree.nodes() for _, c in node.edges}
                for triple in paper.triples[unit]:
                    assert id(triple.object) in strings, triple
                    objects += " " in triple.object
        assert objects  # multi-word objects, which canonicalizing would copy

    @pytest.mark.skipif(sys.implementation.name != "cpython" or sys.version_info[:2] != (3, 11),
                        reason="object sizes are those of CPython 3.11")
    def test_document_lines_retained_bytes_per_line(self, trial_root):
        # CPython 3.11, trial corpus: about 83 bytes per line when each line
        # was a str of its own in a list, and about 34 with one str per
        # paper and an 8-byte end offset per line
        gc.collect()
        tracemalloc.start()
        try:
            corpus, _ = load_corpus(CorpusManifest(root_path=trial_root))
            gc.collect()
            loaded = tracemalloc.get_traced_memory()[0]
            lines = 0
            for paper in corpus.papers():
                lines += len(paper.sentences)
                # a replace would flatten every tree again inside the window
                object.__setattr__(paper, "sentences", None)
            gc.collect()
            retained = loaded - tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert retained / lines < 60

    @pytest.mark.skipif(sys.implementation.name != "cpython" or sys.version_info[:2] != (3, 11),
                        reason="object sizes are those of CPython 3.11")
    def test_phrase_columns_retained_bytes_per_span(self, trial_root):
        # CPython 3.11, trial corpus: about 137 bytes per span when each
        # span was a PhraseSpan holding its own str, and about 37 as
        # columns of 4-byte integers and one UTF-8 buffer per paper
        gc.collect()
        tracemalloc.start()
        try:
            corpus, _ = load_corpus(CorpusManifest(root_path=trial_root))
            gc.collect()
            loaded = tracemalloc.get_traced_memory()[0]
            spans = 0
            for paper in corpus.papers():
                spans += len(paper.phrases)
                # a replace would flatten every tree again inside the window
                object.__setattr__(paper, "phrases", None)
            gc.collect()
            retained = loaded - tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert retained / spans <= 64

    def test_duplicate_paper_id_across_tasks(self, tmp_path):
        make_paper(tmp_path, "t1", "p", units=MINIMAL_UNITS)
        make_paper(tmp_path, "t2", "p", units=MINIMAL_UNITS)
        corpus, issues = load_corpus(CorpusManifest(root_path=tmp_path))
        assert len(corpus) == 1
        assert "duplicate-paper-id" in {i.code for i in issues}

    @pytest.mark.parametrize("folder, suffix, role, bodies", [
        ("info-units", ".json", "units",
         [json.dumps({"has": {"Approach": {"uses": word}}}) for word in ("a", "b")]),
        ("triples", ".txt", "triples",
         [f"(Contribution||has||Approach)\n(Approach||uses||{word})\n" for word in "ab"]),
    ], ids=["units", "triples"])
    def test_a_second_file_of_a_unit_is_skipped(self, tmp_path, folder, suffix, role,
                                                bodies):
        d = make_paper(tmp_path, "t", "p")
        (d / folder).mkdir(exist_ok=True)
        # method is an alias of Approach, and Approach.json comes first in path order
        for name, body in zip(("Approach", "method"), bodies):
            (d / folder / f"{name}{suffix}").write_text(body, encoding="utf-8")
        corpus, issues = load_corpus(CorpusManifest(root_path=tmp_path))
        assert [t.key() for t in corpus.get("p").triples[UnitLabel.APPROACH]] == [
            ("Contribution", "has", "Approach"), ("Approach", "uses", "a")]
        assert [i.as_line() for i in issues if i.code == "duplicate-unit-file"] == [
            f"t/p/{folder}/method{suffix}\tduplicate-unit-file\tError\t"
            f"a second {role} file of Approach; skipped"]
        assert "triples-file-mismatch" not in {i.code for i in issues}
        # a directory in place of the second file is absent, not a second file
        (d / folder / f"method{suffix}").unlink()
        (d / folder / f"method{suffix}").mkdir()
        _, issues = load_corpus(CorpusManifest(root_path=tmp_path))
        assert "duplicate-unit-file" not in {i.code for i in issues}

    @pytest.mark.parametrize("folder, suffix, broken, good", [
        ("info-units", ".json", "{", json.dumps({"has": {"Approach": {"uses": "b"}}})),
        ("triples", ".txt", "not a triple\n",
         "(Contribution||has||Approach)\n(Approach||uses||b)\n"),
    ], ids=["units", "triples"])
    def test_a_unit_file_that_fails_to_parse_claims_nothing(self, tmp_path, folder,
                                                           suffix, broken, good):
        d = make_paper(tmp_path, "t", "p")
        (d / folder).mkdir(exist_ok=True)
        (d / folder / f"Approach{suffix}").write_text(broken, encoding="utf-8")
        (d / folder / f"method{suffix}").write_text(good, encoding="utf-8")
        corpus, issues = load_corpus(CorpusManifest(root_path=tmp_path))
        assert [t.key() for t in corpus.get("p").triples[UnitLabel.APPROACH]] == [
            ("Contribution", "has", "Approach"), ("Approach", "uses", "b")]
        assert [i.location for i in issues if i.severity == ERROR] == [
            f"t/p/{folder}/Approach{suffix}:1"]

    @pytest.mark.parametrize("name, body", [
        ("phrases.tsv", "1\t0\t1\ta\x0c\nnot a phrase line\n"),
        ("triples/Results.txt", "(Contribution||has||Results)\x0c\nnot a triple line\n"),
    ])
    def test_a_format_error_after_an_in_line_break_names_the_lf_line(self, tmp_path,
                                                                      name, body):
        d = make_paper(tmp_path, "t", "p")
        (d / name).parent.mkdir(exist_ok=True)
        (d / name).write_bytes(body.encode("utf-8"))
        _, issues = load_corpus(CorpusManifest(root_path=tmp_path))
        assert [i.location for i in issues if i.code == "format-error"] == [f"t/p/{name}:2"]

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_in_line_breaks_load_as_spaces(self, data):
        """A plaintext line, a phrase surface or a triple field holding any of
        the eight in-line breaks loads as its copy with each replaced by a
        space, papers and issues alike."""
        words = st.lists(st.tuples(st.sampled_from(["a", "b", "c", "Results", "on"]),
                                   st.sampled_from([" ", *IN_LINE_BREAKS])),
                         min_size=1, max_size=4).map(lambda ws: "".join(w + s for w, s in ws))
        lines = data.draw(st.lists(st.just("") | words, min_size=1, max_size=5))
        phrases = data.draw(st.lists(st.tuples(st.integers(1, len(lines) + 1),
                                               st.integers(0, 3), st.integers(1, 4), words),
                                     max_size=5))
        triples = data.draw(st.lists(st.tuples(words | st.just("Results"), words, words),
                                     max_size=5))
        files = {
            "text.txt": "".join(f"{line}\n" for line in lines),
            "sentences.txt": "1\n",
            "phrases.tsv": "".join(f"{i}\t{s}\t{e}\t{surface}\n"
                                   for i, s, e, surface in phrases),
            "triples/Results.txt": "(Contribution||has||Results)\n" + "".join(
                f"({s}||{p}||{o})\n" for s, p, o in triples),
        }
        spaces = dict.fromkeys(map(ord, IN_LINE_BREAKS), " ")
        loaded = []
        for table in ({}, spaces):
            with tempfile.TemporaryDirectory() as tmp:
                for name, body in files.items():
                    path = Path(tmp) / "t" / "p" / name
                    path.parent.mkdir(parents=True, exist_ok=True)
                    path.write_bytes(body.translate(table).encode("utf-8"))
                loaded.append(load_corpus(CorpusManifest(root_path=tmp)))
        assert loaded[0] == loaded[1]


# bytes biased towards BOMs, line ends and broken UTF-8
CHUNKS = st.sampled_from([b"\xef\xbb\xbf", b"\r", b"\n", b"\r\n", b"a", b" ", b"\t",
                          b"\xc3\xa9", b"\xe2\x80\xa8", b"\xff", b"\xc3", b"\xed\xa0\x80"])
FILE_BYTES = st.one_of(st.binary(), st.lists(CHUNKS).map(b"".join))


class TestRead:
    @staticmethod
    def text_mode(path: Path, location: str) -> str:
        """The reference: the message of a UTF-8 decode of the whole file
        when it fails, and a text-mode read otherwise.  The decode goes
        first because a text-mode read returns "" for a file that is only
        the start of a BOM, such as b"\\xef"."""
        try:
            path.read_bytes().decode("utf-8-sig")
        except UnicodeDecodeError as exc:
            bad = exc.object[exc.start:exc.end].hex()
            raise FormatError(f"not valid UTF-8 ({exc.reason} 0x{bad})",
                              path=location) from None
        with open(path, encoding="utf-8-sig") as fh:
            return fh.read()

    @settings(max_examples=300)
    @given(FILE_BYTES)
    @example(b"")
    @example(b"\xef\xbb\xbf")
    @example(b"\xef\xbb\xbf\xef\xbb\xbfa\r\nb\rc\n")
    @example(b"a\xffb")
    @example(b"\xef")
    @example(b"x" * 70_000 + b"\r\n\xc3\xa9" * 3000)
    @example(b"x" * 70_000 + b"\xff")
    def test_agrees_with_a_text_mode_read(self, data):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "f.txt"
            path.write_bytes(data)
            try:
                want = self.text_mode(path, "loc")
            except FormatError as exc:
                with pytest.raises(FormatError) as info:
                    _read(path, "loc")
                assert str(info.value) == str(exc)
            else:
                assert _read(path, "loc") == want

    def test_nothing_there_reads_as_none(self, tmp_path):
        (tmp_path / "dir").mkdir()
        (tmp_path / "link").symlink_to(tmp_path / "nowhere")
        (tmp_path / "file").write_text("x", encoding="utf-8")
        for name in ("missing", "dir", "link", "file/below"):
            assert _read(tmp_path / name, name) is None


def make_messy_corpus(root):
    """One corpus that reaches every issue branch of loading a paper."""
    (root / "t" / "a" / "info-units").mkdir(parents=True)  # no text.txt
    d = make_paper(root, "t", "b", units=MINIMAL_UNITS)
    (d / "text.txt").write_bytes(b"a b \xff\n")
    d = make_paper(root, "t", "c", sentences=None,
                   units={**MINIMAL_UNITS, "Objective": {"has": {"Objective": {}}}},
                   triples={"Objective": "(Contribution||has||Objective)\n",
                            "Model": "Model||name||d\n",
                            "Results": "(Contribution||has||Results)\n"
                                       "(Results||improves||g h)\n",
                            "Tasks": "(Tasks||has||x)\n"})
    (d / "phrases.tsv").write_text("1\t0\n", encoding="utf-8")
    (d / "info-units" / "Baselines.json").write_text('{"has": [\n', encoding="utf-8")
    d = make_paper(root, "t", "d", sentences="1\nNaN\n",
                   triples={"Results": "(Contribution||has||Results)\n"
                                       "(Results||improves||e f)\n"})
    d = make_paper(root, "t", "e", units=MINIMAL_UNITS)
    (d / "phrases.tsv").write_text("1\t0\t2\ta b\n", encoding="utf-8")
    d = make_paper(root, "t", "f", units={"Objective": {"has": {"Objective": {}}}})
    (d / "phrases.tsv").write_text("", encoding="utf-8")
    d = make_paper(root, "t", "g")
    (d / "phrases.tsv").write_text("", encoding="utf-8")


class TestLoadIssues:
    def test_every_load_issue_line_in_order(self, tmp_path):
        make_messy_corpus(tmp_path)
        corpus, issues = load_corpus(CorpusManifest(root_path=tmp_path))
        assert corpus.paper_ids() == ["c", "d", "e", "f", "g"]
        assert [i.as_line() for i in issues] == [
            "t/a/text.txt\tmissing-text\tError\tplaintext absent; paper skipped",
            "t/b/text.txt\tformat-error\tError\tnot valid UTF-8 "
            "(invalid start byte 0xff); paper skipped",
            "t/c/sentences.txt\tmissing-sentences\tWarning\tsentence-index file absent",
            "t/c/phrases.tsv:1\tformat-error\tError\t"
            "expected 4 tab-separated columns, got 2",
            "t/c/info-units/Baselines.json:2\tformat-error\tError\t"
            "malformed unit file: Expecting value",
            "t/c/info-units/Objective.json\tunknown-unit-label\tWarning\t"
            "not an information unit: 'Objective'",
            "t/c/triples/Model.txt:1\tformat-error\tError\t"
            "triple line must be wrapped in parentheses",
            "t/c/triples/Objective.txt\tunknown-unit-label\tWarning\t"
            "not an information unit: 'Objective'",
            "t/c/Results\ttriples-file-mismatch\tWarning\t"
            "tree-only: [('Results', 'improves', 'e f')]; "
            "file-only: [('Results', 'improves', 'g h')]",
            "t/c/Tasks\tnest-failed\tWarning\t"
            "orphan subject 'Tasks': never introduced as an object",
            "t/d/sentences.txt:2\tformat-error\tError\t"
            "not a positive sentence index: 'NaN'",
            "t/d/phrases.tsv\tmissing-phrases\tWarning\tphrase file absent",
            "t/d\tmissing-units\tWarning\tno information-unit files found",
            "t/e\tmissing-triples\tWarning\t"
            "no triples files; derived by flattening the unit trees",
            "t/f/info-units/Objective.json\tunknown-unit-label\tWarning\t"
            "not an information unit: 'Objective'",
            "t/g\tmissing-units\tWarning\tno information-unit files found",
        ]
        c, d, e, f, g = corpus.papers()
        assert c.contribution_sentence_indices is None and c.phrases is None
        assert set(c.units) == set(MINIMAL_UNITS_LABELS)
        assert set(c.triples) == {UnitLabel.RESULTS, UnitLabel.TASKS, *MINIMAL_UNITS_LABELS}
        assert c.triples[UnitLabel.TASKS] == [Triple.of("Tasks", "has", "x")]
        assert d.contribution_sentence_indices is None and d.phrases is None
        assert set(d.units) == set(d.triples) == {UnitLabel.RESULTS}
        assert e.contribution_sentence_indices == {1}
        assert e.phrases == [PhraseSpan(1, 0, 2, "a b")]
        assert set(e.units) == set(e.triples) == set(MINIMAL_UNITS_LABELS)
        # unit files that all fail leave an empty map; no unit files leave None
        assert (f.units, f.triples, g.units, g.triples) == ({}, None, None, None)

    def test_paper_and_unit_issues_follow_the_layout(self, tmp_path):
        for root in (tmp_path / "default", tmp_path / "moved" / "data"):
            make_messy_corpus(root)
            make_paper(root, "u", "c", units=MINIMAL_UNITS)
        default = load_corpus(CorpusManifest(root_path=tmp_path / "default"))[1]
        layout = {role: "data/" + pattern for role, pattern in DEFAULT_LAYOUT.items()}
        moved = load_corpus(CorpusManifest(root_path=tmp_path / "moved", layout=layout))[1]
        assert {"missing-units", "missing-triples", "duplicate-paper-id",
                "triples-file-mismatch", "nest-failed"} <= {i.code for i in default}
        assert [(i.code, i.location, i.message) for i in moved] == [
            (i.code, f"data/{i.location}", i.message) for i in default]
        assert [i.location for i in moved if i.code == "duplicate-paper-id"] == ["data/u/c"]

    def test_dangling_predicate_is_reported_at_its_unit_file(self, tmp_path):
        results = {"has": {"Results": {"improves": "e f", "on": {}, "by": " "}}}
        make_paper(tmp_path, "t", "p", units={**MINIMAL_UNITS, "Results": results})
        _, issues = load_corpus(CorpusManifest(root_path=tmp_path))
        assert [i.as_line() for i in issues if i.code == "dangling-predicate"] == [
            f"t/p/info-units/Results.json\tdangling-predicate\tWarning\t"
            f"predicate {p!r} of 'Results' has no value" for p in ("on", "by")]

    def test_dangling_predicates_come_in_pre_order(self):
        # dangling edges at several depths, inside a mixed list and a list
        # of strings, and under a key the object repeats, whose values are
        # read at its first place
        text = """{"has": {"Results": {
            "on": {},
            "improves": {"X": {"by": null, "over": {"Y": {"at": ""}}}},
            "lists": ["a", null, {"Z": {"with": []}}, " ", "b"],
            "among": ["x", ""],
            "on": null,
            "last": [[null], "v"]}}}"""
        issues = []
        tree = parse_unit_file(text, UnitLabel.RESULTS, issues=issues, location="R.json")
        expected = [("on", "Results"), ("on", "Results"), ("by", "X"), ("at", "Y"),
                    ("lists", "Results"), ("with", "Z"), ("lists", "Results"),
                    ("among", "Results"), ("last", "Results")]
        assert [i.as_line() for i in issues] == [
            f"R.json\tdangling-predicate\tWarning\tpredicate {p!r} of {n!r} has no value"
            for p, n in expected]
        # the order of a walk of the tree
        assert [(p.text, node.label) for _, node, p, child in tree.root.walk_edges()
                if child is None] == expected

    def test_iter_papers_streams_what_load_corpus_collects(self, tmp_path, comparison_root):
        make_messy_corpus(tmp_path)
        for root in (tmp_path, comparison_root):
            corpus, issues = load_corpus(CorpusManifest(root_path=root))
            streamed = []
            assert list(iter_papers(CorpusManifest(root_path=root), streamed)) == list(corpus)
            assert streamed == issues
        # a paper comes before the next one is read
        streamed = []
        papers = iter_papers(CorpusManifest(root_path=tmp_path), streamed)
        assert next(papers).paper_id == "c"
        assert [i.location for i in streamed][-1] == "t/c/Tasks"

    def test_iter_papers_under_strict_is_load_corpus_under_strict(self, tmp_path,
                                                                comparison_root):
        manifest = CorpusManifest(root_path=comparison_root, strict=True)
        corpus, issues = load_corpus(manifest)
        streamed = []
        assert list(iter_papers(manifest, streamed)) == list(corpus)
        assert streamed == issues and issues
        make_messy_corpus(tmp_path)
        manifest = CorpusManifest(root_path=tmp_path, strict=True)
        with pytest.raises(FormatError) as loaded:
            load_corpus(manifest)
        with pytest.raises(FormatError) as streamed:
            list(iter_papers(manifest, []))
        assert str(streamed.value) == str(loaded.value) == (
            "t/a/text.txt: missing plaintext file")

    @pytest.mark.parametrize("rel, body, message", [
        ("text.txt", b"a b \xff\n", "t/p/text.txt: not valid UTF-8"),
        ("sentences.txt", b"NaN\n", "t/p/sentences.txt:1: not a positive"),
        ("phrases.tsv", b"1\t0\n", "t/p/phrases.tsv:1: expected 4"),
        ("info-units/Baselines.json", b"{", "t/p/info-units/Baselines.json:1: malformed"),
        ("triples/Model.txt", b"Model||name||d\n", "t/p/triples/Model.txt:1: triple line"),
    ])
    def test_strict_mode_raises_for_each_file_role(self, tmp_path, rel, body, message):
        d = make_paper(tmp_path, "t", "p", units=MINIMAL_UNITS, triples={
            "Results": "(Contribution||has||Results)\n(Results||improves||e f)\n"})
        (d / "phrases.tsv").write_text("1\t0\t2\ta b\n", encoding="utf-8")
        assert load_corpus(CorpusManifest(root_path=tmp_path, strict=True))[1] == []
        (d / rel).write_bytes(body)
        with pytest.raises(FormatError) as info:
            load_corpus(CorpusManifest(root_path=tmp_path, strict=True))
        assert str(info.value).startswith(message)
        _, issues = load_corpus(CorpusManifest(root_path=tmp_path))
        # a bad text.txt skips the only paper, which leaves the corpus empty;
        # the issue is located where the strict error says, file and line
        assert [(i.code, i.location) for i in issues if i.code != "empty-corpus"] == [
            ("format-error", message.split(": ")[0])]
