import copy
import gc
import pickle
import re
import sys
import tracemalloc
from dataclasses import FrozenInstanceError, fields, replace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ncgkit import (
    CONTRIBUTION,
    Corpus,
    CorpusManifest,
    DocumentLines,
    MatchConfig,
    Node,
    PaperAnnotation,
    Predicate,
    PredicateKind,
    PhraseColumns,
    PhraseSpan,
    Sentence,
    Triple,
    UnitLabel,
    UnitTree,
    UnknownUnitLabel,
    build_graph,
    canonical_text,
    compare,
    corpus_stats,
    export_ntriples,
    flatten,
    lookup_unit_label,
    load_corpus,
    normalize_unit_label,
    render,
    score,
    traverse,
    unit_stats,
    validate_paper,
)
from ncgkit.model import ReadOnlyList
from corpusgen import write_chain_corpus
from tree_oracle import edges_preorder, generated, nodes_preorder, small_trees

#: Every line break of ``str.splitlines``.
BREAKS = "\n\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"

#: Every character ``str.split`` breaks on.
WHITESPACE = ("\t\n\x0b\x0c\r\x1c\x1d\x1e\x1f \x85\xa0\u1680\u2000\u2001\u2002"
              "\u2003\u2004\u2005\u2006\u2007\u2008\u2009\u200a\u2028\u2029\u202f"
              "\u205f\u3000")

CANONICAL_NAMES = [
    "ResearchProblem", "Approach", "Model", "Code", "Dataset",
    "ExperimentalSetup", "Hyperparameters", "Baselines", "Results",
    "Tasks", "Experiments", "AblationAnalysis",
]


class TestNormalizeUnitLabel:
    def test_system_and_architecture_fold_into_model(self):
        assert normalize_unit_label("system") is UnitLabel.MODEL
        assert normalize_unit_label("architecture") is UnitLabel.MODEL

    def test_method_and_application_fold_into_approach(self):
        assert normalize_unit_label("method") is UnitLabel.APPROACH
        assert normalize_unit_label("application") is UnitLabel.APPROACH

    def test_canonical_names_map_to_themselves(self):
        for name in CANONICAL_NAMES:
            assert normalize_unit_label(name).identifier == name

    def test_dropped_unit_is_rejected(self):
        with pytest.raises(UnknownUnitLabel):
            normalize_unit_label("Objective")

    def test_case_and_whitespace_insensitive(self):
        assert normalize_unit_label("experimental setup") is UnitLabel.EXPERIMENTAL_SETUP
        assert normalize_unit_label("Experimental Setup") is UnitLabel.EXPERIMENTAL_SETUP
        assert normalize_unit_label("RESULTS") is UnitLabel.RESULTS

    def test_empty_rejected(self):
        with pytest.raises(UnknownUnitLabel):
            normalize_unit_label("   ")

    def test_exactly_twelve_labels(self):
        assert sorted(u.identifier for u in UnitLabel) == sorted(CANONICAL_NAMES)

    @given(st.sampled_from(CANONICAL_NAMES + ["system", "architecture", "method",
                                              "application"]),
           st.randoms())
    def test_idempotent_through_display(self, name, rng):
        # normalize(display(normalize(x))) == normalize(x), under any casing
        scrambled = "".join(c.upper() if rng.random() < 0.5 else c.lower()
                            for c in name)
        label = normalize_unit_label(scrambled)
        assert normalize_unit_label(label.display) is label
        assert normalize_unit_label(label.identifier) is label


#: Every unit name and alias, keyed by its lowercase spelling.
REGEX_LOOKUP = {**{name.lower(): normalize_unit_label(name) for name in CANONICAL_NAMES},
                **{alias: normalize_unit_label(alias)
                   for alias in ("method", "application", "system", "architecture")}}


def spaced_names():
    """Unit names and aliases in any case, with any whitespace anywhere."""
    pieces = st.one_of(st.sampled_from(sorted(REGEX_LOOKUP) + ["Research Problem"]),
                       st.text(max_size=3))
    return st.lists(st.one_of(pieces, st.text(" \t\n\x0b\x0c\r\x1c\x1f\x85\xa0\u2028\u3000")),
                    max_size=4).map("".join)


@given(st.one_of(spaced_names(), st.text()))
def test_lookup_unit_label_matches_the_regex_key(raw):
    expected = REGEX_LOOKUP.get(re.sub(r"\s+", "", raw).lower())
    assert lookup_unit_label(raw) is expected
    if expected is None:
        with pytest.raises(UnknownUnitLabel):
            normalize_unit_label(raw)
    else:
        assert normalize_unit_label(raw) is expected


class TestCanonicalText:
    def test_collapses_whitespace(self):
        assert canonical_text("  best   performance ") == "best performance"

    def test_identity_on_clean_text(self):
        assert canonical_text("F1 measure") == "F1 measure"

    def test_preserves_exotic_tokens(self):
        assert canonical_text("RNN Encoder – Decoder") == "RNN Encoder – Decoder"

    @given(st.text())
    def test_idempotent_and_token_preserving(self, text):
        once = canonical_text(text)
        assert canonical_text(once) == once
        assert once.split(" ") == canonical_text(once).split(" ")
        assert once.split() == text.split()

    def test_every_break_but_the_space_is_unprintable(self):
        # the fast check keeps a printable string, so it is exact only if
        # no printable character other than the space is one split breaks on
        every = "".join(map(chr, range(0x110000)))
        assert "".join(c for c in every if c.isspace()) == WHITESPACE
        assert "".join(every.split()) == every.translate(dict.fromkeys(map(ord, WHITESPACE)))
        assert [c for c in WHITESPACE if c.isprintable()] == [" "]

    @given(st.text() | st.text(st.sampled_from("ab" + WHITESPACE)))
    @example(" a")
    @example("a ")
    @example("a  b")
    @example("a\u3000b")
    def test_is_split_and_join(self, raw):
        text = " ".join(raw.split())
        assert canonical_text(raw) == text
        if text == raw:
            assert canonical_text(raw) is raw


class TestPredicate:
    @pytest.mark.parametrize("text,kind", [
        ("has", PredicateKind.FILLER_HAS),
        ("name", PredicateKind.FILLER_NAME),
        ("hasAcronym", PredicateKind.FILLER_HAS_ACRONYM),
        ("improves the performance", PredicateKind.TEXTUAL),
        ("Has", PredicateKind.TEXTUAL),
    ])
    def test_kind_inference(self, text, kind):
        assert Predicate(text).kind is kind

    def test_from_text_canonicalizes_once(self, monkeypatch):
        calls = []

        def counting(raw):
            calls.append(raw)
            return canonical_text(raw)

        monkeypatch.setattr("ncgkit.model.canonical_text", counting)
        predicate = Predicate(" has\n")
        assert calls == [" has\n"]
        assert (predicate.text, predicate.kind) == ("has", PredicateKind.FILLER_HAS)


class TestTriple:
    def test_of_canonicalizes(self):
        t = Triple.of(" Results ", "on", "QASent  dataset")
        assert t.subject == "Results"
        assert t.object == "QASent dataset"

    def test_empty_fields_rejected(self):
        with pytest.raises(ValueError):
            Triple.of("a", "b", "   ")


    @given(st.text())
    @example("\x1c\x1d\x1e\x1f")
    @example("\x85\xa0\u2028\u3000")
    @example("\u200b")
    @example("\ufeff")
    @example(" has")
    def test_empty_check_is_canonical_emptiness(self, part):
        empty = not canonical_text(part)
        has = Predicate("has")
        textual = canonical_text(part) not in ("has", "name", "hasAcronym")
        cases = [lambda: Triple(part, has, "o"), lambda: Triple("s", has, part)]
        if textual:
            cases.append(lambda: Triple("s", Predicate(part), "o"))
        for build in cases:
            if empty:
                with pytest.raises(ValueError):
                    build()
            else:
                build()


class TestCanonicalFields:
    def test_fields_are_canonical_and_canonical_strings_are_kept(self):
        clean = "".join(["on ", "CoNLL"])  # a string object of its own
        has = Predicate("has")
        node = Node(" on\t CoNLL ")
        node.add(has, "\u3000F1  score\n")
        node.add(has, " \t")
        node.add(has, clean)
        assert node.label == "on CoNLL"
        assert node.edges[:2] == [(has, "F1 score"), (has, None)]
        assert node.edges[2][1] is clean
        assert Node(clean).label is clean
        assert Predicate(" has\n").text == "has"
        assert Predicate(clean).text is clean
        triple = Triple(" a  b", has, clean)
        assert triple.key() == ("a b", "has", "on CoNLL") and triple.object is clean
        assert PhraseSpan(1, 0, 2, "on\n CoNLL").text == "on CoNLL"
        assert PhraseSpan(1, 0, 2, clean).text is clean

    def test_blank_node_label_is_rejected(self):
        for label in ("", " \t "):
            with pytest.raises(ValueError):
                Node(label)


class TestDocumentLines:
    LINES = ["a b", "", "  ", "c\td  e"]

    def eager(self):
        return [Sentence("p", 1, ("a", "b")), None, None, Sentence("p", 4, ("c", "d", "e"))]

    def test_items_are_built_on_access(self):
        lines = DocumentLines("p", list(self.LINES))
        assert len(lines) == 4
        assert lines[0] == Sentence("p", 1, ("a", "b"))
        assert lines[3].text == "c d e"
        assert lines[1] is None and lines[2] is None
        assert lines[-1] == lines[3]
        assert lines[1:] == self.eager()[1:]
        assert lines[::-1] == self.eager()[::-1]
        with pytest.raises(IndexError):
            lines[4]
        with pytest.raises(IndexError):
            lines[-5]

    def test_equality_with_lists_and_views(self):
        lines = DocumentLines("p", list(self.LINES))
        assert lines == self.eager() and self.eager() == lines
        assert lines == DocumentLines("p", ["a  b", "", "", "c d e"])
        assert lines != DocumentLines("q", list(self.LINES))
        assert lines != self.eager()[:3]
        assert lines != tuple(self.eager())
        assert repr(lines) == repr(self.eager())
        with pytest.raises(TypeError):
            hash(lines)

    @given(st.lists(st.text() | st.text(st.sampled_from("ab \t\ud800\udfff" + BREAKS)),
                    max_size=8),
           st.integers(-10, 10), st.slices(10))
    @example([], 0, slice(None))
    @example(["", "a\nb", "\r\n", " c\ud800 ", "\u2013 \U0001d465"], -1, slice(None, None, -2))
    def test_matches_the_eager_list(self, raw, index, window):
        lines = DocumentLines("p", list(raw))
        eager = [Sentence("p", i, tuple(line.split())) if line.split() else None
                 for i, line in enumerate(raw, 1)]
        assert len(lines) == len(eager)
        assert list(lines) == eager
        assert lines == eager and eager == lines
        assert repr(lines) == repr(eager)
        assert lines[window] == eager[window]
        if -len(eager) <= index < len(eager):
            assert lines[index] == eager[index]
        for outside in (len(eager), -len(eager) - 1):
            with pytest.raises(IndexError):
                lines[outside]

    @pytest.mark.skipif(sys.implementation.name != "cpython",
                        reason="measures CPython allocations")
    def test_one_wide_character_does_not_widen_the_paper(self):
        def retained(raw):
            gc.collect()
            tracemalloc.start()
            try:
                lines = DocumentLines("p", raw)
                return tracemalloc.get_traced_memory()[0]
            finally:
                tracemalloc.stop()

        plain = ["adding features"] * 200
        # one str holding all of the text would store every character in
        # four bytes here, and in two for a character such as "\u2013"
        assert retained(plain + ["\U0001d465"]) < 1.1 * retained(plain + ["x"])


#: Spans whose texts hold non-ASCII and astral characters and lone
#: surrogates; ``PhraseSpan`` makes each text canonical.
SPANS = st.tuples(st.integers(1, 2**32 - 1), st.integers(0, 2**31 - 1), st.integers(1, 2**31),
                  st.text() | st.text(st.sampled_from("ab \t\n\ud800\udfff\u2013\U0001d465"))
                  ).map(lambda t: PhraseSpan(t[0], t[1], t[1] + t[2], t[3]))


class TestPhraseColumns:
    EAGER = [PhraseSpan(3, 0, 2, "adding features"), PhraseSpan(1, 1, 2, "\u2013"),
             PhraseSpan(3, 0, 2, "adding features")]

    def test_items_are_built_on_access(self):
        spans = PhraseColumns.of(self.EAGER)
        assert isinstance(spans, PhraseColumns) and len(spans) == 3
        assert spans[1] == PhraseSpan(1, 1, 2, "\u2013") and spans[-1] == spans[0]
        assert list(spans.sentence_indices) == [3, 1, 3]
        assert list(spans.start_toks) == [0, 1, 0] and list(spans.end_toks) == [2, 2, 2]
        assert spans.texts() == ["adding features", "\u2013", "adding features"]
        assert PhraseColumns.of([]).texts() == []
        assert PhraseColumns.of([PhraseSpan(1, 0, 1, "")]).texts() == [""]

    @given(st.lists(SPANS, max_size=5).flatmap(
               lambda pool: st.lists(st.sampled_from(pool), max_size=8) if pool
               else st.just([])),
           st.integers(-10, 10), st.slices(10))
    @example([], 0, slice(None))
    @example([PhraseSpan(1, 0, 1, "a\ud800 \U0001d465"), PhraseSpan(2, 3, 4, "\udfff")] * 2,
             -1, slice(None, None, -2))
    def test_matches_the_eager_list(self, eager, index, window):
        spans = PhraseColumns.of(eager)
        assert PhraseColumns.of(spans) is spans
        assert len(spans) == len(eager)
        assert list(spans) == eager
        assert spans.texts() == [s.text for s in eager]
        assert spans == eager and eager == spans
        assert spans == PhraseColumns.of(list(eager)) and not spans != eager
        assert repr(spans) == repr(eager)
        assert spans[window] == eager[window]
        if -len(eager) <= index < len(eager):
            assert spans[index] == eager[index]
        for outside in (len(eager), -len(eager) - 1):
            with pytest.raises(IndexError):
                spans[outside]
        other = eager[:-1] if eager else [PhraseSpan(1, 0, 1, "x")]
        assert spans != other and other != spans
        assert spans != PhraseColumns.of(other)
        assert spans != tuple(eager)
        with pytest.raises(TypeError):
            hash(spans)


class TestSentence:
    def test_text_is_space_joined_tokens(self):
        s = Sentence("p", 3, ("adding", "features"))
        assert s.text == "adding features"

    def test_invariants(self):
        with pytest.raises(ValueError):
            Sentence("p", 0, ("x",))
        with pytest.raises(ValueError):
            Sentence("p", 1, ())


class TestPhraseSpan:
    def test_offsets_validated(self):
        with pytest.raises(ValueError):
            PhraseSpan(1, 2, 2, "x")
        with pytest.raises(ValueError):
            PhraseSpan(1, -1, 2, "x")

    def test_token_count(self):
        assert PhraseSpan(1, 2, 4, "adding features").token_count() == 2

    def test_the_largest_span_fits_the_columns(self):
        span = PhraseSpan(2**32 - 1, 2**32 - 2, 2**32 - 1, "x")
        assert list(PhraseColumns.of([span])) == [span]
        paper = PaperAnnotation("p", "t", total_sentence_count=1, total_token_count=1,
                                phrases=[span])
        assert corpus_stats(Corpus({"t": [paper]})).overall.ann_phrases == 1


HAS = Predicate("has")
IMPROVES = Predicate("improves")
IMPROVES_REPR = "Predicate(text='improves', kind=<PredicateKind.TEXTUAL: 'Textual'>)"

#: Per value type: positional arguments, the exact repr, a change for
#: ``dataclasses.replace`` and the fields it must yield.
VALUES = {
    Sentence: (("p", 3, ("adding", "features")),
               "Sentence(paper_id='p', index=3, tokens=('adding', 'features'), "
               "text='adding features')",
               {"tokens": ("on", "CoNLL")}, {"tokens": ("on", "CoNLL"), "text": "on CoNLL"}),
    PhraseSpan: ((159, 2, 4, "adding features"),
                 "PhraseSpan(sentence_index=159, start_tok=2, end_tok=4, "
                 "text='adding features')",
                 {"text": " on\tCoNLL\n"}, {"text": "on CoNLL"}),
    Predicate: (("improves",), IMPROVES_REPR,
                {"text": "\u3000beats  "}, {"text": "beats", "kind": PredicateKind.TEXTUAL}),
    Triple: (("Results", IMPROVES, "F1 score"),
             f"Triple(subject='Results', predicate={IMPROVES_REPR}, object='F1 score')",
             {"subject": " Our\nmodel "}, {"subject": "Our model", "object": "F1 score"}),
}


@pytest.mark.parametrize("cls", list(VALUES), ids=lambda cls: cls.__name__)
class TestValueTypes:
    def value(self, cls):
        return cls(*VALUES[cls][0])

    def test_fields_cannot_be_assigned(self, cls):
        value = self.value(cls)
        for f in fields(cls):
            with pytest.raises(FrozenInstanceError):
                setattr(value, f.name, getattr(value, f.name))
            with pytest.raises(FrozenInstanceError):
                delattr(value, f.name)
        assert not hasattr(value, "__dict__")

    def test_equality_hash_and_repr_are_field_wise(self, cls):
        args, expected_repr, change, _ = VALUES[cls]
        value = self.value(cls)
        twin = cls(*copy.deepcopy(args))
        assert value == twin and value is not twin
        assert hash(value) == hash(twin)
        assert hash(value) == hash(tuple(getattr(value, f.name) for f in fields(cls)))
        assert repr(value) == expected_repr
        assert replace(value, **change) != value

    def test_pickle_and_copies_round_trip(self, cls):
        value = self.value(cls)
        clones = [pickle.loads(pickle.dumps(value, protocol))
                  for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]
        for clone in clones + [copy.copy(value), copy.deepcopy(value)]:
            assert type(clone) is cls
            assert clone == value and hash(clone) == hash(value)
            assert repr(clone) == repr(value)
            with pytest.raises(FrozenInstanceError):
                setattr(clone, fields(cls)[0].name, None)

    def test_keywords_and_replace_build_through_the_checks(self, cls):
        args, _, change, expected = VALUES[cls]
        names = [f.name for f in fields(cls) if f.init]
        assert cls(**dict(zip(names, args))) == self.value(cls)
        changed = replace(self.value(cls), **change)
        assert {name: getattr(changed, name) for name in expected} == expected


@pytest.mark.parametrize("build, message", [
    (lambda: PhraseSpan(1, 2, 2, "x"), "bad span offsets [2, 2)"),
    (lambda: PhraseSpan(1, -1, 2, "x"), "bad span offsets [-1, 2)"),
    (lambda: PhraseSpan(0, 0, 1, "x"), "sentence index must be >= 1, got 0"),
    (lambda: PhraseSpan(2**40, 0, 1, "x"), f"span {2**40} [0, 1) does not fit 32 bits"),
    (lambda: PhraseSpan(1, 0, 2**32, "x"), f"span 1 [0, {2**32}) does not fit 32 bits"),
    (lambda: Triple("a", Predicate("b"), " \t"), "empty triple field in ('a', 'b', '')"),
    (lambda: Triple("\u3000", HAS, "o"), "empty triple field in ('', 'has', 'o')"),
    (lambda: Sentence("p", 0, ("x",)), "sentence index must be >= 1, got 0"),
    (lambda: Sentence("p", 1, ()), "sentence has no tokens"),
    (lambda: replace(Triple("s", HAS, "o"), object=""), "empty triple field in ('s', 'has', '')"),
    (lambda: Predicate(" \n"), "empty predicate"),
], ids=["empty-span", "negative-start", "span-index-0", "span-index-2**40", "span-end-2**32",
        "empty-object", "blank-subject", "index-0", "no-tokens", "replace", "blank-predicate"])
def test_value_type_errors(build, message):
    with pytest.raises(ValueError) as info:
        build()
    assert str(info.value) == message


# the loader's private constructors take parts that are canonical already
CANONICAL = st.text().map(canonical_text).filter(bool)


def assert_same_value(private, public) -> None:
    assert private == public and hash(private) == hash(public)
    assert repr(private) == repr(public)
    assert pickle.dumps(private) == pickle.dumps(public)
    assert pickle.loads(pickle.dumps(private)) == public


@given(st.integers(1, 500), st.integers(0, 50), st.integers(1, 50), CANONICAL)
@example(1, 0, 1, "x")
def test_private_span_constructor_equals_the_public_one(index, start, width, text):
    assert_same_value(PhraseSpan._from_canonical(index, start, start + width, text),
                      PhraseSpan(index, start, start + width, text))


@given(CANONICAL, st.one_of(st.sampled_from(["has", "name", "hasAcronym"]), CANONICAL),
       CANONICAL)
@example("Contribution", "has", "Results")
def test_private_triple_constructor_equals_the_public_one(subject, predicate, obj):
    predicate = Predicate(predicate)
    assert_same_value(Triple._from_canonical(subject, predicate, obj),
                      Triple(subject, predicate, obj))


def _identities(edges):
    """Edges with each node replaced by its identity."""
    return [(depth, id(node), predicate, id(child) if isinstance(child, Node) else child)
            for depth, node, predicate, child in edges]


class TestWalks:
    @settings(max_examples=300)
    @given(small_trees())
    def test_walks_match_the_recursive_references(self, tree):
        assert [id(n) for n in tree.walk()] == [id(n) for n in nodes_preorder(tree)]
        assert _identities(tree.walk_edges()) == _identities(edges_preorder(tree))

    def test_edge_order_and_depths(self):
        b = Node("B")
        b.add(Predicate("name"), "y")
        a = Node("A")
        a.add(Predicate("p"), b)
        a.add(Predicate("q"), None)
        a.add(Predicate("name"), "x")
        assert [(d, n.label, p.text, c.label if isinstance(c, Node) else c)
                for d, n, p, c in a.walk_edges()] == [
            (0, "A", "p", "B"), (1, "B", "name", "y"), (0, "A", "q", None),
            (0, "A", "name", "x")]
        assert [n.label for n in a.walk()] == ["A", "B"]

    def test_a_chain_deeper_than_the_recursion_limit(self):
        length = sys.getrecursionlimit() + 200
        root = node = Node("n0")
        for i in range(1, length):
            child = Node(f"n{i}")
            node.add(Predicate("p"), child)
            node = child
        assert [n.label for n in root.walk()] == [f"n{i}" for i in range(length)]
        assert [(d, n.label) for d, n, _, _ in root.walk_edges()] == [
            (i, f"n{i}") for i in range(length - 1)]


class TestContainers:
    def test_unit_node_is_none_without_a_node_child(self):
        root = Node("Contribution")
        root.add(Predicate("has"), "Results")
        root.add(Predicate("has"), None)
        assert UnitTree(UnitLabel.RESULTS, root).unit_node is None

    def test_get_finds_a_paper_by_id(self):
        paper = PaperAnnotation("p", "t")
        corpus = Corpus({"t": [paper]})
        assert corpus.get("p") is paper
        assert corpus.get("q") is None


def _reversed(units: dict | None) -> dict | None:
    return None if units is None else dict(reversed(units.items()))


def _outputs(paper: PaperAnnotation, trees: bool = True) -> list:
    """What every consumer of the unit maps gives for a one-paper corpus;
    with ``trees``, the tree readers too."""
    corpus = Corpus({paper.task: [paper]})
    out = [corpus_stats(corpus), unit_stats(corpus).sorted_rows(),
           score(corpus, corpus, "units")]
    out += [score(corpus, corpus, "triples", MatchConfig(triple_scope=scope))
            for scope in ("per-unit", "per-paper")]
    if trees:
        graph = build_graph(corpus)
        out += [validate_paper(paper).as_lines(), export_ntriples(graph),
                [(path, node.label) for path, node in
                 traverse(graph, paper.paper_id, CONTRIBUTION, 99)]]
        out += [render(compare(corpus, unit, [paper.paper_id])) for unit in UnitLabel]
    return out


class TestUnitOrder:
    """A paper lists its units once, in identifier order, with every unit's
    triples, however its maps were given."""

    def test_maps_are_ordered_and_every_tree_is_flattened(self):
        trees = {}
        for unit in (UnitLabel.RESULTS, UnitLabel.APPROACH):
            node = Node(unit.display)
            node.add(Predicate("improves"), "x")
            trees[unit] = UnitTree.from_unit_node(unit, node)
        paper = PaperAnnotation("p", "t", units=trees)
        assert list(paper.units) == list(paper.triples) == [UnitLabel.APPROACH,
                                                            UnitLabel.RESULTS]
        for unit, tree in trees.items():
            assert paper.units[unit] is tree
            assert paper.triples[unit] == flatten(tree).triples
        stored = [Triple.of("Contribution", "has", "Code")]
        paper = PaperAnnotation("p", "t", units=trees, triples={UnitLabel.CODE: stored})
        assert list(paper.units) == [UnitLabel.APPROACH, UnitLabel.RESULTS]
        assert list(paper.triples) == [UnitLabel.APPROACH, UnitLabel.CODE, UnitLabel.RESULTS]
        assert paper.triples[UnitLabel.CODE] == stored
        # a map that was None stays None when nothing is added to it
        empty = PaperAnnotation("p", "t", units={})
        assert (empty.units, empty.triples) == ({}, None)

    def test_twins_built_in_any_order_give_the_loaded_outputs(self, trial_root,
                                                              unit_profile_root):
        """Trees alone in reverse order, or both maps in reverse order, give
        what the loaded paper gives; its triples alone in reverse order give
        what it gives to the readers of triples."""
        count = 0
        for root in (trial_root, unit_profile_root):
            corpus, _ = load_corpus(CorpusManifest(root_path=root))
            for paper in corpus.papers():
                count += 1
                expected = _outputs(paper)
                assert _outputs(replace(paper, units=_reversed(paper.units),
                                        triples=None)) == expected
                assert _outputs(replace(paper, units=_reversed(paper.units),
                                        triples=_reversed(paper.triples))) == expected
                assert _outputs(replace(paper, units=None,
                                        triples=_reversed(paper.triples)),
                                trees=False) == _outputs(paper, trees=False)
        assert count == 100


#: Each change a dict allows, with arguments that a plain dict would accept.
REFUSED_CHANGES = {
    "__setitem__": (UnitLabel.CODE, []), "__delitem__": (UnitLabel.RESULTS,),
    "__ior__": ({},), "clear": (), "pop": (UnitLabel.RESULTS,), "popitem": (),
    "setdefault": (UnitLabel.CODE, []), "update": ({UnitLabel.CODE: []},),
}


class TestBuiltPaperIsReadOnly:
    """A unit with a tree has its tree's triples, set when the paper is
    built, and a built paper refuses every change."""

    def test_a_swapped_tree_gives_its_own_triples(self, comparison_root):
        corpus, _ = load_corpus(CorpusManifest(root_path=comparison_root))
        paper = corpus.get("dilated-cnn-2017")
        tree = corpus.get("sentence-similarity-2016").units[UnitLabel.RESULTS]
        with pytest.raises(TypeError, match="read-only"):
            paper.units[UnitLabel.RESULTS] = tree
        twin = replace(paper, units={**paper.units, UnitLabel.RESULTS: tree})
        assert twin.triples[UnitLabel.RESULTS] == flatten(tree).triples
        assert len(paper.triples[UnitLabel.RESULTS]) == 6
        assert len(twin.triples[UnitLabel.RESULTS]) == 13
        counted = unit_stats(Corpus({twin.task: [twin]})).per_unit[UnitLabel.RESULTS]
        assert counted.n_triples == 13
        # replace flattens every tree again, so the other units are unchanged
        assert {unit: triples for unit, triples in twin.triples.items()
                if unit is not UnitLabel.RESULTS} == {
            unit: triples for unit, triples in paper.triples.items()
            if unit is not UnitLabel.RESULTS}

    def test_a_list_given_for_a_unit_with_a_tree_is_ignored(self):
        node = Node("Results")
        node.add(Predicate("improves"), "x")
        tree = UnitTree.from_unit_node(UnitLabel.RESULTS, node)
        given = [Triple.of("Contribution", "has", "Results"), Triple.of("Results", "beats", "y")]
        paper = PaperAnnotation("p", "t", units={UnitLabel.RESULTS: tree},
                                triples={UnitLabel.RESULTS: given})
        assert paper.triples[UnitLabel.RESULTS] == flatten(tree).triples != given
        assert type(paper.triples[UnitLabel.RESULTS]) is ReadOnlyList

    def test_maps_and_fields_refuse_every_change(self):
        node = Node("Results")
        node.add(Predicate("improves"), "x")
        stored = [Triple.of("Contribution", "has", "Code")]
        paper = PaperAnnotation("p", "t", units={
            UnitLabel.RESULTS: UnitTree.from_unit_node(UnitLabel.RESULTS, node)},
            triples={UnitLabel.CODE: stored})
        for mapping in (paper.units, paper.triples):
            before = dict(mapping)
            for method, args in REFUSED_CHANGES.items():
                with pytest.raises(TypeError, match="read-only"):
                    getattr(mapping, method)(*args)
            assert mapping == before and isinstance(mapping, dict)
            assert repr(mapping) == repr(before)
        for f in fields(PaperAnnotation):
            with pytest.raises(FrozenInstanceError):
                setattr(paper, f.name, None)
            with pytest.raises(FrozenInstanceError):
                delattr(paper, f.name)
        # the paper keeps a read-only copy of the list given
        assert paper.triples[UnitLabel.CODE] == stored
        assert paper.triples[UnitLabel.CODE] is not stored

    def test_a_units_triples_refuse_a_change(self, comparison_root):
        corpus, _ = load_corpus(CorpusManifest(root_path=comparison_root))
        paper = corpus.get("dilated-cnn-2017")
        results = paper.triples[UnitLabel.RESULTS]
        extra = Triple.of("Results", "beats", "y")
        for change in (lambda: results.append(extra), lambda: results.extend([extra]),
                       lambda: results.insert(0, extra), lambda: results.pop(),
                       lambda: results.__setitem__(0, extra), lambda: results.clear()):
            with pytest.raises(TypeError, match="read-only"):
                change()
        assert results == flatten(paper.units[UnitLabel.RESULTS]).triples
        counted = unit_stats(Corpus({paper.task: [paper]})).per_unit[UnitLabel.RESULTS]
        assert counted.n_triples == len(results) == 6

    def test_contribution_sentence_indices_are_a_frozenset(self):
        given = {2, 1}
        paper = PaperAnnotation("p", "t", contribution_sentence_indices=given)
        assert paper.contribution_sentence_indices == given
        assert type(paper.contribution_sentence_indices) is frozenset
        assert PaperAnnotation("p", "t").contribution_sentence_indices is None

    def test_loaded_corpora_survive_pickle_and_copy(self, comparison_root, trial_root):
        # protocols 0 and 1 cannot pickle the slotted DocumentLines
        for root in (comparison_root, trial_root):
            corpus, _ = load_corpus(CorpusManifest(root_path=root))
            clones = [pickle.loads(pickle.dumps(corpus, protocol))
                      for protocol in range(2, pickle.HIGHEST_PROTOCOL + 1)]
            for clone in clones + [copy.copy(corpus), copy.deepcopy(corpus)]:
                assert clone == corpus
                for paper, original in zip(clone, corpus):
                    for name in ("units", "triples"):
                        mapping = getattr(paper, name)
                        assert type(mapping) is type(getattr(original, name))
                        assert list(mapping) == list(getattr(original, name))
                        with pytest.raises(TypeError, match="read-only"):
                            mapping[UnitLabel.CODE] = []
                    for triples in paper.triples.values():
                        assert type(triples) is ReadOnlyList
                        with pytest.raises(TypeError, match="read-only"):
                            triples.append(None)
                    assert type(paper.contribution_sentence_indices) in (frozenset, type(None))

    @pytest.mark.parametrize("sequence", [list, tuple])
    def test_given_phrases_are_columns_and_given_sentences_a_read_only_list(self, sequence):
        sentences = [Sentence("p", 1, ("a", "b", "c")), None]
        spans = [PhraseSpan(1, 0, 2, "a b"), PhraseSpan(1, 1, 3, "b c")]
        paper = PaperAnnotation("p", "t", phrases=sequence(spans),
                                sentences=sequence(sentences))
        clones = [pickle.loads(pickle.dumps(paper, protocol))
                  for protocol in range(2, pickle.HIGHEST_PROTOCOL + 1)]
        for clone in [paper, *clones, copy.copy(paper), copy.deepcopy(paper)]:
            assert clone == paper
            assert type(clone.phrases) is PhraseColumns and clone.phrases == spans
            assert type(clone.sentences) is ReadOnlyList and clone.sentences == sentences
            with pytest.raises(TypeError):
                clone.phrases[0] = spans[1]
            for change in (lambda: clone.sentences.append(None),
                           lambda: clone.sentences.__setitem__(0, None)):
                with pytest.raises(TypeError, match="read-only"):
                    change()
            assert clone.phrases == spans and clone.sentences == sentences


class TestNodeEqualityAndRepr:
    """Node compares and prints as the dataclass methods did, in one walk."""

    @settings(max_examples=300)
    @given(small_trees(), small_trees())
    def test_match_the_generated_methods(self, a, b):
        assert (a == b) == (generated(a) == generated(b))
        assert a == copy.deepcopy(a)
        assert repr(a) == repr(generated(a))

    def test_a_literal_differs_from_a_childless_node(self):
        literal, childless = Node("A"), Node("A")
        literal.add(Predicate("p"), "x")
        childless.add(Predicate("p"), Node("x"))
        assert literal != childless
        assert repr(literal) != repr(childless)

    def test_a_node_equals_no_other_type(self):
        assert Node("A").__eq__(1) is NotImplemented
        assert Node("A") != 1

    def test_nodes_are_unhashable(self):
        with pytest.raises(TypeError):
            hash(Node("A"))

    def test_a_corpus_deeper_than_the_recursion_limit(self, tmp_path):
        write_chain_corpus(tmp_path, sys.getrecursionlimit() + 200)
        a, _ = load_corpus(CorpusManifest(root_path=tmp_path))
        b, _ = load_corpus(CorpusManifest(root_path=tmp_path))
        assert a == b
        text = repr(a)
        assert text == repr(b) and text.count("Node(label=") > sys.getrecursionlimit()
        deepest = list(b.get("chain").units[UnitLabel.RESULTS].nodes())[-1]
        deepest.provenance.append("2")
        assert a != b
