import gc
import re
import sys
import tracemalloc

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ncgkit import (
    Corpus,
    CorpusManifest,
    Node,
    PaperAnnotation,
    Predicate,
    UnitLabel,
    UnitTree,
    UnknownStartNode,
    build_graph,
    canonical_text,
    edge_signature,
    export_ntriples,
    flatten,
    import_ntriples,
    load_corpus,
    nest,
    parse_triple_lines,
    parse_unit_file,
    traverse,
)
from ncgkit.kg import _LINE_RE, LITERAL, RESOURCE, Graph, GraphNode


def corpus_with(units_by_paper: dict[str, dict[UnitLabel, object]]) -> Corpus:
    papers = []
    for pid, units in units_by_paper.items():
        papers.append(PaperAnnotation(
            paper_id=pid, task="t", total_sentence_count=1,
            total_token_count=1, contribution_sentence_indices=set(),
            phrases=[], units=units, triples=None))
    return Corpus({"t": papers})


@pytest.fixture()
def results_corpus(results_unit_text):
    tree = parse_unit_file(results_unit_text, UnitLabel.RESULTS)
    return corpus_with({"wang2018": {UnitLabel.RESULTS: tree}})


class TestBuildGraph:
    def test_hoisted_results_counts(self, results_corpus):
        graph = build_graph(results_corpus)
        assert len(graph.nodes) == 7
        assert len(graph.edges) == 6
        kinds = sorted(n.kind for n in graph.nodes.values())
        assert kinds.count(LITERAL) == 2
        assert kinds.count(RESOURCE) == 5

    def test_empty_corpus(self):
        graph = build_graph(Corpus())
        assert not graph.nodes and not graph.edges

    def test_edge_count_equals_flattened_triples(self, results_corpus):
        graph = build_graph(results_corpus)
        total = 0
        for paper in results_corpus.papers():
            for tree in paper.units.values():
                total += len(flatten(tree).triples)
        assert len(graph.edges) == total

    def test_surface_merge_shares_nodes(self):
        tree_a = parse_unit_file(
            '{"has": {"Results": {"on": "CoNLL"}}}', UnitLabel.RESULTS)
        tree_b = parse_unit_file(
            '{"has": {"Baselines": {"evaluated on": "CoNLL"}}}',
            UnitLabel.BASELINES)
        corpus = corpus_with({"paperA": {UnitLabel.RESULTS: tree_a},
                              "paperB": {UnitLabel.BASELINES: tree_b}})
        merged = build_graph(corpus, merge="surface")
        conll = [n for n in merged.nodes.values() if n.label == "CoNLL"]
        assert len(conll) == 1
        in_edges = [e for e in merged.edges if e[2] == conll[0].uri]
        assert {merged.nodes[s].label for s, _, _ in in_edges} == {"Results",
                                                                   "Baselines"}
        # contribution roots never merge
        assert len([n for n in merged.nodes.values() if n.label == "Contribution"]) == 2
        # no label-level edge is lost relative to per-paper identity
        per_paper = build_graph(corpus)
        assert set(edge_signature(merged)) == set(edge_signature(per_paper))

    def test_per_paper_keeps_same_surface_distinct(self, results_triples_text):
        tree_a = nest(parse_triple_lines(results_triples_text), UnitLabel.RESULTS)
        tree_b = nest(parse_triple_lines(results_triples_text), UnitLabel.RESULTS)
        corpus = corpus_with({"paperA": {UnitLabel.RESULTS: tree_a},
                              "paperB": {UnitLabel.RESULTS: tree_b}})
        graph = build_graph(corpus)
        assert len([n for n in graph.nodes.values()
                    if n.label == "QASent dataset"]) == 2


class TestCoinUri:
    """The per-paper URIs that build_graph coins."""

    @staticmethod
    def uris(paper_id, unit, text):
        graph = build_graph(corpus_with({paper_id: {unit: parse_unit_file(text, unit)}}))
        return [uri for uri, node in graph.nodes.items() if node.label != "Contribution"]

    def test_deterministic(self, results_unit_text):
        a = self.uris("R69764", UnitLabel.RESULTS, results_unit_text)
        b = self.uris("R69764", UnitLabel.RESULTS, results_unit_text)
        assert a and a == b

    def test_prefix_scheme(self, results_unit_text):
        uris = self.uris("R69764", UnitLabel.RESULTS, results_unit_text)
        assert uris and all(uri.startswith("ncg:R69764/Results/") for uri in uris)

    def test_distinct_paths_distinct_uris(self):
        graph = build_graph(corpus_with({"p": {UnitLabel.RESULTS: parse_unit_file(
            '{"has": {"Results": {"on": "CoNLL", "in": {"F1": {"on": "CoNLL"}}}}}',
            UnitLabel.RESULTS)}}))
        assert len([n for n in graph.nodes.values() if n.label == "CoNLL"]) == 2

    def test_paper_ids_with_unsafe_characters(self):
        uris = self.uris("a b/c", UnitLabel.CODE, '{"has": {"Code": {"at": "x"}}}')
        assert uris and all(" " not in uri and uri.count("/") == 2 for uri in uris)


class TestExport:
    def test_empty_graph_exports_empty_string(self):
        assert export_ntriples(Graph()) == ""

    def test_reimport_is_isomorphic(self, results_corpus):
        graph = build_graph(results_corpus)
        text = export_ntriples(graph)
        rebuilt = import_ntriples(text)
        assert edge_signature(rebuilt) == edge_signature(graph)
        assert len(rebuilt.edges) == len(graph.edges)

    def test_byte_stable_within_process(self, results_corpus):
        a = export_ntriples(build_graph(results_corpus))
        b = export_ntriples(build_graph(results_corpus))
        assert a == b

    def test_statement_lines_sorted(self, results_corpus):
        text = export_ntriples(build_graph(results_corpus))
        statements = [l for l in text.splitlines() if not l.startswith("#")]
        assert statements == sorted(statements)

    def test_literal_quote_escaping(self):
        tree = parse_unit_file(
            '{"has": {"Results": {"reports": "a \\"quoted\\" value"}}}',
            UnitLabel.RESULTS)
        corpus = corpus_with({"p": {UnitLabel.RESULTS: tree}})
        text = export_ntriples(build_graph(corpus))
        assert '"a \\"quoted\\" value"' in text
        rebuilt = import_ntriples(text)
        labels = {n.label for n in rebuilt.nodes.values()}
        assert 'a "quoted" value' in labels

    def test_predicate_slug_collisions_stay_distinct(self):
        tree = parse_unit_file(
            '{"has": {"Results": {"in terms of": "x", "in-terms-of": "y"}}}',
            UnitLabel.RESULTS)
        corpus = corpus_with({"p": {UnitLabel.RESULTS: tree}})
        graph = build_graph(corpus)
        text = export_ntriples(graph)
        rebuilt = import_ntriples(text)
        assert edge_signature(rebuilt) == edge_signature(graph)


#: Any character UTF-8 can encode, with the N-Triples escape letters and
#: quotes drawn often enough to follow a backslash.
LABEL_CHARS = st.one_of(st.sampled_from('\\"\'tbnrf'), st.characters(codec="utf-8"))
LABELS = st.text(LABEL_CHARS, min_size=1, max_size=12).map(canonical_text).filter(bool)


@settings(max_examples=100)
@example([("reports", "a\\nb", False)])
@given(st.lists(st.tuples(LABELS, LABELS, st.booleans()), min_size=1, max_size=6))
def test_ntriples_round_trip_keeps_arbitrary_labels(edges):
    unit_node = Node("Results")
    for predicate, label, is_node in edges:
        unit_node.add(Predicate(predicate), Node(label) if is_node else label)
    tree = UnitTree.from_unit_node(UnitLabel.RESULTS, unit_node)
    graph = build_graph(corpus_with({"p": {UnitLabel.RESULTS: tree}}))
    assert edge_signature(import_ntriples(export_ntriples(graph))) == edge_signature(graph)


#: Few labels and predicates, so that labels repeat, literals repeat under
#: one predicate, and one predicate's text is the label predicate's slug.
FEW_LABELS = st.sampled_from(["a", "b", "a b", "label", "Results", "x\\ny"])
FEW_PREDICATES = st.sampled_from(["label", "on", "has", "in terms of", "in-terms-of"])


def trees(depth):
    children = st.lists(st.tuples(FEW_PREDICATES, FEW_LABELS), max_size=3)
    if depth == 0:
        return children.map(lambda edges: [(p, label, None) for p, label in edges])
    return st.lists(st.tuples(FEW_PREDICATES, FEW_LABELS, st.none() | trees(depth - 1)),
                    max_size=3)


def as_node(label, edges):
    node = Node(label)
    for predicate, child_label, child in edges:
        node.add(Predicate(predicate),
                 child_label if child is None else as_node(child_label, child))
    return node


def export_lines(text):
    return text.splitlines()[1:]


@settings(max_examples=100, deadline=None)
@given(st.lists(trees(2), min_size=1, max_size=3), st.sampled_from(["per-paper", "surface"]))
def test_export_has_no_duplicate_line_and_round_trips(papers, merge):
    corpus = corpus_with({
        f"p{i}": {UnitLabel.RESULTS: UnitTree.from_unit_node(
            UnitLabel.RESULTS, as_node("Results", edges))}
        for i, edges in enumerate(papers)})
    graph = build_graph(corpus, merge=merge)
    text = export_ntriples(graph)
    lines = export_lines(text)
    assert len(lines) == len(set(lines))
    assert edge_signature(import_ntriples(text)) == edge_signature(graph)


def test_export_of_imported_graph_writes_a_repeated_label_line_once():
    # the node <ncg:pred/a> has the URI and the label of the coined URI of
    # predicate "a", so its label line and the predicate's are one line
    graph = import_ntriples('<ncg:pred/a> <ncg:pred/label> "a" .\n'
                            '<ncg:pred/a> <ncg:pred/a> <ncg:x> .\n')
    assert export_lines(export_ntriples(graph)) == [
        '<ncg:pred/a> <ncg:pred/a> <ncg:x> .',
        '<ncg:pred/a> <ncg:pred/label> "a" .',
        '<ncg:x> <ncg:pred/label> "ncg:x" .',
    ]


#: Every line break of ``str.splitlines``, and whitespace that is not one.
LINE_BREAKS = ["\n", "\r\n", "\r", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85",
               "\u2028", "\u2029"]
IMPORT_LINES = [
    '<ncg:p/Contribution> <ncg:pred/has> <ncg:p/Results/1> .',
    '<ncg:p/Contribution> <ncg:pred/label> "Contribution" .',
    '<ncg:p/Results/1> <ncg:pred/label> "Results" .',
    '<ncg:p/Results/1> <ncg:pred/on> "x\\ny" .',
    ' \t<ncg:p/Results/1> <ncg:pred/on> "z" .\x1f',
    '<ncg:pred/on> <ncg:pred/label> "on" .',
    "", "  ", "# comment", "not a statement", '<ncg:p/Results/1> <ncg:pred/on> "z',
]


def import_outcome(text):
    try:
        graph = import_ntriples(text)
    except ValueError as exc:
        return str(exc)
    return (graph.edges, [(n.uri, n.label, n.kind) for n in graph.nodes.values()],
            [n.uri for n in graph.nodes.values() if n.label == "Contribution"])


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(st.sampled_from(IMPORT_LINES), st.sampled_from(LINE_BREAKS)),
                max_size=10).map(lambda parts: "".join(a + b for a, b in parts)),
       st.booleans())
@example('# h\x1c\x1c<a> x\r\n', False)
def test_import_reads_the_lines_of_splitlines(text, drop_last_break):
    if drop_last_break:
        text = text[:-1]
    outcome = import_outcome(text)
    assert outcome == import_outcome("\n".join(text.splitlines()))
    bad = [n for n, line in enumerate(text.splitlines(), 1)
           if line.strip() and not line.strip().startswith("#")
           and line.strip() not in {s.strip() for s in IMPORT_LINES[:6]}]
    if bad:
        assert outcome.startswith(f"line {bad[0]}: ")
    else:
        assert isinstance(outcome, tuple)


#: The statement pattern with its literal written as an alternation, as
#: before the literal was unrolled.
ALTERNATION_LINE_RE = re.compile(
    r'^<([^>]+)> <([^>]+)> (?:<([^>]+)>|"((?:[^"\\]|\\.)*)") \.$')


@settings(max_examples=500, deadline=None)
@given(st.sampled_from(['<s> <p> "', "<s> <p> ", "<s> <p> <o> .", '<s> <p>"']),
       st.lists(st.sampled_from(["a", " ", "\\\\", '\\"', '"', "\\", "\n", ".", ">"]),
                max_size=8).map("".join),
       st.sampled_from(['" .', "", " .", '\\" .']))
def test_unrolled_line_pattern_matches_as_the_alternation(head, body, tail):
    line = head + body + tail
    unrolled, alternation = _LINE_RE.match(line), ALTERNATION_LINE_RE.match(line)
    assert (unrolled and unrolled.groups()) == (alternation and alternation.groups())


class TestSharing:
    def test_node_labels_are_the_tree_strings(self, trial_root):
        corpus, _ = load_corpus(CorpusManifest(root_path=trial_root))
        strings = {id(c.label if isinstance(c, Node) else c)
                   for paper in corpus.papers() for tree in paper.units.values()
                   for node in tree.nodes() for _, c in node.edges}
        for merge in ("per-paper", "surface"):
            graph = build_graph(corpus, merge=merge)
            labels = [n.label for uri, n in graph.nodes.items()
                      if not uri.endswith("/Contribution")]
            assert all(id(label) in strings for label in labels)
            assert any(" " in label for label in labels)

    def test_edges_share_one_tuple_and_the_node_uris(self, results_corpus):
        graph = build_graph(results_corpus)
        for edge in graph.edges:
            subject, _, obj = edge
            assert graph.nodes[subject].uri is subject
            assert graph.nodes[obj].uri is obj
            assert any(e is edge for e in graph._adjacency[subject])
        assert not hasattr(GraphNode("u", "l", RESOURCE), "__dict__")

    def test_outgoing_lists_predicate_object_pairs(self, results_corpus):
        graph = build_graph(results_corpus)
        for uri in graph.nodes:
            assert graph.outgoing(uri) == [(p, o) for s, p, o in graph.edges if s == uri]
        assert graph.outgoing("ncg:absent") == []

    @pytest.mark.skipif(sys.implementation.name != "cpython" or sys.version_info[:2] != (3, 11),
                        reason="object sizes are those of CPython 3.11")
    def test_build_graph_retained_bytes_per_edge(self, trial_root):
        # CPython 3.11, trial corpus: about 610 bytes per edge when every
        # node kept its tree path and a copied label and every edge two
        # tuples, and about 310 with one tuple per edge and shared strings
        corpus, _ = load_corpus(CorpusManifest(root_path=trial_root))
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            graph = build_graph(corpus)
            gc.collect()
            retained = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert retained / len(graph.edges) < 400


class TestTraverse:
    def test_depth_one_lists_on_children(self, results_triples_text):
        tree = nest(parse_triple_lines(results_triples_text), UnitLabel.RESULTS)
        corpus = corpus_with({"wang2016": {UnitLabel.RESULTS: tree}})
        graph = build_graph(corpus)
        results = traverse(graph, "wang2016", "Results", 1)
        children = sorted(node.label for path, node in results if len(path) == 1)
        assert children == ["MSRP dataset", "QASent dataset", "Wiki QA dataset"]
        assert all(path == ("on",) for path, n in results if len(path) == 1)

    def test_depth_zero_is_start_only(self, results_corpus):
        graph = build_graph(results_corpus)
        results = traverse(graph, "wang2018", "Results", 0)
        assert len(results) == 1
        assert results[0][0] == ()
        assert results[0][1].label == "Results"

    def test_unknown_start(self, results_corpus):
        graph = build_graph(results_corpus)
        with pytest.raises(UnknownStartNode):
            traverse(graph, "wang2018", "Nonexistent", 1)
        with pytest.raises(UnknownStartNode):
            traverse(graph, "ghost-paper", "Results", 1)

    def test_full_depth_reaches_leaves(self, results_corpus):
        graph = build_graph(results_corpus)
        results = traverse(graph, "wang2018", "Results", 10)
        labels = {node.label for _, node in results}
        assert {"Results", "F1 measure", "ACE datasets", "GENIA dataset",
                "best results", "comparable results"} <= labels

    def test_reimported_graph_finds_the_same_branch(self, results_unit_text):
        # the paper id needs quoting, so the root is found by the coined URI
        corpus = corpus_with({"a b/c": {UnitLabel.RESULTS: parse_unit_file(
            results_unit_text, UnitLabel.RESULTS)}})
        built = build_graph(corpus)
        reimported = import_ntriples(export_ntriples(built))

        def pairs(graph):
            return sorted((path, node.label)
                          for path, node in traverse(graph, "a b/c", "Results", 10))

        assert len(pairs(built)) > 1
        assert pairs(reimported) == pairs(built)
        with pytest.raises(UnknownStartNode):
            traverse(reimported, "a%20b%2Fc", "Results", 1)
