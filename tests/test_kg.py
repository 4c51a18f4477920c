import copy
import gc
import pickle
import re
import sys
import tracemalloc
from dataclasses import FrozenInstanceError, fields

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
from ncgkit.kg import (
    _LINE_RE,
    LITERAL,
    PER_PAPER,
    RESOURCE,
    SURFACE_MERGE,
    Graph,
    GraphNode,
    _hash_slug,
)
from corpusgen import CHAIN_PREDICATE, write_chain_corpus
import kg_oracle
from tree_oracle import small_trees


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


    @staticmethod
    def path_edges(tree: Node, prefix: str, root_uri: str) -> set[tuple[str, str, str]]:
        """The per-paper edges, each URI the slug of the node's whole path
        from the root, found recursively."""
        edges = set()

        def visit(node: Node, uri: str, path: tuple[str, ...]) -> None:
            for predicate, child in node.edges:
                if child is None:
                    continue
                label = child.label if isinstance(child, Node) else child
                child_path = path + (predicate.text, label)
                child_uri = prefix + _hash_slug(child_path)
                edges.add((uri, predicate.text, child_uri))
                if isinstance(child, Node):
                    visit(child, child_uri, child_path)

        visit(tree, root_uri, ())
        return edges

    @settings(max_examples=200)
    @given(small_trees())
    @example(parse_unit_file('{"has": {"Résultats": {"améliore": {"F1 ≥ 90": '
                             '{"on": "x"}}, "at": "\U0001f600"}}}',
                             UnitLabel.RESULTS).root)
    def test_per_depth_hashing_gives_the_path_slug(self, tree):
        graph = build_graph(corpus_with({"p": {UnitLabel.RESULTS: UnitTree(
            UnitLabel.RESULTS, tree)}}))
        assert set(graph.edges) == self.path_edges(tree, "ncg:p/Results/",
                                                   "ncg:p/Contribution")

    def test_a_deep_chain_costs_memory_linear_in_its_depth(self, tmp_path):
        # a 4,800-edge chain: 187 MB traced peak when each node hashed and
        # kept its whole path tuple, under 3 MB with a hash state per depth
        write_chain_corpus(tmp_path, 4800)
        corpus, _ = load_corpus(CorpusManifest(root_path=tmp_path))
        gc.collect()
        tracemalloc.start()
        try:
            graph = build_graph(corpus)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 20e6
        path = ["has", "Results"] + [CHAIN_PREDICATE, "n0"]
        path += [part for i in range(1, 4798) for part in (CHAIN_PREDICATE, f"n{i}")]
        assert f"ncg:chain/Results/{_hash_slug(tuple(path))}" in graph.nodes


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


#: Paper ids: ``pred`` quotes to the predicates' namespace, ``a`` sorts
#: beside ``a-b``, and the last two need quoting.
ORACLE_PAPER_IDS = st.sampled_from(["pred", "a", "a-b", "a b/c", "Résumé%"])
ORACLE_UNITS = st.sampled_from([UnitLabel.RESULTS, UnitLabel.MODEL, UnitLabel.CODE])
ORACLE_PAPERS = st.lists(
    st.tuples(ORACLE_PAPER_IDS, st.dictionaries(ORACLE_UNITS, trees(2), min_size=1, max_size=2)),
    min_size=1, max_size=3, unique_by=lambda paper: paper[0])
#: Start labels for the traversals, ``absent`` in no graph.
ORACLE_STARTS = ["Contribution", "Results", "a", "b", "a b", "absent"]


def oracle_corpus(papers):
    return corpus_with({
        paper_id: {unit: UnitTree.from_unit_node(unit, as_node(unit.identifier, edges))
                   for unit, edges in units.items()}
        for paper_id, units in papers})


def graph_state(graph):
    return [(uri, n.uri, n.label, n.kind) for uri, n in graph.nodes.items()], graph.edges


def walks(traverse_fn, graph, paper_ids):
    out = []
    for paper_id in [*paper_ids, "ghost"]:
        for start in ORACLE_STARTS:
            for depth in (0, 1, 3):
                try:
                    out.append([(path, node.uri, node.label, node.kind)
                                for path, node in traverse_fn(graph, paper_id, start, depth)])
                except UnknownStartNode as exc:
                    out.append(str(exc))
    return out


#: A parent with a repeated sibling edge, and with a literal child and a
#: node child under one predicate and label, in either order.
REPEATS = [("on", "a", None), ("on", "a", None), ("has", "b", [("on", "a", None)]),
           ("has", "b", None), ("in terms of", "a b", None), ("in terms of", "a b", [])]


@settings(max_examples=100, deadline=None)
@given(ORACLE_PAPERS, st.sampled_from([PER_PAPER, SURFACE_MERGE]))
@example([("a", {UnitLabel.RESULTS: REPEATS}), ("a-b", {UnitLabel.RESULTS: REPEATS[::-1]}),
          ("pred", {UnitLabel.MODEL: REPEATS})], PER_PAPER)
@example([("a b/c", {UnitLabel.RESULTS: REPEATS}), ("pred", {UnitLabel.CODE: REPEATS[::-1]})],
         SURFACE_MERGE)
def test_graph_layer_gives_what_the_oracle_gives(papers, merge):
    corpus = oracle_corpus(papers)
    paper_ids = [paper_id for paper_id, _ in papers]
    graph, expected = build_graph(corpus, merge), kg_oracle.build_graph(corpus, merge)
    assert graph_state(graph) == graph_state(expected)
    text = export_ntriples(graph)
    assert text == kg_oracle.export_ntriples(expected)
    reimported, expected_reimport = import_ntriples(text), kg_oracle.import_ntriples(text)
    assert graph_state(reimported) == graph_state(expected_reimport)
    for graph, expected in ((graph, expected), (reimported, expected_reimport)):
        assert walks(traverse, graph, paper_ids) == walks(kg_oracle.traverse, expected, paper_ids)


#: Each change a list allows, with arguments that a plain list would accept.
EDGE = ("ncg:s", "p", "ncg:o")
REFUSED_LIST_CHANGES = {
    "append": (EDGE,), "extend": ([EDGE],), "insert": (0, EDGE), "pop": (), "remove": (EDGE,),
    "clear": (), "sort": (), "reverse": (), "__setitem__": (0, EDGE),
    "__delitem__": (0,), "__iadd__": ([EDGE],), "__imul__": (2,),
}


#: Each change a dict allows, as a function of one key and one node.
REFUSED_DICT_CHANGES = {
    "__setitem__": lambda uri, node: (uri, node), "__delitem__": lambda uri, node: (uri,),
    "__ior__": lambda uri, node: ({uri: node},), "clear": lambda uri, node: (),
    "pop": lambda uri, node: (uri,), "popitem": lambda uri, node: (),
    "setdefault": lambda uri, node: (uri, node), "update": lambda uri, node: ({uri: node},),
}


def nodes_refuse_every_change(nodes):
    before = dict(nodes.items())
    uri, node = next(iter(before.items()))
    for method, args in REFUSED_DICT_CHANGES.items():
        with pytest.raises(TypeError, match="read-only"):
            getattr(nodes, method)(*args(uri, node))
    for name in GraphNode._fields:
        with pytest.raises(AttributeError):
            setattr(nodes[uri], name, LITERAL)
    return nodes == before and repr(nodes) == repr(before)


def refuses_every_change(edges):
    before = list(edges)
    for method, args in REFUSED_LIST_CHANGES.items():
        with pytest.raises(TypeError, match="read-only"):
            getattr(edges, method)(*args)
    for index in (slice(0, 0), slice(None)):
        with pytest.raises(TypeError, match="read-only"):
            edges[index] = [EDGE]
        with pytest.raises(TypeError, match="read-only"):
            del edges[index]
    return edges == before and repr(edges) == repr(before)


@settings(max_examples=100, deadline=None)
@given(ORACLE_PAPERS, st.sampled_from([PER_PAPER, SURFACE_MERGE, "import"]))
def test_a_built_graph_refuses_every_change(papers, made_by):
    corpus = oracle_corpus(papers)
    paper_ids = [paper_id for paper_id, _ in papers]
    if made_by == "import":
        graph = import_ntriples(export_ntriples(build_graph(corpus)))
    else:
        graph = build_graph(corpus, made_by)

    def outputs(graph):
        return (walks(traverse, graph, paper_ids), export_ntriples(graph),
                edge_signature(graph))

    expected = outputs(graph)
    # the nodes equal, print as and rebuild the graph as a dict of nodes
    as_dict = dict(graph.nodes.items())
    assert graph.nodes == as_dict and as_dict == graph.nodes
    assert repr(graph.nodes) == repr(as_dict)
    assert Graph(as_dict, graph.edges) == graph
    assert refuses_every_change(graph.edges)
    assert nodes_refuse_every_change(graph.nodes)
    for f in fields(graph):
        with pytest.raises(FrozenInstanceError):
            setattr(graph, f.name, None)
        with pytest.raises(FrozenInstanceError):
            delattr(graph, f.name)
    assert outputs(graph) == expected

    for clone in [pickle.loads(pickle.dumps(graph, protocol))
                  for protocol in range(pickle.HIGHEST_PROTOCOL + 1)] + [
            copy.copy(graph), copy.deepcopy(graph)]:
        assert clone == graph and type(clone.edges) is type(graph.edges)
        assert type(clone.nodes) is type(graph.nodes)
        assert refuses_every_change(clone.edges)
        assert nodes_refuse_every_change(clone.nodes)
        assert outputs(clone) == expected
    for clone in copy.copy(corpus), copy.deepcopy(corpus), pickle.loads(pickle.dumps(corpus)):
        assert clone == corpus
        for paper in clone:
            for triples in paper.triples.values():
                assert refuses_every_change(triples)


def test_export_refuses_two_edges_that_write_one_line():
    nodes = {"ncg:s": GraphNode("ncg:s", "s", RESOURCE),
             "ncg:l1": GraphNode("ncg:l1", "x", LITERAL),
             "ncg:l2": GraphNode("ncg:l2", "x", LITERAL)}
    line = '<ncg:s> <ncg:pred/p> "x" .'
    for edges in ([("ncg:s", "p", "ncg:l1"), ("ncg:s", "p", "ncg:l2")],
                  [("ncg:s", "p", "ncg:l1"), ("ncg:s", "p", "ncg:l1")]):
        with pytest.raises(ValueError, match=re.escape(repr(line))):
            export_ntriples(Graph(nodes, edges))
    assert line in export_lines(export_ntriples(Graph(nodes, edges[:1])))


#: The N-Triples EOL (LF, CRLF, CR), then the eight other breaks of
#: ``str.splitlines``, which end no line.
LINE_BREAKS = ["\n", "\r\n", "\r", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85",
               "\u2028", "\u2029"]
IN_LINE_BREAKS = LINE_BREAKS[3:]
#: The first seven are statements, the rest are not.
IMPORT_LINES = [
    '<ncg:p/Contribution> <ncg:pred/has> <ncg:p/Results/1> .',
    '<ncg:p/Contribution> <ncg:pred/label> "Contribution" .',
    '<ncg:p/Results/1> <ncg:pred/label> "Results" .',
    '<ncg:p/Results/1> <ncg:pred/on> "x\\ny" .',
    '<ncg:p/Results/1> <ncg:pred/on> "x\u2028\x0cy\x85" .',
    ' \t<ncg:p/Results/1> <ncg:pred/on> "z" .\x1f',
    '<ncg:pred/on> <ncg:pred/label> "on" .',
    "", "  ", "# comment", "not a statement", '<ncg:p/Results/1> <ncg:pred/on> "z',
]


def import_outcome(text, importer=import_ntriples):
    try:
        graph = importer(text)
    except ValueError as exc:
        return str(exc)
    return (graph.edges, [(n.uri, n.label, n.kind) for n in graph.nodes.values()],
            [n.uri for n in graph.nodes.values() if n.label == "Contribution"])


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(st.sampled_from(IMPORT_LINES), st.sampled_from(LINE_BREAKS)),
                max_size=10).map(lambda parts: "".join(a + b for a, b in parts)),
       st.booleans())
@example('# h\x1c\x1c<a> x\r\n', False)
def test_import_reads_the_lines_of_n_triples_eol(text, drop_last_break):
    if drop_last_break:
        text = text[:-1]
    outcome = import_outcome(text)
    lines = re.split("\r\n|[\r\n]", text)  # the N-Triples EOL
    assert outcome == import_outcome("\n".join(lines))
    bad = [n for n, line in enumerate(lines, 1)
           if line.strip() and not line.strip().startswith("#")
           and line.strip() not in {s.strip() for s in IMPORT_LINES[:7]}]
    if bad:
        assert outcome.startswith(f"line {bad[0]}: ")
    else:
        assert isinstance(outcome, tuple)


#: The URI that import mints for the literal "x" of ``<ncg:a> <ncg:pred/on>``.
MINTED_URI = f"ncg:lit/{_hash_slug(('ncg:a', 'ncg:pred/on', 'x'))}"


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.sampled_from(IMPORT_LINES), st.sampled_from(LINE_BREAKS)),
                max_size=12).map(lambda parts: "".join(a + b for a, b in parts)))
# a literal node that a later, padded line names as its subject, or a
# later line as its object, with CR line ends: it becomes a resource,
# keeping its label
@example(f'<ncg:a> <ncg:pred/on> "x" .\r \t<{MINTED_URI}> <ncg:pred/on> "y" .  \r'
         f'<ncg:b> <ncg:pred/on> <{MINTED_URI}> .\r')
@example(f'<ncg:a> <ncg:pred/on> "x" .\r<ncg:b> <ncg:pred/on> <{MINTED_URI}> .\r')
def test_import_gives_what_the_oracle_gives_for_repeated_and_bad_lines(text):
    assert import_outcome(text) == import_outcome(text, kg_oracle.import_ntriples)


def test_a_statement_about_a_literal_node_makes_it_a_resource():
    # the file names the URI that import mints for the literal "x"
    text = (f'<ncg:a> <ncg:pred/on> "x" .\n<{MINTED_URI}> <ncg:pred/on> "y" .\n'
            f'<ncg:b> <ncg:pred/on> <{MINTED_URI}> .\n')
    outcome = import_outcome(text)
    assert outcome == import_outcome(text, kg_oracle.import_ntriples)
    assert (MINTED_URI, "x", RESOURCE) in outcome[1]
    assert len(outcome[0]) == 3


@pytest.mark.parametrize("char", IN_LINE_BREAKS)
def test_a_literal_holding_an_in_line_break_round_trips(char):
    graph = import_ntriples(f'<ncg:a> <ncg:pred/on> "x{char}y" .\n')
    assert [edge[2] for edge in edge_signature(graph)] == [f"x{char}y"]
    again = import_ntriples(export_ntriples(graph))
    assert edge_signature(again) == edge_signature(graph)


def test_import_reads_every_echar_escape():
    escapes = "".join("\\" + char for char in "tbnrf\"'\\")
    graph = import_ntriples(f'<ncg:a> <ncg:pred/on> "{escapes}" .\n')
    assert [edge[2] for edge in edge_signature(graph)] == ["\t\b\n\r\f\"'\\"]


@pytest.mark.parametrize("line", [
    # a label statement with a URI object gave its subject an empty label
    '<ncg:a> <ncg:pred/label> <ncg:b> .',
    # a UCHAR, which is not decoded, and a backslash that starts no escape
    '<ncg:a> <ncg:pred/on> "\\u0041bc" .',
    '<ncg:a> <ncg:pred/on> "\\U0001F600" .',
    '<ncg:a> <ncg:pred/on> "x\\qy" .',
    '<ncg:a> <ncg:pred/label> "x\\qy" .',
])
def test_import_refuses_what_the_export_never_writes(line):
    with pytest.raises(ValueError, match="^line 2: "):
        import_ntriples(f'<ncg:a> <ncg:pred/on> "x" .\n{line}\n<ncg:a> <ncg:pred/on> "y" .\n')
    # the first bad line is the one named, label statement or not
    with pytest.raises(ValueError, match="^line 1: "):
        import_ntriples(f"not a statement\n{line}\n")


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


CPYTHON = pytest.mark.skipif(sys.implementation.name != "cpython",
                             reason="the cyclic collector's tracking is CPython's")
CPYTHON_311 = pytest.mark.skipif(
    sys.implementation.name != "cpython" or sys.version_info[:2] != (3, 11),
    reason="object sizes are those of CPython 3.11")


def traced(fn):
    """``fn()``, the traced bytes it left allocated and its traced peak."""
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        out = fn()
        gc.collect()
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return out, retained - before, peak - before


@pytest.fixture()
def trial_corpus(trial_root):
    return load_corpus(CorpusManifest(root_path=trial_root))[0]


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
        traverse(graph, "wang2018", "Results", 1)  # builds the adjacency
        keys = {uri: uri for uri in graph.nodes}  # each URI to the key string
        for edge in graph.edges:
            subject, _, obj = edge
            assert keys[subject] is subject and graph.nodes[subject].uri is subject
            assert keys[obj] is obj and graph.nodes[obj].uri is obj
            assert any(e is edge for e in graph._adjacency[subject])
        assert not hasattr(GraphNode("u", "l", RESOURCE), "__dict__")

    def test_the_edge_list_refuses_an_appended_or_replaced_edge(self, results_corpus):
        graph = build_graph(results_corpus)
        before = traverse(graph, "wang2018", "Results", 1)  # builds the adjacency
        start, leaf = before[0][1].uri, before[-1][1].uri
        edges = list(graph.edges)
        with pytest.raises(TypeError, match="read-only"):
            graph.edges.append((start, "appended", leaf))
        with pytest.raises(TypeError, match="read-only"):
            graph.edges[0] = (start, "replaced", leaf)
        assert graph.edges == edges
        assert traverse(graph, "wang2018", "Results", 1) == before

    # CPython 3.11, trial corpus: about 610 bytes per edge when every node
    # kept its tree path and a copied label and every edge two tuples,
    # about 310 with one tuple per edge and shared strings, and about 250
    # with neither an edge set nor an adjacency

    @CPYTHON
    def test_a_graph_leaves_the_collector_no_object_per_node(self, trial_corpus):
        # about 3,000 objects each, one per node, when a node was an object
        text = export_ntriples(build_graph(trial_corpus))
        graphs = []
        for make in (lambda: build_graph(trial_corpus),
                     lambda: build_graph(trial_corpus, merge=SURFACE_MERGE),
                     lambda: import_ntriples(text)):
            gc.collect()
            before = len(gc.get_objects())
            graphs.append(make())
            gc.collect()
            assert len(gc.get_objects()) - before < 10

    @CPYTHON_311
    def test_build_graph_retained_bytes_per_edge(self, trial_corpus):
        graph, retained, _ = traced(lambda: build_graph(trial_corpus))
        assert retained / len(graph.edges) < 260

    @CPYTHON_311
    def test_surface_graph_retained_bytes_per_edge(self, trial_corpus):
        # about 203 with an edge set and an adjacency, about 142 without
        graph, retained, _ = traced(lambda: build_graph(trial_corpus, merge="surface"))
        assert retained / len(graph.edges) < 150

    @CPYTHON_311
    def test_import_bytes_per_edge(self, trial_corpus):
        # about 367 retained and 460 at the peak when import listed every
        # statement before it built the graph, about 305 and 360 now
        text = export_ntriples(build_graph(trial_corpus))
        graph, retained, peak = traced(lambda: import_ntriples(text))
        assert retained / len(graph.edges) < 315
        assert peak / len(graph.edges) < 375

    @CPYTHON_311
    def test_export_peak_bytes_per_output_byte(self, trial_corpus):
        # about 3.75 when the header was joined to a joined body, about
        # 2.86 with one join
        graph = build_graph(trial_corpus)
        text, _, peak = traced(lambda: export_ntriples(graph))
        assert peak / len(text.encode("utf-8")) < 3.0


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
