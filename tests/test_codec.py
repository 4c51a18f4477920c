import itertools
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ncgkit import (
    FormatError,
    Node,
    NotATree,
    Predicate,
    Triple,
    UnitLabel,
    UnitTree,
    flatten,
    nest,
    parse_triple_lines,
    parse_unit_file,
    roundtrip_check,
    trees_equivalent,
    write_unit_file,
)
from corpusgen import chain_triple_lines
from tree_oracle import equivalent, equivalent_variant, flattened_keys, small_trees


def hoisted_results_tree() -> UnitTree:
    """The nested Results example: shared phrases hoisted to the top."""
    ace = Node("ACE datasets")
    ace.add(Predicate("achieves"), "best results")
    genia = Node("GENIA dataset")
    genia.add(Predicate("achieves"), "comparable results")
    f1 = Node("F1 measure")
    f1.add(Predicate("in"), ace)
    f1.add(Predicate("in"), genia)
    results = Node("Results", provenance=[
        "Our neural transition -based model achieves the best results in ACE "
        "datasets and comparable results in GENIA dataset in terms of F1 measure ."])
    results.add(Predicate("in terms of"), f1)
    return UnitTree.from_unit_node(UnitLabel.RESULTS, results)


class TestFlatten:
    def test_hoisted_results_emits_six_triples_preorder(self):
        flat = flatten(hoisted_results_tree())
        assert [t.key() for t in flat.triples] == [
            ("Contribution", "has", "Results"),
            ("Results", "in terms of", "F1 measure"),
            ("F1 measure", "in", "ACE datasets"),
            ("ACE datasets", "achieves", "best results"),
            ("F1 measure", "in", "GENIA dataset"),
            ("GENIA dataset", "achieves", "comparable results"),
        ]
        issues = []
        parse_unit_file(write_unit_file(hoisted_results_tree()), UnitLabel.RESULTS,
                        issues=issues)
        assert issues == []

    def test_sentence_159_phrases(self):
        adding = Node("adding features")
        adding.add(Predicate("computed by"), "neural networks")
        results = Node("Results")
        results.add(Predicate("improves the performance"), adding)
        results.add(Predicate("improves the performance"),
                    "over baseline performance")
        flat = flatten(UnitTree.from_unit_node(UnitLabel.RESULTS, results))
        assert {t.key() for t in flat.triples} == {
            ("Contribution", "has", "Results"),
            ("Results", "improves the performance", "adding features"),
            ("adding features", "computed by", "neural networks"),
            ("Results", "improves the performance", "over baseline performance"),
        }

    def test_minimal_tree_yields_single_unit_triple(self):
        tree = UnitTree.from_unit_node(UnitLabel.RESULTS, Node("Results"))
        flat = flatten(tree)
        assert [t.key() for t in flat.triples] == [("Contribution", "has", "Results")]

    def test_dangling_predicate_emits_nothing_plus_warning(self):
        node = Node("Stack - LSTM")
        node.add(Predicate("to represent"), None)
        tree = UnitTree.from_unit_node(UnitLabel.MODEL, node)
        flat = flatten(tree)
        assert len(flat.triples) == 1
        # the parser is the one place that reports a dangling predicate
        issues = []
        parse_unit_file(write_unit_file(tree), UnitLabel.MODEL, issues=issues,
                        location="Model.json")
        assert [i.as_line() for i in issues if i.code == "dangling-predicate"] == [
            "Model.json\tdangling-predicate\tWarning\t"
            "predicate 'to represent' of 'Stack - LSTM' has no value"]

    def test_duplicate_triples_kept_and_reported(self):
        # kept here; validate_paper is the one place that reports them
        node = Node("Results")
        node.add(Predicate("on"), "CoNLL")
        node.add(Predicate("on"), "CoNLL")
        tree = UnitTree.from_unit_node(UnitLabel.RESULTS, node)
        assert len(flatten(tree).triples) == 3
        issues = []
        parse_unit_file(write_unit_file(tree), UnitLabel.RESULTS, issues=issues)
        assert issues == []

    def test_non_canonical_label_is_one_string_per_node(self):
        inner = Node("on  CoNLL ")
        inner.add(Predicate("F1"), " 91.2\t")
        node = Node("Results")
        node.add(Predicate("on"), inner)
        tree = UnitTree.from_unit_node(UnitLabel.RESULTS, node)
        assert [t.key() for t in flatten(tree).triples] == [
            ("Contribution", "has", "Results"),
            ("Results", "on", "on CoNLL"),
            ("on CoNLL", "F1", "91.2"),
        ]
        assert roundtrip_check(tree)

    def test_roundtrip_check_is_false_for_a_label_under_two_edges(self):
        results = Node("Results")
        for predicate, below in (("on", "x"), ("in", "y")):
            node = Node("A")
            node.add(Predicate("of"), below)
            results.add(Predicate(predicate), node)
        assert not roundtrip_check(UnitTree.from_unit_node(UnitLabel.RESULTS, results))

    def test_provenance_never_becomes_a_triple(self):
        node = Node("Results", provenance=["some sentence"])
        flat = flatten(UnitTree.from_unit_node(UnitLabel.RESULTS, node))
        assert len(flat.triples) == 1


class TestNest:
    def test_results_triples_file_rebuilds_fan(self, results_triples_text):
        triples = parse_triple_lines(results_triples_text)
        tree = nest(triples, UnitLabel.RESULTS)
        results = tree.unit_node
        assert results.label == "Results"
        on_children = [child.label for pred, child in results.edges
                       if pred.text == "on"]
        assert on_children == ["QASent dataset", "MSRP dataset", "Wiki QA dataset"]

    def test_minimal(self):
        tree = nest([Triple.of("Contribution", "has", "Results")], UnitLabel.RESULTS)
        assert tree.unit_node.label == "Results"
        assert tree.unit_node.edges == []

    def test_orphan_subject(self):
        with pytest.raises(NotATree):
            nest([Triple.of("Contribution", "has", "Results"),
                  Triple.of("X", "rel", "Y")], UnitLabel.RESULTS)

    def test_cycle_to_root(self):
        with pytest.raises(NotATree):
            nest([Triple.of("Contribution", "has", "Results"),
                  Triple.of("Results", "back to", "Contribution")],
                 UnitLabel.RESULTS)

    def test_self_loop(self):
        with pytest.raises(NotATree):
            nest([Triple.of("Contribution", "has", "Contribution")],
                 UnitLabel.RESULTS)

    def test_label_as_object_twice_is_the_repetition_situation(self):
        with pytest.raises(NotATree):
            nest([Triple.of("Contribution", "has", "Results"),
                  Triple.of("Results", "in", "F1"),
                  Triple.of("F1", "on", "ACE"),
                  Triple.of("Results", "with", "F1")], UnitLabel.RESULTS)

    def test_exact_duplicate_collapses(self):
        tree = nest([Triple.of("Contribution", "has", "Results"),
                     Triple.of("Results", "on", "CoNLL"),
                     Triple.of("Results", "on", "CoNLL")], UnitLabel.RESULTS)
        assert len(tree.unit_node.edges) == 1

    def test_repeated_literal_under_different_parents_is_fine(self):
        tree = nest([Triple.of("Contribution", "has", "Results"),
                     Triple.of("Results", "on", "A"),
                     Triple.of("A", "achieves", "best results"),
                     Triple.of("Results", "on", "B"),
                     Triple.of("B", "achieves", "best results")],
                    UnitLabel.RESULTS)
        assert len(flatten(tree).triples) == 5


class TestRoundtrip:
    def test_hoisted_results_unit(self):
        assert roundtrip_check(hoisted_results_tree())

    def test_minimal(self):
        assert roundtrip_check(
            UnitTree.from_unit_node(UnitLabel.RESULTS, Node("Results")))

    def test_adjudicated_stage_fixture(self, data_dir):
        text = (data_dir / "conll_adjudicated_stage.json").read_text(encoding="utf-8")
        tree = parse_unit_file(text, UnitLabel.RESULTS)
        assert roundtrip_check(tree)

    def test_childless_node_equals_literal(self):
        a = Node("Results")
        a.add(Predicate("on"), Node("CoNLL"))
        b = Node("Results")
        b.add(Predicate("on"), "CoNLL")
        assert trees_equivalent(a, b)

    def test_a_chain_deeper_than_the_recursion_limit(self):
        length = sys.getrecursionlimit() + 200
        chain = parse_triple_lines("\n".join(chain_triple_lines(length)))
        assert len(chain) == length
        tree = nest(chain, UnitLabel.RESULTS)
        assert flatten(tree).triples == chain
        assert roundtrip_check(tree)
        with pytest.raises(FormatError, match="nested too deeply"):
            write_unit_file(tree)

    def test_depth_tells_a_chain_from_a_fan(self):
        chain = Node("a")
        middle = Node("b")
        chain.add(Predicate("p"), middle)
        middle.add(Predicate("p"), "c")
        fan = Node("a")
        fan.add(Predicate("p"), Node("b"))
        fan.add(Predicate("p"), "c")
        assert not trees_equivalent(chain, fan)


# ---------------------------------------------------------------------------
# randomized properties

PREDS = ["in", "on", "achieves", "with", "via", "over"]


@st.composite
def unit_trees(draw, max_depth=5, max_fanout=4):
    counter = itertools.count()

    def build(depth: int) -> Node:
        node = Node(f"n{next(counter)}")
        fanout = draw(st.integers(0, max_fanout)) if depth < max_depth else 0
        for _ in range(fanout):
            pred = Predicate(draw(st.sampled_from(PREDS)))
            if depth + 1 >= max_depth or draw(st.booleans()):
                node.add(pred, f"v{next(counter)}")
            else:
                node.add(pred, build(depth + 1))
        return node

    top = build(0)
    return UnitTree.from_unit_node(draw(st.sampled_from(list(UnitLabel))), top)


def _count_positions(tree: UnitTree) -> tuple[int, int]:
    """(non-provenance leaf values, internal child nodes under the unit node)."""
    leaves = 0
    internal = 0
    unit_node = tree.unit_node

    def visit(node: Node) -> None:
        nonlocal leaves, internal
        for _, child in node.edges:
            if isinstance(child, Node):
                if child is not unit_node:
                    internal += 1
                visit(child)
            elif child is not None:
                leaves += 1

    visit(tree.root)
    return leaves, internal


@settings(max_examples=200)
@given(unit_trees())
def test_flatten_count_formula(tree):
    flat = flatten(tree)
    leaves, internal = _count_positions(tree)
    assert len(flat.triples) == leaves + internal + 1


@settings(max_examples=200)
@given(unit_trees())
def test_nest_of_flatten_is_identity(tree):
    assert roundtrip_check(tree)


@settings(max_examples=200)
@given(unit_trees())
def test_flatten_of_nest_is_set_identity(tree):
    triples = flatten(tree).triples
    rebuilt = flatten(nest(triples, tree.unit)).triples
    assert {t.key() for t in rebuilt} == {t.key() for t in triples}


@settings(max_examples=200)
@given(unit_trees())
def test_flatten_has_no_duplicates_on_generated_trees(tree):
    flat = flatten(tree)
    keys = [t.key() for t in flat.triples]
    assert len(keys) == len(set(keys))


@settings(max_examples=300)
@given(small_trees(), small_trees())
def test_trees_equivalent_matches_the_recursive_reference(a, b):
    assert trees_equivalent(a, b) == equivalent(a, b)


@settings(max_examples=200)
@given(small_trees(), st.data())
def test_trees_equivalent_ignores_what_triples_cannot_carry(tree, data):
    variant = equivalent_variant(tree, data.draw)
    assert equivalent(tree, variant)
    assert trees_equivalent(tree, variant)


@settings(max_examples=200)
@given(small_trees())
def test_flatten_matches_the_recursive_reference(node):
    tree = UnitTree(UnitLabel.RESULTS, node)
    assert [t.key() for t in flatten(tree).triples] == flattened_keys(node)
