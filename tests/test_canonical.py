"""Canonical text is guaranteed by the model types when a value is built.

Every consumer (scorer, validator, comparison, knowledge graph) trusts that
guarantee, so a paper built in memory with stray whitespace in its labels,
literals, predicates, triple fields and phrase texts must give the same
outputs as the same paper spelled canonically.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from ncgkit import (
    Corpus,
    MatchConfig,
    Node,
    PaperAnnotation,
    PhraseSpan,
    Predicate,
    Sentence,
    Triple,
    UnitLabel,
    UnitTree,
    build_graph,
    compare,
    export_ntriples,
    score,
    validate_paper,
)
from ncgkit.metrics import GRANULARITIES

#: The scorer settings of the benchmark: exact text per unit, exact span per
#: paper, and partial overlap with case folding.
SCORE_CONFIGS = (
    MatchConfig(),
    MatchConfig(phrase_match="exact-span", triple_scope="per-paper"),
    MatchConfig(phrase_match="partial-overlap", text_fold="casefold"),
)

#: Few words, so that labels, predicates and sentences overlap.
WORDS = ["a", "b", "CoNLL", "F1", "on", "has", "name", "Results"]
SENTENCES = [["we", "report", "F1", "on", "CoNLL"],
             ["Results", "a", "b", "on", "has", "name"]]
#: Whitespace that ``str.split`` collapses, beyond the plain space.
SPACES = st.text(st.sampled_from(" \t\n\r\x0b\x0c\x1c\x85\xa0 　"),
                 min_size=1, max_size=3)


@st.composite
def spellings(draw, words):
    """(canonical, messy) spellings of the words: the messy one joins them
    with any whitespace run and may pad both ends."""
    clean = " ".join(words)
    runs = [draw(SPACES) for _ in words[1:]]
    messy = words[0] + "".join(run + word for run, word in zip(runs, words[1:]))
    pad = st.sampled_from(["", " ", "\t", "　 "])
    return clean, draw(pad) + messy + draw(pad)


def text(size=3):
    return st.lists(st.sampled_from(WORDS), min_size=1, max_size=size).flatmap(spellings)


def edges(depth):
    child = text() if depth == 0 else st.one_of(text(), st.tuples(text(), edges(depth - 1)))
    return st.lists(st.tuples(text(2), child), max_size=3)


@st.composite
def phrases(draw):
    out = []
    for _ in range(draw(st.integers(0, 3))):
        index = draw(st.integers(1, len(SENTENCES)))
        tokens = SENTENCES[index - 1]
        start = draw(st.integers(0, len(tokens) - 1))
        end = draw(st.integers(start + 1, len(tokens)))
        out.append((index, start, end, draw(spellings(tokens[start:end]))))
    return out


@st.composite
def paper_specs(draw):
    return {
        "problem": draw(st.lists(text(), min_size=1, max_size=2)),
        "results": draw(edges(1)),
        "unit_name": draw(spellings(["Results"])),
        "triples": draw(st.lists(st.tuples(text(), text(2), text()), max_size=3)),
        "phrases": draw(phrases()),
    }


def predicate(spelling, side):
    # built directly, so the Predicate constructor is what canonicalises
    return Predicate(spelling[side])


def build(spec, side: int, paper_id: str) -> PaperAnnotation:
    """The paper of ``spec`` with every text in spelling ``side`` (0 canonical)."""
    def node(label, children):
        out = Node(label[side])
        for pred, child in children:
            if isinstance(child[1], list):
                out.add(predicate(pred, side), node(*child))
            else:
                out.add(predicate(pred, side), child[side])
        return out

    problem = Node("Research Problem")
    for value in spec["problem"]:
        problem.add(Predicate("has"), value[side])
    units = {
        UnitLabel.RESEARCH_PROBLEM: UnitTree.from_unit_node(UnitLabel.RESEARCH_PROBLEM, problem),
        UnitLabel.RESULTS: UnitTree.from_unit_node(
            UnitLabel.RESULTS, node(spec["unit_name"], spec["results"])),
    }
    triples = {UnitLabel.CODE: [Triple(s[side], predicate(p, side), o[side])
                                for s, p, o in spec["triples"]]}
    return PaperAnnotation(
        paper_id=paper_id, task="t",
        total_sentence_count=len(SENTENCES),
        total_token_count=sum(map(len, SENTENCES)),
        contribution_sentence_indices={1, 2},
        phrases=[PhraseSpan(i, s, e, t[side]) for i, s, e, t in spec["phrases"]],
        units=units, triples=triples,
        sentences=[Sentence(paper_id, i, tuple(tokens))
                   for i, tokens in enumerate(SENTENCES, 1)])


def corpus(*papers) -> Corpus:
    return Corpus({"t": list(papers)})


def outputs(gold: Corpus, pred: Corpus) -> list:
    papers = list(gold.papers())
    out = [score(gold, pred, granularity, config)
           for config in SCORE_CONFIGS for granularity in GRANULARITIES]
    out += [validate_paper(paper).issues for paper in papers]
    out.append(compare(gold, UnitLabel.RESULTS, gold.paper_ids(), depth=2))
    out += [export_ntriples(build_graph(gold, merge)) for merge in ("per-paper", "surface")]
    return out


@settings(max_examples=60, deadline=None)
@given(paper_specs(), paper_specs())
def test_stray_whitespace_gives_the_canonical_outputs(spec_a, spec_b):
    clean = outputs(corpus(build(spec_a, 0, "p1"), build(spec_b, 0, "p2")),
                    corpus(build(spec_b, 0, "p1"), build(spec_a, 0, "p2")))
    messy = outputs(corpus(build(spec_a, 1, "p1"), build(spec_b, 1, "p2")),
                    corpus(build(spec_b, 1, "p1"), build(spec_a, 1, "p2")))
    assert messy == clean
