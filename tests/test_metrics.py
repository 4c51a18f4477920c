import gc
import random
from dataclasses import replace

import pytest
from hypothesis import given
from hypothesis import strategies as st

from ncgkit import (
    Corpus,
    CorpusManifest,
    GranularityUnavailable,
    MatchConfig,
    MissingTotals,
    PaperAnnotation,
    PhraseColumns,
    PhraseSpan,
    Sentence,
    Triple,
    UnitLabel,
    ValidationPolicy,
    build_graph,
    compare,
    corpus_stats,
    f1_from_percent,
    load_corpus,
    prf,
    render,
    score,
    score_all,
    unit_stats,
    validate_corpus,
)
from ncgkit import metrics
from ncgkit.metrics import GRANULARITIES, PHRASE_MATCHES, TRIPLE_SCOPES
from scoring_oracle import oracle_counts, random_corpus


class TestPrf:
    def test_direct_counts(self):
        value = prf(2, 1, 1)
        assert value.precision == pytest.approx(66.67, abs=0.005)
        assert value.recall == pytest.approx(66.67, abs=0.005)
        assert value.f1 == pytest.approx(66.67, abs=0.005)

    def test_zero_convention(self):
        value = prf(0, 0, 0)
        assert (value.precision, value.recall, value.f1) == (0.0, 0.0, 0.0)

    def test_published_sentence_row(self):
        assert f1_from_percent(67.96, 79.55) == pytest.approx(73.30, abs=0.02)

    def test_negative_counts_rejected(self):
        with pytest.raises(ValueError):
            prf(-1, 0, 0)


@pytest.mark.parametrize("call, message", [
    (lambda: MatchConfig(phrase_match="fuzzy"), "bad phrase_match: 'fuzzy'"),
    (lambda: MatchConfig(triple_scope="global"), "bad triple_scope: 'global'"),
    (lambda: MatchConfig(text_fold="lower"), "bad text_fold: 'lower'"),
    (lambda: ValidationPolicy(provenance_check="Fatal"), "bad provenance_check: 'Fatal'"),
    (lambda: build_graph(Corpus(), merge="global"), "merge must be 'per-paper' or 'surface'"),
    (lambda: render(compare(Corpus(), UnitLabel.RESULTS, []), "html"),
     "unknown comparison format: 'html'"),
    (lambda: score(Corpus(), Corpus(), "words"), "unknown granularity: 'words'"),
], ids=["phrase_match", "triple_scope", "text_fold", "provenance_check", "merge", "fmt",
        "granularity"])
def test_an_unknown_choice_is_a_value_error(call, message):
    with pytest.raises(ValueError) as info:
        call()
    assert str(info.value) == message


def stats_paper(pid, task, total_sentences, total_tokens, n_indices,
                phrases=(), triples=None):
    return PaperAnnotation(
        paper_id=pid, task=task,
        total_sentence_count=total_sentences,
        total_token_count=total_tokens,
        contribution_sentence_indices=set(range(1, n_indices + 1)),
        phrases=list(phrases),
        units=None,
        triples=triples or {},
    )


class TestCorpusStats:
    def test_ratio_formula_matches_published_mt_row(self):
        paper = stats_paper("p", "MT", 2596, 9581, 209)
        stats = corpus_stats(Corpus({"MT": [paper]}))
        assert stats.per_task["MT"].avg_ann_sentences == pytest.approx(0.081, abs=0.005)
        assert stats.per_task["MT"].ann_sentences == 209

    def test_zero_annotation_conventions(self):
        paper = stats_paper("p", "t", 10, 50, 0)
        stats = corpus_stats(Corpus({"t": [paper]}))
        row = stats.per_task["t"]
        assert row.ann_sentences == 0
        assert row.avg_toks_per_phrase == 0.0
        assert row.avg_ann_phrase_toks == 0.0
        assert row.ann_triples == 0

    def test_counts_sum_over_tasks(self):
        a = stats_paper("a", "t1", 10, 40, 2,
                        phrases=[PhraseSpan(1, 0, 2, "x y")],
                        triples={UnitLabel.RESULTS: [Triple.of("Contribution", "has", "Results")]})
        b = stats_paper("b", "t2", 20, 60, 3,
                        triples={UnitLabel.CODE: [Triple.of("Contribution", "has", "Code")]})
        stats = corpus_stats(Corpus({"t1": [a], "t2": [b]}))
        assert stats.overall.ann_sentences == 5
        assert stats.overall.total_sentences == 30
        assert stats.overall.ann_phrases == 1
        assert stats.overall.ann_triples == 2
        assert stats.overall.total_ius == 2

    def test_any_iterable_of_papers_counts_as_the_corpus_does(self):
        a, b, c = (stats_paper(pid, task, 10, 40, 2) for pid, task in
                   (("a", "t2"), ("b", "t1"), ("c", "t2")))
        corpus = Corpus({"t0": [], "t2": [a, c], "t1": [b]})
        assert list(corpus) == [a, c, b]
        streamed = corpus_stats(iter(corpus))
        # a Corpus reads as its stream: an empty task has no row
        assert corpus_stats(corpus) == streamed
        assert list(streamed.per_task) == ["t2", "t1"]
        assert streamed.overall.total_sentences == 30
        assert unit_stats(iter(corpus)) == unit_stats(corpus)

    def test_missing_totals(self):
        paper = PaperAnnotation("p", "t")
        with pytest.raises(MissingTotals):
            corpus_stats(Corpus({"t": [paper]}))


class TestUnitStats:
    def test_counts_and_ratio(self):
        rows = [Triple.of("Contribution", "has", "Results"),
                Triple.of("Results", "on", "CoNLL"),
                Triple.of("Results", "on", "OntoNotes")]
        a = stats_paper("a", "t", 5, 20, 1, triples={UnitLabel.RESULTS: rows})
        b = stats_paper("b", "t", 5, 20, 1,
                        triples={UnitLabel.RESULTS: rows[:1]})
        stats = unit_stats(Corpus({"t": [a, b]}))
        results = stats.per_unit[UnitLabel.RESULTS]
        assert (results.n_triples, results.n_papers) == (4, 2)
        assert results.ratio == pytest.approx(2.0)

    def test_absent_unit_row_is_zero(self):
        stats = unit_stats(Corpus({"t": [stats_paper("a", "t", 5, 20, 1)]}))
        dataset = stats.per_unit[UnitLabel.DATASET]
        assert (dataset.n_triples, dataset.n_papers, dataset.ratio) == (0, 0, 0.0)

    def test_all_twelve_rows_present(self):
        stats = unit_stats(Corpus())
        assert len(stats.per_unit) == 12


def sentence_paper(pid, task, indices):
    return PaperAnnotation(
        paper_id=pid, task=task, total_sentence_count=20, total_token_count=100,
        contribution_sentence_indices=set(indices), phrases=[], units=None,
        triples={})


class TestScore:
    def test_identity_is_all_hundreds(self):
        rng = random.Random(7)
        corpus = random_corpus(rng)
        for granularity in ("units", "sentences", "phrases", "triples"):
            report = score(corpus, corpus, granularity)
            if report.micro.tp == 0:
                continue  # corpus carries no items at this granularity
            for value in (report.micro, report.macro):
                assert value.precision == pytest.approx(100.0)
                assert value.recall == pytest.approx(100.0)
                assert value.f1 == pytest.approx(100.0)

    def test_sentence_example(self):
        gold = Corpus({"t": [sentence_paper("p", "t", {3, 7, 12})]})
        pred = Corpus({"t": [sentence_paper("p", "t", {3, 7, 9})]})
        report = score(gold, pred, "sentences")
        assert report.micro.precision == pytest.approx(66.67, abs=0.005)
        assert report.micro.recall == pytest.approx(66.67, abs=0.005)
        assert report.micro.f1 == pytest.approx(66.67, abs=0.005)

    def test_swap_exchanges_precision_and_recall(self):
        rng = random.Random(21)
        gold = random_corpus(rng)
        pred = random_corpus(rng)
        for granularity in ("units", "sentences", "phrases", "triples"):
            forward = score(gold, pred, granularity)
            backward = score(pred, gold, granularity)
            assert forward.micro.precision == pytest.approx(backward.micro.recall)
            assert forward.micro.recall == pytest.approx(backward.micro.precision)

    def test_micro_pools_counts(self):
        rng = random.Random(5)
        gold = random_corpus(rng)
        pred = random_corpus(rng)
        report = score(gold, pred, "triples")
        assert report.micro.tp == sum(v.tp for v in report.per_task.values())
        assert report.micro.fp == sum(v.fp for v in report.per_task.values())
        assert report.micro.fn == sum(v.fn for v in report.per_task.values())

    def test_macro_is_harmonic_of_averaged_pr(self):
        gold = Corpus({"a": [sentence_paper("p1", "a", {1, 2, 3})],
                       "b": [sentence_paper("p2", "b", {1, 2})]})
        pred = Corpus({"a": [sentence_paper("p1", "a", {1, 2, 4})],
                       "b": [sentence_paper("p2", "b", {1})]})
        report = score(gold, pred, "sentences")
        p = sum(v.precision for v in report.per_task.values()) / 2
        r = sum(v.recall for v in report.per_task.values()) / 2
        assert report.macro.precision == pytest.approx(p)
        assert report.macro.f1 == pytest.approx(f1_from_percent(p, r))

    def test_published_macro_sentence_row(self):
        assert f1_from_percent(67.33, 68.51) == pytest.approx(67.92, abs=0.02)

    def test_missing_paper_counts_fully(self):
        gold = Corpus({"t": [sentence_paper("p", "t", {1, 2})]})
        pred = Corpus({"t": []})
        report = score(gold, pred, "sentences")
        assert (report.micro.tp, report.micro.fp, report.micro.fn) == (0, 0, 2)

    def test_granularity_unavailable(self):
        paper = PaperAnnotation("p", "t", total_sentence_count=5,
                                total_token_count=10, phrases=None,
                                contribution_sentence_indices={1}, triples={})
        gold = Corpus({"t": [paper]})
        with pytest.raises(GranularityUnavailable):
            score(gold, gold, "phrases")

    def test_exact_span_vs_exact_text(self):
        sent = Sentence("p", 1, ("a", "b", "a", "b"))
        gold_paper = PaperAnnotation(
            "p", "t", 1, 4, {1}, [PhraseSpan(1, 0, 2, "a b")], None, {}, [sent])
        pred_paper = PaperAnnotation(
            "p", "t", 1, 4, {1}, [PhraseSpan(1, 2, 4, "a b")], None, {}, [sent])
        gold = Corpus({"t": [gold_paper]})
        pred = Corpus({"t": [pred_paper]})
        by_text = score(gold, pred, "phrases", MatchConfig(phrase_match="exact-text"))
        by_span = score(gold, pred, "phrases", MatchConfig(phrase_match="exact-span"))
        assert by_text.micro.tp == 1
        assert by_span.micro.tp == 0

    def test_partial_overlap(self):
        sent = Sentence("p", 1, tuple("abcdefgh"))
        gold_paper = PaperAnnotation(
            "p", "t", 1, 8, {1}, [PhraseSpan(1, 0, 4, "a b c d")], None, {}, [sent])
        pred_paper = PaperAnnotation(
            "p", "t", 1, 8, {1}, [PhraseSpan(1, 1, 4, "b c d")], None, {}, [sent])
        gold = Corpus({"t": [gold_paper]})
        pred = Corpus({"t": [pred_paper]})
        report = score(gold, pred, "phrases",
                       MatchConfig(phrase_match="partial-overlap"))
        assert report.micro.tp == 1  # jaccard 3/4

    @given(st.lists(st.tuples(st.integers(1, 2), st.integers(0, 6), st.integers(1, 4)),
                    max_size=6),
           st.lists(st.tuples(st.integers(1, 2), st.integers(0, 6), st.integers(1, 4)),
                    max_size=6))
    def test_partial_overlap_matches_token_set_maximum(self, gold_rows, pred_rows):
        sentences = [Sentence("p", i, tuple("abcdefghij")) for i in (1, 2)]

        def paper(rows):
            spans = [PhraseSpan(i, start, start + length, "x") for i, start, length in rows]
            return PaperAnnotation("p", "t", 2, 20, {1, 2}, spans, None, {}, sentences)

        gold = Corpus({"t": [paper(gold_rows)]})
        pred = Corpus({"t": [paper(pred_rows)]})
        config = MatchConfig(phrase_match="partial-overlap")
        report = score(gold, pred, "phrases", config)
        _, expected = oracle_counts(gold, pred, "phrases", config)
        assert (report.micro.tp, report.micro.fp, report.micro.fn) == expected

    @staticmethod
    def overlap_counts(gold_spans, pred_spans):
        def corpus(spans):
            sentence = Sentence("p", 1, tuple(f"w{i}" for i in range(max(e for _, e in spans))))
            phrases = [PhraseSpan(1, start, end, " ".join(sentence.tokens[start:end]))
                       for start, end in spans]
            return Corpus({"t": [PaperAnnotation("p", "t", 1, len(sentence.tokens), {1},
                                                 phrases, None, {}, [sentence])]})

        report = score(corpus(gold_spans), corpus(pred_spans), "phrases",
                       MatchConfig(phrase_match="partial-overlap"))
        return report.micro.tp, report.micro.fp, report.micro.fn

    @pytest.mark.parametrize("gold_spans, pred_spans, counts", [
        # [0,4)-[0,4) is the best pair, but taking it leaves [1,4) and [0,2)
        # unmatched; [1,4)-[0,4) and [0,4)-[0,2) match both
        ([(0, 4), (1, 4)], [(0, 4), (0, 2)], (2, 0, 0)),
        # equal spans each count
        ([(0, 4), (0, 4)], [(0, 4), (0, 4), (1, 4)], (2, 1, 0)),
    ], ids=["greedy-misses-a-pair", "equal-spans"])
    def test_partial_overlap_counts(self, gold_spans, pred_spans, counts):
        assert self.overlap_counts(gold_spans, pred_spans) == counts

    def test_partial_overlap_matches_a_long_chain_without_recursion(self):
        chain = [(i, i + 4) for i in range(1500)]
        assert self.overlap_counts(chain, chain) == (1500, 0, 0)

    def test_triple_scope_modes(self):
        rows_results = [Triple.of("X", "on", "Y")]
        gold_paper = PaperAnnotation("p", "t", 1, 1, set(), [], None,
                                     {UnitLabel.RESULTS: rows_results})
        pred_paper = PaperAnnotation("p", "t", 1, 1, set(), [], None,
                                     {UnitLabel.BASELINES: rows_results})
        gold = Corpus({"t": [gold_paper]})
        pred = Corpus({"t": [pred_paper]})
        per_unit = score(gold, pred, "triples")
        per_paper = score(gold, pred, "triples",
                          MatchConfig(triple_scope="per-paper"))
        assert per_unit.micro.tp == 0
        assert per_paper.micro.tp == 1

    def test_case_folding(self):
        gold_paper = PaperAnnotation("p", "t", 1, 1, set(), [], None,
                                     {UnitLabel.RESULTS: [Triple.of("X", "on", "CoNLL")]})
        pred_paper = PaperAnnotation("p", "t", 1, 1, set(), [], None,
                                     {UnitLabel.RESULTS: [Triple.of("X", "on", "conll")]})
        gold = Corpus({"t": [gold_paper]})
        pred = Corpus({"t": [pred_paper]})
        assert score(gold, pred, "triples").micro.tp == 0
        folded = score(gold, pred, "triples", MatchConfig(text_fold="casefold"))
        assert folded.micro.tp == 1


class TestScoreAgainstOracle:
    #: between them every phrase mode, both triple scopes and case folding
    CONFIGS = (
        MatchConfig(),
        MatchConfig(phrase_match="exact-span", triple_scope="per-paper"),
        MatchConfig(phrase_match="partial-overlap"),
        MatchConfig(text_fold="casefold"),
    )

    @pytest.mark.parametrize("granularity", ["units", "sentences", "phrases",
                                             "triples"])
    def test_micro_counts_match_brute_force(self, granularity):
        rng = random.Random(1234)
        for _ in range(200):
            gold = random_corpus(rng)
            pred = random_corpus(rng)
            for config in self.CONFIGS:
                per_task, totals = oracle_counts(gold, pred, granularity, config)
                report = score(gold, pred, granularity, config)
                assert (report.micro.tp, report.micro.fp, report.micro.fn) == totals
                for task, (tp, fp, fn) in per_task.items():
                    got = report.per_task[task]
                    assert (got.tp, got.fp, got.fn) == (tp, fp, fn)

    def test_lists_and_columns_score_alike(self):
        """Every consumer reads a paper's phrases as columns, so lists,
        columns and a mix of the two give one report, the oracle's."""
        def columns(corpus):
            return Corpus({task: [replace(p, phrases=PhraseColumns.of(p.phrases))
                                  for p in papers] for task, papers in corpus.tasks.items()})

        rng = random.Random(99)
        policy = ValidationPolicy(max_phrase_tokens=3)
        too_long = 0
        for _ in range(100):
            gold, pred = random_corpus(rng), random_corpus(rng)
            for config in [MatchConfig(phrase_match=match, text_fold=fold)
                           for match in PHRASE_MATCHES for fold in (None, "casefold")]:
                _, totals = oracle_counts(gold, pred, "phrases", config)
                for g in (gold, columns(gold)):
                    for p in (pred, columns(pred)):
                        report = score(g, p, "phrases", config)
                        assert report == score(gold, pred, "phrases", config)
                        assert (report.micro.tp, report.micro.fp, report.micro.fn) == totals
            assert corpus_stats(columns(gold)) == corpus_stats(gold)
            reports = validate_corpus(gold, policy)
            assert validate_corpus(columns(gold), policy) == reports
            too_long += sum(i.code == "phrase-too-long" for r in reports for i in r.issues)
        assert too_long

    def test_each_config_changes_some_count(self):
        """The random corpora give each mode a case where it differs from
        the default, so the sweep above checks every mode."""
        rng = random.Random(1234)
        differ = set()
        for _ in range(200):
            gold, pred = random_corpus(rng), random_corpus(rng)
            for granularity in ("phrases", "triples"):
                default = oracle_counts(gold, pred, granularity)
                differ |= {(granularity, i) for i, config in enumerate(self.CONFIGS)
                           if oracle_counts(gold, pred, granularity, config) != default}
        assert differ >= {("phrases", 1), ("phrases", 2), ("phrases", 3),
                          ("triples", 1), ("triples", 3)}


#: the fields whose files carry each granularity
LAYER_FIELDS = {"units": ("units", "triples"), "sentences": ("contribution_sentence_indices",),
                "phrases": ("phrases",), "triples": ("units", "triples")}


def scoring_side(rng):
    """A random corpus whose papers sometimes move to another task, and
    which sometimes lacks one layer in every paper."""
    papers = [replace(p, task=rng.choice(["task0", "task1", "task2"]))
              if rng.random() < 0.3 else p for p in random_corpus(rng)]
    if rng.random() < 0.3:
        dropped = dict.fromkeys(LAYER_FIELDS[rng.choice(GRANULARITIES)])
        papers = [replace(p, **dropped) for p in papers]
    return Corpus.of(papers)


class TestScorePass:
    """score and score_all pair the papers by id in one pass that reads
    pred once, so pred may be a stream."""

    CONFIGS = [MatchConfig(match, scope, fold) for match in PHRASE_MATCHES
               for scope in TRIPLE_SCOPES for fold in (None, "casefold")]

    @given(st.randoms(use_true_random=False))
    def test_a_pred_stream_scores_as_the_corpus_and_the_oracle(self, rng):
        gold, pred = scoring_side(rng), scoring_side(rng)
        # gold's tasks, then pred's, a pred paper's own task included
        tasks = list(dict.fromkeys([*gold.tasks, *pred.tasks]))
        for config in self.CONFIGS:
            available = {}
            for granularity in GRANULARITIES:
                try:
                    report = score(gold, pred, granularity, config)
                except GranularityUnavailable as whole:
                    with pytest.raises(GranularityUnavailable) as streamed:
                        score(gold, (p for p in pred), granularity, config)
                    assert str(streamed.value) == str(whole)
                    continue
                assert score(gold, (p for p in pred), granularity, config) == report
                assert list(report.per_task) == tasks
                per_task, totals = oracle_counts(gold, pred, granularity, config)
                assert (report.micro.tp, report.micro.fp, report.micro.fn) == totals
                assert {task: [v.tp, v.fp, v.fn] for task, v in report.per_task.items()} == {
                    task: per_task.get(task, [0, 0, 0]) for task in tasks}
                available[granularity] = report
            assert score_all(gold, pred, config) == available
            assert score_all(gold, (p for p in pred), config) == available

    def test_a_side_lacking_a_layer_is_named_gold_first(self):
        with_phrases = Corpus({"t": [sentence_paper("p", "t", {1})]})
        without = Corpus({"t": [replace(sentence_paper("p", "t", {1}), phrases=None)]})
        for gold, pred, side in ((without, with_phrases, "gold"),
                                 (with_phrases, without, "pred"), (without, without, "gold")):
            with pytest.raises(GranularityUnavailable) as info:
                score(gold, iter(pred), "phrases")
            assert str(info.value) == f"{side} corpus has no phrases files"
            assert list(score_all(gold, iter(pred))) == ["units", "sentences", "triples"]
        # a side with no papers lacks nothing
        assert score(Corpus(), without, "sentences").micro == prf(0, 1, 0)
        assert score(with_phrases, iter([]), "sentences").micro == prf(0, 0, 1)
        assert score(Corpus(), iter([]), "phrases").micro == prf(0, 0, 0)

    def test_a_corpus_scores_as_its_stream(self):
        gold = Corpus({"t0": [], "t1": [sentence_paper("a", "t1", {1, 2})]})
        pred = Corpus({"t2": [], "t1": [sentence_paper("a", "t1", {1})]})
        whole = score(gold, pred, "sentences")
        # an empty task has no row
        assert list(whole.per_task) == ["t1"]
        assert score(iter(gold), iter(pred), "sentences") == whole
        assert whole.micro == prf(1, 0, 1)

    def test_a_repeated_paper_id_is_a_value_error(self):
        # the last paper of an id used to win: tp 0, fp 2, fn 1 under t2
        gold = Corpus({"t1": [sentence_paper("p", "t1", {1, 2})],
                       "t2": [sentence_paper("p", "t2", {3})]})
        pred = Corpus({"t1": [sentence_paper("p", "t1", {1, 2})]})
        for call, side in ((lambda: score(gold, pred, "sentences"), "gold"),
                           (lambda: score_all(gold, pred), "gold"),
                           (lambda: score(pred, iter(gold), "sentences"), "pred"),
                           (lambda: score_all(pred, gold), "pred")):
            with pytest.raises(ValueError) as info:
                call()
            assert str(info.value) == f"paper 'p' repeated in {side}"

    def test_gold_papers_pred_lacks_build_no_items_of_a_layer_pred_lacks(self, monkeypatch):
        gold = Corpus({"t": [sentence_paper(pid, "t", {1}) for pid in ("a", "b", "c")]})
        pred = Corpus({"t": [replace(sentence_paper("a", "t", {1}), phrases=None)]})
        calls, items = [], metrics._items
        monkeypatch.setattr(metrics, "_items", lambda paper, granularity, config: (
            calls.append((paper.paper_id, granularity)) or items(paper, granularity, config)))
        with pytest.raises(GranularityUnavailable) as info:
            score(gold, pred, "phrases")
        assert str(info.value) == "pred corpus has no phrases files"
        assert calls == [("a", "phrases"), ("a", "phrases")]
        calls.clear()
        assert list(score_all(gold, pred)) == ["units", "sentences", "triples"]
        assert [call for call in calls if call[0] == "b"] == [
            ("b", "units"), ("b", "sentences"), ("b", "triples")]

    def test_a_raised_unavailable_granularity_leaves_no_cyclic_garbage(self, comparison_root):
        # a local holding the raised error kept it, its traceback and the
        # frames it passed alive in a cycle until the next collection
        corpus = load_corpus(CorpusManifest(root_path=comparison_root))[0]
        gc.collect()
        enabled = gc.isenabled()
        gc.disable()
        try:
            try:
                score(corpus, corpus, "phrases")
            except GranularityUnavailable as error:
                assert str(error) == "gold corpus has no phrases files"
            assert gc.collect() == 0
        finally:
            if enabled:
                gc.enable()


@st.composite
def corpora_with_empty_tasks(draw) -> Corpus:
    """A random corpus with empty task lists put among its tasks, under new
    names or under the names of a task another corpus has papers in."""
    tasks = list(random_corpus(random.Random(draw(st.integers(0, 2**32)))).tasks.items())
    for name in draw(st.lists(st.sampled_from(["task0", "task1", "task2", "empty"]),
                              unique=True)):
        if name not in dict(tasks):
            tasks.insert(draw(st.integers(0, len(tasks))), (name, []))
    return Corpus(dict(tasks))


@given(corpora_with_empty_tasks(), corpora_with_empty_tasks())
def test_a_corpus_with_empty_tasks_counts_and_scores_as_its_stream(gold, pred):
    whole, streamed = corpus_stats(gold), corpus_stats(iter(gold))
    assert whole == streamed and list(whole.per_task) == list(streamed.per_task)
    for granularity in GRANULARITIES:
        report = score(gold, pred, granularity)
        assert score(iter(gold), iter(pred), granularity) == report
        assert list(report.per_task) == list(dict.fromkeys(
            p.task for p in [*gold, *pred]))
