import json

import pytest

from ncgkit import (
    CorpusManifest,
    UnitLabel,
    UnknownPaper,
    build_graph,
    compare,
    corpus_stats,
    load_corpus,
    render,
    table_to_dict,
    traverse,
)

PAPERS = ["dilated-cnn-2017", "robust-lexical-2018",
          "sentence-similarity-2016", "machine-reading-2016"]


@pytest.fixture(scope="module")
def survey_corpus(comparison_root):
    corpus, issues = load_corpus(CorpusManifest(root_path=comparison_root))
    assert corpus.paper_ids() and len(corpus) == 4
    return corpus


@pytest.fixture(scope="module")
def survey_table(survey_corpus):
    return compare(survey_corpus, UnitLabel.RESULTS, PAPERS, depth=1)


def test_research_problem_row_reads_the_stored_triples(tmp_path):
    paper = tmp_path / "t" / "p"
    (paper / "info-units").mkdir(parents=True)
    (paper / "triples").mkdir()
    (paper / "text.txt").write_text("We study chunking on CoNLL .\n", encoding="utf-8")
    (paper / "sentences.txt").write_text("1\n", encoding="utf-8")
    (paper / "info-units" / "Results.json").write_text(
        json.dumps({"has": {"Results": {"on": "CoNLL"}}}), encoding="utf-8")
    # a ResearchProblem triples file that does not nest keeps its triples
    (paper / "triples" / "ResearchProblem.txt").write_text(
        "(Contribution||has||Research Problem)\n(Orphan||has||NER)\n"
        "(Research Problem||has||chunking)\n", encoding="utf-8")
    corpus, issues = load_corpus(CorpusManifest(root_path=tmp_path))
    assert "nest-failed" in {i.code for i in issues}
    overall = corpus_stats(corpus).overall
    assert (overall.total_ius, overall.ann_triples) == (2, 5)
    table = compare(corpus, UnitLabel.RESULTS, ["p"])
    assert table.cell("Has research problem", "p") == ["NER", "chunking"]


class TestSurveyReproduction:
    def test_row_order_fixed_then_coverage(self, survey_table):
        assert survey_table.rows == [
            "Has research problem", "On", "Improves", "Outperforms",
            "Outperforming", "Significantly outperforms"]

    def test_on_row(self, survey_table):
        cell = survey_table.cell
        assert cell("On", "sentence-similarity-2016") == [
            "MSRP dataset", "QASent dataset", "Wiki QA dataset"]
        assert cell("On", "dilated-cnn-2017") == [
            "CoNLL - 2003", "CoNLL - 2003 English NER",
            "OntoNotes 5.0 English NER"]
        assert cell("On", "robust-lexical-2018") == ["CoNLL", "OntoNotes"]
        assert cell("On", "machine-reading-2016") == [
            "CBT", "CNN", "common noun category"]

    def test_outperforms_row_empty_for_machine_reading(self, survey_table):
        assert survey_table.cell("Outperforms", "machine-reading-2016") == []
        assert survey_table.cell("Outperforms", "dilated-cnn-2017") == [
            "Bi - LSTM and the 4 - layer CNN"]
        assert survey_table.cell("Outperforms", "robust-lexical-2018") == [
            "other NN models"]

    def test_significantly_outperforms_row(self, survey_table):
        assert survey_table.cell("Significantly outperforms",
                                 "robust-lexical-2018") == [
            "models Bi - LSTM - CNN - CRF",
            "models of (Chiu and Nichols , 2016)"]
        for other in ("dilated-cnn-2017", "sentence-similarity-2016",
                      "machine-reading-2016"):
            assert survey_table.cell("Significantly outperforms", other) == []

    def test_research_problem_row(self, survey_table):
        assert survey_table.cell("Has research problem",
                                 "sentence-similarity-2016") == [
            "Sentence Similarity Learning", "sentence similarity"]
        assert survey_table.cell("Has research problem",
                                 "machine-reading-2016") == [
            "Machine Reading", "Machine comprehension",
            "answering Cloze - style queries with respect to a document"]

    def test_second_level_predicates_do_not_surface_at_depth_one(self, survey_table):
        assert "got" not in survey_table.rows
        assert "obtained" not in survey_table.rows


class TestCompareBehavior:
    def test_unknown_paper(self, survey_corpus):
        with pytest.raises(UnknownPaper):
            compare(survey_corpus, UnitLabel.RESULTS, ["ghost"], depth=1)

    def test_absent_unit_gives_empty_column(self, survey_corpus):
        table = compare(survey_corpus, UnitLabel.BASELINES, PAPERS, depth=1)
        for row in table.rows:
            if row == "Has research problem":
                continue
            for pid in PAPERS:
                assert table.cell(row, pid) == []

    def test_same_paper_twice_is_refused(self, survey_corpus):
        pid = "sentence-similarity-2016"
        with pytest.raises(ValueError, match=f"paper '{pid}' requested twice"):
            compare(survey_corpus, UnitLabel.RESULTS, [pid, PAPERS[0], pid], depth=1)

    def test_column_permutation_preserves_cells(self, survey_corpus):
        forward = compare(survey_corpus, UnitLabel.RESULTS, PAPERS, depth=1)
        backward = compare(survey_corpus, UnitLabel.RESULTS, PAPERS[::-1], depth=1)
        assert [c[0] for c in backward.columns] == PAPERS[::-1]
        for row in forward.rows:
            for pid in PAPERS:
                assert forward.cell(row, pid) == backward.cell(row, pid)

    def test_adding_a_paper_never_changes_existing_cells(self, survey_corpus):
        three = compare(survey_corpus, UnitLabel.RESULTS, PAPERS[:3], depth=1)
        four = compare(survey_corpus, UnitLabel.RESULTS, PAPERS, depth=1)
        for row in three.rows:
            for pid in PAPERS[:3]:
                assert three.cell(row, pid) == four.cell(row, pid)
        assert set(three.rows) <= set(four.rows)

    def test_depth_two_surfaces_deeper_predicates(self, survey_corpus):
        table = compare(survey_corpus, UnitLabel.RESULTS, PAPERS, depth=2)
        assert "got" in table.rows
        assert "best MAP" in table.cell("got", "sentence-similarity-2016")

    def test_cells_derivable_by_graph_traversal(self, survey_corpus, survey_table):
        graph = build_graph(survey_corpus)
        for pid in PAPERS:
            reachable = {node.label
                         for path, node in traverse(graph, pid, "Results", 1)
                         if len(path) == 1}
            for row in survey_table.rows:
                if row == "Has research problem":
                    continue
                assert set(survey_table.cell(row, pid)) <= reachable


class TestRender:
    def test_markdown_shape(self, survey_table):
        text = render(survey_table, "md")
        lines = text.splitlines()
        assert lines[0].startswith("| Properties |")
        assert len(lines) == 2 + len(survey_table.rows)
        outperforms = next(l for l in lines if l.startswith("| Outperforms "))
        assert outperforms.count("Empty") == 2
        significantly = next(l for l in lines
                             if l.startswith("| Significantly outperforms "))
        assert significantly.count("Empty") == 3
        assert "models Bi - LSTM - CNN - CRF; models of (Chiu and Nichols , 2016)" \
            in significantly

    def test_markdown_empty_token(self, survey_table):
        text = render(survey_table, "md")
        assert "Empty" in text

    def test_csv_quoting(self, survey_corpus):
        table = compare(survey_corpus, UnitLabel.RESULTS, PAPERS, depth=1,
                        titles={"dilated-cnn-2017": "Fast, accurate NER"})
        text = render(table, "csv")
        assert '"Fast, accurate NER"' in text

    def test_json_null_marker(self, survey_table):
        payload = table_to_dict(survey_table)
        by_property = {row["property"]: row["cells"] for row in payload["rows"]}
        assert by_property["Outperforms"]["machine-reading-2016"] is None
        assert by_property["On"]["robust-lexical-2018"] == ["CoNLL", "OntoNotes"]

    def test_empty_table_renders_header_only(self, survey_corpus):
        table = compare(survey_corpus, UnitLabel.BASELINES, [], depth=1)
        text = render(table, "md")
        assert text.splitlines() == ["| Properties |", "| --- |"]
        assert render(table, "csv").strip() == "Properties"
