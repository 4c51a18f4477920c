import json
from dataclasses import replace

import pytest
from hypothesis import given
from hypothesis import strategies as st

from ncgkit import (
    CorpusManifest,
    PaperAnnotation,
    PhraseSpan,
    Sentence,
    Triple,
    UnitLabel,
    ValidationPolicy,
    load_corpus,
    normalize_unit_label,
    parse_unit_file,
    roundtrip_check,
    validate_corpus,
    validate_paper,
)
from ncgkit.issues import ERROR, ISSUE_CODES, WARNING, ValidationIssue
from ncgkit.model import Corpus
from ncgkit.validate import PROVENANCE_CHECKS
import validate_oracle


def build_paper(units_json: dict[str, dict], lines: list[str],
                indices: set[int] | None = None,
                paper_id: str = "p1", **kw) -> PaperAnnotation:
    sentences = [Sentence(paper_id, i, tuple(line.split()))
                 for i, line in enumerate(lines, 1)]
    units = {}
    for name, payload in units_json.items():
        unit = normalize_unit_label(name)
        units[unit] = parse_unit_file(json.dumps(payload), unit)
    return PaperAnnotation(
        paper_id=paper_id,
        task="t",
        total_sentence_count=len(lines),
        total_token_count=sum(len(s.tokens) for s in sentences),
        contribution_sentence_indices=indices if indices is not None else set(range(1, len(lines) + 1)),
        sentences=sentences,
        units=units,
        **kw,
    )


GOOD_LINES = [
    "We address relation extraction as the research problem of this work",
    "Our model improves the performance over baseline performance on benchmarks",
]

GOOD_UNITS = {
    "ResearchProblem": {"has": {"Research Problem": {"has": "relation extraction"}}},
    "Model": {"has": {"Model": {"improves": "the performance"}}},
    "Results": {"has": {"Results": {"improves the performance": "over baseline performance"}}},
}


class TestMandatoryUnits:
    def test_satisfied_directly(self):
        report = validate_paper(build_paper(GOOD_UNITS, GOOD_LINES))
        assert report.passed
        assert not any(i.code == "mandatory-unit-missing" for i in report.issues)

    def test_results_via_experiments_encapsulation(self):
        units = {
            "ResearchProblem": GOOD_UNITS["ResearchProblem"],
            "Model": GOOD_UNITS["Model"],
            "Experiments": {"has": {"Experiments": {
                "includes": {"Results": {"improves the performance":
                                         "over baseline performance"}}}}},
        }
        lines = GOOD_LINES + ["The experiments includes several runs"]
        report = validate_paper(build_paper(units, lines))
        assert report.passed

    def test_missing_research_problem(self):
        units = {k: v for k, v in GOOD_UNITS.items() if k != "ResearchProblem"}
        report = validate_paper(build_paper(units, GOOD_LINES))
        assert not report.passed

    def test_both_approach_and_model_is_a_warning(self):
        units = dict(GOOD_UNITS)
        units["Approach"] = {"has": {"Approach": {"improves": "the performance"}}}
        report = validate_paper(build_paper(units, GOOD_LINES))
        assert report.passed
        assert any(i.code == "approach-model-both" and i.severity == WARNING
                   for i in report.issues)


    def test_unit_with_only_a_triples_file_is_checked(self, tmp_path):
        paper = tmp_path / "t" / "p1"
        (paper / "triples").mkdir(parents=True)
        (paper / "text.txt").write_text("We study X here .\n", encoding="utf-8")
        (paper / "sentences.txt").write_text("1\n", encoding="utf-8")
        for unit, lines in (
                ("ResearchProblem", ["(Contribution||has||Research Problem)",
                                     "(Research Problem||has||X)"]),
                ("Results", ["(Contribution||has||Results)", "(Results||has||X)"]),
                # does not nest: X is never an object
                ("Model", ["(Contribution||has||Model)", "(X||zzqq||Y)", "(X||zzqq||Y)"])):
            (paper / "triples" / f"{unit}.txt").write_text(
                "".join(line + "\n" for line in lines), encoding="utf-8")
        corpus, issues = load_corpus(CorpusManifest(root_path=tmp_path))
        assert "nest-failed" in {i.code for i in issues}
        per_triple = ("p1/Model/X\tfiller-whitelist\tError\tpredicate 'zzqq' not found "
                      "in any annotated sentence and not a filler\n"
                      "p1/Model/X\tprovenance-missing\tWarning\tobject 'Y' not found in "
                      "any source sentence\n")
        # the repeated triple's surface findings come once, not once per copy
        expected = ("p1/Model/X\tduplicate-triple\tError\tduplicate triple ('X', 'zzqq', 'Y')\n"
                    + per_triple)
        assert validate_corpus(corpus)[0].as_lines() == expected
        # no unit is read from a tree when there are none
        paper = replace(corpus.get("p1"), units=None)
        assert validate_paper(paper).as_lines() == expected


class TestEncapsulationRule:
    def test_sub_unit_node_outside_encapsulating_unit(self):
        units = dict(GOOD_UNITS)
        units["Baselines"] = {"has": {"Baselines": {
            "includes": {"Results": {"improves": "the performance"}}}}}
        lines = GOOD_LINES + ["baselines includes prior work"]
        report = validate_paper(build_paper(units, lines))
        assert any(i.code == "encapsulation-violation" and i.severity == ERROR
                   for i in report.issues)

    def test_results_node_inside_tasks_is_fine(self):
        units = dict(GOOD_UNITS)
        units["Tasks"] = {"has": {"Tasks": {
            "includes": {"Results": {"improves": "the performance"}}}}}
        lines = GOOD_LINES + ["the tasks includes NER"]
        report = validate_paper(build_paper(units, lines))
        assert not any(i.code == "encapsulation-violation" for i in report.issues)


class TestFillerWhitelist:
    def test_unlisted_predicate_not_in_text_is_an_error(self):
        units = dict(GOOD_UNITS)
        units["Results"] = {"has": {"Results": {"hasPart": "something"}}}
        lines = GOOD_LINES + ["something is reported here"]
        report = validate_paper(build_paper(units, lines))
        assert any(i.code == "filler-whitelist" and i.severity == ERROR
                   for i in report.issues)

    def test_fillers_allowed_everywhere(self):
        report = validate_paper(build_paper(GOOD_UNITS, GOOD_LINES))
        assert not any(i.code == "filler-whitelist" for i in report.issues)

    def test_predicate_found_in_provenance_is_fine(self):
        units = dict(GOOD_UNITS)
        units["Results"] = {"has": {"Results": {
            "outperforms": "prior systems",
            "from sentence": "our approach outperforms prior systems"}}}
        report = validate_paper(build_paper(units, GOOD_LINES))
        assert not any(i.code == "filler-whitelist" for i in report.issues)


class TestProvenance:
    def test_ungrounded_object_warns_by_default(self):
        units = dict(GOOD_UNITS)
        units["Results"] = {"has": {"Results": {
            "improves the performance": "an invented phrase"}}}
        report = validate_paper(build_paper(units, GOOD_LINES))
        hits = [i for i in report.issues if i.code == "provenance-missing"]
        assert hits and all(i.severity == WARNING for i in hits)
        assert report.passed

    def test_policy_strengthening_only_raises_severity(self):
        units = dict(GOOD_UNITS)
        units["Results"] = {"has": {"Results": {
            "improves the performance": "an invented phrase"}}}
        paper = build_paper(units, GOOD_LINES)
        warn = validate_paper(paper, ValidationPolicy(provenance_check="Warn"))
        error = validate_paper(paper, ValidationPolicy(provenance_check="Error"))
        warn_codes = [i.code for i in warn.issues]
        error_codes = [i.code for i in error.issues]
        assert warn_codes == error_codes
        assert warn.passed and not error.passed
        assert any(i.severity == ERROR for i in error.issues
                   if i.code == "provenance-missing")
        off = validate_paper(paper, ValidationPolicy(provenance_check="Off"))
        assert not any(i.code == "provenance-missing" for i in off.issues)

    def test_error_policy_raises_only_provenance_missing(self):
        units = dict(GOOD_UNITS)
        units["Results"] = {"has": {"Results": {
            "improves the performance": "an invented phrase", "name": "X"}}}
        report = validate_paper(build_paper(units, GOOD_LINES),
                                ValidationPolicy(provenance_check="Error"))
        raised = [i for i in report.issues if i.code == "provenance-missing"]
        others = [i for i in report.issues if i.code != "provenance-missing"]
        assert raised and all(i.severity == ERROR for i in raised)
        assert others and all(i.severity == ISSUE_CODES[i.code][0] for i in others)

    def test_surface_spanning_two_pool_texts_is_reported(self):
        units = dict(GOOD_UNITS)
        units["Results"] = {"has": {"Results": {
            "improves": {"the performance": {"over baseline": "performance over baseline"}}}}}
        lines = ["Our model improves the performance", "over baseline performance on benchmarks"]
        report = validate_paper(build_paper(units, lines))
        missing = [i.message for i in report.issues if i.code == "provenance-missing"]
        assert any("'performance over baseline'" in m for m in missing)
        assert not any("'the performance'" in m or "'over baseline'" in m for m in missing)

    @pytest.mark.parametrize("where", ["sentence", "provenance", "split", "neither"])
    def test_a_surface_is_grounded_wherever_the_paper_holds_it(self, where):
        source = "this work reports an invented phrase"
        results = {"reports": "an invented phrase"}
        lines = list(GOOD_LINES)
        if where in ("provenance", "split"):
            results["from sentence"] = "this work reports" if where == "split" else source
        if where in ("sentence", "split"):
            lines.append(source)
        units = {**GOOD_UNITS, "Results": {"has": {"Results": results}}}
        report = validate_paper(build_paper(units, lines))
        assert report.as_lines() == ("" if where != "neither" else (
            "p1/Results/Results\tfiller-whitelist\tError\tpredicate 'reports' not found "
            "in any annotated sentence and not a filler\n"
            "p1/Results/Results\tprovenance-missing\tWarning\tobject 'an invented phrase' "
            "not found in any source sentence\n"))

    def test_a_blank_provenance_string_still_turns_grounding_on(self):
        results = {"reports": "an invented phrase"}
        blank = {**results, "from sentence": " "}
        for tree, codes in ((results, []), (blank, ["filler-whitelist", "provenance-missing"])):
            units = {**GOOD_UNITS, "Results": {"has": {"Results": tree}}}
            report = validate_paper(build_paper(units, GOOD_LINES, indices=set()))
            assert sorted({i.code for i in report.issues}) == codes

    def test_unit_names_are_never_provenance_checked(self):
        report = validate_paper(build_paper(GOOD_UNITS, GOOD_LINES))
        assert not any("Results" in i.message and i.code == "provenance-missing"
                       for i in report.issues)


class TestDuplicatesAndBounds:
    def test_shared_phrase_hoisted_once_is_clean(self, results_unit_text):
        units = {"ResearchProblem": GOOD_UNITS["ResearchProblem"],
                 "Model": GOOD_UNITS["Model"]}
        paper = build_paper(units, GOOD_LINES)
        tree = parse_unit_file(results_unit_text, UnitLabel.RESULTS)
        # a paper's triples are made when it is built, so the tree goes in then
        paper = replace(paper, units={**paper.units, UnitLabel.RESULTS: tree})
        assert UnitLabel.RESULTS in paper.triples
        report = validate_paper(paper, ValidationPolicy(provenance_check="Off"))
        assert not any(i.code == "duplicate-triple" for i in report.issues)

    def test_duplicate_triple_is_an_error(self):
        units = dict(GOOD_UNITS)
        units["Results"] = {"has": {"Results": {
            "improves the performance": [
                "over baseline performance", "over baseline performance"]}}}
        report = validate_paper(build_paper(units, GOOD_LINES))
        assert any(i.code == "duplicate-triple" and i.severity == ERROR
                   for i in report.issues)

    def test_repeated_tree_triple_gets_each_finding_once(self):
        units = dict(GOOD_UNITS)
        units["Results"] = {"has": {"Results": {"zzqq": ["Y", "Y"]}}}
        report = validate_paper(build_paper(units, GOOD_LINES))
        assert report.as_lines() == (
            "p1/Results/Results\tduplicate-triple\tError\tduplicate triple "
            "('Results', 'zzqq', 'Y')\n"
            "p1/Results/Results\tfiller-whitelist\tError\tpredicate 'zzqq' not found in "
            "any annotated sentence and not a filler\n"
            "p1/Results/Results\tprovenance-missing\tWarning\tobject 'Y' not found in any "
            "source sentence\n")

    def test_unit_name_exemption_does_not_ground_a_predicate_of_that_text(self):
        # "Model" is exempt as a node and checked as a predicate; the node
        # is seen first, so a memo holding the exemption would hide the error
        units = dict(GOOD_UNITS)
        units["Results"] = {"has": {"Results": {"Model": "the performance"}}}
        report = validate_paper(build_paper(units, GOOD_LINES))
        assert [i.message for i in report.issues] == [
            "predicate 'Model' not found in any annotated sentence and not a filler"]

    def test_sentence_bounds(self):
        paper = build_paper(GOOD_UNITS, GOOD_LINES, indices={1, 5})
        report = validate_paper(paper)
        assert any(i.code == "sentence-out-of-bounds" for i in report.issues)
        assert not report.passed

    def test_phrase_length_lint(self):
        paper = build_paper(GOOD_UNITS, GOOD_LINES)
        paper = replace(paper, phrases=[PhraseSpan(2, 0, 11, " ".join(
            paper.sentences[1].tokens[0:11]))])
        report = validate_paper(paper)
        assert any(i.code == "phrase-too-long" and i.severity == WARNING
                   for i in report.issues)
        report = validate_paper(paper, ValidationPolicy(max_phrase_tokens=0))
        assert not any(i.code == "phrase-too-long" for i in report.issues)
        with pytest.raises(ValueError, match="max_phrase_tokens must be at least 0, got -1"):
            ValidationPolicy(max_phrase_tokens=-1)


class TestFillerPlacement:
    def test_name_outside_model_warns(self):
        units = dict(GOOD_UNITS)
        units["Results"] = {"has": {"Results": {"name": "BiLSTM"}}}
        lines = GOOD_LINES + ["we call it BiLSTM"]
        report = validate_paper(build_paper(units, lines))
        assert any(i.code == "filler-placement" for i in report.issues)

    def test_name_on_model_is_fine(self):
        units = dict(GOOD_UNITS)
        units["Model"] = {"has": {"Model": {"name": "BiLSTM"}}}
        lines = GOOD_LINES + ["we call it BiLSTM"]
        report = validate_paper(build_paper(units, lines))
        assert not any(i.code == "filler-placement" for i in report.issues)


class TestValidateCorpus:
    def test_empty_corpus(self):
        assert validate_corpus(Corpus()) == []

    def test_one_bad_paper_does_not_affect_others(self):
        good = build_paper(GOOD_UNITS, GOOD_LINES, paper_id="good")
        bad = build_paper({"Model": GOOD_UNITS["Model"]}, GOOD_LINES,
                          paper_id="bad")
        corpus = Corpus({"t": [good, bad]})
        reports = validate_corpus(corpus)
        assert [r.paper_id for r in reports] == ["good", "bad"]
        assert reports[0].passed and not reports[1].passed

    def test_deterministic_order(self):
        papers = [build_paper(GOOD_UNITS, GOOD_LINES, paper_id=f"p{i}")
                  for i in range(6)]
        corpus = Corpus({"t": papers})
        first = validate_corpus(corpus)
        second = validate_corpus(corpus)
        assert [r.paper_id for r in first] == [f"p{i}" for i in range(6)]
        assert [r.issues for r in first] == [r.issues for r in second]

    def test_clean_trees_roundtrip_through_codec(self):
        paper = build_paper(GOOD_UNITS, GOOD_LINES)
        report = validate_paper(paper)
        assert report.passed
        for tree in paper.units.values():
            assert roundtrip_check(tree)


#: The severity of each issue code.  Only ``provenance-missing`` takes
#: another, an Error under ``ValidationPolicy(provenance_check="Error")``.
SEVERITIES = {
    "empty-corpus": WARNING, "empty-task": WARNING, "missing-text": ERROR, "missing-sentences": WARNING,
    "missing-phrases": WARNING, "missing-units": WARNING, "missing-triples": WARNING,
    "duplicate-paper-id": ERROR, "format-error": ERROR, "unknown-unit-label": WARNING,
    "duplicate-unit-file": ERROR,
    "duplicate-sentence-index": WARNING, "span-out-of-range": ERROR,
    "span-text-mismatch": WARNING, "single-pipe-delimiter": WARNING,
    "root-not-unit": WARNING, "nest-failed": WARNING, "triples-file-mismatch": WARNING,
    "dangling-predicate": WARNING, "duplicate-triple": ERROR,
    "mandatory-unit-missing": ERROR, "approach-model-both": WARNING,
    "encapsulation-violation": ERROR, "filler-whitelist": ERROR,
    "filler-placement": WARNING, "provenance-missing": WARNING,
    "sentence-out-of-bounds": ERROR, "phrase-too-long": WARNING,
}


class TestIssueCodes:
    def test_each_code_has_its_severity(self):
        assert {code: severity for code, (severity, _) in ISSUE_CODES.items()} == SEVERITIES
        for code, severity in SEVERITIES.items():
            issue = ValidationIssue(code, "where", "what")
            assert (issue.severity, issue.as_line()) == (
                severity, f"where\t{code}\t{severity}\twhat")

    def test_fields_keep_their_order(self):
        issue = ValidationIssue("provenance-missing", "where", "what", severity=ERROR)
        assert vars(issue) == {"code": "provenance-missing", "severity": ERROR,
                               "location": "where", "message": "what"}
        assert list(vars(issue)) == ["code", "severity", "location", "message"]
        assert repr(issue) == ("ValidationIssue(code='provenance-missing', "
                               "severity='Error', location='where', message='what')")

    @pytest.mark.parametrize("code, severity", [("no-such-code", None),
                                                ("format-error", "Fatal")])
    def test_refuses_an_unregistered_code_or_severity(self, code, severity):
        with pytest.raises(ValueError):
            ValidationIssue(code, "where", "what", severity=severity)


#: Small pools, so that papers repeat subjects, predicates, objects and
#: whole triples.  The sentences ground some texts and not others; the
#: labels name units, the root or nothing; ``name``, ``hasAcronym`` and
#: ``has`` are fillers.
WORDS = ["alpha", "beta", "gamma delta", "zeta"]
LABELS = ["alpha", "zeta", "Model", "Approach", "Results", "Contribution"]
PREDICATES = ["name", "hasAcronym", "has", "improves", "zzqq", "alpha"]
TREE_UNITS = ["ResearchProblem", "Approach", "Model", "Results", "Experiments", "Baselines"]


@st.composite
def unit_bodies(draw, depth: int = 2) -> dict:
    """The JSON object of a node: predicates to a leaf, a list of leaves
    that may repeat, or child nodes; sometimes a provenance sentence."""
    body = {}
    if draw(st.booleans()):
        body["from sentence"] = draw(st.sampled_from(WORDS))
    for predicate in draw(st.lists(st.sampled_from(PREDICATES), max_size=3, unique=True)):
        if depth and draw(st.booleans()):
            body[predicate] = {label: draw(unit_bodies(depth - 1)) for label in draw(
                st.lists(st.sampled_from(LABELS[:-1]), min_size=1, max_size=2, unique=True))}
        else:
            body[predicate] = draw(st.lists(st.sampled_from(WORDS + LABELS), min_size=1,
                                            max_size=3))
    return body


@st.composite
def random_papers(draw) -> PaperAnnotation:
    units = {name: {"has": {name: draw(unit_bodies())}}
             for name in draw(st.lists(st.sampled_from(TREE_UNITS), max_size=4, unique=True))}
    lines = draw(st.lists(st.sampled_from(["we use alpha", "improves gamma delta",
                                           "the zzqq of beta"]), max_size=3))
    # a unit without a tree, whose triples repeat
    triples = draw(st.lists(st.tuples(st.sampled_from(LABELS), st.sampled_from(PREDICATES),
                                      st.sampled_from(WORDS + LABELS)), max_size=4))
    triples += draw(st.lists(st.sampled_from(triples), max_size=3)) if triples else []
    return build_paper(units, lines, triples={UnitLabel.TASKS: [Triple.of(*t) for t in triples]}
                       if triples else None)


#: The codes whose records are shared by cause.
SHARED = {"duplicate-triple", "filler-whitelist", "filler-placement", "provenance-missing",
          "encapsulation-violation"}


@given(random_papers(), st.sampled_from(PROVENANCE_CHECKS))
def test_findings_are_the_oracles_with_one_record_per_cause(paper, check):
    policy = ValidationPolicy(provenance_check=check)
    report, expected = validate_paper(paper, policy), validate_oracle.validate_paper(paper, policy)
    assert report.as_lines() == expected.as_lines()
    assert [vars(i) for i in report.issues] == [vars(i) for i in expected.issues]
    first = {}
    for issue in report.issues:
        if issue.code in SHARED:
            assert first.setdefault(tuple(vars(issue).values()), issue) is issue


@given(random_papers(), st.sampled_from(PROVENANCE_CHECKS))
def test_a_report_writes_each_issue_line_and_locates_a_node_finding_at_its_node(paper, check):
    report = validate_paper(paper, ValidationPolicy(provenance_check=check))
    assert report.as_lines() == "".join(i.as_line() + "\n" for i in report.issues)
    units = {unit.identifier for unit in UnitLabel}
    for issue in report.issues:
        if issue.code in SHARED:
            paper_id, unit, label = issue.location.split("/", 2)
            assert paper_id == paper.paper_id and unit in units and label
