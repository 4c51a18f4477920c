"""Machine checks of the NCG scheme rules over loaded annotations.

All findings are data (ValidationIssue), never raised: a report ``passes``
when it contains no Error-severity issues.  Checks are deterministic and
per-paper, so a paper's report does not depend on the rest of the corpus.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

from .codec import unit_triples
from .issues import ERROR, ValidationIssue
from .model import (
    Corpus,
    PaperAnnotation,
    PredicateKind,
    UnitLabel,
    UnitTree,
    canonical_text,
    lookup_unit_label,
)

#: Units that may appear as internal nodes only inside Experiments or Tasks.
SUB_UNIT_LABELS = {
    UnitLabel.EXPERIMENTAL_SETUP,
    UnitLabel.HYPERPARAMETERS,
    UnitLabel.RESULTS,
    UnitLabel.TASKS,
}

ENCAPSULATING_UNITS = {UnitLabel.EXPERIMENTS, UnitLabel.TASKS}

PROVENANCE_OFF = "Off"
PROVENANCE_WARN = "Warn"
PROVENANCE_ERROR = "Error"
PROVENANCE_CHECKS = (PROVENANCE_OFF, PROVENANCE_WARN, PROVENANCE_ERROR)


@dataclass
class ValidationPolicy:
    """How hard the provenance and phrase-length checks bite.

    Defaults follow the scheme's own reading: provenance mismatches warn
    rather than fail, and a phrase longer than ``max_phrase_tokens`` tokens
    is only an informational warning (0 disables).
    """

    provenance_check: str = PROVENANCE_WARN
    max_phrase_tokens: int = 10

    def __post_init__(self) -> None:
        if self.provenance_check not in PROVENANCE_CHECKS:
            raise ValueError(f"bad provenance_check: {self.provenance_check!r}")


@dataclass
class ValidationReport:
    paper_id: str
    issues: list[ValidationIssue] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return not any(i.severity == ERROR for i in self.issues)

    def as_lines(self) -> str:
        return "".join(f"{self.paper_id}\t{i.code}\t{i.severity}\t{i.message}\n"
                       for i in self.issues)


def _nested_units(tree: UnitTree):
    """``(node, unit)`` of each node below the unit node that names a unit."""
    top = tree.unit_node
    for node in tree.nodes():
        if node is tree.root or node is top:
            continue
        unit = lookup_unit_label(node.label)
        if unit is not None:
            yield node, unit


def _sentence_pool(paper: PaperAnnotation) -> list[str]:
    """Canonical texts a surface form may be grounded in."""
    pool = paper.contribution_texts()  # sentence texts are single-space joins
    for tree in (paper.units or {}).values():
        for node in tree.nodes():
            pool.extend(canonical_text(p) for p in node.provenance)
    return pool


def validate_paper(paper: PaperAnnotation,
                   policy: ValidationPolicy | None = None) -> ValidationReport:
    """Run every scheme check over one paper.

    Checks: mandatory units (ResearchProblem; exactly one of Approach or
    Model; Results, top-level or nested in Experiments or Tasks),
    encapsulation of sub-units, the has/name/hasAcronym filler whitelist,
    provenance grounding of surface forms, duplicate triples, sentence
    index bounds, and the optional phrase-length lint.  The two
    text-grounding checks need source text and are skipped when the paper
    carries neither contribution sentences nor provenance strings; they
    see each distinct triple of a unit once, so a repeated triple gets its
    findings once, next to its ``duplicate-triple`` error.  Unit
    presence and the triple checks cover every unit of
    :func:`~ncgkit.codec.unit_triples`, tree or not; encapsulation, filler
    placement and nested Results read the trees.
    """
    policy = policy or ValidationPolicy()
    report = ValidationReport(paper.paper_id)
    issues = report.issues
    units = paper.units or {}
    by_unit = unit_triples(paper)  # in identifier order

    _check_mandatory(paper, by_unit, units, issues)
    _check_encapsulation(units, issues)
    pool = _sentence_pool(paper)
    # canonical text holds no newline, so a surface found in the joined
    # pool lies inside one text
    grounded = _Grounding("\n".join(pool))
    for unit, triples in by_unit.items():
        distinct = {}
        for triple in triples:
            key = triple.key()
            if key in distinct:
                issues.append(ValidationIssue(
                    "duplicate-triple", f"{unit.identifier}/{triple.subject}",
                    f"duplicate triple {key}"))
            else:
                distinct[key] = triple
        if pool:
            _check_surfaces(unit, distinct.values(), grounded, policy, issues)
        if unit in units:
            _check_filler_placement(unit, units[unit], issues)
    _check_sentence_bounds(paper, issues)
    _check_phrase_length(paper, policy, issues)
    return report


def _check_mandatory(paper: PaperAnnotation, present, units: dict[UnitLabel, UnitTree],
                     issues: list[ValidationIssue]) -> None:
    """Unit presence from ``present``; Results nested in a tree from ``units``."""
    where = paper.paper_id
    if UnitLabel.RESEARCH_PROBLEM not in present:
        issues.append(ValidationIssue("mandatory-unit-missing", where,
                                      "no ResearchProblem unit"))

    has_approach = UnitLabel.APPROACH in present
    has_model = UnitLabel.MODEL in present
    if not has_approach and not has_model:
        issues.append(ValidationIssue("mandatory-unit-missing", where,
                                      "neither Approach nor Model"))
    elif has_approach and has_model:
        issues.append(ValidationIssue(
            "approach-model-both", where,
            "both Approach and Model annotated; the scheme expects one"))

    results_ok = UnitLabel.RESULTS in present or any(
        nested is UnitLabel.RESULTS for enc in ENCAPSULATING_UNITS & units.keys()
        for _, nested in _nested_units(units[enc]))
    if not results_ok:
        issues.append(ValidationIssue("mandatory-unit-missing", where,
                                      "no Results unit, top-level or encapsulated"))


def _check_encapsulation(units: dict[UnitLabel, UnitTree],
                         issues: list[ValidationIssue]) -> None:
    for unit in sorted(units, key=lambda u: u.identifier):
        if unit in ENCAPSULATING_UNITS:
            continue
        for node, nested in _nested_units(units[unit]):
            if nested in SUB_UNIT_LABELS:
                issues.append(ValidationIssue(
                    "encapsulation-violation", f"{unit.identifier}/{node.label}",
                    f"{nested.identifier} node may only appear inside "
                    f"Experiments or Tasks"))


class _Grounding(dict):
    """Whether a surface occurs in one paper's joined pool, each surface
    searched once."""

    def __init__(self, haystack: str) -> None:
        super().__init__()
        self.haystack = haystack

    def __missing__(self, surface: str) -> bool:
        found = self[surface] = surface in self.haystack
        return found


def _check_surfaces(unit: UnitLabel, triples, grounded: _Grounding,
                    policy: ValidationPolicy, issues: list[ValidationIssue]) -> None:
    """Filler whitelist for predicates, provenance grounding for all parts."""
    # the one code whose severity the policy sets; None keeps the code's own
    severity = ERROR if policy.provenance_check == PROVENANCE_ERROR else None
    for triple in triples:
        if (triple.predicate.kind is PredicateKind.TEXTUAL
                and not grounded[triple.predicate.text]):
            issues.append(ValidationIssue(
                "filler-whitelist", f"{unit.identifier}/{triple.subject}",
                f"predicate {triple.predicate.text!r} not found in any "
                f"annotated sentence and not a filler"))
        if policy.provenance_check == PROVENANCE_OFF:
            continue
        for role, surface in (("subject", triple.subject), ("object", triple.object)):
            # the exemption is by role, so it stays out of the memo: a
            # predicate and a node may share a text
            if surface == "Contribution" or lookup_unit_label(surface) is not None:
                continue
            if not grounded[surface]:
                issues.append(ValidationIssue(
                    "provenance-missing", f"{unit.identifier}/{triple.subject}",
                    f"{role} {surface!r} not found in any source sentence",
                    severity=severity))


def _check_filler_placement(unit: UnitLabel, tree: UnitTree,
                            issues: list[ValidationIssue]) -> None:
    """name/hasAcronym are meant to name the Approach or Model node."""
    for node in tree.nodes():
        for predicate, _child in node.edges:
            if predicate.kind in (PredicateKind.FILLER_NAME,
                                  PredicateKind.FILLER_HAS_ACRONYM):
                subject_unit = lookup_unit_label(node.label)
                if subject_unit not in (UnitLabel.APPROACH, UnitLabel.MODEL):
                    issues.append(ValidationIssue(
                        "filler-placement", f"{unit.identifier}/{node.label}",
                        f"{predicate.text!r} used on a node other than "
                        f"Approach/Model"))


def _check_sentence_bounds(paper: PaperAnnotation,
                           issues: list[ValidationIssue]) -> None:
    if not paper.contribution_sentence_indices or paper.total_sentence_count is None:
        return
    for index in sorted(paper.contribution_sentence_indices):
        if not 1 <= index <= paper.total_sentence_count:
            issues.append(ValidationIssue(
                "sentence-out-of-bounds", paper.paper_id,
                f"sentence index {index} outside 1..{paper.total_sentence_count}"))


def _check_phrase_length(paper: PaperAnnotation, policy: ValidationPolicy,
                         issues: list[ValidationIssue]) -> None:
    if policy.max_phrase_tokens <= 0 or not paper.phrases:
        return
    for span in paper.phrases:
        if span.token_count() > policy.max_phrase_tokens:
            issues.append(ValidationIssue(
                "phrase-too-long", f"{paper.paper_id}:{span.sentence_index}",
                f"phrase of {span.token_count()} tokens exceeds "
                f"{policy.max_phrase_tokens}: {span.text!r}"))


def validate_corpus(corpus: Corpus,
                    policy: ValidationPolicy | None = None) -> list[ValidationReport]:
    """One report per paper, in corpus order."""
    policy = policy or ValidationPolicy()
    return [validate_paper(paper, policy) for paper in corpus.papers()]


def summarize_reports(reports: list[ValidationReport]) -> Counter:
    """Issue counts by code over a set of reports."""
    counts: Counter = Counter()
    for report in reports:
        for issue in report.issues:
            counts[issue.code] += 1
    return counts
