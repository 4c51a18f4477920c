"""Machine checks of the NCG scheme rules over loaded annotations.

All findings are data (ValidationIssue), never raised: a report ``passes``
when it contains no Error-severity issues.  Checks are deterministic and
per-paper, so a paper's report does not depend on the rest of the corpus.
A paper builds one record per distinct cause of a finding and lists it
wherever the cause recurs; records are frozen, so a shared one reads as
equal copies would.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Iterable
from dataclasses import dataclass, field
from functools import cached_property

from .issues import ERROR, ValidationIssue
from .model import (
    CONTRIBUTION,
    PaperAnnotation,
    PhraseColumns,
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
    is only an informational warning (0 disables; a negative value is
    refused).
    """

    provenance_check: str = PROVENANCE_WARN
    max_phrase_tokens: int = 10

    def __post_init__(self) -> None:
        if self.provenance_check not in PROVENANCE_CHECKS:
            raise ValueError(f"bad provenance_check: {self.provenance_check!r}")
        if self.max_phrase_tokens < 0:
            raise ValueError(f"max_phrase_tokens must be at least 0, "
                             f"got {self.max_phrase_tokens}")


@dataclass
class ValidationReport:
    """One paper's findings in the order the checks make them.

    A finding whose cause recurs in the paper, such as an ungrounded
    subject on several triples, is listed at each place as one shared
    :class:`ValidationIssue`; it is frozen, so it prints, compares and
    serialises as equal copies would.
    """

    paper_id: str
    issues: list[ValidationIssue] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return not any(i.severity == ERROR for i in self.issues)

    def as_lines(self) -> str:
        return "".join(f"{self.paper_id}\t{i.code}\t{i.severity}\t{i.message}\n"
                       for i in self.issues)


def _read_tree(tree: UnitTree, units_of: _Memo, pool: list[str]):
    """One ``tree.nodes()`` pass: add the canonical provenance to ``pool``,
    and return the ``(node, unit)`` of each node below the unit node that
    names a unit, and the ``(label, predicate text)`` of each name/hasAcronym
    edge of a node other than Approach or Model, which they are meant to
    name.  ``units_of`` gives the unit a label names."""
    nested, misplaced = [], []
    top = tree.unit_node
    for node in tree.nodes():
        pool.extend(map(canonical_text, node.provenance))
        named = units_of[node.label]
        if named is not None and node is not tree.root and node is not top:
            nested.append((node, named))
        for predicate, _child in node.edges:
            if (predicate.kind in (PredicateKind.FILLER_NAME, PredicateKind.FILLER_HAS_ACRONYM)
                    and named not in (UnitLabel.APPROACH, UnitLabel.MODEL)):
                misplaced.append((node.label, predicate.text))
    return nested, misplaced


def validate_paper(paper: PaperAnnotation,
                   policy: ValidationPolicy | None = None) -> ValidationReport:
    """Run every scheme check over one paper.

    Checks: mandatory units (ResearchProblem; exactly one of Approach or
    Model; Results, top-level or nested in Experiments or Tasks),
    encapsulation of sub-units, the has/name/hasAcronym filler whitelist,
    provenance grounding of surface forms, duplicate triples, sentence
    index bounds, and the optional phrase-length lint.  The two
    text-grounding checks look a surface up in the paper's provenance
    strings and its contribution sentences; they are skipped when the
    paper carries neither.  Each distinct surface is looked up, and
    checked for the subject/object exemption, once per paper, and each
    node label's unit is decided once per paper.  They see
    each distinct triple of a unit once, so a repeated triple gets its
    findings once, next to its ``duplicate-triple`` error.  Unit
    presence and the triple checks cover every unit of ``paper.triples``,
    which lists each unit, tree or not, in identifier order; encapsulation,
    filler placement and nested Results read the trees.  The triple and
    placement findings share one record per distinct cause.
    """
    policy = policy or ValidationPolicy()
    report = ValidationReport(paper.paper_id)
    issues = report.issues
    by_unit = paper.triples or {}
    units_of = _Memo(lookup_unit_label)
    provenance: list[str] = []
    nested, misplaced = {}, {}
    for unit, tree in (paper.units or {}).items():  # one pass per tree
        nested[unit], misplaced[unit] = _read_tree(tree, units_of, provenance)
    sources = _Sources(provenance, paper)

    _check_mandatory(paper, by_unit, nested, issues)
    _check_encapsulation(nested, issues)
    findings = _Findings(issues, policy)
    grounded = _Memo(sources.__contains__)
    # a subject or object naming the root or a unit needs no grounding
    placed = _Memo(lambda surface: surface == CONTRIBUTION
                   or units_of[surface] is not None or grounded[surface])
    for unit, triples in by_unit.items():
        name = unit.identifier
        distinct = {}
        for triple in triples:
            key = triple.key()
            if key in distinct:
                findings.add("duplicate-triple", name, triple.subject, "triple", key)
            else:
                distinct[key] = triple
        if sources:
            _check_surfaces(name, distinct.values(), grounded, placed, policy, findings)
        for label, text in misplaced.get(unit, ()):
            findings.add("filler-placement", name, label, "predicate", text)
    _check_sentence_bounds(paper, issues)
    _check_phrase_length(paper, policy, issues)
    return report


def _check_mandatory(paper: PaperAnnotation, present, nested_units: dict[UnitLabel, list],
                     issues: list[ValidationIssue]) -> None:
    """Unit presence from ``present``; Results nested in a tree from ``nested_units``."""
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
        nested is UnitLabel.RESULTS for enc in ENCAPSULATING_UNITS & nested_units.keys()
        for _, nested in nested_units[enc])
    if not results_ok:
        issues.append(ValidationIssue("mandatory-unit-missing", where,
                                      "no Results unit, top-level or encapsulated"))


def _check_encapsulation(nested_units: dict[UnitLabel, list],
                         issues: list[ValidationIssue]) -> None:
    for unit, units_below in nested_units.items():
        if unit in ENCAPSULATING_UNITS:
            continue
        for node, nested in units_below:
            if nested in SUB_UNIT_LABELS:
                issues.append(ValidationIssue(
                    "encapsulation-violation", f"{unit.identifier}/{node.label}",
                    f"{nested.identifier} node may only appear inside "
                    f"Experiments or Tasks"))


class _Sources:
    """The canonical texts one paper's surfaces may be grounded in: its
    provenance strings, where most surfaces are found, then its
    contribution sentences, which are read only when a surface is not
    in the provenance or the paper has none.  Each kind is joined by line
    feeds, which no canonical surface holds, so a surface found in a
    join lies inside one text, and the order of the texts changes no
    finding."""

    def __init__(self, provenance: list[str], paper: PaperAnnotation) -> None:
        self.provenance = provenance
        self.joined = "\n".join(provenance)
        self.paper = paper

    @cached_property
    def contributions(self) -> str:
        return "\n".join(self.paper.contribution_texts())

    def __bool__(self) -> bool:
        """Whether the paper carries any text to ground in."""
        return bool(self.provenance or self.contributions)

    def __contains__(self, surface: str) -> bool:
        return surface in self.joined or surface in self.contributions


class _Memo(dict):
    """``decide(key)`` for each key, computed once per key."""

    def __init__(self, decide) -> None:
        super().__init__()
        self.decide = decide

    def __missing__(self, key):
        value = self[key] = self.decide(key)
        return value


class _Findings:
    """One paper's cause-keyed findings, appended to ``issues`` in the order
    they are found.  A cause is a code, a unit identifier, the label of the
    node the finding is on, and a role and a surface; the record of a cause
    and the location of a (unit, label) are built on its first finding, and
    a repeat appends the record already built.  The tables live as long as
    the paper's check: papers never share a record."""

    #: Each code's message, from the role and surface of its cause.
    MESSAGES = {
        "duplicate-triple": lambda role, surface: f"duplicate triple {surface}",
        "filler-whitelist": lambda role, surface: (
            f"{role} {surface!r} not found in any annotated sentence and not a filler"),
        "filler-placement": lambda role, surface: (
            f"{surface!r} used on a node other than Approach/Model"),
        "provenance-missing": lambda role, surface: (
            f"{role} {surface!r} not found in any source sentence"),
    }

    def __init__(self, issues: list[ValidationIssue], policy: ValidationPolicy) -> None:
        self.issues = issues
        # the one code whose severity the policy sets; the rest keep their own
        self.severity = ({"provenance-missing": ERROR}
                         if policy.provenance_check == PROVENANCE_ERROR else {})
        self.records: dict[tuple, ValidationIssue] = {}
        self.locations: dict[tuple[str, str], str] = {}

    def add(self, code: str, unit: str, label: str, role: str, surface) -> None:
        cause = (code, unit, label, role, surface)
        issue = self.records.get(cause)
        if issue is None:
            location = self.locations.get((unit, label))
            if location is None:
                location = self.locations[unit, label] = f"{unit}/{label}"
            issue = self.records[cause] = ValidationIssue(
                code, location, self.MESSAGES[code](role, surface),
                severity=self.severity.get(code))
        self.issues.append(issue)


def _check_surfaces(unit: str, triples, grounded: _Memo, placed: _Memo,
                    policy: ValidationPolicy, findings: _Findings) -> None:
    """Filler whitelist for predicates, provenance grounding for all parts,
    of the triples of the unit with identifier ``unit``.

    ``grounded`` says whether a text occurs in the paper's sources, and
    ``placed`` whether a subject or object is exempt or grounded.  The two
    are kept apart because the exemption is by role: a predicate and a node
    may share a text."""
    for triple in triples:
        if (triple.predicate.kind is PredicateKind.TEXTUAL
                and not grounded[triple.predicate.text]):
            findings.add("filler-whitelist", unit, triple.subject, "predicate",
                         triple.predicate.text)
        if policy.provenance_check == PROVENANCE_OFF:
            continue
        for role, surface in (("subject", triple.subject), ("object", triple.object)):
            if not placed[surface]:
                findings.add("provenance-missing", unit, triple.subject, role, surface)


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
    phrases = PhraseColumns.of(paper.phrases)
    for i, (start, end) in enumerate(zip(phrases.start_toks, phrases.end_toks)):
        if end - start > policy.max_phrase_tokens:
            span = phrases[i]
            issues.append(ValidationIssue(
                "phrase-too-long", f"{paper.paper_id}:{span.sentence_index}",
                f"phrase of {span.token_count()} tokens exceeds "
                f"{policy.max_phrase_tokens}: {span.text!r}"))


def validate_corpus(papers: Iterable[PaperAnnotation],
                    policy: ValidationPolicy | None = None) -> list[ValidationReport]:
    """One report per paper, in the order given: a
    :class:`~ncgkit.model.Corpus`, or a stream such as
    :func:`~ncgkit.corpus_io.iter_papers`, whose papers are read one at a
    time and not kept."""
    policy = policy or ValidationPolicy()
    return [validate_paper(paper, policy) for paper in papers]


def summarize_reports(reports: list[ValidationReport]) -> Counter:
    """Issue counts by code over a set of reports."""
    counts: Counter = Counter()
    for report in reports:
        for issue in report.issues:
            counts[issue.code] += 1
    return counts
