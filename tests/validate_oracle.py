"""Validation as it was before a paper's findings shared one record per
cause, as a reference for ``tests/test_validate.py``.

``validate_paper`` is copied with the two helpers that built records:
``_read_tree`` builds a ``filler-placement`` record for every misplaced
name/hasAcronym edge and splits each node label through
``lookup_unit_label``, and ``_check_surfaces`` builds a record, with its
location and message, for every finding of every triple, as
``_check_encapsulation`` does for every misplaced sub-unit node.  A
repeated cause is therefore an equal record, never the same one.  A
record on a node is located ``<paper id>/<Unit>/<label>``.  The checks
that did not change (mandatory units, grounding sources, sentence bounds,
phrase length) are the package's own.
"""

from __future__ import annotations

from ncgkit.issues import ERROR, ValidationIssue
from ncgkit.model import (
    CONTRIBUTION,
    PaperAnnotation,
    PredicateKind,
    UnitLabel,
    UnitTree,
    canonical_text,
    lookup_unit_label,
)
from ncgkit.validate import (
    ENCAPSULATING_UNITS,
    PROVENANCE_ERROR,
    PROVENANCE_OFF,
    SUB_UNIT_LABELS,
    ValidationPolicy,
    ValidationReport,
    _check_mandatory,
    _check_phrase_length,
    _check_sentence_bounds,
    _Memo,
    _Sources,
)


def _read_tree(where: str, tree: UnitTree, pool: list[str]):
    nested, misplaced = [], []
    top = tree.unit_node
    for node in tree.nodes():
        pool.extend(map(canonical_text, node.provenance))
        named = lookup_unit_label(node.label)
        if named is not None and node is not tree.root and node is not top:
            nested.append((node, named))
        for predicate, _child in node.edges:
            if (predicate.kind in (PredicateKind.FILLER_NAME, PredicateKind.FILLER_HAS_ACRONYM)
                    and named not in (UnitLabel.APPROACH, UnitLabel.MODEL)):
                misplaced.append(ValidationIssue(
                    "filler-placement", f"{where}/{node.label}",
                    f"{predicate.text!r} used on a node other than Approach/Model"))
    return nested, misplaced


def validate_paper(paper: PaperAnnotation,
                   policy: ValidationPolicy | None = None) -> ValidationReport:
    policy = policy or ValidationPolicy()
    report = ValidationReport(paper.paper_id)
    issues = report.issues
    by_unit = paper.triples or {}
    provenance: list[str] = []
    nested, misplaced = {}, {}
    for unit, tree in (paper.units or {}).items():
        nested[unit], misplaced[unit] = _read_tree(f"{paper.paper_id}/{unit.identifier}",
                                                   tree, provenance)
    sources = _Sources(provenance, paper)

    _check_mandatory(paper, by_unit, nested, issues)
    _check_encapsulation(paper.paper_id, nested, issues)
    grounded = _Memo(sources.__contains__)
    placed = _Memo(lambda surface: surface == CONTRIBUTION
                   or lookup_unit_label(surface) is not None or grounded[surface])
    for unit, triples in by_unit.items():
        where = f"{paper.paper_id}/{unit.identifier}"
        distinct = {}
        for triple in triples:
            key = triple.key()
            if key in distinct:
                issues.append(ValidationIssue(
                    "duplicate-triple", f"{where}/{triple.subject}",
                    f"duplicate triple {key}"))
            else:
                distinct[key] = triple
        if sources:
            _check_surfaces(where, distinct.values(), grounded, placed, policy, issues)
        issues.extend(misplaced.get(unit, ()))
    _check_sentence_bounds(paper, issues)
    _check_phrase_length(paper, policy, issues)
    return report


def _check_encapsulation(paper_id: str, nested_units: dict[UnitLabel, list],
                         issues: list[ValidationIssue]) -> None:
    for unit, units_below in nested_units.items():
        if unit in ENCAPSULATING_UNITS:
            continue
        for node, nested in units_below:
            if nested in SUB_UNIT_LABELS:
                issues.append(ValidationIssue(
                    "encapsulation-violation", f"{paper_id}/{unit.identifier}/{node.label}",
                    f"{nested.identifier} node may only appear inside "
                    f"Experiments or Tasks"))


def _check_surfaces(where: str, triples, grounded: _Memo, placed: _Memo,
                    policy: ValidationPolicy, issues: list[ValidationIssue]) -> None:
    severity = ERROR if policy.provenance_check == PROVENANCE_ERROR else None
    for triple in triples:
        if (triple.predicate.kind is PredicateKind.TEXTUAL
                and not grounded[triple.predicate.text]):
            issues.append(ValidationIssue(
                "filler-whitelist", f"{where}/{triple.subject}",
                f"predicate {triple.predicate.text!r} not found in any "
                f"annotated sentence and not a filler"))
        if policy.provenance_check == PROVENANCE_OFF:
            continue
        for role, surface in (("subject", triple.subject), ("object", triple.object)):
            if not placed[surface]:
                issues.append(ValidationIssue(
                    "provenance-missing", f"{where}/{triple.subject}",
                    f"{role} {surface!r} not found in any source sentence",
                    severity=severity))
