"""Recoverable problems reported as data rather than raised.

Loading and validation never abort on recoverable deviations; they append
:class:`ValidationIssue` records instead.  Every issue carries a code from
the registry below so reports can be filtered and counted mechanically.
"""

from __future__ import annotations

from dataclasses import dataclass

ERROR = "Error"
WARNING = "Warning"

#: Registry of all issue codes the toolkit can emit.
ISSUE_CODES = {
    # corpus loading
    "empty-corpus": "no papers were found under the corpus root",
    "missing-text": "plaintext file absent; the paper is skipped",
    "missing-sentences": "sentence-index file absent",
    "missing-phrases": "phrase file absent",
    "missing-units": "no information-unit files found",
    "missing-triples": "paper has unit files but no triples files",
    "duplicate-paper-id": "paper id occurs under more than one task",
    "format-error": "a file could not be parsed in non-strict mode",
    "unknown-unit-label": "file name does not map to an information unit",
    "duplicate-sentence-index": "sentence index listed more than once",
    "span-out-of-range": "phrase span outside its sentence; span dropped",
    "span-text-mismatch": "phrase surface text repaired from sentence tokens",
    "single-pipe-delimiter": "triple line used a single | delimiter",
    "root-not-unit": "unit file's top node does not match the unit name",
    "nest-failed": "triples file could not be arranged as a tree",
    "triples-file-mismatch": "triples file is not set-equal to the flattened tree",
    "dangling-predicate": "predicate with an empty value emits no triple",
    # validation
    "duplicate-triple": "identical triple produced more than once",
    "mandatory-unit-missing": "a mandatory information unit is absent",
    "approach-model-both": "both Approach and Model are annotated",
    "encapsulation-violation": "sub-unit node outside Experiments/Tasks",
    "filler-whitelist": "predicate neither in text nor a filler",
    "filler-placement": "name/hasAcronym used outside Approach/Model",
    "provenance-missing": "surface form not found in any source sentence",
    "sentence-out-of-bounds": "contribution sentence index outside document",
    "phrase-too-long": "phrase exceeds the configured token length",
}


@dataclass(frozen=True)
class ValidationIssue:
    """One recoverable problem: a registry code, severity, and location."""

    code: str
    severity: str
    location: str
    message: str

    def __post_init__(self) -> None:
        if self.code not in ISSUE_CODES:
            raise ValueError(f"unregistered issue code: {self.code!r}")
        if self.severity not in (ERROR, WARNING):
            raise ValueError(f"bad severity: {self.severity!r}")

    def as_line(self) -> str:
        return f"{self.location}\t{self.code}\t{self.severity}\t{self.message}"
