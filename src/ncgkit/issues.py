"""Recoverable problems reported as data rather than raised.

Loading and validation never abort on recoverable deviations; they append
:class:`ValidationIssue` records instead.  Every issue carries a code from
the registry below so reports can be filtered and counted mechanically,
and each code has one severity, listed beside it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

ERROR = "Error"
WARNING = "Warning"

#: Registry of all issue codes the toolkit can emit: code -> (severity, meaning).
ISSUE_CODES = {
    # corpus loading
    "empty-corpus": (WARNING, "no papers were found under the corpus root"),
    "missing-text": (ERROR, "plaintext file absent; the paper is skipped"),
    "missing-sentences": (WARNING, "sentence-index file absent"),
    "missing-phrases": (WARNING, "phrase file absent"),
    "missing-units": (WARNING, "no information-unit files found"),
    "missing-triples": (WARNING, "paper has unit files but no triples files"),
    "duplicate-paper-id": (ERROR, "paper id occurs under more than one task"),
    "format-error": (ERROR, "a file could not be parsed in non-strict mode"),
    "unknown-unit-label": (WARNING, "file name does not map to an information unit"),
    "duplicate-sentence-index": (WARNING, "sentence index listed more than once"),
    "span-out-of-range": (ERROR, "phrase span outside its sentence; span dropped"),
    "span-text-mismatch": (WARNING, "phrase surface text repaired from sentence tokens"),
    "single-pipe-delimiter": (WARNING, "triple line used a single | delimiter"),
    "root-not-unit": (WARNING, "unit file's top node does not match the unit name"),
    "nest-failed": (WARNING, "triples file could not be arranged as a tree"),
    "triples-file-mismatch": (WARNING, "triples file is not set-equal to the flattened tree"),
    "dangling-predicate": (WARNING, "predicate with an empty value emits no triple"),
    # validation
    "duplicate-triple": (ERROR, "identical triple produced more than once"),
    "mandatory-unit-missing": (ERROR, "a mandatory information unit is absent"),
    "approach-model-both": (WARNING, "both Approach and Model are annotated"),
    "encapsulation-violation": (ERROR, "sub-unit node outside Experiments/Tasks"),
    "filler-whitelist": (ERROR, "predicate neither in text nor a filler"),
    "filler-placement": (WARNING, "name/hasAcronym used outside Approach/Model"),
    # an Error instead under ValidationPolicy(provenance_check="Error")
    "provenance-missing": (WARNING, "surface form not found in any source sentence"),
    "sentence-out-of-bounds": (ERROR, "contribution sentence index outside document"),
    "phrase-too-long": (WARNING, "phrase exceeds the configured token length"),
}


@dataclass(frozen=True)
class ValidationIssue:
    """One recoverable problem: a registry code, severity, and location.

    Built as ``ValidationIssue(code, location, message)``; the severity is
    the code's own from :data:`ISSUE_CODES` unless ``severity=`` is passed,
    which only a raised ``provenance-missing`` does.  Fields keep the order
    code, severity, location, message, which ``vars()`` and ``repr`` show.
    """

    code: str
    severity: str | None = field(default=None, kw_only=True)
    location: str
    message: str

    def __post_init__(self) -> None:
        if self.code not in ISSUE_CODES:
            raise ValueError(f"unregistered issue code: {self.code!r}")
        if self.severity is None:
            object.__setattr__(self, "severity", ISSUE_CODES[self.code][0])
        elif self.severity not in (ERROR, WARNING):
            raise ValueError(f"bad severity: {self.severity!r}")

    def as_line(self) -> str:
        return f"{self.location}\t{self.code}\t{self.severity}\t{self.message}"
