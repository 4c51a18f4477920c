"""Exception hierarchy shared by all ncgkit modules, and one spelling of ``path:line``."""

from __future__ import annotations


def position(path: str | None, line: int | None) -> str:
    """Where in a file: ``path:line``, ``path`` or ``line N``; "" if both are unset."""
    if line is None:
        return path or ""
    return f"{path}:{line}" if path else f"line {line}"


class NcgError(Exception):
    """Base class for all toolkit errors."""


class UnknownUnitLabel(NcgError):
    """A surface name does not map to any of the 12 information units."""


class FormatError(NcgError):
    """An on-disk annotation file violates its format.

    Carries optional file path and 1-based line number so callers can
    report the exact location; an empty path means none.
    """

    def __init__(self, message: str, *, path: str | None = None, line: int | None = None):
        self.path = path or None
        self.line = line
        super().__init__(message)

    def __str__(self) -> str:
        where = position(self.path, self.line)
        return f"{where}: {super().__str__()}" if where else super().__str__()


class AlternationError(FormatError):
    """The nested unit format broke predicate/node alternation."""


class SpanOutOfRange(FormatError):
    """A phrase span points outside its sentence's token range."""


class SpanTextMismatch(FormatError):
    """A phrase's surface text disagrees with the tokens it covers."""


class NotATree(NcgError):
    """A triple list cannot be arranged as a tree rooted at Contribution."""


class MissingTotals(NcgError):
    """A paper lacks the sentence/token totals needed for corpus statistics."""


class GranularityUnavailable(NcgError):
    """One side of a scoring comparison has no files for the granularity."""


class UnknownStartNode(NcgError):
    """A traversal start label does not resolve within the paper's subgraph."""


class UnknownPaper(NcgError):
    """A paper id is not present in the corpus."""
