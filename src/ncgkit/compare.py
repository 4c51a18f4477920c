"""Tabulated cross-paper comparisons over one information unit.

Rows are the predicate surfaces found within ``depth`` levels under each
paper's unit node, aligned by exact canonical text (no synonym merging, so
"Outperforming" and "Outperforms" stay separate rows).  A fixed first row
aggregates each paper's ResearchProblem objects.  Cells list the objects a
predicate reaches in that paper, sorted, or render as the literal "Empty".
"""

from __future__ import annotations

import csv
import io
from collections.abc import Iterable
from dataclasses import dataclass

from .errors import UnknownPaper
from .model import Node, PaperAnnotation, UnitLabel, lookup_unit_label

RESEARCH_PROBLEM_ROW = "Has research problem"
EMPTY_TOKEN = "Empty"


@dataclass
class ComparisonTable:
    """``cells`` holds only the cells with values; ``cell`` gives [] for the rest."""

    unit: UnitLabel
    columns: list[tuple[str, str]]
    rows: list[str]
    cells: dict[tuple[str, str], list[str]]

    def cell(self, row: str, paper_id: str) -> list[str]:
        return self.cells.get((row, paper_id), [])


def _research_problem_objects(paper) -> set[str]:
    """Objects of the paper's ResearchProblem triples, with or without a tree."""
    return {triple.object
            for triple in (paper.triples or {}).get(UnitLabel.RESEARCH_PROBLEM, ())
            if lookup_unit_label(triple.object) is not UnitLabel.RESEARCH_PROBLEM}


def compare(papers: Iterable[PaperAnnotation], unit: UnitLabel, paper_ids: list[str],
            depth: int = 1,
            titles: dict[str, str] | None = None) -> ComparisonTable:
    """Build the comparison table of the papers ``paper_ids`` names, reading
    ``papers``, a Corpus or any iterable of papers, once, and keeping those.

    A paper lacking the unit contributes an all-Empty column.  Row order is
    descending count of papers covered, ties alphabetical, with the fixed
    ResearchProblem row always first.

    Raises:
        UnknownPaper: a requested id is not among the papers.
        ValueError: ``depth`` is below 1, or an id is requested twice.
    """
    if depth < 1:
        raise ValueError("depth must be >= 1")
    titles = titles or {}
    wanted = set(paper_ids)
    by_id: dict[str, PaperAnnotation] = {}
    for paper in papers:
        if paper.paper_id in wanted:
            by_id.setdefault(paper.paper_id, paper)  # the first, as Corpus.get finds
    selected = []
    for paper_id in paper_ids:
        paper = by_id.pop(paper_id, None)  # so a second request finds none
        if paper is None and any(p.paper_id == paper_id for p in selected):
            raise ValueError(f"paper {paper_id!r} requested twice")
        if paper is None:
            raise UnknownPaper(f"paper {paper_id!r} not in corpus")
        selected.append(paper)

    values: dict[str, dict[str, set[str]]] = {}
    for paper in selected:
        for row, found in _paper_rows(paper, unit, depth).items():
            values.setdefault(row, {}).setdefault(paper.paper_id, set()).update(found)

    properties = sorted(
        (row for row in values if row != RESEARCH_PROBLEM_ROW),
        key=lambda row: (-len(values[row]), row))
    rows = [RESEARCH_PROBLEM_ROW] + properties if selected else []

    cells = {(row, paper_id): sorted(found)
             for row, by_paper in values.items() for paper_id, found in by_paper.items()}

    columns = [(p.paper_id, titles.get(p.paper_id, p.paper_id)) for p in selected]
    return ComparisonTable(unit, columns, rows, cells)


def _paper_rows(paper, unit: UnitLabel, depth: int) -> dict[str, set[str]]:
    out: dict[str, set[str]] = {}
    rp = _research_problem_objects(paper)
    if rp:
        out[RESEARCH_PROBLEM_ROW] = rp
    tree = (paper.units or {}).get(unit)
    top = tree.unit_node if tree is not None else None
    if top is None:
        return out
    for level, _, predicate, child in top.walk_edges():
        if level < depth and child is not None:
            out.setdefault(predicate.text, set()).add(
                child.label if isinstance(child, Node) else child)
    return out


def render(table: ComparisonTable, fmt: str = "md") -> str:
    """Markdown pipe table or RFC-4180 CSV; multi-valued cells join with "; "."""
    if fmt == "md":
        return _render_markdown(table)
    if fmt == "csv":
        return _render_csv(table)
    raise ValueError(f"unknown comparison format: {fmt!r}")


def _cell_text(values: list[str]) -> str:
    return "; ".join(values) if values else EMPTY_TOKEN


def _render_markdown(table: ComparisonTable) -> str:
    def escape(text: str) -> str:
        return text.replace("|", "\\|")

    header = ["Properties"] + [escape(title) for _, title in table.columns]
    lines = ["| " + " | ".join(header) + " |",
             "| " + " | ".join("---" for _ in header) + " |"]
    for row in table.rows:
        rendered = [escape(row)]
        for paper_id, _ in table.columns:
            rendered.append(escape(_cell_text(table.cell(row, paper_id))))
        lines.append("| " + " | ".join(rendered) + " |")
    return "\n".join(lines) + "\n"


def _render_csv(table: ComparisonTable) -> str:
    buffer = io.StringIO()
    writer = csv.writer(buffer)
    writer.writerow(["Properties"] + [title for _, title in table.columns])
    for row in table.rows:
        writer.writerow([row] + [_cell_text(table.cell(row, paper_id))
                                 for paper_id, _ in table.columns])
    return buffer.getvalue()


def table_to_dict(table: ComparisonTable) -> dict:
    """JSON-ready structure; empty cells carry an explicit null marker."""
    return {
        "unit": table.unit.identifier,
        "columns": [{"paper_id": pid, "title": title} for pid, title in table.columns],
        "rows": [
            {
                "property": row,
                "cells": {
                    paper_id: (table.cell(row, paper_id) or None)
                    for paper_id, _ in table.columns
                },
            }
            for row in table.rows
        ],
    }
