"""One pass of a workload's pipeline through ncgkit's public API.

Only names exported from ``ncgkit/__init__.py`` are called, so refactors
inside the package do not require edits here.  Spans are recorded from this
file, around the calls into each module; the package itself is not
instrumented.
"""

from __future__ import annotations

import hashlib
import time
import tracemalloc
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

import corpusgen
from ncgkit import (
    ERROR,
    CorpusManifest,
    GranularityUnavailable,
    MatchConfig,
    UnitLabel,
    build_graph,
    compare,
    corpus_stats,
    edge_signature,
    export_ntriples,
    flatten,
    import_ntriples,
    load_corpus,
    nest,
    normalize_unit_label,
    parse_phrase_file,
    parse_sentence_indices,
    parse_triple_lines,
    parse_unit_file,
    render,
    score,
    traverse,
    unit_stats,
    validate_corpus,
    write_triple_lines,
    write_unit_file,
)

from corpora import TRIPLES_ONLY, UNITS_ONLY, Expected

#: Scorer settings run on every workload: exact text per unit, exact span
#: per paper, and partial overlap with case folding.
SCORE_CONFIGS = (
    MatchConfig(),
    MatchConfig(phrase_match="exact-span", triple_scope="per-paper"),
    MatchConfig(phrase_match="partial-overlap", text_fold="casefold"),
)
GRANULARITIES = ("units", "sentences", "phrases", "triples")


def score_key(config: MatchConfig, granularity: str) -> str:
    """Name of the per-layer score metric one scorer call adds to."""
    if granularity == "phrases" and config.phrase_match == "partial-overlap":
        return "phrases_overlap"
    return granularity


class Recorder:
    """Spans of one run, kept in memory until the run ends.

    A disabled recorder's ``span`` does nothing, so the untraced pipeline
    pays no tracing cost.  With ``memory`` set, each span also records the
    peak of Python allocations traced by tracemalloc while it was open.
    """

    def __init__(self, enabled: bool, memory: bool = False) -> None:
        self.enabled = enabled
        self.memory = memory
        self.iteration = 0
        self.calls = 0
        self.spans: list[dict] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str):
        self.calls += 1
        if not self.enabled:
            yield
            return
        parent = self.spans[self._open[-1]] if self._open else None
        record = {"iteration": self.iteration, "name": name,
                  "parent": self._open[-1] if self._open else None}
        self.spans.append(record)
        self._open.append(len(self.spans) - 1)
        if self.memory:
            # tracemalloc keeps one peak; fold it into the enclosing span
            # before resetting it for this one.
            if parent is not None:
                parent["_peak"] = max(parent["_peak"], tracemalloc.get_traced_memory()[1])
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            record["_peak"] = before
        record["start"] = time.perf_counter()
        try:
            yield
        finally:
            record["end"] = time.perf_counter()
            self._open.pop()
            if self.memory:
                current, peak = tracemalloc.get_traced_memory()
                peak = max(peak, record.pop("_peak"))
                if parent is not None:
                    parent["_peak"] = max(parent["_peak"], peak)
                record["alloc_peak_mb"] = (peak - before) / 2**20
                record["retained_mb"] = (current - before) / 2**20

    def totals(self, iteration: int) -> dict[str, float]:
        """Summed duration per span name within one iteration."""
        out: dict[str, float] = {}
        for s in self.spans:
            if s["iteration"] == iteration:
                out[s["name"]] = out.get(s["name"], 0.0) + s["end"] - s["start"]
        return out


@dataclass
class Workload:
    name: str
    main: Path
    pred: Path | None
    expected: Expected
    cli_args: list[str]


@dataclass
class Outputs:
    """Everything one pipeline pass produced, plus its timings."""

    total_s: float = 0.0
    setup_s: float = 0.0
    corpus: object = None
    issues: list = field(default_factory=list)
    pred: object = None
    pred_issues: list = field(default_factory=list)
    reports: list = field(default_factory=list)
    stats: object = None
    unit_stats: object = None
    written: list[str] = field(default_factory=list)
    scores: dict = field(default_factory=dict)
    graph: object = None
    surface_graph: object = None
    ntriples: str = ""
    reimported: object = None
    traversals: list = field(default_factory=list)
    tables: list[str] = field(default_factory=list)
    compare_rows: int = 0
    compare_cells: int = 0


def _load(rec: Recorder, out: Outputs, root: Path):
    start = time.perf_counter()
    with rec.span("corpus_io.load_corpus"):
        loaded = load_corpus(CorpusManifest(root_path=root))
    out.setup_s += time.perf_counter() - start
    return loaded


def run_pipeline(wl: Workload, rec: Recorder) -> Outputs:
    """Manifest to every output of the workload; returns the outputs."""
    out = Outputs()
    start = time.perf_counter()
    with rec.span("pipeline"):
        out.corpus, out.issues = _load(rec, out, wl.main)
        if wl.pred is not None:
            out.pred, out.pred_issues = _load(rec, out, wl.pred)
        corpus = out.corpus
        pred = out.pred if wl.pred is not None else corpus
        with rec.span("validate.validate_corpus"):
            out.reports = validate_corpus(corpus)
        with rec.span("metrics.corpus_stats"):
            out.stats = corpus_stats(corpus)
        with rec.span("metrics.unit_stats"):
            out.unit_stats = unit_stats(corpus)

        trees = [(unit, tree) for paper in corpus.papers()
                 for unit, tree in (paper.units or {}).items()]
        with rec.span("codec.flatten"):
            flat = [flatten(tree) for _, tree in trees]
        with rec.span("codec.nest"):
            nested = [nest(f.triples, unit) for (unit, _), f in zip(trees, flat)]
        with rec.span("codec.write"):
            out.written = ([write_unit_file(t) for t in nested]
                           + [write_triple_lines(f.triples) for f in flat])

        for i, config in enumerate(SCORE_CONFIGS):
            for granularity in GRANULARITIES:
                with rec.span(f"metrics.score.{score_key(config, granularity)}"):
                    try:
                        out.scores[(i, granularity)] = score(
                            corpus, pred, granularity, config)
                    except GranularityUnavailable:
                        pass

        with rec.span("kg.build_graph"):
            out.graph = build_graph(corpus)
        with rec.span("kg.build_graph_surface"):
            out.surface_graph = build_graph(corpus, merge="surface")
        with rec.span("kg.export_ntriples"):
            out.ntriples = export_ntriples(out.graph)
        with rec.span("kg.import_ntriples"):
            out.reimported = import_ntriples(out.ntriples)
        with rec.span("kg.traverse"):
            out.traversals = [traverse(out.graph, pid, "Results", 2)
                              for pid in corpus.paper_ids()]

        tables = []
        with rec.span("compare.compare"):
            for papers in corpus.tasks.values():
                tables.append(compare(corpus, UnitLabel.RESULTS,
                                      [p.paper_id for p in papers], depth=2))
        with rec.span("compare.render"):
            out.tables = [render(t, "md") for t in tables]
        out.compare_rows = sum(len(t.rows) for t in tables)
        out.compare_cells = sum(len(t.cells) for t in tables)
    out.total_s = time.perf_counter() - start
    return out


# ---------------------------------------------------------------------------
# load breakdown


def replay_load(wl: Workload, out: Outputs, rec: Recorder) -> Counter:
    """Repeat load's reads and parses through the public parsers.

    ``load_corpus`` gives no view inside itself, so the traced run reads
    every file of the loaded papers again and hands each to the parser load
    uses for it, one span per kind.  Load time minus these spans is the
    residual: discovery, tokenising and reconcile.  Returns read counts.
    """
    files = []
    for root, corpus in ((wl.main, out.corpus), (wl.pred, out.pred)):
        if corpus is None:
            continue
        manifest = CorpusManifest(root_path=root)
        for paper in corpus.papers():
            ids = {"task": paper.task, "paper": paper.paper_id}
            paper_dir = manifest.resolve("text", **ids).parent
            files += [(paper, role, manifest.resolve(role, **ids))
                      for role in ("text", "sentences", "phrases")]
            files += [(paper, "units", p) for p in sorted(paper_dir.glob("info-units/*.json"))]
            files += [(paper, "triples", p) for p in sorted(paper_dir.glob("triples/*.txt"))]
    texts: dict[Path, str] = {}
    with rec.span("corpus_io.read"):
        for _, _, path in files:
            if path.is_file():
                with open(path, encoding="utf-8-sig") as fh:
                    texts[path] = fh.read()
    issues: list = []
    parsers = {
        "sentences": ("corpus_io.parse_sentence_indices",
                      lambda paper, path, text: parse_sentence_indices(text, issues=issues)),
        "phrases": ("corpus_io.parse_phrase_file",
                    lambda paper, path, text: parse_phrase_file(
                        text, paper.sentences, issues=issues)),
        "units": ("corpus_io.parse_unit_file",
                  lambda paper, path, text: parse_unit_file(
                      text, normalize_unit_label(path.stem), issues=issues)),
        "triples": ("corpus_io.parse_triple_lines",
                    lambda paper, path, text: parse_triple_lines(text, issues=issues)),
    }
    for role, (name, parse) in parsers.items():
        with rec.span(name):
            for paper, kind, path in files:
                if kind == role and path in texts:
                    parse(paper, path, texts[path])
    return Counter({"corpus_io.files_read": len(texts),
                    "corpus_io.bytes_read": sum(p.stat().st_size for p in texts)})


LOAD_PARTS = ("corpus_io.read", "corpus_io.parse_sentence_indices",
              "corpus_io.parse_phrase_file", "corpus_io.parse_unit_file",
              "corpus_io.parse_triple_lines")


# ---------------------------------------------------------------------------
# checks, digests and counts


def check(wl: Workload, out: Outputs) -> tuple[int, list[str]]:
    """Number of output checks made, and the names of those that failed."""
    exp = wl.expected
    made = 0
    failed = []

    def expect(name: str, ok: bool) -> None:
        nonlocal made
        made += 1
        if not ok:
            failed.append(name)

    if wl.name == "units-graph":
        want = {UnitLabel(u): (exp.replicas * t, exp.replicas * p)
                for u, (t, p) in corpusgen.UNIT_PROFILE.items()}
        got = {u: (r.n_triples, r.n_papers) for u, r in out.unit_stats.per_unit.items()}
        expect("unit-stats-equal-profile", got == want)
        branches = Counter(exp.branch.values())
        expect("load-issues-by-code", Counter(i.code for i in out.issues) == Counter({
            "missing-phrases": exp.papers,
            "missing-triples": branches[UNITS_ONLY],
            "missing-units": branches[TRIPLES_ONLY]}))
        erring = {r.paper_id for r in out.reports if not r.passed}
        expect("no-errors-on-conformant-papers",
               erring <= {p for p, b in exp.branch.items() if b == TRIPLES_ONLY})
    else:
        fields = {"total_ius": "ius", "ann_sentences": "ann_sentences",
                  "total_sentences": "total_sentences", "ann_phrases": "phrases",
                  "phrase_tokens": "phrase_tokens", "total_tokens": "total_tokens",
                  "ann_triples": "triples"}
        got = {task: {f: getattr(row, f) for f in fields}
               for task, row in out.stats.per_task.items()}
        want = {task: {f: exp.replicas * profile[p] for f, p in fields.items()}
                for task, profile in corpusgen.TRIAL_PROFILE.items()}
        expect("stats-equal-profile", got == want)
        expect("no-load-issues", not out.issues and not out.pred_issues)
        expect("no-validation-errors",
               not any(i.severity == ERROR for r in out.reports for i in r.issues))
    expect("papers-loaded", len(out.corpus) == exp.papers)
    expect("ntriples-roundtrip-keeps-edge-signature",
           edge_signature(out.reimported) == edge_signature(out.graph))
    overall = out.stats.overall
    items = {"units": overall.total_ius, "sentences": overall.ann_sentences,
             "phrases": overall.ann_phrases, "triples": overall.ann_triples}
    for (i, granularity), report in out.scores.items():
        micro = report.micro
        key = score_key(SCORE_CONFIGS[i], granularity)
        if wl.pred is None:
            # Every item matches itself: F1 100 with tp equal to the count
            # that corpus_stats reports.
            expect(f"self-score.{i}.{key}", micro.f1 == 100.0 and (
                micro.tp, micro.fp, micro.fn) == (items[granularity], 0, 0))
        else:
            expect(f"predicted-counts.{i}.{key}",
                   (micro.tp, micro.fp, micro.fn) == exp.counts[key])
    return made, failed


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def digests(out: Outputs) -> dict[str, str]:
    """sha256 of each output, for determinism checks across passes and runs."""
    return {
        "load_issues": sha256("\n".join(i.as_line() for i in out.issues + out.pred_issues)),
        "validate": sha256("".join(r.as_lines() for r in out.reports)),
        "stats": sha256(repr(out.stats)),
        "unit_stats": sha256(repr(out.unit_stats)),
        "codec": sha256("".join(out.written)),
        "score": sha256(repr(sorted(out.scores.items()))),
        "ntriples": sha256(out.ntriples),
        "surface_graph": sha256(repr(out.surface_graph.edges)),
        "traverse": sha256(repr([[(p, n.uri) for p, n in t] for t in out.traversals])),
        "compare": sha256("".join(out.tables)),
    }


def counts(out: Outputs) -> dict[str, object]:
    """Counts at the layer boundaries of one pass."""
    papers = list(out.corpus.papers())
    if out.pred is not None:
        papers += list(out.pred.papers())
    reports = [i for r in out.reports for i in r.issues]
    surfaces = Counter()
    for paper in papers:
        surfaces.update(s.text for s in paper.sentences or [] if s is not None)
        surfaces.update(s.text for s in paper.phrases or [])
        for triples in (paper.triples or {}).values():
            for t in triples:
                surfaces.update((t.subject, t.predicate.text, t.object))
    occurrences = sum(surfaces.values())
    return {
        "corpus_io.papers": len(papers),
        "corpus_io.doc_lines": sum(len(p.sentences or []) for p in papers),
        "corpus_io.phrases": sum(len(p.phrases or []) for p in papers),
        "corpus_io.units": sum(len(p.units or {}) for p in papers),
        "corpus_io.triples": sum(len(t) for p in papers
                                 for t in (p.triples or {}).values()),
        "corpus_io.repeated_surface_share":
            (occurrences - len(surfaces)) / occurrences if occurrences else 0.0,
        "corpus_io.load_issues_by_code": dict(sorted(
            Counter(i.code for i in out.issues + out.pred_issues).items())),
        "validate.issues": len(reports),
        "validate.errors": sum(i.severity == ERROR for i in reports),
        "metrics.score_counts": {
            f"{i}.{g}": [r.micro.tp, r.micro.fp, r.micro.fn]
            for (i, g), r in sorted(out.scores.items())},
        "kg.nodes": len(out.graph.nodes),
        "kg.edges": len(out.graph.edges),
        "kg.surface_nodes": len(out.surface_graph.nodes),
        "kg.ntriples_bytes": len(out.ntriples.encode("utf-8")),
        "compare.rows": out.compare_rows,
        "compare.cells": out.compare_cells,
    }
