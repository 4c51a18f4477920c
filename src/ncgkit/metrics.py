"""Corpus statistics and two-sided agreement scoring.

Statistics reproduce the per-task/overall characteristics table and the
per-unit triples table.  The scorer compares two parallel corpora (e.g. an
earlier annotation stage against an adjudicated one) at four granularities
with standard precision/recall/F1, pooled per task, micro across tasks, and
macro as the harmonic F1 of task-averaged P and R.
"""

from __future__ import annotations

from dataclasses import dataclass

from .codec import unit_triples
from .errors import GranularityUnavailable, MissingTotals
from .model import Corpus, PaperAnnotation, UnitLabel


def _ratio(num: float, den: float) -> float:
    """Zero-denominator convention: 0, so empty predictions score 0."""
    return num / den if den else 0.0


@dataclass(frozen=True)
class PRF:
    """Precision/recall/F1 as percentages plus the counts behind them.

    Values built by :func:`prf` satisfy p = 100·tp/(tp+fp) and
    r = 100·tp/(tp+fn) (0 when the denominator is 0) and f1 = 2pr/(p+r).
    Macro-averaged instances carry averaged percentages over pooled counts
    and do not obey the count formulas.
    """

    precision: float
    recall: float
    f1: float
    tp: int = 0
    fp: int = 0
    fn: int = 0


def prf(tp: int, fp: int, fn: int) -> PRF:
    """PRF from raw counts."""
    if min(tp, fp, fn) < 0:
        raise ValueError("counts must be non-negative")
    p = 100.0 * _ratio(tp, tp + fp)
    r = 100.0 * _ratio(tp, tp + fn)
    return PRF(p, r, f1_from_percent(p, r), tp, fp, fn)


def f1_from_percent(p: float, r: float) -> float:
    """Harmonic mean of precision and recall given as percentages."""
    return _ratio(2.0 * p * r, p + r)


# ---------------------------------------------------------------------------
# corpus statistics


@dataclass
class StatsRow:
    """One task's (or the overall) annotation characteristics."""

    total_ius: int = 0
    ann_sentences: int = 0
    total_sentences: int = 0
    ann_phrases: int = 0
    phrase_tokens: int = 0
    total_tokens: int = 0
    ann_triples: int = 0

    @property
    def avg_ann_sentences(self) -> float:
        return _ratio(self.ann_sentences, self.total_sentences)

    @property
    def avg_toks_per_phrase(self) -> float:
        return _ratio(self.phrase_tokens, self.ann_phrases)

    @property
    def avg_ann_phrase_toks(self) -> float:
        return _ratio(self.phrase_tokens, self.total_tokens)

    def add(self, other: "StatsRow") -> None:
        self.total_ius += other.total_ius
        self.ann_sentences += other.ann_sentences
        self.total_sentences += other.total_sentences
        self.ann_phrases += other.ann_phrases
        self.phrase_tokens += other.phrase_tokens
        self.total_tokens += other.total_tokens
        self.ann_triples += other.ann_triples


@dataclass
class CorpusStats:
    per_task: dict[str, StatsRow]
    overall: StatsRow


def corpus_stats(corpus: Corpus) -> CorpusStats:
    """Count annotation elements per task and overall.

    Raises:
        MissingTotals: a paper lacks sentence or token totals.
    """
    per_task: dict[str, StatsRow] = {}
    overall = StatsRow()
    for task, papers in corpus.tasks.items():
        row = per_task.setdefault(task, StatsRow())
        for paper in papers:
            if paper.total_sentence_count is None or paper.total_token_count is None:
                raise MissingTotals(f"paper {paper.paper_id} lacks totals")
            row.total_ius += len(paper.unit_labels())
            row.total_sentences += paper.total_sentence_count
            row.total_tokens += paper.total_token_count
            if paper.contribution_sentence_indices:
                row.ann_sentences += len(paper.contribution_sentence_indices)
            for span in paper.phrases or []:
                row.ann_phrases += 1
                row.phrase_tokens += span.token_count()
            for triples in unit_triples(paper).values():
                row.ann_triples += len(triples)
        overall.add(row)
    return CorpusStats(per_task, overall)


@dataclass
class UnitStatsRow:
    n_triples: int = 0
    n_papers: int = 0

    @property
    def ratio(self) -> float:
        return _ratio(self.n_triples, self.n_papers)


@dataclass
class UnitStats:
    per_unit: dict[UnitLabel, UnitStatsRow]

    def sorted_rows(self) -> list[tuple[UnitLabel, UnitStatsRow]]:
        """Descending triples-to-papers ratio, ties by unit name."""
        return sorted(self.per_unit.items(),
                      key=lambda kv: (-kv[1].ratio, kv[0].identifier))


def unit_stats(corpus: Corpus) -> UnitStats:
    """Triples and paper coverage per information unit, all 12 rows."""
    per_unit = {unit: UnitStatsRow() for unit in UnitLabel}
    for paper in corpus.papers():
        for unit, triples in unit_triples(paper).items():
            per_unit[unit].n_papers += 1
            per_unit[unit].n_triples += len(triples)
    return UnitStats(per_unit)


# ---------------------------------------------------------------------------
# agreement scoring

GRANULARITIES = ("units", "sentences", "phrases", "triples")

GRANULARITY_TITLES = {
    "units": "Information Units",
    "sentences": "Sentences",
    "phrases": "Phrases",
    "triples": "Triples",
}


@dataclass(frozen=True)
class MatchConfig:
    """How items are matched when comparing two corpora.

    ``phrase_match``: exact-text (default; canonical text per sentence),
    exact-span (token offsets must agree), or partial-overlap (greedy token
    Jaccard >= 0.5).  ``triple_scope``: per-unit keeps triples within their
    information unit; per-paper pools them.  ``text_fold`` optionally case
    folds text before comparison.
    """

    phrase_match: str = "exact-text"
    triple_scope: str = "per-unit"
    text_fold: str | None = None

    def __post_init__(self) -> None:
        if self.phrase_match not in ("exact-text", "exact-span", "partial-overlap"):
            raise ValueError(f"bad phrase_match: {self.phrase_match!r}")
        if self.triple_scope not in ("per-unit", "per-paper"):
            raise ValueError(f"bad triple_scope: {self.triple_scope!r}")
        if self.text_fold not in (None, "casefold"):
            raise ValueError(f"bad text_fold: {self.text_fold!r}")

    def fold(self, text: str) -> str:
        """The matching form of a model text, which is already canonical."""
        return text.casefold() if self.text_fold == "casefold" else text


@dataclass
class AgreementReport:
    granularity: str
    per_task: dict[str, PRF]
    micro: PRF
    macro: PRF


def _layer_present(paper: PaperAnnotation, granularity: str) -> bool:
    if granularity == "sentences":
        return paper.contribution_sentence_indices is not None
    if granularity == "phrases":
        return paper.phrases is not None
    return paper.units is not None or paper.triples is not None


def _items(paper: PaperAnnotation, granularity: str, config: MatchConfig) -> set:
    """The paper's items at one granularity; only one paper's sets are
    ever compared, so no key holds the paper id."""
    if granularity == "units":
        return set(paper.unit_labels())
    if granularity == "sentences":
        return set(paper.contribution_sentence_indices or ())
    if granularity == "phrases":
        spans = paper.phrases or []
        if config.phrase_match == "exact-span":
            return {(s.sentence_index, s.start_tok, s.end_tok) for s in spans}
        return {(s.sentence_index, config.fold(s.text)) for s in spans}
    items = set()
    for unit, triples in unit_triples(paper).items():
        scope = unit if config.triple_scope == "per-unit" else None
        for t in triples:
            items.add((scope, config.fold(t.subject),
                       config.fold(t.predicate.text), config.fold(t.object)))
    return items


def _overlap_counts(gold: PaperAnnotation, pred: PaperAnnotation,
                    config: MatchConfig) -> tuple[int, int, int]:
    """Greedy phrase matching by token Jaccard >= 0.5 within each sentence."""
    def by_sentence(paper):
        out: dict[int, list] = {}
        for s in paper.phrases or []:
            out.setdefault(s.sentence_index, []).append(s)
        return out

    def jaccard(a, b) -> float:
        inter = max(0, min(a.end_tok, b.end_tok) - max(a.start_tok, b.start_tok))
        return inter / (a.end_tok - a.start_tok + b.end_tok - b.start_tok - inter)

    tp = 0
    gold_by = by_sentence(gold)
    pred_by = by_sentence(pred)
    for index in sorted(set(gold_by) | set(pred_by)):
        g_spans = gold_by.get(index, [])
        p_spans = pred_by.get(index, [])
        # only pairs that can match, best first, ties by position
        pairs = []
        for gi, g in enumerate(g_spans):
            for pi, p in enumerate(p_spans):
                j = jaccard(g, p)
                if j >= 0.5:
                    pairs.append((-j, gi, pi))
        pairs.sort()
        used_g: set[int] = set()
        used_p: set[int] = set()
        for _, gi, pi in pairs:
            if gi in used_g or pi in used_p:
                continue
            used_g.add(gi)
            used_p.add(pi)
            tp += 1
    n_gold = sum(len(v) for v in gold_by.values())
    n_pred = sum(len(v) for v in pred_by.values())
    return tp, n_pred - tp, n_gold - tp


def _check_layer(corpus: Corpus, granularity: str, side: str) -> None:
    papers = list(corpus.papers())
    if papers and not any(_layer_present(p, granularity) for p in papers):
        raise GranularityUnavailable(
            f"{side} corpus has no {granularity} files")


def score(gold: Corpus, pred: Corpus, granularity: str,
          config: MatchConfig | None = None) -> AgreementReport:
    """Compare two corpora at one granularity.

    Items are matched as sets per paper; papers present on only one side
    count fully as false positives or negatives.  Counts pool per task,
    micro pools across tasks, and macro averages per-task P and R before
    taking their harmonic-mean F1.

    Raises:
        GranularityUnavailable: one side has no files for the granularity.
    """
    if granularity not in GRANULARITIES:
        raise ValueError(f"unknown granularity: {granularity!r}")
    config = config or MatchConfig()
    _check_layer(gold, granularity, "gold")
    _check_layer(pred, granularity, "pred")

    gold_papers = {p.paper_id: p for p in gold.papers()}
    pred_papers = {p.paper_id: p for p in pred.papers()}
    task_order: list[str] = []
    for corpus in (gold, pred):
        for task in corpus.tasks:
            if task not in task_order:
                task_order.append(task)

    counts: dict[str, list[int]] = {t: [0, 0, 0] for t in task_order}
    for paper_id in sorted(set(gold_papers) | set(pred_papers)):
        g = gold_papers.get(paper_id)
        p = pred_papers.get(paper_id)
        task = (g or p).task
        if task not in counts:
            task_order.append(task)
            counts[task] = [0, 0, 0]
        if granularity == "phrases" and config.phrase_match == "partial-overlap":
            empty = PaperAnnotation(paper_id, task, phrases=[])
            tp, fp, fn = _overlap_counts(g or empty, p or empty, config)
        else:
            g_items = _items(g, granularity, config) if g else set()
            p_items = _items(p, granularity, config) if p else set()
            tp = len(g_items & p_items)
            fp = len(p_items - g_items)
            fn = len(g_items - p_items)
        row = counts[task]
        row[0] += tp
        row[1] += fp
        row[2] += fn

    per_task = {task: prf(*counts[task]) for task in task_order}
    totals = [sum(counts[t][i] for t in task_order) for i in range(3)]
    micro = prf(*totals)
    macro = _macro(per_task, totals)
    return AgreementReport(granularity, per_task, micro, macro)


def _macro(per_task: dict[str, PRF], totals: list[int]) -> PRF:
    # Tasks with no items on either side carry no signal and would drag the
    # average to 0 through the zero-denominator convention; skip them so
    # self-agreement stays at 100 everywhere.
    active = [v for v in per_task.values() if v.tp + v.fp + v.fn > 0]
    if not active:
        return PRF(0.0, 0.0, 0.0)
    n = len(active)
    p = sum(v.precision for v in active) / n
    r = sum(v.recall for v in active) / n
    return PRF(p, r, f1_from_percent(p, r), *totals)


def score_all(gold: Corpus, pred: Corpus,
              config: MatchConfig | None = None) -> dict[str, AgreementReport]:
    """Score every granularity both sides carry files for."""
    out = {}
    for granularity in GRANULARITIES:
        try:
            out[granularity] = score(gold, pred, granularity, config)
        except GranularityUnavailable:
            continue
    return out
