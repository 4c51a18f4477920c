"""Corpus statistics and two-sided agreement scoring.

Statistics reproduce the per-task/overall characteristics table and the
per-unit triples table.  The scorer compares two parallel corpora (e.g. an
earlier annotation stage against an adjudicated one) at four granularities
with standard precision/recall/F1, pooled per task, micro across tasks, and
macro as the harmonic F1 of task-averaged P and R.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, fields

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
        for f in fields(self):
            setattr(self, f.name, getattr(self, f.name) + getattr(other, f.name))


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
            by_unit = unit_triples(paper)
            row.total_ius += len(by_unit)
            row.total_sentences += paper.total_sentence_count
            row.total_tokens += paper.total_token_count
            if paper.contribution_sentence_indices:
                row.ann_sentences += len(paper.contribution_sentence_indices)
            for span in paper.phrases or []:
                row.ann_phrases += 1
                row.phrase_tokens += span.token_count()
            row.ann_triples += sum(map(len, by_unit.values()))
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
PHRASE_MATCHES = ("exact-text", "exact-span", "partial-overlap")
TRIPLE_SCOPES = ("per-unit", "per-paper")


@dataclass(frozen=True)
class MatchConfig:
    """How items are matched when comparing two corpora.

    ``phrase_match``: exact-text (default; canonical text per sentence),
    exact-span (token offsets must agree), or partial-overlap (spans in one
    sentence with token Jaccard >= 0.5 match one to one, as many as can be
    matched).  ``triple_scope``: per-unit keeps triples within their
    information unit; per-paper pools them.  ``text_fold`` optionally case
    folds text before comparison.
    """

    phrase_match: str = "exact-text"
    triple_scope: str = "per-unit"
    text_fold: str | None = None

    def __post_init__(self) -> None:
        if self.phrase_match not in PHRASE_MATCHES:
            raise ValueError(f"bad phrase_match: {self.phrase_match!r}")
        if self.triple_scope not in TRIPLE_SCOPES:
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


def _items(paper: PaperAnnotation, granularity: str, config: MatchConfig) -> set | list:
    """The paper's items at one granularity: a set, or the list of its spans
    for partial overlap, where equal spans each count.  Only one paper's
    items are ever compared, so no item holds the paper id."""
    if granularity == "units":
        return set(unit_triples(paper))
    if granularity == "sentences":
        return set(paper.contribution_sentence_indices or ())
    if granularity == "phrases":
        spans = paper.phrases or []
        if config.phrase_match == "partial-overlap":
            return spans
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


def _max_matching(gold: list, pred: list) -> int:
    """Size of a maximum one-to-one matching of gold to predicted spans.

    A pair can match when both spans lie in one sentence and their token
    Jaccard is at least 0.5, which in integers is 3·overlap >= the sum of
    their lengths.  The matching grows by one augmenting path at a time, as
    in Hopcroft and Karp (1973) without their phases.
    """
    # each sentence's predicted spans in start order, and their starts
    by_sentence: dict[int, list[int]] = {}
    for j in sorted(range(len(pred)), key=lambda j: pred[j].start_tok):
        by_sentence.setdefault(pred[j].sentence_index, []).append(j)
    starts = {index: [pred[j].start_tok for j in js] for index, js in by_sentence.items()}
    candidates = []
    for g in gold:
        size = g.end_tok - g.start_tok
        # a match is at most twice as long as g and overlaps it, so it
        # starts after g.start_tok - 2·size and before g.end_tok
        window = starts.get(g.sentence_index, [])
        lo = bisect_left(window, g.start_tok - 2 * size + 1)
        hi = bisect_left(window, g.end_tok, lo)
        candidates.append([
            j for j in by_sentence.get(g.sentence_index, [])[lo:hi]
            if 3 * (min(g.end_tok, pred[j].end_tok) - max(g.start_tok, pred[j].start_tok))
            >= size + pred[j].end_tok - pred[j].start_tok])
    owner: list[int | None] = [None] * len(pred)
    matched: list[int | None] = [None] * len(gold)
    return sum(_augment(root, candidates, owner, matched) for root in range(len(gold)))


def _augment(root: int, candidates: list[list[int]], owner: list[int | None],
             matched: list[int | None]) -> bool:
    """Search breadth-first for an alternating path from the unmatched gold
    span ``root`` to an unmatched predicted span and flip its pairs; False
    when there is none.  ``owner`` maps predicted to gold and ``matched``
    gold to predicted."""
    came_from: dict[int, int] = {}
    queue = [root]
    for i in queue:
        for j in candidates[i]:
            if j in came_from:
                continue
            came_from[j] = i
            if owner[j] is None:
                while j is not None:
                    i = came_from[j]
                    owner[j], matched[i], j = i, j, matched[i]
                return True
            queue.append(owner[j])
    return False


def _check_layer(corpus: Corpus, granularity: str, side: str) -> None:
    papers = list(corpus.papers())
    if papers and not any(_layer_present(p, granularity) for p in papers):
        raise GranularityUnavailable(
            f"{side} corpus has no {granularity} files")


def score(gold: Corpus, pred: Corpus, granularity: str,
          config: MatchConfig | None = None) -> AgreementReport:
    """Compare two corpora at one granularity.

    Items are matched per paper: as sets, or for partial-overlap phrases
    one to one, as many spans as can be matched.  Papers present on only
    one side count fully as false positives or negatives.  Counts pool per
    task, micro pools across tasks, and macro averages per-task P and R
    before taking their harmonic-mean F1.

    Raises:
        GranularityUnavailable: one side has no files for the granularity.
    """
    if granularity not in GRANULARITIES:
        raise ValueError(f"unknown granularity: {granularity!r}")
    config = config or MatchConfig()
    _check_layer(gold, granularity, "gold")
    _check_layer(pred, granularity, "pred")
    overlap = granularity == "phrases" and config.phrase_match == "partial-overlap"

    gold_papers = {p.paper_id: p for p in gold.papers()}
    pred_papers = {p.paper_id: p for p in pred.papers()}
    # tasks in first-seen order: gold's, then pred's, then any a paper adds
    counts = {task: [0, 0, 0] for corpus in (gold, pred) for task in corpus.tasks}
    for paper_id in sorted(set(gold_papers) | set(pred_papers)):
        g = gold_papers.get(paper_id)
        p = pred_papers.get(paper_id)
        g_items = _items(g, granularity, config) if g else ()
        p_items = _items(p, granularity, config) if p else ()
        if g and p:
            tp = _max_matching(g_items, p_items) if overlap else len(g_items & p_items)
        else:
            tp = 0
        row = counts.setdefault((g or p).task, [0, 0, 0])
        row[0] += tp
        row[1] += len(p_items) - tp
        row[2] += len(g_items) - tp

    per_task = {task: prf(*row) for task, row in counts.items()}
    totals = [sum(row[i] for row in counts.values()) for i in range(3)]
    return AgreementReport(granularity, per_task, prf(*totals), _macro(per_task, totals))


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
