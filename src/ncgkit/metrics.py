"""Corpus statistics and two-sided agreement scoring.

Statistics reproduce the per-task/overall characteristics table and the
per-unit triples table.  The scorer compares two parallel corpora (e.g. an
earlier annotation stage against an adjudicated one) at four granularities
with standard precision/recall/F1, pooled per task, micro across tasks, and
macro as the harmonic F1 of task-averaged P and R.
"""

from __future__ import annotations

from bisect import bisect_left
from collections.abc import Iterable, Iterator
from dataclasses import dataclass, fields
from itertools import chain

from .errors import GranularityUnavailable, MissingTotals
from .model import Corpus, PaperAnnotation, PhraseColumns, UnitLabel


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


def corpus_stats(papers: Iterable[PaperAnnotation]) -> CorpusStats:
    """Count annotation elements per task and overall.

    ``papers`` is a :class:`Corpus` or any iterable of papers, such as the
    stream of :func:`~ncgkit.corpus_io.iter_papers`; each paper is read
    once and not kept.  A paper counts under its ``task``.  Tasks come in
    the order of their first paper, and a Corpus keeps a row for each of
    its tasks, an empty one included.

    Raises:
        MissingTotals: a paper lacks sentence or token totals.
    """
    per_task = {task: StatsRow() for task in papers.tasks} if isinstance(papers, Corpus) else {}
    for paper in papers:
        if paper.total_sentence_count is None or paper.total_token_count is None:
            raise MissingTotals(f"paper {paper.paper_id} lacks totals")
        row = per_task.get(paper.task)
        if row is None:
            row = per_task[paper.task] = StatsRow()
        by_unit = paper.triples or {}
        row.total_ius += len(by_unit)
        row.total_sentences += paper.total_sentence_count
        row.total_tokens += paper.total_token_count
        if paper.contribution_sentence_indices:
            row.ann_sentences += len(paper.contribution_sentence_indices)
        phrases = PhraseColumns.of(paper.phrases or [])
        row.ann_phrases += len(phrases)
        row.phrase_tokens += sum(phrases.end_toks) - sum(phrases.start_toks)
        row.ann_triples += sum(map(len, by_unit.values()))
    overall = StatsRow()
    for row in per_task.values():
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


def unit_stats(papers: Iterable[PaperAnnotation]) -> UnitStats:
    """Triples and paper coverage per information unit, all 12 rows, over a
    :class:`Corpus` or any iterable of papers."""
    per_unit = {unit: UnitStatsRow() for unit in UnitLabel}
    for paper in papers:
        for unit, triples in (paper.triples or {}).items():
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
    folds text, which is canonical already, before comparison.
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
    """The paper's items at one granularity: a set, or for partial overlap
    the list of its ``(index, start, end)`` spans, where equal spans each
    count.  Only one paper's items are ever compared, so no item holds the
    paper id.  Whether texts are case folded is decided once per call."""
    if granularity == "units":
        return set(paper.triples or ())
    if granularity == "sentences":
        return set(paper.contribution_sentence_indices or ())
    if granularity == "phrases":
        spans = PhraseColumns.of(paper.phrases or [])
        if config.phrase_match != "exact-text":
            keys = zip(spans.sentence_indices, spans.start_toks, spans.end_toks)
            return list(keys) if config.phrase_match == "partial-overlap" else set(keys)
        texts = spans.texts()
        return set(zip(spans.sentence_indices,
                       map(str.casefold, texts) if config.text_fold else texts))
    per_unit = config.triple_scope == "per-unit"
    # the scope is the unit's identifier, a str: a UnitLabel would hash
    # through Enum.__hash__, in Python, once per triple
    keys = ((scope, t.subject, t.predicate.text, t.object)
            for unit, triples in (paper.triples or {}).items()
            for scope in [unit.identifier if per_unit else None] for t in triples)
    if config.text_fold:
        return {(scope, s.casefold(), p.casefold(), o.casefold()) for scope, s, p, o in keys}
    return set(keys)


def _max_matching(gold: list, pred: list) -> int:
    """Size of a maximum one-to-one matching of gold to predicted spans.

    Spans are ``(index, start, end)`` tuples.  A pair can match when both
    spans lie in one sentence and their token Jaccard is at least 0.5,
    which in integers is 3·overlap >= the sum of their lengths.  The
    matching grows by one augmenting path at a time, as in Hopcroft and
    Karp (1973) without their phases.
    """
    # each sentence's predicted spans in start order, and their starts
    by_sentence: dict[int, list[int]] = {}
    for j in sorted(range(len(pred)), key=lambda j: pred[j][1]):
        by_sentence.setdefault(pred[j][0], []).append(j)
    starts = {index: [pred[j][1] for j in js] for index, js in by_sentence.items()}
    candidates = []
    for index, start, end in gold:
        size = end - start
        # a match is at most twice as long as the gold span and overlaps
        # it, so it starts after start - 2·size and before end
        window = starts.get(index, [])
        lo = bisect_left(window, start - 2 * size + 1)
        hi = bisect_left(window, end, lo)
        candidates.append([
            j for j in by_sentence.get(index, [])[lo:hi]
            if 3 * (min(end, pred[j][2]) - max(start, pred[j][1]))
            >= size + pred[j][2] - pred[j][1]])
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


def _score_pass(gold: Iterable[PaperAnnotation], pred: Iterable[PaperAnnotation],
                granularities: tuple[str, ...], config: MatchConfig | None = None) -> dict:
    """Each granularity's report, or the message of the error of the side,
    gold first, with papers but no files for it, from one pass that pairs
    papers by id."""
    config = config or MatchConfig()
    rows: dict[str, list[list[int]]] = {}  # task -> tp, fp, fn per granularity
    lacking: dict[str, set[str]] = {}  # side -> granularities none of its papers has
    pred_ids: set[str] = set()

    def read(papers: Iterable[PaperAnnotation], side: str, ids: set[str]) -> Iterator:
        left = set(granularities)
        for task in papers.tasks if isinstance(papers, Corpus) else ():
            rows.setdefault(task, [[0, 0, 0] for _ in granularities])
        for paper in papers:
            if paper.paper_id in ids:
                raise ValueError(f"paper {paper.paper_id!r} repeated in {side}")
            ids.add(paper.paper_id)
            if left:
                left -= {g for g in left if _layer_present(paper, g)}
            if paper.task not in rows:
                rows[paper.task] = [[0, 0, 0] for _ in granularities]
            yield paper
        lacking[side] = left if ids else set()  # a side with no papers lacks nothing

    by_id = {paper.paper_id: paper for paper in read(gold, "gold", set())}
    # each pred paper with gold's of its id, then each gold paper pred lacks
    for g, p in chain(((by_id.get(p.paper_id), p) for p in read(pred, "pred", pred_ids)),
                      ((g, None) for g in by_id.values() if g.paper_id not in pred_ids)):
        for tally, granularity in zip(rows[(g or p).task], granularities):
            # unavailable whatever pred holds; or, once pred is read, for lack of pred
            if granularity in lacking["gold"] or p is None and granularity in lacking["pred"]:
                continue
            g_items = _items(g, granularity, config) if g else frozenset()
            p_items = _items(p, granularity, config) if p else frozenset()
            overlap = granularity == "phrases" and config.phrase_match == "partial-overlap"
            tp = _max_matching(g_items, p_items) if overlap else len(g_items & p_items)
            tally[0] += tp
            tally[1] += len(p_items) - tp
            tally[2] += len(g_items) - tp

    out: dict[str, AgreementReport | str] = {}
    for i, granularity in enumerate(granularities):
        per_task = {task: prf(*tally[i]) for task, tally in rows.items()}
        totals = [sum(tally[i][k] for tally in rows.values()) for k in range(3)]
        # macro averages the tasks with items on either side: a task with
        # none would drag it to 0 through the zero-denominator convention
        active = [v for v in per_task.values() if v.tp + v.fp + v.fn] or [PRF(0.0, 0.0, 0.0)]
        precision = sum(v.precision for v in active) / len(active)
        recall = sum(v.recall for v in active) / len(active)
        macro = PRF(precision, recall, f1_from_percent(precision, recall), *totals)
        out[granularity] = AgreementReport(granularity, per_task, prf(*totals), macro)
    for side in ("pred", "gold"):  # gold's error stands
        for granularity in lacking[side]:
            out[granularity] = f"{side} corpus has no {granularity} files"
    return out


def score(gold: Iterable[PaperAnnotation], pred: Iterable[PaperAnnotation],
          granularity: str, config: MatchConfig | None = None) -> AgreementReport:
    """Compare two corpora at one granularity.

    Papers pair by id: gold's are indexed, and pred is read once, so it
    may be a stream.  Items are matched per pair: as sets, or for
    partial-overlap phrases one to one, as many spans as can be matched.
    Papers present on only one side count fully as false positives or
    negatives.  Counts pool per task, micro pools across tasks, and macro
    averages per-task P and R before taking their harmonic-mean F1.

    Raises:
        GranularityUnavailable: one side has no files for the granularity.
        ValueError: a paper id repeats on one side.
    """
    if granularity not in GRANULARITIES:
        raise ValueError(f"unknown granularity: {granularity!r}")
    report = _score_pass(gold, pred, (granularity,), config)[granularity]
    if isinstance(report, str):
        # raised as built: a local holding the error would keep this frame,
        # and the caller's, alive in a cycle through its traceback
        raise GranularityUnavailable(report)
    return report


def score_all(gold: Iterable[PaperAnnotation], pred: Iterable[PaperAnnotation],
              config: MatchConfig | None = None) -> dict[str, AgreementReport]:
    """Score every granularity both sides carry files for, in one pass."""
    reports = _score_pass(gold, pred, GRANULARITIES, config)
    return {g: r for g, r in reports.items() if isinstance(r, AgreementReport)}
