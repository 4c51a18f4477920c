"""Independent brute-force scoring oracle and random corpus builder.

The oracle enumerates items per paper as plain lists, drops repeats by
list membership, and matches the items by pairwise equality with
used-flags, never through set arithmetic, so it checks the production
scorer from a different direction.  Partial-overlap spans stay a multiset
and are matched by the largest count over every one-to-one assignment,
with Jaccard taken over token sets.  The random corpora vary token and
object case per paper and share a subject across units, so case folding
and per-paper scope change the counts.
"""

from __future__ import annotations

import random
from collections import defaultdict
from functools import cache

from ncgkit import (
    Corpus,
    MatchConfig,
    PaperAnnotation,
    PhraseSpan,
    Sentence,
    Triple,
    UnitLabel,
)

UNIT_POOL = [UnitLabel.RESEARCH_PROBLEM, UnitLabel.MODEL, UnitLabel.RESULTS,
             UnitLabel.BASELINES]
OBJECT_POOL = [f"object {i}" for i in range(6)] + ["Object 0", "OBJECT 1"]
PREDICATE_POOL = ["improves", "on", "reports", "uses"]


def random_paper(rng: random.Random, pid: str, task: str) -> PaperAnnotation:
    n_sent = rng.randint(3, 8)
    sentences = []
    for i in range(1, n_sent + 1):
        case = rng.choice("wW")
        sentences.append(Sentence(pid, i, tuple(f"s{i}{case}{j}"
                                                for j in range(rng.randint(4, 9)))))
    indices = set(rng.sample(range(1, n_sent + 1), rng.randint(0, n_sent)))
    phrases = []
    seen_spans = set()
    for _ in range(rng.randint(0, 5)):
        sent = rng.choice(sentences)
        start = rng.randrange(0, len(sent.tokens) - 1)
        end = rng.randint(start + 1, len(sent.tokens))
        if (sent.index, start, end) in seen_spans:
            continue
        seen_spans.add((sent.index, start, end))
        phrases.append(PhraseSpan(sent.index, start, end,
                                  " ".join(sent.tokens[start:end])))
    triples: dict[UnitLabel, list[Triple]] = {}
    for unit in rng.sample(UNIT_POOL, rng.randint(0, len(UNIT_POOL))):
        rows = [Triple.of("Contribution", "has", unit.display)]
        objects = rng.sample(OBJECT_POOL, rng.randint(0, 4))
        rows += [Triple.of(rng.choice((unit.display, "shared subject")),
                           rng.choice(PREDICATE_POOL), obj)
                 for obj in objects]
        triples[unit] = rows
    return PaperAnnotation(
        paper_id=pid, task=task,
        total_sentence_count=n_sent,
        total_token_count=sum(len(s.tokens) for s in sentences),
        contribution_sentence_indices=indices,
        phrases=phrases,
        units=None,
        triples=triples,
        sentences=sentences,
    )


def random_corpus(rng: random.Random, max_papers: int = 5) -> Corpus:
    tasks: dict[str, list[PaperAnnotation]] = defaultdict(list)
    for i in range(rng.randint(1, max_papers)):
        if rng.random() < 0.15:
            continue  # paper missing on this side
        task = f"task{i % 2}"
        tasks[task].append(random_paper(rng, f"paper{i}", task))
    return Corpus(dict(tasks))


def enumerate_items(paper: PaperAnnotation, granularity: str,
                    config: MatchConfig = MatchConfig()) -> list:
    pid = paper.paper_id

    def fold(text: str) -> str:
        return text.casefold() if config.text_fold == "casefold" else text

    if granularity == "units":
        items = [(pid, unit) for unit in (paper.triples or {})]
    elif granularity == "sentences":
        items = [(pid, i) for i in sorted(paper.contribution_sentence_indices or set())]
    elif granularity == "phrases" and config.phrase_match == "partial-overlap":
        return [(pid, s.sentence_index, frozenset(range(s.start_tok, s.end_tok)))
                for s in paper.phrases or []]
    elif granularity == "phrases" and config.phrase_match == "exact-span":
        items = [(pid, s.sentence_index, s.start_tok, s.end_tok)
                 for s in paper.phrases or []]
    elif granularity == "phrases":
        items = [(pid, s.sentence_index, fold(s.text)) for s in paper.phrases or []]
    else:
        items = []
        for unit, rows in (paper.triples or {}).items():
            scope = unit if config.triple_scope == "per-unit" else None
            for t in rows:
                items.append((pid, scope, fold(t.subject), fold(t.predicate.text),
                              fold(t.object)))
    distinct = []
    for item in items:
        if item not in distinct:
            distinct.append(item)
    return distinct


def token_jaccard_at_least_half(a, b) -> bool:
    """Two enumerated partial-overlap spans lie in one sentence and share at
    least half of the tokens they cover together."""
    (_, index_a, tokens_a), (_, index_b, tokens_b) = a, b
    return index_a == index_b and len(tokens_a & tokens_b) / len(tokens_a | tokens_b) >= 0.5


def brute_force_max_matching(gold: list, pred: list, can_match) -> int:
    """The most pairs of any one-to-one assignment of gold to predicted
    items, trying every assignment; exponential, so for small lists."""
    @cache
    def best(i: int, used: frozenset) -> int:
        if i == len(gold):
            return 0
        most = best(i + 1, used)  # gold[i] left unmatched
        for k, candidate in enumerate(pred):
            if k not in used and can_match(gold[i], candidate):
                most = max(most, 1 + best(i + 1, used | {k}))
        return most

    return best(0, frozenset())


def oracle_counts(gold: Corpus, pred: Corpus, granularity: str,
                  config: MatchConfig = MatchConfig()):
    """Pairwise-matched (tp, fp, fn) per task plus pooled totals."""
    overlap = granularity == "phrases" and config.phrase_match == "partial-overlap"
    gold_by = {p.paper_id: p for p in gold.papers()}
    pred_by = {p.paper_id: p for p in pred.papers()}
    per_task: dict[str, list[int]] = defaultdict(lambda: [0, 0, 0])
    for pid in sorted(set(gold_by) | set(pred_by)):
        g = gold_by.get(pid)
        p = pred_by.get(pid)
        task = (g or p).task
        g_items = enumerate_items(g, granularity, config) if g else []
        p_items = enumerate_items(p, granularity, config) if p else []
        if overlap:
            tp = brute_force_max_matching(g_items, p_items, token_jaccard_at_least_half)
        else:
            used = [False] * len(p_items)
            tp = 0
            for item in g_items:
                for k, candidate in enumerate(p_items):
                    if not used[k] and candidate == item:
                        used[k] = True
                        tp += 1
                        break
        per_task[task][0] += tp
        per_task[task][1] += len(p_items) - tp
        per_task[task][2] += len(g_items) - tp
    totals = [sum(v[i] for v in per_task.values()) for i in range(3)]
    return dict(per_task), tuple(totals)
