"""Deterministic synthetic corpora for the acceptance suite.

The published trial dataset is not redistributable with this repository, so
the acceptance tests run against two generated stand-ins that realize the
published count profiles exactly:

* the *trial* corpus reproduces the per-task/overall characteristics table
  (IUs, sentences, phrases, phrase tokens, triples, document totals);
* the *unit-profile* corpus reproduces the per-unit triples/papers table,
  including the papers whose Results are only nested inside Experiments or
  Tasks.

The two profiles are mutually inconsistent in the published numbers (their
totals disagree), which is why two corpora exist.  Generation is pure
arithmetic: no randomness, byte-identical output for a given root.
"""

from __future__ import annotations

import json
from pathlib import Path

# Per task: annotated IUs, contribution sentences, document sentences,
# phrases, phrase tokens, document tokens, triples.
TRIAL_PROFILE = {
    "machine-translation": dict(
        ius=38, ann_sentences=209, total_sentences=2596,
        phrases=956, phrase_tokens=2686, total_tokens=9581, triples=590),
    "named-entity-recognition": dict(
        ius=43, ann_sentences=157, total_sentences=2295,
        phrases=770, phrase_tokens=2210, total_tokens=8703, triples=504),
    "question-answering": dict(
        ius=44, ann_sentences=176, total_sentences=2511,
        phrases=960, phrase_tokens=2650, total_tokens=10305, triples=619),
    "relation-classification": dict(
        ius=45, ann_sentences=194, total_sentences=1937,
        phrases=978, phrase_tokens=2846, total_tokens=10020, triples=620),
    "text-classification": dict(
        ius=46, ann_sentences=164, total_sentences=2071,
        phrases=1038, phrase_tokens=2802, total_tokens=8345, triples=647),
}

TASK_PREFIX = {
    "machine-translation": "mt",
    "named-entity-recognition": "ner",
    "question-answering": "qa",
    "relation-classification": "rc",
    "text-classification": "tc",
}

#: Triples and paper counts per unit in the unit-profile corpus.
UNIT_PROFILE = {
    "Experiments": (168, 3),
    "Tasks": (277, 8),
    "ExperimentalSetup": (300, 16),
    "Model": (561, 32),
    "Hyperparameters": (254, 15),
    "Results": (688, 42),
    "Approach": (283, 18),
    "Baselines": (148, 10),
    "AblationAnalysis": (155, 13),
    "Dataset": (8, 1),
    "ResearchProblem": (169, 50),
    "Code": (9, 9),
}

PAPERS_PER_TASK = 10
ANN_SENTENCE_TOKENS = 16

_DISPLAY = {
    "ResearchProblem": "Research Problem",
    "ExperimentalSetup": "Experimental Setup",
    "AblationAnalysis": "Ablation Analysis",
}


def _display(unit: str) -> str:
    return _DISPLAY.get(unit, unit)


def _split(total: int, parts: int) -> list[int]:
    """Near-even integer split; the first ``total % parts`` entries get +1."""
    base, rem = divmod(total, parts)
    return [base + 1] * rem + [base] * (parts - rem)


def _write_text(paper_dir: Path, ann_count: int, total_count: int,
                token_total: int) -> None:
    filler_count = total_count - ann_count
    budget = token_total - ANN_SENTENCE_TOKENS * ann_count
    assert budget >= filler_count, "filler lines must keep at least one token"
    filler_tokens = _split(budget, filler_count) if filler_count else []
    lines = []
    for i in range(1, ann_count + 1):
        lines.append(" ".join(f"w{i}t{j}" for j in range(ANN_SENTENCE_TOKENS)))
    for i, n_tokens in enumerate(filler_tokens, ann_count + 1):
        lines.append(" ".join(f"f{i}x{j}" for j in range(n_tokens)))
    (paper_dir / "text.txt").write_text("\n".join(lines) + "\n", encoding="utf-8")
    (paper_dir / "sentences.txt").write_text(
        "".join(f"{i}\n" for i in range(1, ann_count + 1)), encoding="utf-8")


def _write_phrases(paper_dir: Path, ann_count: int, n_phrases: int,
                   n_three_token: int) -> None:
    rows = []
    for s in range(n_phrases):
        sentence = 1 + (s % ann_count)
        shift = s // ann_count
        size = 3 if s < n_three_token else 2
        start = 2 * shift
        end = start + size
        assert end <= ANN_SENTENCE_TOKENS
        text = " ".join(f"w{sentence}t{j}" for j in range(start, end))
        rows.append(f"{sentence}\t{start}\t{end}\t{text}")
    (paper_dir / "phrases.tsv").write_text("\n".join(rows) + "\n", encoding="utf-8")


def _unit_tree(unit: str, facts: list[str], nested_results: list[str] | None = None):
    """Standard generated tree: unit node with a fan of literal facts.

    ``nested_results`` embeds a Results node (used by encapsulating units in
    papers that carry no top-level Results).  The provenance sentence quotes
    every predicate and fact so the validator's text-grounding checks pass.
    """
    body: dict = {}
    surfaces = []
    if facts:
        body["covers"] = list(facts) if len(facts) > 1 else facts[0]
        surfaces += ["covers"] + facts
    if nested_results is not None:
        inner = {"shows": (list(nested_results) if len(nested_results) > 1
                           else nested_results[0])}
        body["includes"] = {"Results": inner}
        surfaces += ["includes", "shows"] + nested_results
    body["from sentence"] = "The unit " + " ".join(surfaces) + " ."
    return {"has": {_display(unit): body}}


def _unit_triple_lines(unit: str, facts: list[str],
                       nested_results: list[str] | None = None) -> str:
    display = _display(unit)
    lines = [f"(Contribution||has||{display})"]
    lines += [f"({display}||covers||{fact})" for fact in facts]
    if nested_results is not None:
        lines.append(f"({display}||includes||Results)")
        lines += [f"(Results||shows||{fact})" for fact in nested_results]
    return "".join(line + "\n" for line in lines)


def _write_unit(paper_dir: Path, unit: str, n_content: int,
                nested_results: bool = False) -> None:
    if nested_results:
        facts = [f"{unit} item {i}" for i in range(1, n_content - 3)]
        nested = [f"{unit} result {i}" for i in range(1, 4)]
    else:
        facts = [f"{unit} item {i}" for i in range(1, n_content + 1)]
        nested = None
    units_dir = paper_dir / "info-units"
    units_dir.mkdir(parents=True, exist_ok=True)
    (units_dir / f"{unit}.json").write_text(
        json.dumps(_unit_tree(unit, facts, nested), indent=2, ensure_ascii=False) + "\n",
        encoding="utf-8")
    triples_dir = paper_dir / "triples"
    triples_dir.mkdir(parents=True, exist_ok=True)
    (triples_dir / f"{unit}.txt").write_text(
        _unit_triple_lines(unit, facts, nested), encoding="utf-8")


# ---------------------------------------------------------------------------
# deep chain corpus (tree depth beyond the recursion limit)

CHAIN_PREDICATE = "leads to"


def chain_triple_lines(length: int) -> list[str]:
    """``length`` Results triple lines, each object the next line's subject:
    a tree ``length`` edges deep whose last object is a literal."""
    lines = ["(Contribution||has||Results)", f"(Results||{CHAIN_PREDICATE}||n0)"]
    lines += [f"(n{i}||{CHAIN_PREDICATE}||n{i + 1})" for i in range(length - 2)]
    return lines[:length]


def write_chain_corpus(root: Path, length: int) -> None:
    """One paper, ``parsing/chain``, that passes validation and whose
    Results triples file is :func:`chain_triple_lines` of ``length``.

    Its contribution sentences name every chain label, so each surface
    is grounded.  It has no phrase file.
    """
    paper = root / "parsing" / "chain"
    (paper / "info-units").mkdir(parents=True)
    (paper / "triples").mkdir()
    labels = " ".join(f"n{i}" for i in range(length))
    (paper / "text.txt").write_text(
        f"We study chunking .\nOur model {CHAIN_PREDICATE} {labels} .\n", encoding="utf-8")
    (paper / "sentences.txt").write_text("1\n2\n", encoding="utf-8")
    units = {"ResearchProblem": {"has": {"Research Problem": {"has": "chunking"}}},
             "Model": {"has": {"Model": {"study": "chunking"}}}}
    for unit, tree in units.items():
        (paper / "info-units" / f"{unit}.json").write_text(json.dumps(tree),
                                                           encoding="utf-8")
    (paper / "triples" / "Results.txt").write_text(
        "".join(line + "\n" for line in chain_triple_lines(length)), encoding="utf-8")


# ---------------------------------------------------------------------------
# trial corpus (per-task characteristics profile)

_EXTRA_UNITS = ["ExperimentalSetup", "Hyperparameters", "Baselines",
                "AblationAnalysis"]


def write_trial_corpus(root: Path) -> None:
    for task, profile in TRIAL_PROFILE.items():
        prefix = TASK_PREFIX[task]
        ann_split = _split(profile["ann_sentences"], PAPERS_PER_TASK)
        total_split = _split(profile["total_sentences"], PAPERS_PER_TASK)
        token_split = _split(profile["total_tokens"], PAPERS_PER_TASK)
        phrase_split = _split(profile["phrases"], PAPERS_PER_TASK)
        extras_split = _split(profile["ius"] - 3 * PAPERS_PER_TASK, PAPERS_PER_TASK)
        content_split = _split(profile["triples"] - profile["ius"], PAPERS_PER_TASK)
        three_token_left = profile["phrase_tokens"] - 2 * profile["phrases"]

        for i in range(PAPERS_PER_TASK):
            paper_dir = root / task / f"{prefix}-{i:02d}"
            paper_dir.mkdir(parents=True, exist_ok=True)
            _write_text(paper_dir, ann_split[i], total_split[i], token_split[i])
            n_three = min(phrase_split[i], three_token_left)
            three_token_left -= n_three
            _write_phrases(paper_dir, ann_split[i], phrase_split[i], n_three)

            solution = "Model" if i < 5 else "Approach"
            extras = _EXTRA_UNITS[:extras_split[i]]
            units = ["ResearchProblem", solution, "Results"] + extras
            content = content_split[i]
            per_unit = {"ResearchProblem": 2, solution: 3}
            per_unit.update({extra: 1 for extra in extras})
            per_unit["Results"] = content - sum(per_unit.values())
            assert per_unit["Results"] >= 0
            for unit in units:
                _write_unit(paper_dir, unit, per_unit[unit])


# ---------------------------------------------------------------------------
# unit-profile corpus (per-unit triples/papers profile)


def _unit_paper_assignment() -> dict[str, list[int]]:
    """Global paper indices (0..49) carrying each unit.

    Papers 0..41 have top-level Results; 42..44 satisfy it through an
    Experiments unit and 45..49 through a Tasks unit, so mandatory-unit
    validation passes on all 50.
    """
    return {
        "ResearchProblem": list(range(50)),
        "Model": list(range(0, 32)),
        "Approach": list(range(32, 50)),
        "Results": list(range(0, 42)),
        "Experiments": [42, 43, 44],
        "Tasks": [45, 46, 47, 48, 49, 0, 1, 2],
        "ExperimentalSetup": list(range(3, 19)),
        "Hyperparameters": list(range(19, 34)),
        "Baselines": list(range(34, 44)),
        "AblationAnalysis": list(range(5, 18)),
        "Dataset": [20],
        "Code": list(range(25, 34)),
    }


def write_unit_profile_corpus(root: Path) -> None:
    tasks = list(TRIAL_PROFILE)
    paper_dirs: list[Path] = []
    for g in range(50):
        task = tasks[g // PAPERS_PER_TASK]
        prefix = TASK_PREFIX[task]
        paper_dir = root / task / f"{prefix}{g:02d}"
        paper_dir.mkdir(parents=True, exist_ok=True)
        _write_text(paper_dir, ann_count=2, total_count=6, token_total=40)
        paper_dirs.append(paper_dir)

    assignment = _unit_paper_assignment()
    needs_nested = set(range(42, 50))
    for unit, (n_triples, n_papers) in UNIT_PROFILE.items():
        papers = assignment[unit]
        assert len(papers) == n_papers
        content_split = _split(n_triples - n_papers, n_papers)
        for paper_index, content in zip(papers, content_split):
            nested = (unit in ("Experiments", "Tasks")
                      and paper_index in needs_nested)
            if nested:
                assert content >= 4
            _write_unit(paper_dirs[paper_index], unit, content,
                        nested_results=nested)
