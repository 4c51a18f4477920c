"""Seeded corpora for the pipeline benchmark.

Every corpus starts from one of the two deterministic stand-ins in
``tests/corpusgen.py`` (imported, never edited) and is replicated.  The seed
decides only the per-replica surface tags of the trial corpus, the
reconcile branch of each paper of the units corpus, and the perturbation of
the predicted side of the pair.  Sizes are fixed, so every seed asks the
program for the same amount of work.
"""

from __future__ import annotations

import json
import random
import re
import shutil
import string
from dataclasses import dataclass, field
from pathlib import Path

import corpusgen

#: Words the trial generator puts into text, phrases, trees, provenance and
#: triple lines.  Each replica appends its own tag to every one of them, in
#: every file, so grounding still holds and no two papers share a surface.
_TAGGED = re.compile(r"\b(w\d+t\d+|f\d+x\d+|covers|includes|shows|item|result)\b")

_TAG_ALPHABET = string.ascii_lowercase + string.digits

#: Units a perturbed paper may lose; the mandatory ones always stay.
_DROPPABLE_UNITS = ("AblationAnalysis", "Baselines", "ExperimentalSetup",
                    "Hyperparameters")

BOTH, UNITS_ONLY, TRIPLES_ONLY = "both", "units-only", "triples-only"


@dataclass
class Expected:
    """What the benchmark knows about a generated corpus before loading it."""

    replicas: int
    papers: int
    #: Reconcile branch per paper id (units corpus only).
    branch: dict[str, str] = field(default_factory=dict)
    #: Predicted micro (tp, fp, fn) per granularity, exact and overlap
    #: phrase modes (pair corpus only).
    counts: dict[str, tuple[int, int, int]] = field(default_factory=dict)


def _base_papers(write, scratch: Path) -> dict[tuple[str, str], dict[str, str]]:
    """Run a corpusgen writer once and keep every paper's files in memory."""
    write(scratch)
    papers: dict[tuple[str, str], dict[str, str]] = {}
    for path in sorted(scratch.rglob("*")):
        if path.is_file():
            task, paper, *rest = path.relative_to(scratch).parts
            papers.setdefault((task, paper), {})["/".join(rest)] = path.read_text(
                encoding="utf-8")
    shutil.rmtree(scratch)
    return papers


def _write_paper(root: Path, task: str, paper: str, files: dict[str, str]) -> None:
    for rel, text in files.items():
        path = root / task / paper / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text, encoding="utf-8")


def _tags(rng: random.Random, n: int) -> list[str]:
    seen: set[str] = set()
    out = []
    while len(out) < n:
        tag = "".join(rng.choices(_TAG_ALPHABET, k=6))
        if tag not in seen:
            seen.add(tag)
            out.append(tag)
    return out


def _tagged_trial(seed: int, replicas: int, scratch: Path
                  ) -> dict[tuple[str, str], dict[str, str]]:
    base = _base_papers(corpusgen.write_trial_corpus, scratch)
    tags = iter(_tags(random.Random(seed), replicas * len(base)))
    out = {}
    for k in range(replicas):
        for (task, paper), files in base.items():
            template = r"\1-" + next(tags)
            out[(task, f"{paper}-r{k:02d}")] = {
                rel: _TAGGED.sub(template, text) for rel, text in files.items()}
    return out


def write_trial(root: Path, seed: int, replicas: int) -> Expected:
    """The trial corpus, replicated with seeded per-replica surface tags."""
    papers = _tagged_trial(seed, replicas, root.parent / (root.name + ".base"))
    for (task, paper), files in papers.items():
        _write_paper(root, task, paper, files)
    return Expected(replicas, len(papers))


def write_units(root: Path, seed: int, replicas: int) -> Expected:
    """The unit-profile corpus replicated verbatim.

    The seed deals papers into three equal piles: one keeps both unit files
    and triple files, one only ``info-units/`` (triples come from flatten),
    one only ``triples/`` (trees come from nest).
    """
    base = _base_papers(corpusgen.write_unit_profile_corpus,
                        root.parent / (root.name + ".base"))
    ids = [(task, f"{paper}-r{k:02d}") for k in range(replicas)
           for task, paper in base]
    order = list(range(len(ids)))
    random.Random(seed).shuffle(order)
    piles = (BOTH, UNITS_ONLY, TRIPLES_ONLY)
    expected = Expected(replicas, len(ids))
    for rank, i in enumerate(order):
        task, paper = ids[i]
        branch = piles[rank * len(piles) // len(ids)]
        expected.branch[paper] = branch
        files = base[(task, paper.rsplit("-r", 1)[0])]
        if branch == UNITS_ONLY:
            files = {r: t for r, t in files.items() if not r.startswith("triples/")}
        elif branch == TRIPLES_ONLY:
            files = {r: t for r, t in files.items() if not r.startswith("info-units/")}
        _write_paper(root, task, paper, files)
    return expected


# ---------------------------------------------------------------------------
# score pair


def write_pair(gold_root: Path, pred_root: Path, seed: int, replicas: int) -> Expected:
    """Tagged trial corpus as gold, and a seeded perturbation of it as pred.

    Per paper the perturbation drops contribution sentences, drops phrases,
    shrinks 3-token phrases to their first 2 tokens, shifts 2-token phrases
    one token right, drops content triples (tree and triple file alike) and
    sometimes drops a whole optional unit.  Every outcome is counted as it
    is made, giving the tp/fp/fn the scorer must report.
    """
    gold = _tagged_trial(seed, replicas, gold_root.parent / (gold_root.name + ".base"))
    rng = random.Random(seed + 1)
    tally = {key: [0, 0, 0] for key in
             ("units", "sentences", "phrases", "phrases_overlap", "triples")}
    for (task, paper), files in gold.items():
        _write_paper(gold_root, task, paper, files)
        pred = dict(files)
        _perturb_sentences(pred, rng, tally["sentences"])
        _perturb_phrases(pred, rng, tally["phrases"], tally["phrases_overlap"])
        _perturb_units(pred, rng, tally["units"], tally["triples"])
        _write_paper(pred_root, task, paper, pred)
    expected = Expected(replicas, len(gold))
    expected.counts = {k: tuple(v) for k, v in tally.items()}
    return expected


def _perturb_sentences(files: dict[str, str], rng: random.Random, tally: list[int]) -> None:
    kept = []
    for line in files["sentences.txt"].splitlines():
        if rng.random() < 0.1:
            tally[2] += 1
        else:
            kept.append(line)
            tally[0] += 1
    files["sentences.txt"] = "".join(f"{line}\n" for line in kept)


def _perturb_phrases(files: dict[str, str], rng: random.Random,
                     exact: list[int], overlap: list[int]) -> None:
    """Perturb phrase rows, counting exact and partial-overlap outcomes.

    Gold spans in one sentence start at distinct even offsets, so a shrunk
    span keeps Jaccard 2/3 with its original and under 1/2 with every other
    gold span, and a shifted 2-token span reaches only 1/3 with any gold
    span.  The pairs at or above 1/2 therefore form a matching already, and
    greedy and maximum matching find the same true positives.
    """
    lines = files["text.txt"].splitlines()
    rows = []
    for row in files["phrases.tsv"].splitlines():
        index, start, end, _ = row.split("\t")
        index, start, end = int(index), int(start), int(end)
        tokens = lines[index - 1].split()
        roll = rng.random()
        if roll < 0.1:
            start = end = None
            exact[2] += 1
            overlap[2] += 1
        elif roll < 0.2 and end - start == 3:
            end -= 1
            exact[1] += 1
            exact[2] += 1
            overlap[0] += 1
        elif roll < 0.3 and end - start == 2 and end < len(tokens):
            start, end = start + 1, end + 1
            exact[1] += 1
            exact[2] += 1
            overlap[1] += 1
            overlap[2] += 1
        else:
            exact[0] += 1
            overlap[0] += 1
        if start is not None:
            rows.append(f"{index}\t{start}\t{end}\t{' '.join(tokens[start:end])}")
    files["phrases.tsv"] = "\n".join(rows) + "\n"


def _perturb_units(files: dict[str, str], rng: random.Random,
                   units: list[int], triples: list[int]) -> None:
    present = sorted(rel[len("info-units/"):-len(".json")]
                     for rel in files if rel.startswith("info-units/"))
    droppable = [u for u in present if u in _DROPPABLE_UNITS]
    dropped = rng.choice(droppable) if droppable and rng.random() < 0.3 else None
    for unit in present:
        unit_rel, triple_rel = f"info-units/{unit}.json", f"triples/{unit}.txt"
        lines = files[triple_rel].splitlines()
        if unit == dropped:
            del files[unit_rel], files[triple_rel]
            units[2] += 1
            triples[2] += len(lines)
            continue
        units[0] += 1
        tree = json.loads(files[unit_rel])
        (display, body), = tree["has"].items()
        key = next((k for k in body if k.startswith("covers")), None)
        facts = body.get(key)
        if isinstance(facts, list):
            keep = [f for f in facts if rng.random() >= 0.15] or facts[:1]
            gone = {f"({display}||{key}||{f})" for f in facts if f not in keep}
            body[key] = keep if len(keep) > 1 else keep[0]
            files[unit_rel] = json.dumps(tree, indent=2, ensure_ascii=False) + "\n"
            lines = [line for line in lines if line not in gone]
            files[triple_rel] = "".join(f"{line}\n" for line in lines)
            triples[2] += len(gone)
        triples[0] += len(lines)

