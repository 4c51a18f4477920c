"""Golden outputs: the bytes every ``ncg`` subcommand writes, pinned.

Each case runs one command line through ``cli.run`` and compares the
sha256 of its stdout, the sha256 of its stderr and its exit code with
``tests/data/golden.json``.  The corpora are ``tests/data/comparison_corpus``,
the generated trial and unit-profile corpora (``tests/corpusgen.py``) and
edited copies:

* the comparison corpus with a few lines edited, which ``score`` reads as
  predictions;
* the trial corpus with a few phrase lines shifted or dropped, which
  ``score --granularity phrases`` reads as predictions;
* the unit-profile corpus with some papers' ``info-units/`` or ``triples/``
  removed, one triples file that no longer matches its tree and one
  triples-only file with an orphan subject, so that load reconciles unit
  trees with triples files down every branch;
* the comparison corpus moved below ``data/``, with a manifest that says so;
* a root holding one empty task directory.

No case prints a path outside its corpus: load issues are located relative
to the corpus root, so the digests hold on any machine.

A change that moves an output on purpose regenerates the file with

    PYTHONPATH=src python tests/test_golden.py

and lists each moved digest in ``CHANGES.md``.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import shutil
import tempfile
from pathlib import Path

import pytest

from corpusgen import write_trial_corpus, write_unit_profile_corpus
from ncgkit.cli import run
from ncgkit.corpus_io import DEFAULT_LAYOUT

DATA = Path(__file__).parent / "data"
GOLDEN = DATA / "golden.json"

_C = "{comparison}"
_P = "{perturbed}"
_T = "{trial}"
_D = "{data}"
_U = "{units}"
_R = "{reconcile}"
_TP = "{trial_perturbed}"
_E = "{empty}"
_M = "{moved}"

#: Case name -> argv; the placeholders are filled with the corpus paths.
CASES: dict[str, list[str]] = {
    "validate-comparison": ["validate", "--manifest", _C],
    "validate-comparison-json": ["validate", "--manifest", _C, "--format", "json"],
    "validate-comparison-strict": ["validate", "--manifest", _C, "--strict"],
    "validate-comparison-provenance-error": [
        "validate", "--manifest", _C, "--provenance-check", "Error",
        "--max-phrase-tokens", "0"],
    "validate-comparison-provenance-off": [
        "validate", "--manifest", _C, "--provenance-check", "Off"],
    "validate-perturbed": ["validate", "--manifest", _P],
    "validate-trial": ["validate", "--manifest", _T],
    "validate-trial-json": ["validate", "--manifest", _T, "--format", "json"],
    "validate-trial-phrase-length": ["validate", "--manifest", _T,
                                     "--max-phrase-tokens", "2"],
    "stats-comparison": ["stats", "--manifest", _C],
    "stats-comparison-json": ["stats", "--manifest", _C, "--format", "json"],
    "stats-comparison-check-fails": ["stats", "--manifest", _C, "--check",
                                     f"{_D}/trial_stats_expected.json"],
    "stats-trial": ["stats", "--manifest", _T],
    "stats-trial-json": ["stats", "--manifest", _T, "--format", "json"],
    "stats-trial-check": ["stats", "--manifest", _T, "--check",
                          f"{_D}/trial_stats_expected.json"],
    "unit-stats-comparison": ["unit-stats", "--manifest", _C],
    "unit-stats-comparison-json": ["unit-stats", "--manifest", _C, "--format", "json"],
    "unit-stats-trial": ["unit-stats", "--manifest", _T],
    "unit-stats-trial-json": ["unit-stats", "--manifest", _T, "--format", "json"],
    "score-comparison-self": ["score", "--gold", _C, "--pred", _C],
    "score-perturbed": ["score", "--gold", _C, "--pred", _P],
    "score-perturbed-units": ["score", "--gold", _C, "--pred", _P,
                              "--granularity", "units"],
    "score-perturbed-sentences": ["score", "--gold", _C, "--pred", _P,
                                  "--granularity", "sentences"],
    "score-perturbed-triples": ["score", "--gold", _C, "--pred", _P,
                                "--granularity", "triples"],
    "score-perturbed-phrases-unavailable": ["score", "--gold", _C, "--pred", _P,
                                            "--granularity", "phrases"],
    "score-perturbed-per-paper": ["score", "--gold", _C, "--pred", _P,
                                  "--triple-scope", "per-paper"],
    "score-perturbed-casefold": ["score", "--gold", _C, "--pred", _P,
                                 "--fold", "casefold"],
    "score-perturbed-strict": ["score", "--gold", _C, "--pred", _P, "--strict"],
    "score-trial-exact-span": ["score", "--gold", _T, "--pred", _T,
                               "--phrase-match", "exact-span"],
    "score-trial-partial-overlap": ["score", "--gold", _T, "--pred", _T,
                                    "--phrase-match", "partial-overlap"],
    **{f"score-trial-perturbed-phrases-{mode}": [
        "score", "--gold", _T, "--pred", _TP, "--granularity", "phrases",
        "--phrase-match", mode]
       for mode in ("exact-text", "exact-span", "partial-overlap")},
    "stats-units": ["stats", "--manifest", _U],
    "unit-stats-units": ["unit-stats", "--manifest", _U],
    "validate-units": ["validate", "--manifest", _U],
    "build-kg-units": ["build-kg", "--manifest", _U],
    "stats-reconcile": ["stats", "--manifest", _R],
    "stats-empty": ["stats", "--manifest", _E],
    "stats-moved": ["stats", "--manifest", f"{_M}/m.ini"],
    "validate-reconcile": ["validate", "--manifest", _R],
    "flatten-nested-results": ["flatten", f"{_D}/nested_results_unit.json",
                               "--unit", "Results"],
    "flatten-stack-lstm": ["flatten", f"{_D}/stack_lstm_fragment.json", "--unit", "Model"],
    "flatten-paper-directory": ["flatten", f"{_C}/papers/dilated-cnn-2017",
                                "--unit", "Results"],
    "nest-results-lines": ["nest", f"{_D}/results_triple_lines.txt", "--unit", "Results"],
    "build-kg-comparison": ["build-kg", "--manifest", _C],
    "build-kg-comparison-surface": ["build-kg", "--manifest", _C,
                                    "--merge", "surface"],
    "build-kg-trial": ["build-kg", "--manifest", _T],
    "build-kg-trial-surface": ["build-kg", "--manifest", _T, "--merge", "surface"],
    "traverse-comparison": ["traverse", "--manifest", _C, "--paper", "dilated-cnn-2017",
                            "--start", "Results"],
    "traverse-comparison-depth-0": ["traverse", "--manifest", _C, "--paper",
                                    "machine-reading-2016", "--start", "Results",
                                    "--depth", "0"],
    "traverse-comparison-depth-3": ["traverse", "--manifest", _C, "--paper",
                                    "robust-lexical-2018", "--start", "Results",
                                    "--depth", "3"],
    "traverse-comparison-unknown-start": ["traverse", "--manifest", _C, "--paper",
                                          "dilated-cnn-2017", "--start", "nosuch"],
    "traverse-trial": ["traverse", "--manifest", _T, "--paper", "mt-01",
                       "--start", "Results", "--depth", "2"],
    "compare-comparison-md": ["compare", "--manifest", _C, "--unit", "Results",
                              "--papers", "dilated-cnn-2017,machine-reading-2016"],
    "compare-comparison-csv": ["compare", "--manifest", _C, "--unit", "Results",
                               "--papers", "dilated-cnn-2017,machine-reading-2016",
                               "--format", "csv"],
    "compare-comparison-json": ["compare", "--manifest", _C, "--unit", "Results",
                                "--papers", "dilated-cnn-2017,machine-reading-2016",
                                "--format", "json"],
    "compare-comparison-all-titled": [
        "compare", "--manifest", _C, "--unit", "Results", "--depth", "2", "--papers",
        "robust-lexical-2018,dilated-cnn-2017,machine-reading-2016,sentence-similarity-2016",
        "--title", "dilated-cnn-2017=Dilated CNN"],
    "compare-comparison-unknown-paper": ["compare", "--manifest", _C, "--unit", "Results",
                                         "--papers", "dilated-cnn-2017,nosuch"],
    "compare-trial": ["compare", "--manifest", _T, "--unit", "Results",
                      "--papers", "mt-01,ner-01,qa-01", "--format", "csv"],
}

#: (file below the comparison corpus, text, replacement) of the perturbed copy.
PERTURBATIONS = [
    ("papers/dilated-cnn-2017/sentences.txt", "1\n", "2\n"),
    ("papers/dilated-cnn-2017/info-units/Results.json", '"every model"', '"most models"'),
    ("papers/machine-reading-2016/info-units/ResearchProblem.json",
     '"Machine Reading",\n', ""),
    ("papers/sentence-similarity-2016/info-units/ResearchProblem.json",
     '"sentence similarity"', '"Sentence Similarity"'),
]


def _edit(root: Path, edits: list[tuple[str, str, str]]) -> None:
    """Replace each (file below ``root``, text, replacement) once."""
    for name, old, new in edits:
        path = root / name
        text = path.read_text(encoding="utf-8")
        assert text.count(old) == 1, (name, old)
        path.write_text(text.replace(old, new), encoding="utf-8")


def write_perturbed(root: Path) -> Path:
    """A copy of the comparison corpus at ``root`` with :data:`PERTURBATIONS` applied."""
    shutil.copytree(DATA / "comparison_corpus", root)
    _edit(root, PERTURBATIONS)
    return root


#: Papers of the reconcile copy that lose their unit files, and those that
#: lose their triples files.
RECONCILE_TRIPLES_ONLY = ["machine-translation/mt01", "named-entity-recognition/ner12",
                          "text-classification/tc45"]
RECONCILE_UNITS_ONLY = ["machine-translation/mt02", "relation-classification/rc34",
                        "text-classification/tc46"]

#: (file below the reconcile copy, text, replacement): a triples file that no
#: longer matches its tree, and an orphan subject in a triples-only file.
RECONCILE_EDITS = [
    ("machine-translation/mt03/triples/Results.txt", "Results item 16)",
     "Results item sixteen)"),
    ("machine-translation/mt01/triples/Model.txt", "(Model||covers||Model item 1)\n",
     "(Model||covers||Model item 1)\n(Nowhere||covers||Model item 99)\n"),
]

#: Papers of the perturbed trial copy whose phrase files are edited.
PHRASE_PAPERS = ["machine-translation/mt-00", "question-answering/qa-03",
                 "text-classification/tc-07"]


def write_reconcile(units: Path, root: Path) -> Path:
    """A copy of the unit-profile corpus ``units`` at ``root``, edited as
    :data:`RECONCILE_TRIPLES_ONLY`, :data:`RECONCILE_UNITS_ONLY` and
    :data:`RECONCILE_EDITS` say."""
    shutil.copytree(units, root)
    for paper in RECONCILE_TRIPLES_ONLY:
        shutil.rmtree(root / paper / "info-units")
    for paper in RECONCILE_UNITS_ONLY:
        shutil.rmtree(root / paper / "triples")
    _edit(root, RECONCILE_EDITS)
    return root


def write_trial_perturbed(trial: Path, root: Path) -> Path:
    """A copy of the trial corpus at ``root`` where, in each paper of
    :data:`PHRASE_PAPERS`, phrase line ``n`` (from 0) is dropped when
    ``n % 5 == 4`` and otherwise, when ``n % 3 == 0`` and its sentence has
    room, moves one token right, its surface following."""
    shutil.copytree(trial, root)
    for paper in PHRASE_PAPERS:
        tokens = [line.split() for line in
                  (root / paper / "text.txt").read_text(encoding="utf-8").splitlines()]
        path = root / paper / "phrases.tsv"
        rows = []
        for n, line in enumerate(path.read_text(encoding="utf-8").splitlines()):
            idx, start, end, surface = line.split("\t")
            idx, start, end = int(idx), int(start) + 1, int(end) + 1
            if n % 5 == 4:
                continue
            if n % 3 == 0 and end <= len(tokens[idx - 1]):
                surface = " ".join(tokens[idx - 1][start:end])
                line = f"{idx}\t{start}\t{end}\t{surface}"
            rows.append(line + "\n")
        path.write_text("".join(rows), encoding="utf-8")
    return root


def write_moved(root: Path) -> Path:
    """The comparison corpus below ``root/data``, with the manifest ``root/m.ini``
    that names that layout."""
    shutil.copytree(DATA / "comparison_corpus", root / "data")
    (root / "m.ini").write_text("[layout]\n" + "".join(
        f"{role} = data/{pattern}\n" for role, pattern in DEFAULT_LAYOUT.items()),
        encoding="utf-8")
    return root


def digest(argv: list[str], roots: dict[str, Path]) -> dict:
    """The exit code and the sha256 of stdout and stderr of one case."""
    argv = [arg.format(**{k: str(v) for k, v in roots.items()}) for arg in argv]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run(argv)
    for text in (out.getvalue(), err.getvalue()):
        assert not any(str(root) in text for root in roots.values()), argv
    return {"exit": code,
            "stdout": hashlib.sha256(out.getvalue().encode("utf-8")).hexdigest(),
            "stderr": hashlib.sha256(err.getvalue().encode("utf-8")).hexdigest()}


def case_roots(trial: Path, scratch: Path) -> dict[str, Path]:
    """The path of each placeholder of :data:`CASES`; the unit-profile corpus
    and the edited copies are written below ``scratch``."""
    units = scratch / "units"
    write_unit_profile_corpus(units)
    (scratch / "empty" / "task").mkdir(parents=True)
    return {"comparison": DATA / "comparison_corpus", "data": DATA, "trial": trial,
            "perturbed": write_perturbed(scratch / "perturbed"), "units": units,
            "reconcile": write_reconcile(units, scratch / "reconcile"),
            "trial_perturbed": write_trial_perturbed(trial, scratch / "trial-perturbed"),
            "moved": write_moved(scratch / "moved"), "empty": scratch / "empty"}


@pytest.fixture(scope="module")
def roots(trial_root, tmp_path_factory) -> dict[str, Path]:
    return case_roots(trial_root, tmp_path_factory.mktemp("golden"))


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


def test_golden_file_names_every_case(golden):
    assert sorted(golden) == sorted(CASES)


@pytest.mark.parametrize("name", sorted(CASES))
def test_output_equals_golden(name, roots, golden):
    assert digest(CASES[name], roots) == golden[name]


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        write_trial_corpus(Path(tmp) / "trial")
        paths = case_roots(Path(tmp) / "trial", Path(tmp))
        table = {name: digest(argv, paths) for name, argv in sorted(CASES.items())}
    GOLDEN.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n", encoding="utf-8")
