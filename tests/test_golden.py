"""Golden outputs: the bytes every ``ncg`` subcommand writes, pinned.

Each case runs one command line through ``cli.run`` and compares the
sha256 of its stdout, the sha256 of its stderr and its exit code with
``tests/data/golden.json``.  The corpora are ``tests/data/comparison_corpus``,
the generated trial corpus (``corpusgen.write_trial_corpus``) and a copy of
the comparison corpus with a few lines edited, which ``score`` reads as
predictions.  No case prints a path outside its corpus: load issues are
located relative to the corpus root, so the digests hold on any machine.

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

from ncgkit.cli import run

DATA = Path(__file__).parent / "data"
GOLDEN = DATA / "golden.json"

_C = "{comparison}"
_P = "{perturbed}"
_T = "{trial}"
_D = "{data}"

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


def write_perturbed(root: Path) -> Path:
    """A copy of the comparison corpus at ``root`` with :data:`PERTURBATIONS` applied."""
    shutil.copytree(DATA / "comparison_corpus", root)
    for name, old, new in PERTURBATIONS:
        path = root / name
        text = path.read_text(encoding="utf-8")
        assert text.count(old) == 1, (name, old)
        path.write_text(text.replace(old, new), encoding="utf-8")
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
    """The path of each placeholder of :data:`CASES`; the perturbed copy is
    written below ``scratch``."""
    return {"comparison": DATA / "comparison_corpus", "data": DATA, "trial": trial,
            "perturbed": write_perturbed(scratch / "perturbed")}


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
    from corpusgen import write_trial_corpus

    with tempfile.TemporaryDirectory() as tmp:
        write_trial_corpus(Path(tmp) / "trial")
        paths = case_roots(Path(tmp) / "trial", Path(tmp))
        table = {name: digest(argv, paths) for name, argv in sorted(CASES.items())}
    GOLDEN.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n", encoding="utf-8")
