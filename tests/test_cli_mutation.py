"""Damaged corpora through every corpus command: no traceback, ever.

Each example copies a four-paper subset of the trial corpus, damages one to
three of its files, and runs every corpus command on the copy through
``cli.run``, lenient and strict.  A command may exit 0, 1 or 2, and a
strict run that exits 2 ends its stderr with its one ``error:`` line.  On
each copy, ``iter_papers`` yields the papers and issues that
``load_corpus`` collects, or both raise the same error.
"""

from __future__ import annotations

import contextlib
import io
import shutil
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, Phase, given, settings
from hypothesis import strategies as st

from ncgkit import CorpusManifest, NcgError, iter_papers, load_corpus
from ncgkit.cli import run
from corpusgen import write_trial_corpus

#: The papers of the trial corpus the damaged copies start from.
SUBSET = {"machine-translation": ["mt-00", "mt-01"], "named-entity-recognition": ["ner-00"],
          "question-answering": ["qa-00"]}

#: Each corpus command, with the arguments besides its corpus.
COMMANDS = [
    ["validate"],
    ["stats"],
    ["unit-stats"],
    ["build-kg"],
    ["build-kg", "--merge", "surface"],
    ["traverse", "--paper", "mt-00", "--start", "Results", "--depth", "2"],
    ["compare", "--unit", "Results", "--papers", "mt-01,ner-00", "--format", "csv"],
]

#: Text that is delimiters, line breaks (CRLF, CR, VT, FF, FS, NEL, LS),
#: NUL, or huge, negative or non-ASCII digits (Arabic-Indic, fullwidth).
INSERTS = ["\t", "|", "||", "(", ")", "{", "}", '"', ",", ":", "[", "]", "\\",
           "\r\n", "\r", "\x0b", "\x0c", "\x1c", "\x85", " ", "\x00",
           "9" * 400, "-1", "-0", "0", "٣", "３"]

DAMAGE = st.tuples(
    st.sampled_from(["truncate", "flip", "insert", "surrogate", "delete", "directory",
                     "duplicate-line", "swap-columns"]),
    st.integers(0, 10**6),  # which file
    st.integers(0, 10**6),  # where in it
    st.sampled_from(INSERTS),
    st.integers(1, 255),  # the byte mask of a flip
)


@pytest.fixture(scope="module")
def subset_root(tmp_path_factory) -> Path:
    full = tmp_path_factory.mktemp("trial")
    write_trial_corpus(full)
    root = tmp_path_factory.mktemp("subset")
    for task, papers in SUBSET.items():
        for paper in papers:
            shutil.copytree(full / task / paper, root / task / paper)
    return root


def damage(root: Path, kind: str, which: int, at: int, insert: str, mask: int) -> None:
    """Damage one file under ``root``, chosen by ``which``, at ``at``."""
    files = sorted(p for p in root.rglob("*") if p.is_file())
    if not files:
        return
    path = files[which % len(files)]
    if kind == "delete":
        path.unlink()
        return
    if kind == "directory":
        path.unlink()
        path.mkdir()
        return
    data = path.read_bytes()
    at = at % (len(data) + 1)
    if kind == "truncate":
        data = data[:at]
    elif kind == "flip" and data:
        at = min(at, len(data) - 1)
        data = data[:at] + bytes([data[at] ^ mask]) + data[at + 1:]
    elif kind == "insert":
        data = data[:at] + insert.encode("utf-8") + data[at:]
    elif kind == "surrogate":
        data = data[:at] + "\ud800".encode("utf-8", "surrogatepass") + data[at:]
    elif kind in ("duplicate-line", "swap-columns"):
        lines = data.split(b"\n")
        i = at % len(lines)
        if kind == "duplicate-line":
            lines.insert(i, lines[i])
        else:
            cells = lines[i].split(b"\t")
            cells[0], cells[-1] = cells[-1], cells[0]
            lines[i] = b"\t".join(cells)
        data = b"\n".join(lines)
    path.write_bytes(data)


def outcome(collect):
    """What ``collect`` returns, or the message of the error it raises."""
    try:
        return collect()
    except (NcgError, OSError) as exc:
        return f"{type(exc).__name__}: {exc}"


def run_captured(argv: list[str]) -> tuple[int, str]:
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = run(argv)
    return code, stderr.getvalue()


# Each example runs every command, so shrinking a failure could take
# minutes; a failure is reported as found, unshrunk.
@settings(max_examples=settings().max_examples // 2, deadline=None,
          phases=[phase for phase in Phase if phase is not Phase.shrink],
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.lists(DAMAGE, min_size=1, max_size=3), st.booleans())
def test_a_damaged_corpus_never_escapes_as_a_traceback(subset_root, damages, pred_damaged):
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp) / "corpus"
        shutil.copytree(subset_root, root)
        for args in damages:
            damage(root, *args)

        for strict in (False, True):
            manifest = CorpusManifest(root_path=root, strict=strict)

            def streamed():
                issues = []
                return list(iter_papers(manifest, issues)), issues

            def collected():
                corpus, issues = load_corpus(manifest)
                return list(corpus), issues

            assert outcome(streamed) == outcome(collected)

        gold, pred = (subset_root, root) if pred_damaged else (root, subset_root)
        out = str(Path(tmp) / "out")
        commands = [[*argv, "--manifest", str(root), "--out", out] for argv in COMMANDS]
        commands.append(["score", "--gold", str(gold), "--pred", str(pred), "--out", out])
        for argv in commands:
            for strict in ([], ["--strict"]):
                code, err = run_captured(argv + strict)
                assert code in (0, 1, 2), argv
                errors = [line for line in err.splitlines() if line.startswith("error: ")]
                if code == 2:
                    assert len(errors) == 1 and err.endswith(errors[0] + "\n"), (argv, err)
                else:
                    assert errors == [], (argv, err)
