from __future__ import annotations

import os
import sys
from pathlib import Path

import pytest

import ncgkit

sys.path.insert(0, str(Path(__file__).parent))

from corpusgen import write_trial_corpus, write_unit_profile_corpus  # noqa: E402

DATA_DIR = Path(__file__).parent / "data"


@pytest.fixture(scope="session", autouse=True)
def child_pythonpath():
    """`python -m ncgkit.cli` child processes import the package the tests import."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("PYTHONPATH", os.pathsep.join(filter(None, [
            str(Path(ncgkit.__file__).parents[1]), os.environ.get("PYTHONPATH")])))
        yield


@pytest.fixture(scope="session")
def data_dir() -> Path:
    return DATA_DIR


@pytest.fixture(scope="session")
def trial_root(tmp_path_factory) -> Path:
    root = tmp_path_factory.mktemp("trial_corpus")
    write_trial_corpus(root)
    return root


@pytest.fixture(scope="session")
def unit_profile_root(tmp_path_factory) -> Path:
    root = tmp_path_factory.mktemp("unit_profile_corpus")
    write_unit_profile_corpus(root)
    return root


@pytest.fixture(scope="session")
def comparison_root() -> Path:
    return DATA_DIR / "comparison_corpus"


@pytest.fixture()
def results_unit_text() -> str:
    return (DATA_DIR / "nested_results_unit.json").read_text(encoding="utf-8")


@pytest.fixture()
def results_triples_text() -> str:
    return (DATA_DIR / "results_triple_lines.txt").read_text(encoding="utf-8")
