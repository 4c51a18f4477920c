"""The README's code runs as written."""

from __future__ import annotations

import re
from pathlib import Path

README = Path(__file__).parents[1] / "README.md"


def python_blocks(section: str) -> list[str]:
    """The python code blocks of the README section headed ``section``."""
    text = README.read_text(encoding="utf-8").split(f"\n## {section}\n", 1)[1]
    return re.findall(r"```python\n(.*?)```", text.split("\n## ", 1)[0], re.S)


def test_library_use_blocks_run_on_the_comparison_corpus(comparison_root, tmp_path,
                                                         monkeypatch, capsys):
    # the blocks read corpus/ below the working directory
    (tmp_path / "corpus").symlink_to(comparison_root, target_is_directory=True)
    monkeypatch.chdir(tmp_path)
    blocks = python_blocks("Library use")
    assert len(blocks) == 2
    namespace: dict = {}
    for block in blocks:
        exec(compile(block, str(README), "exec"), namespace)
    assert len(namespace["corpus"]) == 4 and namespace["issues"]
    assert "| " in capsys.readouterr().out
