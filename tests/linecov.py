"""Line coverage of ``src/ncgkit`` over the tier-1 test run.

Run from anywhere, with pytest and hypothesis installed::

    python tests/linecov.py

It installs a ``sys.settrace`` line tracer before ``ncgkit`` is imported,
runs the tier-1 suite in this process, and lists each line inside a
function of ``src/ncgkit`` that never ran.  The tracer is installed again
before each test, because an error raised inside it (a ``RecursionError``
at the recursion limit, for one) switches tracing off.  Child processes
are not traced.

The exit status is pytest's when the suite fails, else 1 when a line
outside :data:`ALLOWED` never ran or an entry of it names no line, else
0.  The file name does not match pytest's ``test_*.py``, so the suite
does not collect it.
"""

from __future__ import annotations

import inspect
import os
import sys
import types
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
PACKAGE = REPO / "src" / "ncgkit"

#: Lines allowed never to run: (module, function, stripped source line)
#: -> reason; a line of None allows the whole function.
ALLOWED = {
    ("corpus_io", "_read", "raise"):
        "re-raises for a regular file that cannot be opened; EACCES cannot be "
        "produced when the tests run as root",
    ("corpus_io", "_read", "chunks = [data]"):
        "short-read loop: a regular file that changes size between fstat and read",
    ("corpus_io", "_read", "while chunk := os.read(fd, 1 << 16):"):
        "short-read loop: a regular file that changes size between fstat and read",
    ("corpus_io", "_read", "chunks.append(chunk)"):
        "short-read loop: a regular file that changes size between fstat and read",
    ("corpus_io", "_read", 'data = b"".join(chunks)'):
        "short-read loop: a regular file that changes size between fstat and read",
    ("corpus_io", "write_unit_file", "except RecursionError:"):
        "runs in tests/test_codec.py, but the RecursionError can switch tracing off",
    ("corpus_io", "write_unit_file",
     'raise FormatError("cannot write the tree: nested too deeply") from None'):
        "runs in tests/test_codec.py, but the RecursionError can switch tracing off",
    ("cli", "main", None):
        "the console script's entry; the tests call cli.run in process, and "
        "child processes are not traced",
}


def function_lines(path: Path) -> dict[int, str]:
    """Each line of a function's code in the module at ``path``, with the
    qualified name of the innermost function holding it."""
    module = compile(path.read_text(encoding="utf-8"), str(path), "exec")
    owner: dict[int, str] = {}
    stack = [(module, False)]
    while stack:
        code, in_function = stack.pop()
        if in_function:
            name = getattr(code, "co_qualname", code.co_name)
            for _, _, line in code.co_lines():
                if line is not None and line != code.co_firstlineno:
                    owner[line] = name
        stack.extend((const, bool(const.co_flags & inspect.CO_OPTIMIZED))  # a function
                     for const in reversed(code.co_consts)
                     if isinstance(const, types.CodeType))
    return owner


def main() -> int:
    if "ncgkit" in sys.modules:
        raise SystemExit("ncgkit was imported before the tracer was installed")
    files = {str(path): set() for path in sorted(PACKAGE.glob("*.py"))}

    def line_tracer(add):
        def on_line(frame, event, arg):
            if event == "line":
                add(frame.f_lineno)
            return on_line
        return on_line

    tracers = {filename: line_tracer(lines.add) for filename, lines in files.items()}

    def on_call(frame, event, arg):
        filename = frame.f_code.co_filename
        try:
            return tracers[filename]
        except KeyError:  # not seen yet: look it up by its real path
            tracer = tracers[filename] = tracers.get(os.path.realpath(filename))
            return tracer

    sys.path.insert(0, str(PACKAGE.parent))
    sys.settrace(on_call)
    import pytest

    class Retrace:
        @pytest.hookimpl(tryfirst=True)
        def pytest_runtest_setup(self, item):
            sys.settrace(on_call)

        @pytest.hookimpl(tryfirst=True)
        def pytest_runtest_call(self, item):
            sys.settrace(on_call)

    status = pytest.main([str(REPO / "tests"), "-q", "--continue-on-collection-errors",
                          "-p", "no:cacheprovider"], plugins=[Retrace()])
    sys.settrace(None)
    if status != 0:
        return int(status)

    unreached = []
    present = set()  # the allow-list's keys that name a line of the package
    total = 0
    for filename, ran in files.items():
        path = Path(filename)
        source = path.read_text(encoding="utf-8").splitlines()
        owner = function_lines(path)
        total += len(owner)
        for line, function in sorted(owner.items()):
            keys = [(path.stem, function, source[line - 1].strip()), (path.stem, function, None)]
            allowed = [key for key in keys if key in ALLOWED]
            present.update(allowed)
            if line not in ran and not allowed:
                unreached.append(f"{path.relative_to(REPO)}:{line}\t{function}\t{keys[0][2]}")
    print(f"linecov: {total} lines inside src/ncgkit functions, "
          f"{len(unreached)} never ran outside the allow-list")
    for key in ALLOWED.keys() - present:
        print(f"linecov: the allow-list names no line of the package: {key}")
    for entry in unreached:
        print(entry)
    return 1 if unreached or ALLOWED.keys() - present else 0


if __name__ == "__main__":
    sys.exit(main())
