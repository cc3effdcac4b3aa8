"""List the lines of `src/qocnn` that no in-process test executes.

Run from the repository root:

    python tests/unreached.py [extra pytest arguments]

It runs pytest over `tests/` and `perfbench/tests` with a line tracer
(`sys.settrace`, and `threading.settrace` for the predict helper threads)
that records only frames whose code lives in `src/qocnn`.  The executable
lines of each module are the line numbers its code objects report through
`co_lines`; every one of them that never ran is printed as
`file:line: source`, followed by a count.  Code run only in a subprocess
(`python -m qocnn ...`) counts as unreached.  Standard library and pytest
only, so it needs no coverage package.  The exit status is pytest's.
"""

from __future__ import annotations

import sys
import threading
from pathlib import Path
from types import CodeType

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "qocnn"


def executable_lines(code: CodeType) -> set[int]:
    """Line numbers of every instruction of `code` and the code nested in it."""
    lines = {line for _, _, line in code.co_lines() if line is not None}
    for const in code.co_consts:
        if isinstance(const, CodeType):
            lines |= executable_lines(const)
    return lines


def run_traced(args: list[str]) -> tuple[int, dict[str, set[int]]]:
    """pytest's exit code and the lines run in each file of the package."""
    prefix = str(PACKAGE) + "/"
    hit: dict[str, set[int]] = {}

    def local(frame, event, arg):
        hit[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def global_(frame, event, arg):
        path = frame.f_code.co_filename
        if not path.startswith(prefix):
            return None
        hit.setdefault(path, set()).add(frame.f_lineno)
        return local

    sys.settrace(global_)
    threading.settrace(global_)
    try:
        code = pytest.main(["-q", "-p", "no:cacheprovider", *args])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return int(code), hit


def main(argv: list[str]) -> int:
    code, hit = run_traced(
        [str(ROOT / "tests"), str(ROOT / "perfbench" / "tests"), *argv]
    )
    missed = 0
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text(encoding="utf-8")
        lines = source.splitlines()
        ran = hit.get(str(path), set())
        for n in sorted(executable_lines(compile(source, str(path), "exec")) - ran):
            if n == 0:  # the module's own RESUME
                continue
            print(f"{path.relative_to(ROOT)}:{n}: {lines[n - 1].strip()}")
            missed += 1
    print(f"{missed} executable lines of src/qocnn never ran")
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
