"""Print the lines of src/hullforge that no test runs.

coverage.py is not a dependency, so the suite runs in this process under
`sys.settrace`, which follows only frames of the package's files.  A
line is executable when a code object compiled from its file starts a
line there.  The last line is the count.  Tests that run the CLI in a
subprocess are not traced, so `__main__` shows as unreached.  Traced,
the suite takes several minutes instead of half of one.

Run from the repository root; arguments go to pytest:

    PYTHONPATH=src python3 scripts/line_coverage.py -q -x
"""

import sys
import threading
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "hullforge"
REACHED = {str(path): set() for path in sorted(PACKAGE.glob("*.py"))}


def _line(frame, event, arg):
    if event == "line":
        REACHED[frame.f_code.co_filename].add(frame.f_lineno)
    return _line


def _call(frame, event, arg):
    lines = REACHED.get(frame.f_code.co_filename)
    if lines is None:
        return None
    lines.add(frame.f_lineno)
    return _line


def executable(code) -> set:
    lines = {line for _, _, line in code.co_lines() if line}
    for const in code.co_consts:
        if hasattr(const, "co_lines"):
            lines |= executable(const)
    return lines


def main() -> int:
    import pytest
    threading.settrace(_call)
    sys.settrace(_call)
    try:
        status = pytest.main(sys.argv[1:])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    total = 0
    for name, reached in REACHED.items():
        missing = sorted(executable(compile(Path(name).read_text(), name, "exec")) - reached)
        total += len(missing)
        if missing:
            print(f"{Path(name).name}: {' '.join(map(str, missing))}")
    print(f"{total} executable lines reached by no test")
    return int(status)


if __name__ == "__main__":
    sys.exit(main())
