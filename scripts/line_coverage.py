#!/usr/bin/env python3
"""Run Tier-1 in-process under a line trace and fail on any unrun line of src/.

Usage: python scripts/line_coverage.py [PYTEST_ARGS...]

It needs only the standard library and the test dependencies, and it
changes to the repository root itself.  It installs a
``sys.settrace`` hook, then runs
``pytest -q --continue-on-collection-errors`` (plus any arguments given)
in this process, so every module of ``src/copseudo`` is imported and run
under the trace.  A line counts as run when the trace sees a ``line`` or
a ``call`` event on it.  The lines that can run are the line starts of
each module's compiled code objects (``dis.findlinestarts``).  Code that
runs only in child processes, such as ``python -m copseudo.cli``, is not
seen.

``ALLOWED`` excuses lines by file and stripped source text, each with its
reason.  Every unrun line that is not excused is printed as
``path:line: source``.

Exits 0 when every line ran, 1 when some line did not, and pytest's own
code when the tests fail.
"""
from __future__ import annotations

import dis
import os
import sys
import threading

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = os.path.join(ROOT, "src", "copseudo")

# (file name in src/copseudo, stripped source line) -> why it never runs
ALLOWED = {
    ("cli.py", "sys.exit(main())"):
        "runs only when cli.py is the __main__ module, which happens in "
        "child processes the trace does not follow",
}


def runnable_lines(path: str) -> set:
    """The line numbers of ``path`` that start a run of bytecode."""
    with open(path, encoding="utf-8") as fh:
        code = compile(fh.read(), path, "exec")
    lines, todo = set(), [code]
    while todo:
        co = todo.pop()
        lines.update(line for _, line in dis.findlinestarts(co) if line)
        todo += [c for c in co.co_consts if hasattr(c, "co_code")]
    return lines


def main(argv) -> int:
    seen: dict = {}

    def local(frame, event, arg):
        if event == "line":
            seen[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def tracer(frame, event, arg):
        path = frame.f_code.co_filename
        if not path.startswith(PACKAGE):
            return None
        seen.setdefault(path, set()).add(frame.f_lineno)
        return local

    sys.path.insert(0, os.path.join(ROOT, "src"))
    os.chdir(ROOT)
    import pytest

    threading.settrace(tracer)
    sys.settrace(tracer)
    try:
        code = pytest.main(["-q", "--continue-on-collection-errors", *argv])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    if code != 0:
        print(f"line coverage: pytest exited {code}; no verdict",
              file=sys.stderr)
        return int(code)

    unrun, total, excused = [], 0, 0
    for name in sorted(os.listdir(PACKAGE)):
        if not name.endswith(".py"):
            continue
        path = os.path.join(PACKAGE, name)
        with open(path, encoding="utf-8") as fh:
            source = fh.read().split("\n")
        lines = runnable_lines(path)
        total += len(lines)
        for line in sorted(lines - seen.get(path, set())):
            text = source[line - 1].strip()
            if (name, text) in ALLOWED:
                excused += 1
            else:
                unrun.append(f"src/copseudo/{name}:{line}: {text}")
    for entry in unrun:
        print(entry)
    print(f"line coverage: {total - len(unrun) - excused} of {total} lines "
          f"of src/ ran, {excused} excused, {len(unrun)} not run")
    return 1 if unrun else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
