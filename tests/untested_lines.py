"""Print the lines of src/mzq that no test runs.

    PYTHONPATH=src python tests/untested_lines.py [pytest arguments]

Runs pytest over tests/ in this process under a sys.settrace tracer that
follows only code in src/mzq, then prints each executable line (one that
starts a bytecode line) that never ran, as path:line and its text. The
tracer cannot see a forked child or a subprocess, so the lines that run only
there are printed too, marked as such: the child branch of
cli._in_two_processes, cli's back_half, and main() past its argv guard.
Exits with pytest's code if pytest fails, else 1 if any line that no test
ran is not so marked, else 0. Every test is derandomized, so a full run
gives the same lines every time. pytest does not collect this file.
"""
from __future__ import annotations

import ast
import dis
import sys
import threading
from pathlib import Path
from types import CodeType

import pytest

TESTS = Path(__file__).resolve().parent
PACKAGE = TESTS.parent / "src" / "mzq"


def executable_lines(code) -> set[int]:
    lines = {line for _, line in dis.findlinestarts(code) if line}
    for const in code.co_consts:
        if isinstance(const, CodeType):
            lines |= executable_lines(const)
    return lines


def lines_run_elsewhere(tree: ast.Module) -> dict[int, str]:
    """cli's lines that only a forked child or a subprocess runs, each with that note."""
    notes = {}

    def mark(statements, note):
        notes.update(dict.fromkeys(range(statements[0].lineno, statements[-1].end_lineno + 1),
                                   note))

    for node in ast.walk(tree):
        if isinstance(node, ast.FunctionDef) and node.name == "back_half":
            mark(node.body, "forked child")
        elif isinstance(node, ast.If) and ast.unparse(node.test) == "pid == 0":
            mark(node.body, "forked child")
        elif isinstance(node, ast.If) and ast.unparse(node.test) == "__name__ == '__main__'":
            mark(node.body, "subprocess")
        elif isinstance(node, ast.FunctionDef) and node.name == "main":
            guard = next(i for i, s in enumerate(node.body)
                         if isinstance(s, ast.If) and ast.unparse(s.test) == "argv is not None")
            mark(node.body[guard + 1:], "subprocess")
    return notes


def main() -> int:
    ran: dict[str, set[int]] = {}
    followed: dict[str, set[int] | None] = {}  # co_filename -> its set in ran, or None

    def local(frame, event, arg):
        if event == "line":
            followed[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def tracer(frame, event, arg):
        name = frame.f_code.co_filename
        if name not in followed:
            path = Path(name).resolve()
            followed[name] = ran.setdefault(str(path), set()) if path.parent == PACKAGE else None
        if followed[name] is None:
            return None
        followed[name].add(frame.f_lineno)  # a call starts on the code's first line
        return local

    threading.settrace(tracer)
    sys.settrace(tracer)
    try:
        code = pytest.main([str(TESTS), *sys.argv[1:]])
    finally:
        sys.settrace(None)
        threading.settrace(None)

    total = missed = elsewhere = 0
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text()
        text = source.splitlines()
        notes = lines_run_elsewhere(ast.parse(source)) if path.name == "cli.py" else {}
        lines = executable_lines(compile(source, str(path), "exec"))
        total += len(lines)
        for line in sorted(lines - ran.get(str(path), set())):
            note = f"  [{notes[line]}]" if line in notes else ""
            print(f"src/mzq/{path.name}:{line}: {text[line - 1].strip()}{note}")
            missed += 1
            elsewhere += line in notes
    print(f"{missed} of {total} executable lines in src/mzq ran in no test; "
          f"{elsewhere} of them run only in a forked child or a subprocess")
    return int(code) or int(missed > elsewhere)


if __name__ == "__main__":
    sys.exit(main())
