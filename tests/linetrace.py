"""An opt-in pytest plugin: which lines of src/arithlab does the suite run?

    PYTHONPATH=src:tests python -m pytest -q -p linetrace

A sys.settrace line tracer records the lines of src/arithlab that run in
the pytest process, from the moment the plugin loads, before any test
imports arithlab.  At the end the run fails if a line of a function or
class body was never reached and PINNED does not list it, or if a pinned
line was reached or is gone; the terminal summary names each such line.
A module's top-level lines run at import and are not gated.  Run it over
the whole suite, as a part of it leaves more lines unreached.  Needs
Python 3.11 or later (it reads instruction positions); the CI step runs
it on 3.11.

A line counts when one of its instructions is not a function's prologue,
which fires no line event.  Code run in a subprocess is not traced.  The
tracer is set again before each test, as a RecursionError inside the
trace function switches tracing off, and UNTRACED tests run without it.
"""

from __future__ import annotations

import dis
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "arithlab"

# (module, function, the line's source text) -> why the suite never runs it
PINNED = {
    **dict.fromkeys([
        ("models.py", "_duality_case",
         'found.append((broken, f"existential duality breaks for x{x} in {b} at {env}"))'),
        ("models.py", "_duality_case", "left ^= broken"),
    ], "duality's two sides are one evaluator's, so no model breaks it (ROADMAP item 6)"),
    ("cli.py", "main", 'return _fail("input is nested too deeply for this command")'):
        "the nested-too-deeply CLI tests reach it, but the RecursionError before it"
        " switches the tracer off",
}

# test function -> why it runs untraced
UNTRACED = {
    "test_rec_evaluates_in_constant_memory":
        "tracemalloc would count the tracer's own allocations",
}

_PROLOGUE = {"RESUME", "RETURN_GENERATOR", "COPY_FREE_VARS", "MAKE_CELL"}
_left: dict = {}  # code object -> its lines not yet reached (empty: not ours)
_report: list[str] = []


def _lines(code) -> set[int]:
    """The lines of code's own instructions that fire a line event."""
    return {ins.positions.lineno for ins in dis.get_instructions(code)
            if ins.opname not in _PROLOGUE and ins.positions.lineno is not None}


def _local(frame, event, arg):
    if event == "line":
        _left[frame.f_code].discard(frame.f_lineno)
    return _local


def _trace(frame, event, arg):
    code = frame.f_code
    left = _left.get(code)
    if left is None:
        ours = code.co_filename.startswith(str(SRC))
        left = _left[code] = _lines(code) if ours else set()
    return _local if left else None  # a code object wholly reached runs untraced


def _bodies(code):
    """The code objects nested in code, at any depth."""
    for const in code.co_consts:
        if hasattr(const, "co_code"):
            yield const
            yield from _bodies(const)


def _unreached() -> dict[tuple[str, str, str], list[int]]:
    """Each unreached line's (module, function, text), with its numbers."""
    reached: dict[str, set[int]] = {}
    for code, left in _left.items():
        if code.co_filename.startswith(str(SRC)):
            reached.setdefault(code.co_filename, set()).update(_lines(code) - left)
    found: dict[tuple[str, str, str], list[int]] = {}
    for path in sorted(SRC.glob("*.py")):
        source = path.read_text()
        text = source.splitlines()
        for code in _bodies(compile(source, str(path), "exec")):
            for line in sorted(_lines(code) - reached.get(str(path), set())):
                key = (path.name, code.co_qualname, text[line - 1].strip())
                found.setdefault(key, []).append(line)
    return found


assert "arithlab" not in sys.modules, "load linetrace before arithlab is imported"
sys.settrace(_trace)


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_protocol(item, nextitem):
    sys.settrace(None if item.originalname in UNTRACED else _trace)
    yield
    sys.settrace(_trace)


def pytest_sessionfinish(session, exitstatus):
    sys.settrace(None)
    unreached = _unreached()
    for (module, function, text), lines in unreached.items():
        if (module, function, text) not in PINNED:
            where = ",".join(map(str, lines))
            _report.append(f"unreached: src/arithlab/{module}:{where} in {function}: {text}")
    for key in PINNED.keys() - unreached.keys():
        _report.append("pinned, but reached or gone: {} in {}: {}".format(*key))
    if _report:
        session.exitstatus = pytest.ExitCode.TESTS_FAILED


def pytest_terminal_summary(terminalreporter):
    terminalreporter.section("linetrace")
    for line in _report:
        terminalreporter.write_line(line)
    terminalreporter.write_line(
        f"{len(_report)} line(s) unreached and not pinned, or pinned and reached or gone;"
        f" {len(PINNED)} pinned")
