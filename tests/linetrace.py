"""Fail the run when a line of src/qthook never runs and gives no reason.

Load with ``python -m pytest -p tests.linetrace`` on the whole suite, which
runs slower under it.  Lines are recorded from configure time on, so
module bodies count too: on Python >= 3.12 by a ``sys.monitoring`` (PEP
669) LINE callback that disables each line once it has run, so every line
costs one call, and before 3.12 by ``sys.settrace``.  A
``# unrun: <reason>`` comment at the end of a statement's first line, or
alone on the line above it, excuses that statement (the whole block when it
opens one).  A reason whose statement ran in full is stale and fails the run
as well.
"""

import ast
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "qthook"
MARK = "# unrun: "
_hits, _report = set(), []


def _lines(code):
    yield from (line for _, _, line in code.co_lines() if line)
    for const in code.co_consts:
        if hasattr(const, "co_lines"):
            yield from _lines(const)


def _record(frame, event, arg):
    if event == "line":
        _hits.add((frame.f_code.co_filename, frame.f_lineno))
    return _record


def _trace(frame, event, arg):
    return _record if frame.f_code.co_filename.startswith(str(SRC)) else None


def _line(code, line):
    if code.co_filename.startswith(str(SRC)):
        _hits.add((code.co_filename, line))
    return sys.monitoring.DISABLE


def pytest_configure(config):
    if hasattr(sys, "monitoring"):
        tool = sys.monitoring.COVERAGE_ID
        sys.monitoring.use_tool_id(tool, "linetrace")
        sys.monitoring.register_callback(tool, sys.monitoring.events.LINE, _line)
        sys.monitoring.set_events(tool, sys.monitoring.events.LINE)
    else:
        sys.settrace(_trace)


def pytest_sessionfinish(session, exitstatus):
    if hasattr(sys, "monitoring"):
        sys.monitoring.set_events(sys.monitoring.COVERAGE_ID, 0)
        sys.monitoring.free_tool_id(sys.monitoring.COVERAGE_ID)
    else:
        sys.settrace(None)
    failures, total = 0, 0
    for path in sorted(SRC.glob("*.py")):
        text = path.read_text()
        lines = set(_lines(compile(text, str(path), "exec")))
        unrun = {n for n in lines if (str(path), n) not in _hits}
        reasons = {}  # statement line -> (reason, the lines it excuses)
        for n, line in enumerate(text.splitlines(), 1):
            if MARK in line:
                n += line.lstrip().startswith("#")
                reasons[n] = (line.split(MARK, 1)[1], set())
        for node in ast.walk(ast.parse(text)):
            if isinstance(node, ast.stmt) and node.lineno in reasons:
                reasons[node.lineno][1].update(
                    lines & set(range(node.lineno, node.end_lineno + 1)))
        missed = set(unrun)
        for n, (reason, block) in sorted(reasons.items()):
            excused = len(block & unrun)
            missed -= block
            failures += not excused
            _report.append(f"{path.name}:{n}: " + (
                f"{excused} unrun: {reason}" if excused else "STALE: it ran"))
        failures += len(missed)
        _report.extend(f"{path.name}:{n}: UNRUN, no reason"
                       for n in sorted(missed))
        total += len(lines)
    _report.insert(0, f"{total} executable lines in src/qthook, {failures} "
                   "unrun without a reason or stale")
    if failures:
        session.exitstatus = 1


def pytest_terminal_summary(terminalreporter):
    terminalreporter.write_sep("-", "linetrace")
    for line in _report:
        terminalreporter.write_line(line)
