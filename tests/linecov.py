"""Line coverage of src/twistoric, with the stdlib tracer: a pytest plugin, loaded only on request.

    PYTHONPATH=src:tests python -m pytest -q -p linecov

It traces every frame whose code lies in src/twistoric, in this thread and in the threads started after it loads,
and at the end lists each line of those modules' code objects (their co_lines()) that never ran, as file:line.  A
run that leaves any such line exits 1, even when every test passed.  The tracer slows the suite about threefold.

pytest does not collect this file: its name does not match test_*.py.
"""

from __future__ import annotations

import sys
import threading
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "twistoric"

ran: set[tuple[str, int]] = set()
ours: dict[str, bool] = {}
missing: list[str] = []


def _lines(frame, event, arg):
    ran.add((frame.f_code.co_filename, frame.f_lineno))
    return _lines


def _calls(frame, event, arg):
    name = frame.f_code.co_filename
    if name not in ours:
        ours[name] = Path(name).resolve().parent == PACKAGE
    # the call event stands for a function's def line, which fires no line event of its own
    return _lines(frame, event, arg) if ours[name] else None


def _unrun() -> list[str]:
    """file:line for each line of the package's code objects that never ran, its module compiled under the name it ran as."""
    found = {Path(name).resolve(): name for name in ours if ours[name]}
    unrun = []
    for path in sorted(PACKAGE.glob("*.py")):
        name = found.get(path, str(path))
        codes = [compile(path.read_text(encoding="utf-8"), name, "exec")]
        lines = set()
        while codes:
            code = codes.pop()
            lines.update(line for _, _, line in code.co_lines() if line)
            codes += [c for c in code.co_consts if hasattr(c, "co_lines")]
        unrun += [f"{path.relative_to(PACKAGE.parent.parent)}:{line}" for line in sorted(lines) if (name, line) not in ran]
    return unrun


@pytest.hookimpl(tryfirst=True)
def pytest_configure(config):
    threading.settrace(_calls)
    sys.settrace(_calls)


def pytest_sessionfinish(session):
    sys.settrace(None)
    threading.settrace(None)
    missing[:] = _unrun()
    if missing and session.exitstatus == pytest.ExitCode.OK:
        session.exitstatus = pytest.ExitCode.TESTS_FAILED


def pytest_terminal_summary(terminalreporter):
    terminalreporter.write_sep("-", f"linecov: {len(missing)} lines of src/twistoric never ran")
    for line in missing:
        terminalreporter.write_line(line)
