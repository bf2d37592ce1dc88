"""Shared pytest wiring.

Every run prints the counted lines of src/twistoric/*.py: lines that are
neither blank nor only a comment, docstrings included.  After a run that
touched the acceptance suite, it also prints one PASS/FAIL line per
criterion so the verdict is readable without scrolling through the full log.
"""

import re
from pathlib import Path

CRITERION = re.compile(r"test_c(\d+)_(\w+)")
PACKAGE = Path(__file__).resolve().parent.parent / "src" / "twistoric"


def pytest_terminal_summary(terminalreporter):
    counted = sum(
        1
        for path in PACKAGE.glob("*.py")
        for line in path.read_text(encoding="utf-8").splitlines()
        if line.strip() and not line.strip().startswith("#")
    )
    terminalreporter.write_line(f"src/twistoric: {counted} counted lines")
    verdicts: dict[int, tuple[str, bool]] = {}
    for outcome in ("passed", "failed", "error"):
        for report in terminalreporter.stats.get(outcome, []):
            if "test_acceptance" not in report.nodeid:
                continue
            match = CRITERION.search(report.nodeid)
            if not match:
                continue
            num = int(match.group(1))
            label = match.group(2).replace("_", " ")
            previous = verdicts.get(num, (label, True))[1]
            verdicts[num] = (label, previous and outcome == "passed")
    if not verdicts:
        return
    terminalreporter.write_sep("-", "acceptance criteria")
    for num in sorted(verdicts):
        label, ok = verdicts[num]
        terminalreporter.write_line(f"criterion {num:2d} ({label}): {'PASS' if ok else 'FAIL'}")
