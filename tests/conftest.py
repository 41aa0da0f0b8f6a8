"""Pytest wiring: per-criterion summary lines for the acceptance suite, and
a check that no test leaves a fan-out thread running.

Acceptance tests are named test_criterion_<NN>_<slug>; after the run a
summary block prints one PASS/FAIL/SKIP line per criterion so the gate can
be read off directly.
"""

from __future__ import annotations

import re
import threading

import pytest

_ACCEPTANCE_FILE = "test_acceptance.py"
_CRITERION_RE = re.compile(r"test_criterion_(\d+)_([a-z0-9_]+)")

_STATUS_BY_OUTCOME = {
    "passed": "PASS",
    "failed": "FAIL",
    "error": "FAIL",
    "skipped": "SKIP",
}


@pytest.fixture(autouse=True)
def no_fan_out_thread_outlives_its_test():
    """Every run scope opens the fan-out executor and joins its threads on
    exit, so one still alive after a test is a scope left open."""
    yield
    alive = [thread.name for thread in threading.enumerate() if thread.name.startswith("rerail-fan-out")]
    assert not alive, f"fan-out threads still running after the test: {alive}"


def _criterion_of(nodeid: str):
    if _ACCEPTANCE_FILE not in nodeid:
        return None
    match = _CRITERION_RE.search(nodeid)
    if match is None:
        return None
    return int(match.group(1)), match.group(2).replace("_", " ")


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    results: dict[int, tuple[str, str]] = {}
    for outcome, status in _STATUS_BY_OUTCOME.items():
        for report in terminalreporter.stats.get(outcome, []):
            found = _criterion_of(report.nodeid)
            if found is None:
                continue
            number, title = found
            # setup/teardown errors must not overwrite a call-phase failure
            if number in results and results[number][0] == "FAIL":
                continue
            results[number] = (status, title)
    if not results:
        return
    terminalreporter.write_sep("=", "acceptance criteria")
    for number in sorted(results):
        status, title = results[number]
        terminalreporter.write_line(f"criterion {number:2d}: {status} - {title}")
