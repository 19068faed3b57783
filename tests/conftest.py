"""Pytest hooks: print a PASS/FAIL line per acceptance criterion after the
run; and the fixture that makes the ladder search every level."""

import pytest

from gracecolor import ap3

_acceptance_reports = []


def pytest_runtest_logreport(report):
    if "test_acceptance" not in report.nodeid:
        return
    if report.when == "call" or (report.when == "setup" and report.skipped):
        _acceptance_reports.append(report)


def pytest_terminal_summary(terminalreporter):
    if not _acceptance_reports:
        return
    terminalreporter.write_sep("-", "acceptance criteria")
    for report in _acceptance_reports:
        name = report.nodeid.split("::")[-1]
        if report.passed:
            status = "PASS"
        elif report.skipped:
            status = "SKIP"
        else:
            status = "FAIL"
        terminalreporter.write_line(f"{status}  {name}")


@pytest.fixture
def searched_ladder(monkeypatch):
    """Build the ladder's certificate map from an empty table, so the climb
    searches every level past L(2), as it does past L(122), instead of
    certifying the table's witnesses where L grows.  check_level still
    holds each level to the L values the table fixes, which are computed
    once, at import."""
    monkeypatch.setattr(ap3, "_CERTIFIED", ap3._certificates({}))
