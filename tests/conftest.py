"""Shared test plumbing: the acceptance-criteria section after the pytest summary.

Tests build their groups with groups.make_group(backend, p), as the CLI
does; its ec curves come from the packaged registry, which test_groups.py
checks against the search that found them.
"""

# one line per acceptance criterion, shown after the test summary
ACCEPTANCE_LINES: list[str] = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)
