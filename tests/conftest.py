"""Shared fixtures: one group instance per (order, backend), reused across tests.

Group construction involves a curve search for the EC backend, so instances
are session-scoped. Derived curve parameters are frozen here after being found
once by groups.find_ec_group_params; a guard test in test_groups.py re-derives
them so drift in the search would be caught. Multiplicative subgroups come
from groups.find_mult_subgroup, whose output test_groups.py pins the same way.
"""

import pytest

from dhpbound.groups import find_mult_subgroup, load_toy_curve, make_ec_group, make_zp_additive

# q, A, B, Gx, Gy frozen from find_ec_group_params(p) for the sweep orders
TOY_CURVES = {
    29: (23, 1, 4, 0, 2),
    101: (83, 2, 28, 0, 32),
    1009: (953, 5, 19, 1, 5),
}


def make_backend(kind: str, p: int):
    """Fresh group of prime order p on the requested backend."""
    if kind == "zp":
        return make_zp_additive(p)
    if kind == "mult":
        return find_mult_subgroup(p)
    if kind == "ec":
        if p == 16381:
            return load_toy_curve()
        q, a, b, gx, gy = TOY_CURVES[p]
        return make_ec_group(q, a, b, gx, gy, p)
    raise ValueError(kind)


@pytest.fixture(scope="session")
def groups_101():
    return {kind: make_backend(kind, 101) for kind in ("zp", "mult", "ec")}


@pytest.fixture(scope="session")
def toy_ec_16381():
    return load_toy_curve()


# one line per acceptance criterion, shown after the test summary
ACCEPTANCE_LINES: list[str] = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)
