"""Shared fixtures and acceptance-suite reporting."""

from __future__ import annotations

import pytest

from strategy_tuner import (
    BitsVal,
    CostModel,
    IntVal,
    SyntheticAlarm,
    SyntheticProfile,
    default_catalog,
)

_ACCEPTANCE_RESULTS: dict[str, str] = {}


@pytest.fixture(scope="session")
def catalog():
    return default_catalog()


@pytest.fixture(scope="session")
def convergence_profile(catalog):
    """Three eliminable alarms plus two incompressible ones.

    Requirements: slevel >= 104, domains containing octagon+equality,
    auto-loop-unroll >= 16. Costs are benign so analyses never time out.
    """
    req_slevel = catalog.bottom_configuration().replace("slevel", IntVal(104))
    req_domains = catalog.bottom_configuration().replace("domains", BitsVal.from_string("01100"))
    req_unroll = catalog.bottom_configuration().replace("auto-loop-unroll", IntVal(16))
    return SyntheticProfile(
        catalog=catalog,
        alarms=(
            SyntheticAlarm("needs-slevel", req_slevel),
            SyntheticAlarm("needs-domains", req_domains),
            SyntheticAlarm("needs-unroll", req_unroll),
            SyntheticAlarm("incompressible-1", None),
            SyntheticAlarm("incompressible-2", None),
        ),
        cost=CostModel(base_cost=0.05, weights={"slevel": 1e-7}),
    )


def pytest_runtest_logreport(report):
    if report.when != "call":
        return
    if "test_acceptance" not in report.nodeid:
        return
    name = report.nodeid.split("::")[-1]
    _ACCEPTANCE_RESULTS[name] = report.outcome.upper()


def pytest_terminal_summary(terminalreporter):
    if not _ACCEPTANCE_RESULTS:
        return
    terminalreporter.write_sep("-", "acceptance criteria")
    for name in sorted(_ACCEPTANCE_RESULTS):
        outcome = _ACCEPTANCE_RESULTS[name]
        terminalreporter.write_line(f"{outcome:6s} {name}")
