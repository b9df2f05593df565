from pathlib import Path

import pytest

from drayage import cli, reference

CRITERION_9 = "test_criterion_9_invariant_suites"
PROPERTIES = "test_properties.py"
_property_outcomes = {}  # property test name -> its outcome in this session


def pytest_collection_modifyitems(items):
    """Criterion 9 reads the property tests' outcomes in this session, so it
    runs after them: last."""
    last = [item for item in items if item.name == CRITERION_9]
    items[:] = [item for item in items if item.name != CRITERION_9] + last


def pytest_runtest_logreport(report):
    """Record each property test's outcome: failed if any phase failed or
    errored, else its call's (passed or skipped)."""
    path, _, name = report.nodeid.partition("::")
    if Path(path).name == PROPERTIES and _property_outcomes.get(name) != "failed":
        if report.when == "call" or not report.passed:
            _property_outcomes[name] = report.outcome


@pytest.fixture(scope="session")
def property_outcomes():
    """The outcomes pytest_runtest_logreport recorded, by test name."""
    return _property_outcomes


@pytest.fixture(scope="session")
def capacity_instance():
    return reference.example_instance("capacity")


@pytest.fixture(scope="session")
def policy_instance():
    return reference.example_instance("policy")


@pytest.fixture(scope="session")
def demo_scenario(capacity_instance):
    return reference.example_scenario(capacity_instance)


@pytest.fixture(scope="session")
def baseline_plan():
    return reference.baseline_plan()


@pytest.fixture(scope="session")
def tuned_plan():
    return reference.tuned_plan()


@pytest.fixture(scope="session")
def reservation_rates(capacity_instance):
    return {s.id: s.reservation_rate for s in capacity_instance.sources}


@pytest.fixture()
def example_dir(tmp_path):
    """Bundled example instance plus scenario and both reference plans."""
    out = tmp_path / "inst.json"
    assert cli.main(["gen-instance", "--seed", "0", "--example", "capacity",
                     "--out", str(out)]) == 0
    return tmp_path
