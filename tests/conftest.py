import pytest

from drayage import reference


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
