import pytest

from drayage import cli, reference


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
