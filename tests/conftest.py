import pytest

from sfkit import ssm


@pytest.fixture()
def set_cpus(monkeypatch):
    """Set the CPU count that sizes every thread split (ssm.usable_cpus)
    for the rest of the test, whatever this host has."""

    def set_cpus(n):
        monkeypatch.setattr(ssm, "usable_cpus", lambda: n)

    return set_cpus


@pytest.fixture()
def one_cpu(set_cpus):
    """Run every block and scan layer on the calling thread alone."""
    set_cpus(1)
