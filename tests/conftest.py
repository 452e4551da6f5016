import pytest

from posthopf.classifier import classify
from posthopf.ffenum import EnumerationTask, enumerate_structures


@pytest.fixture(scope="session")
def relaxed_result():
    return classify("relaxed", "generator32")


@pytest.fixture(scope="session")
def weak_result():
    return classify("weak", "generator32")


@pytest.fixture(scope="session")
def full64_result():
    return classify("relaxed", "full64")


@pytest.fixture(scope="session")
def weak_full64_result():
    return classify("weak", "full64")


@pytest.fixture(scope="session")
def enum_p3():
    return enumerate_structures(EnumerationTask(prime=3, mode="relaxed"))


@pytest.fixture(scope="session")
def enum_p5():
    return enumerate_structures(EnumerationTask(prime=5, mode="relaxed"))


@pytest.fixture(scope="session")
def enum_p5_weak():
    return enumerate_structures(EnumerationTask(prime=5, mode="weak"))
