import pytest
from hypothesis import HealthCheck, settings

settings.register_profile(
    "suite", deadline=None, suppress_health_check=[HealthCheck.too_slow]
)
# More examples for the error-contract fuzz test, run under this profile in CI.
settings.register_profile("fuzz", settings.get_profile("suite"), max_examples=2000)
settings.load_profile("suite")

from causalscreen import DirectedMixedGraph

# Six-node graph used as a worked example across the suite: a 1<->2 cycle,
# node 5 a pure fork feeding 1, 3 and 4.  With DEMO_OBS the hidden nodes
# 1, 2, 5 act as latent mediators and confounders.
DEMO_EDGES = ((0, 1), (1, 2), (2, 1), (1, 3), (3, 2), (3, 4), (5, 1), (5, 3), (5, 4))
DEMO_LABELS = ("a", "b", "g", "d", "e", "f")
DEMO_OBS = (0, 3, 4)


@pytest.fixture
def demo_graph():
    return DirectedMixedGraph(6, DEMO_EDGES, labels=DEMO_LABELS)


@pytest.fixture
def chain3():
    return DirectedMixedGraph(3, [(0, 1), (1, 2)])


def pytest_terminal_summary(terminalreporter):
    import helpers

    if helpers.ACCEPTANCE_VERDICTS:
        terminalreporter.section("acceptance criteria")
        for line in helpers.ACCEPTANCE_VERDICTS:
            terminalreporter.write_line(line)
