import pytest
from hypothesis import Phase, settings

from gemkit import ball_gem, order_two_gem
from gemkit.moves import full_contraction, regularize

from corpus import k33_graph, pseudo_shell_graph, shell_gem

# ``pytest --hypothesis-profile=mutants``, which tests/mutants.py runs: a
# failing example is reported as found, neither shrunk nor explained, so
# whether a test fails is the same and only its message differs
settings.register_profile(
    "mutants",
    phases=[p for p in Phase if p not in (Phase.shrink, Phase.explain)])


@pytest.fixture
def s4():
    return order_two_gem(4)


@pytest.fixture
def b4():
    return ball_gem(4)


@pytest.fixture
def k33():
    return k33_graph()


@pytest.fixture
def pseudo_shell():
    return pseudo_shell_graph()


@pytest.fixture
def shell():
    return shell_gem()


@pytest.fixture
def regularized_b4():
    graph, _ = regularize(ball_gem(4), singular_color=0)
    return full_contraction(graph)
