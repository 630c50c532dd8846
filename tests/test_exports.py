"""Every exported name resolves, the package exports exactly its library modules'
names, and the test-only checkers stay out of the package."""
import importlib

import pytest

import causalscreen

LIBRARY = [
    importlib.import_module(f"causalscreen.{name}")
    for name in ("graphs", "separation", "screening", "hawkes", "experiments", "connectome")
]
MODULES = [causalscreen, *LIBRARY, importlib.import_module("causalscreen.cli")]

# Checkers of the definitions, the query-logging wrapper, the hidden-chain
# search behind parent_graph's old route and the event writer's old
# tuple-sort route, kept in tests/helpers.py rather than the package.
TEST_ONLY = (
    "brute_force_mu_separated",
    "_bf_connecting_targets",
    "walk_is_mu_connecting",
    "directed_trek_exists",
    "_two_disjoint_paths",
    "BRUTE_FORCE_NODE_CAP",
    "LoggingOracle",
    "reference_parent_graph",
    "reference_merged",
    "reference_event_csv",
)


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_every_exported_name_resolves(module):
    assert [name for name in module.__all__ if not hasattr(module, name)] == []
    assert len(set(module.__all__)) == len(module.__all__)


@pytest.mark.parametrize("module", LIBRARY, ids=lambda m: m.__name__)
def test_package_reexports_each_library_name(module):
    assert [name for name in module.__all__
            if getattr(causalscreen, name, None) is not getattr(module, name)] == []


def test_package_exports_the_library_names_and_nothing_else():
    library = {name for module in LIBRARY for name in module.__all__}
    assert set(causalscreen.__all__) == library | {"__version__"}


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_test_only_checkers_are_not_in_the_package(module):
    assert [name for name in TEST_ONLY if hasattr(module, name)] == []
