"""Every exported name resolves, and the test-only checkers stay out of the package."""
import importlib

import pytest

import causalscreen

MODULES = [causalscreen] + [
    importlib.import_module(f"causalscreen.{name}")
    for name in ("graphs", "separation", "screening", "hawkes", "experiments", "connectome", "cli")
]

# Checkers of the definitions, kept in tests/helpers.py rather than the package.
TEST_ONLY = (
    "brute_force_mu_separated",
    "_bf_connecting_targets",
    "walk_is_mu_connecting",
    "directed_trek_exists",
    "_two_disjoint_paths",
    "BRUTE_FORCE_NODE_CAP",
)


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_every_exported_name_resolves(module):
    assert [name for name in module.__all__ if not hasattr(module, name)] == []
    assert len(set(module.__all__)) == len(module.__all__)


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_test_only_checkers_are_not_in_the_package(module):
    assert [name for name in TEST_ONLY if hasattr(module, name)] == []
