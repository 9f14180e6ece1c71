import importlib

import pytest

import multijames
from multijames import core

MODULES = (
    "multijames",
    "multijames.core",
    "multijames.identities",
    "multijames.ingest",
    "multijames.simulate",
    "multijames.tree",
    "multijames.verify",
)


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    missing = [attr for attr in module.__all__ if not hasattr(module, attr)]
    assert missing == []
    assert len(set(module.__all__)) == len(module.__all__)


def test_package_reexports_exactly_core():
    assert sorted(multijames.__all__) == sorted(core.__all__)
    for attr in multijames.__all__:
        assert getattr(multijames, attr) is getattr(core, attr)
