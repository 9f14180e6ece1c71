import ast
import importlib
from pathlib import Path

import pytest

import multijames
from multijames import cli, core, identities

ROOT = Path(__file__).resolve().parents[1]

MODULES = (
    "multijames",
    "multijames.core",
    "multijames.identities",
    "multijames.ingest",
    "multijames.simulate",
    "multijames.tree",
    "multijames.verify",
)

# Exported for their callers though nothing here names them: the result types
# that simulate, verify and ingest return, and the check callers run on
# partition blocks before p_n_partitioned.
USED_BY_CALLERS_ONLY = {"SimResult", "CheckReport", "Standings", "validate_partition"}


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


def _identifiers(path: Path) -> set[str]:
    """Every name, attribute and imported name that the file's code mentions."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name)
    return names


@pytest.mark.parametrize("name", MODULES[1:])
def test_every_export_is_used_outside_tests(name):
    # A public name counts as behaviour only while the program or its
    # benchmark uses it; the package's re-exports and tests do not count.
    module = importlib.import_module(name)
    own = Path(module.__file__).resolve()
    sources = [
        path
        for path in (*(ROOT / "src" / "multijames").glob("*.py"), *(ROOT / "perfbench").glob("*.py"))
        if path.resolve() != own and path.name != "__init__.py" and not path.name.startswith("test_")
    ]
    used = set().union(*map(_identifiers, sources))
    unused = [
        attr
        for attr in module.__all__
        if attr not in used
        and attr not in USED_BY_CALLERS_ONLY
        and not attr.isupper()
        and not (isinstance(getattr(module, attr), type) and issubclass(getattr(module, attr), Exception))
    ]
    assert unused == []


def test_cli_runs_the_identities_table():
    assert cli.METHODS is identities.METHODS


def test_cli_imports_no_private_name():
    # How an evaluator stores its odds stays inside identities: the CLI runs its table.
    private = [
        alias.name
        for node in ast.walk(ast.parse(Path(cli.__file__).read_text(encoding="utf-8")))
        if isinstance(node, ast.ImportFrom) and (node.level or node.module.startswith("multijames"))
        for alias in node.names
        if alias.name.startswith("_") and not alias.name.endswith("__")
    ]
    assert private == []
