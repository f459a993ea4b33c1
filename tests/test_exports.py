"""The package's public names: every ``__all__`` entry resolves, and the
package root re-exports only names that their modules list in ``__all__``."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import dualprox

MODULES = [
    importlib.import_module(f"dualprox.{info.name}")
    for info in pkgutil.iter_modules(dualprox.__path__)
    if info.name != "__main__"
]


@pytest.mark.parametrize(
    "module", [m for m in MODULES if hasattr(m, "__all__")], ids=lambda m: m.__name__
)
def test_every_all_entry_resolves(module):
    missing = [name for name in module.__all__ if not hasattr(module, name)]
    assert not missing, f"{module.__name__}.__all__ names undefined {missing}"
    assert len(set(module.__all__)) == len(module.__all__), "repeated __all__ entry"


def test_the_package_reexports_only_listed_names():
    tree = ast.parse(Path(dualprox.__file__).read_text())
    imports = [node for node in tree.body if isinstance(node, ast.ImportFrom)]
    assert imports
    for node in imports:
        assert node.level == 1, f"import from {node.module!r} is not relative"
        module = importlib.import_module(f"dualprox.{node.module}")
        unlisted = [a.name for a in node.names if a.name not in module.__all__]
        assert not unlisted, f"dualprox imports {unlisted} from {module.__name__}, not in __all__"
        for alias in node.names:
            assert getattr(dualprox, alias.asname or alias.name) is getattr(module, alias.name)
