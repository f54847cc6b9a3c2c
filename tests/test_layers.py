"""The package imports in one direction: each module only from the modules before it."""

import ast
from pathlib import Path

import pytest

import kljnsim

ORDER = ("errors", "noise", "circuit", "schemes", "protocol", "attack", "benchmarks", "cli")
EXEMPT = ("__init__", "__main__")
PACKAGE = Path(kljnsim.__file__).parent


def package_imports(path: Path) -> set:
    """The package modules that the source at ``path`` imports, wherever the import stands.

    ``ast.walk`` visits module level, function bodies and ``if TYPE_CHECKING``
    blocks alike.  ``from . import x`` and ``from .x import y`` both import
    module ``x``, as do their absolute forms.
    """
    found = set()
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            dotted = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            base = ".".join(filter(None, ["kljnsim" if node.level else None, node.module]))
            dotted = [f"{base}.{alias.name}" for alias in node.names]
        else:
            continue
        for name in dotted:
            parts = name.split(".")
            if parts[0] == "kljnsim" and len(parts) > 1 and parts[1] in ORDER:
                found.add(parts[1])
    return found


def test_every_module_has_a_place_in_the_order():
    modules = {path.stem for path in PACKAGE.glob("*.py")}
    assert modules == set(ORDER) | set(EXEMPT)


@pytest.mark.parametrize("module", ORDER)
def test_module_imports_only_earlier_modules(module):
    imported = package_imports(PACKAGE / f"{module}.py")
    later = sorted(imported - set(ORDER[: ORDER.index(module)]), key=ORDER.index)
    assert not later, f"{module} imports {later}, which come at or after it in {ORDER}"


@pytest.mark.parametrize("source, expected", [
    ("from . import protocol", {"protocol"}),
    ("from .circuit import solve_wire", {"circuit"}),
    ("from . import __version__", set()),
    ("import kljnsim.noise", {"noise"}),
    ("from kljnsim import attack", {"attack"}),
    ("from kljnsim.cli import main", {"cli"}),
    ("import numpy as np\nfrom scipy import signal", set()),
    ("def f():\n    from .attack import calibrate\n", {"attack"}),
    ("if TYPE_CHECKING:\n    from .protocol import Sampling\n", {"protocol"}),
])
def test_package_imports_finds_every_form(tmp_path, source, expected):
    path = tmp_path / "module.py"
    path.write_text(source)
    assert package_imports(path) == expected
