"""The package root and the import graph.

revprod resolves each public name from the `__all__` of the six modules it re-exports, on first use, so that
`import revprod.<module>` loads the revprod modules that module imports and no other.
"""

import importlib
import subprocess
import sys
from pathlib import Path

import pytest

import revprod

REEXPORTED = ("technology", "panel_io", "costmin", "simulate", "estimate", "diagnostics")

# the revprod modules that `import revprod.<module>`, in a fresh interpreter, loads besides the module itself
LOADS = {
    "technology": set(),
    "panel_io": set(),
    "validator": set(),
    "costmin": {"technology"},
    "estimate": {"panel_io", "technology"},
    "simulate": {"costmin", "panel_io", "technology"},
    "diagnostics": {"estimate", "panel_io", "technology"},
    "config": {"estimate", "simulate", "costmin", "panel_io", "technology"},
    "cli": {"config", "diagnostics", "estimate", "simulate", "costmin", "panel_io", "technology"},
}

IMPORT_ONE = "import sys; sys.path.insert(0, sys.argv[1]); import revprod.{}; print(*sys.modules)"


def test_the_import_sets_cover_every_module():
    assert set(LOADS) == {p.stem for p in Path(revprod.__file__).parent.glob("*.py")} - {"__init__"}


@pytest.mark.parametrize("module", LOADS)
def test_importing_a_module_loads_only_what_it_imports(module):
    proc = subprocess.run(
        [sys.executable, "-W", "error", "-c", IMPORT_ONE.format(module), str(Path(revprod.__file__).parents[1])],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    loaded = {name.removeprefix("revprod.") for name in proc.stdout.split() if name.startswith("revprod.")}
    assert loaded == {module, *LOADS[module]}


def test_every_public_name_resolves_from_the_root():
    modules = [importlib.import_module(f"revprod.{m}") for m in REEXPORTED]
    names = [name for module in modules for name in module.__all__]
    assert len(names) == len(set(names))  # each name in one module's __all__, so its source is not ambiguous
    for module in modules:
        for name in module.__all__:
            assert getattr(revprod, name) is getattr(module, name)
    star = {}
    exec("from revprod import *", star)
    del star["__builtins__"]
    assert star.keys() == set(names)
    assert all(star[name] is getattr(revprod, name) for name in names)


def test_an_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="module 'revprod' has no attribute 'no_such_name'"):
        revprod.no_such_name
    with pytest.raises(ImportError, match="no_such_name"):
        exec("from revprod import no_such_name", {})
