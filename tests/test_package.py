import ast
import importlib
from pathlib import Path

import pytest

import cbpopt
from conftest import run_fresh


def test_import_loads_no_submodule():
    script = (
        "import sys\n"
        "import cbpopt\n"
        "print(sorted(m for m in sys.modules if m.startswith('cbpopt')), 'numpy' in sys.modules)\n"
    )
    assert run_fresh(script).strip() == "['cbpopt'] False"


def test_no_submodule_loads_numpy():
    # Every module, sim included, imports numpy only once it computes.
    script = (
        "import importlib, sys\n"
        "import cbpopt\n"
        "for name in [*cbpopt._EXPORTS, 'cli']:\n"
        "    importlib.import_module(f'cbpopt.{name}')\n"
        "from cbpopt import *\n"
        "SimCaps(max_jumps=100, max_pop=10)\n"
        "wilson_interval(3, 10)\n"
        "print(sorted(m[7:] for m in sys.modules if m.startswith('cbpopt.')), 'numpy' in sys.modules)\n"
    )
    modules = sorted([*cbpopt._EXPORTS, "cli"])
    assert run_fresh(script).strip() == f"{modules} False"


def test_each_export_is_its_submodule_object():
    for name in cbpopt.__all__:
        module = importlib.import_module(f"cbpopt.{cbpopt._SUBMODULE[name]}")
        obj = getattr(cbpopt, name)
        assert obj is getattr(module, name), name
        # Functions and classes are exported from the module that defines them.
        assert getattr(obj, "__module__", module.__name__) == module.__name__, name


def test_star_import_and_dir_cover_all():
    namespace: dict = {}
    exec("from cbpopt import *", namespace)
    assert set(cbpopt.__all__) <= namespace.keys()
    assert set(cbpopt.__all__) | {"__version__"} <= set(dir(cbpopt))


def test_submodule_is_an_attribute():
    assert cbpopt.linsys is importlib.import_module("cbpopt.linsys")


@pytest.mark.parametrize("name", ["no_such_name", "embedded_row", "EmbeddedRow"])
def test_unknown_name_is_an_attribute_error(name):
    with pytest.raises(AttributeError, match=name):
        getattr(cbpopt, name)


def test_no_module_imports_another_modules_private_name():
    # Each module's underscore names are its own; what another module needs
    # is public where it is defined.
    package = Path(cbpopt.__file__).parent
    found = []
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if not isinstance(node, ast.ImportFrom):
                continue
            if node.level == 0 and not (node.module or "").startswith("cbpopt"):
                continue
            found += [f"{path.name}: {a.name}" for a in node.names if a.name.startswith("_")]
    assert found == []


def test_policy_contract_is_one_object_everywhere():
    from cbpopt import model, solver

    for name in ("Policy", "default_policy", "validate_policy"):
        assert getattr(cbpopt, name) is getattr(solver, name) is getattr(model, name), name
