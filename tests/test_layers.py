"""The package's layers, read from the source with ast (nothing is imported):
geometry is the base the others build on, each module loads only the layers
below it, and no module reaches into another's private names."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "orthosfm"
MODULES = sorted(path.stem for path in PACKAGE.glob("*.py"))

# the package modules each module may import as it loads; a command or a
# function imports the rest when it runs (two_frame, scene_sim: no solvers)
LOAD_TIME = {
    "__init__": set(),
    "errors": set(),
    "geometry": {"errors"},
    "solvers": {"errors", "geometry"},
    "two_frame": {"errors", "geometry"},
    "scene_sim": {"errors", "geometry"},
    "io_files": {"errors", "geometry"},
    "cli": {"errors", "geometry"},
}


def parse(module):
    return ast.parse((PACKAGE / f"{module}.py").read_text(encoding="utf-8"))


def private(name):
    return name.startswith("_") and not name.startswith("__")


def package_imports(node):
    """(package module, name, bound name) per import one statement makes:
    name None for a module itself (`from . import x as y` binds y to x),
    else a name taken from the module (`from .x import a` binds a)."""
    if isinstance(node, ast.Import):
        return [(alias.name.split(".")[1], None, alias.asname) for alias in node.names
                if alias.name.startswith("orthosfm.")]
    if not isinstance(node, ast.ImportFrom):
        return []
    module = node.module
    if node.level == 0:
        if module != "orthosfm" and not (module or "").startswith("orthosfm."):
            return []
        module = module.partition(".")[2] or None
    if module is None:
        return [(alias.name, None, alias.asname or alias.name) for alias in node.names]
    return [(module, alias.name, alias.asname or alias.name) for alias in node.names]


def load_time_imports(module):
    """The package modules that module's top-level statements import; an
    import under `if TYPE_CHECKING:` is not one, as it never runs."""
    return {source for node in parse(module).body for source, _, _ in package_imports(node)}


def private_reaches(module):
    """Every private name module imports from, or reads off, another package
    module, as "module.name"."""
    nodes = list(ast.walk(parse(module)))
    imports = [item for node in nodes for item in package_imports(node)]
    found = [f"{source}.{name}" for source, name, _ in imports if name and private(name)]
    modules = {bound: source for source, name, bound in imports if name is None and bound}
    found += [f"{modules[node.value.id]}.{node.attr}" for node in nodes
              if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
              and node.value.id in modules and private(node.attr)]
    return found


def test_every_module_has_a_layer():
    assert set(MODULES) == set(LOAD_TIME)


@pytest.mark.parametrize("module", MODULES)
def test_loads_only_the_layers_below_it(module):
    assert load_time_imports(module) <= LOAD_TIME[module]


@pytest.mark.parametrize("module", MODULES)
def test_no_private_name_crosses_a_module(module):
    assert private_reaches(module) == []


def test_the_reader_sees_every_import():
    # cli imports each layer it runs inside the command that runs it
    every = {source for node in ast.walk(parse("cli")) for source, _, _ in package_imports(node)}
    assert every == {"errors", "geometry", "io_files", "scene_sim", "solvers", "two_frame"}
    assert load_time_imports("cli") == {"errors", "geometry"}
    assert load_time_imports("io_files") == {"errors", "geometry"}
    node = ast.parse("from .two_frame import _x, y\nimport orthosfm.solvers\n"
                     "from orthosfm import two_frame as tf\n")
    assert [package_imports(stmt) for stmt in node.body] == [
        [("two_frame", "_x", "_x"), ("two_frame", "y", "y")], [("solvers", None, None)],
        [("two_frame", None, "tf")]]
