"""The package namespace: each public name is listed once, in its module,
and scipy is imported only where it is called."""

import ast
from pathlib import Path

import spinbath
from spinbath import bath, dynamics, errors, iontrap, liouvillian, states

_MODULES = (errors, states, bath, liouvillian, dynamics, iontrap)


def test_package_exports_each_module_list_once():
    """``spinbath.__all__`` is the module lists joined, plus the version; no
    name is public in two modules, and each resolves to its module's object."""
    joined = [name for module in _MODULES for name in module.__all__]
    assert spinbath.__all__ == joined + ["__version__"]
    assert len(set(spinbath.__all__)) == len(spinbath.__all__)
    for module in _MODULES:
        for name in module.__all__:
            assert getattr(spinbath, name) is getattr(module, name), name
    assert isinstance(spinbath.__version__, str)


#: the functions that import scipy, as ``module.function``; each site costs a
#: fresh process the import of its scipy submodule, so adding one is a
#: deliberate change to this list
SCIPY_SITES = {"bath._j0_profile", "bath._principal_value", "dynamics.propagate_ode"}


def _scipy_import_sites(path: Path) -> list:
    """``module.function`` of each scipy import in a source file; an import
    at module scope gives ``module`` alone."""
    sites = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, scope + [child.name])
                continue
            if isinstance(child, ast.Import):
                modules = [alias.name for alias in child.names]
            elif isinstance(child, ast.ImportFrom) and child.level == 0:
                modules = [child.module or ""]
            else:
                modules = []
            if any(module.partition(".")[0] == "scipy" for module in modules):
                sites.append(".".join(scope))
            visit(child, scope)

    visit(ast.parse(path.read_text(encoding="utf-8")), [path.stem])
    return sites


def test_scipy_is_imported_only_at_its_call_sites():
    """No module imports scipy at module scope, and only the quadrature, the
    2D correlation profile and expm stepping import it at all."""
    sources = sorted(Path(spinbath.__file__).parent.glob("*.py"))
    assert len(sources) == len(_MODULES) + 2  # the modules, __init__ and cli
    sites = [site for path in sources for site in _scipy_import_sites(path)]
    assert sorted(sites) == sorted(SCIPY_SITES)


#: the spin-flip primitives behind ``states._signed_concurrence``
SPIN_FLIP_PRIMITIVES = {
    "_spin_flip",
    "_spin_flip_spectrum",
    "_x_even_spin_flip_spectrum",
    "_is_x_even",
    "_signed_from_spin_flip",
}


def _referenced_names(path: Path) -> set:
    """Every name a source file imports, reads or reads as an attribute."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.alias):
            names.add(node.name.rpartition(".")[2])
        elif isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    return names


def test_concurrence_is_owned_by_states():
    """Only ``states`` takes a spin-flip spectrum: every other module reads
    the concurrence through ``_signed_concurrence`` or
    ``wootters_concurrence``, so it takes the same two routes everywhere."""
    sources = sorted(Path(spinbath.__file__).parent.glob("*.py"))
    assert all(callable(getattr(states, name)) for name in SPIN_FLIP_PRIMITIVES)
    outside = {
        path.stem: sorted(SPIN_FLIP_PRIMITIVES & _referenced_names(path))
        for path in sources
        if path.stem != "states"
    }
    assert outside == {path.stem: [] for path in sources if path.stem != "states"}
