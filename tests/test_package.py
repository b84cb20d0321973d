"""The package namespace: each public name is listed once, in its module,
scipy is imported only where it is called, only the input checks of
``states`` raise ``InvalidStateError``, ``dynamics`` has one mode sum and
no package route calls its ``expm`` cross-check, ``liouvillian`` has one
generator assembly and one eigenbasis per spectrum record, ``cli`` one
record builder, and every function the benchmark's tracer wraps exists."""

import ast
import importlib.util
from dataclasses import fields
from pathlib import Path

import spinbath
from spinbath import bath, cli, dynamics, errors, iontrap, liouvillian, states

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


def _sites(path: Path, matches) -> list:
    """``module.function`` of each statement of a source file that
    ``matches``; one at module scope gives ``module`` alone."""
    sites = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, scope + [child.name])
                continue
            if matches(child):
                sites.append(".".join(scope))
            visit(child, scope)

    visit(ast.parse(path.read_text(encoding="utf-8")), [path.stem])
    return sites


def _imports_scipy(node) -> bool:
    if isinstance(node, ast.Import):
        modules = [alias.name for alias in node.names]
    elif isinstance(node, ast.ImportFrom) and node.level == 0:
        modules = [node.module or ""]
    else:
        modules = []
    return any(module.partition(".")[0] == "scipy" for module in modules)


def test_scipy_is_imported_only_at_its_call_sites():
    """No module imports scipy at module scope, and only the quadrature, the
    2D correlation profile and expm stepping import it at all."""
    sources = sorted(Path(spinbath.__file__).parent.glob("*.py"))
    assert len(sources) == len(_MODULES) + 2  # the modules, __init__ and cli
    sites = [site for path in sources for site in _sites(path, _imports_scipy)]
    assert sorted(sites) == sorted(SCIPY_SITES)


#: the spin-flip primitives behind ``states._signed_concurrence``
SPIN_FLIP_PRIMITIVES = {
    "_spin_flip",
    "_spin_flip_spectrum",
    "_x_even_parts",
    "_x_even_signed_concurrence",
    "_x_even_spin_flip_roots",
    "_is_x_even",
    "_spin_flip_roots",
    "_signed_from_roots",
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


def _raised_name(node):
    """The exception class a ``raise`` statement names, else ``None``."""
    if not (isinstance(node, ast.Raise) and node.exc is not None):
        return None
    exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
    return exc.attr if isinstance(exc, ast.Attribute) else getattr(exc, "id", None)


def _raises_invalid_state(node) -> bool:
    return _raised_name(node) == "InvalidStateError"


def test_only_input_checks_raise_invalid_state():
    """``InvalidStateError`` is an input check's verdict, so only ``states``
    raises it, and not from the concurrence routine or its spin-flip
    primitives: every path to them starts from a checked state, so dust
    there is a numerical failure."""
    sources = sorted(Path(spinbath.__file__).parent.glob("*.py"))
    raisers = {path.stem: _sites(path, _raises_invalid_state) for path in sources}
    assert {stem for stem, sites in raisers.items() if sites} == {"states"}
    checks = {site.rpartition(".")[2] for site in raisers["states"]}
    assert {"_as_alpha", "_unit_trace_alpha", "_assert_positive"} <= checks
    assert not checks & (SPIN_FLIP_PRIMITIVES | {"_signed_concurrence"})


def _raises_numerical_failure(node) -> bool:
    return _raised_name(node) == "NumericalFailureError"


def _raises_spin_flip_refusal(node) -> bool:
    """A ``raise`` whose exception is worded, plain or formatted, with
    "spin-flip spectrum", as the dust rule's refusal is."""
    return isinstance(node, ast.Raise) and any(
        isinstance(sub, ast.Constant) and "spin-flip spectrum" in str(sub.value)
        for sub in ast.walk(node)
    )


def test_one_dust_rule_refuses_spin_flip_spectra():
    """Only the dust rule, ``states._spin_flip_roots``, raises the
    "spin-flip spectrum has ..." numerical failure, and it judges every
    spin-flip spectrum: the eigensolve's in ``_signed_concurrence`` and the
    complex squares of the even kernel's dusty samples, the only closed-form
    roots it takes.  No other code of ``states`` raises a numerical
    failure, and no module words that refusal anywhere else."""
    source = Path(states.__file__)
    sources = sorted(source.parent.glob("*.py"))
    assert _sites(source, _raises_numerical_failure) == ["states._spin_flip_roots"]
    worded = [site for path in sources for site in _sites(path, _raises_spin_flip_refusal)]
    assert worded == ["states._spin_flip_roots"]
    judged = sorted(_sites(source, _calls({"_spin_flip_roots"})))
    assert judged == ["states._signed_concurrence", "states._x_even_signed_concurrence"]
    rooted = _sites(source, _calls({"_x_even_spin_flip_roots"}))
    assert rooted == ["states._x_even_signed_concurrence"]


def _reads_right(node) -> bool:
    return isinstance(node, ast.Attribute) and node.attr == "right"


def _exponentiates_eigenvalues(node) -> bool:
    """A call of ``exp`` that names ``eigenvalues``."""
    if not isinstance(node, ast.Call):
        return False
    func = node.func
    callee = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
    names = {getattr(sub, "id", getattr(sub, "attr", None)) for sub in ast.walk(node)}
    return callee == "exp" and "eigenvalues" in names


def test_one_mode_sum_behind_the_excited_mode_cut():
    """In ``dynamics`` only the excited-mode selection reads a spectrum
    record's right eigenvectors, and only the mode sum exponentiates
    eigenvalues, so no second mode-sum path can bypass the cut."""
    source = Path(dynamics.__file__)
    assert _sites(source, _reads_right) == ["dynamics._excited_modes"]
    assert _sites(source, _exponentiates_eigenvalues) == ["dynamics._spectral_alphas"]


#: the operator-space steps that build the unit-term matrices at import
COLUMN_ROUTE = {
    "_coherent_term", "_dissipator_images", "_gated", "hamiltonian_matrix", "_rho_to_alpha",
}


def _calls(names):
    """A match for a call of a function, plain or as an attribute, named in
    ``names``."""

    def matches(node) -> bool:
        if not isinstance(node, ast.Call):
            return False
        func = node.func
        return (func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)) in names

    return matches


def test_one_generator_assembly():
    """``build_generator`` weights the unit-term matrices and calls none of
    the operator-space steps, and in ``liouvillian`` only the import-time
    term build calls the gate helper ``_gated``."""
    source = Path(liouvillian.__file__)
    assert "liouvillian.build_generator" not in _sites(source, _calls(COLUMN_ROUTE))
    assert _sites(source, _calls({"_gated"})) == ["liouvillian._term_matrices"]


def test_spectrum_record_keeps_one_basis():
    """A spectrum record keeps its own eigenvectors and no second copy of
    ``eig``'s: its conditioning is read from ``right`` scaled to unit
    columns."""
    names = {field.name for field in fields(liouvillian.SpectrumReport)}
    assert "eig_vectors" not in names
    assert {"right", "left", "kappa", "cond_bound"} <= names


def test_one_cli_builder_of_spectrum_records():
    """One ``cli`` function builds a scenario's generator and labels its
    spectrum, so every scenario reads the same model from the same call."""
    source = Path(cli.__file__)
    builders = _sites(source, _calls({"build_generator"}))
    assert builders == _sites(source, _calls({"classify_spectrum"}))
    assert len(builders) == 1


def test_no_package_route_steps_by_expm():
    """``propagate_ode`` stays public as the cross-check of the mode sum, and
    no package function calls it: ``propagate`` is the one mode sum."""
    assert "propagate_ode" in dynamics.__all__
    for module in (*_MODULES, cli):
        assert _sites(Path(module.__file__), _calls({"propagate_ode"})) == [], module.__name__


def test_bench_tracing_bindings_resolve():
    """Every function the benchmark's span tracer wraps
    (``bench/tracing.py``, ``BINDINGS``) is still an attribute of its
    module, so renaming or deleting one fails here and not only in a traced
    benchmark run; ``dynamics.propagate_ode``, which no package route calls
    any more, is among them."""
    path = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("bench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    missing = [
        f"{module.__name__}.{name}"
        for module, names in tracing.BINDINGS
        for name in names
        if not callable(getattr(module, name, None))
    ]
    assert missing == []
    assert "propagate_ode" in dict(tracing.BINDINGS)[dynamics]
