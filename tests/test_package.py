"""The package namespace: each public name is listed once, in its module."""

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
