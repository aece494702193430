"""The package namespace: ``netsync`` re-exports exactly the public names
that its modules declare in ``__all__``."""

import inspect

import netsync
from netsync import coupling, duality, dynamics, errors, gershgorin, graph


def test_package_exports_each_module_all():
    modules = (errors, graph, gershgorin, coupling, duality, dynamics)
    declared = set()
    for module in modules:
        for name in module.__all__:
            assert getattr(netsync, name) is getattr(module, name), name
        declared.update(module.__all__)
    public = {name for name in dir(netsync) if not name.startswith("_")
              and not inspect.ismodule(getattr(netsync, name))}
    assert public == declared
