"""API hygiene: public surface completeness and documentation.

Every name exported through an ``__all__`` must resolve, be importable,
and carry a docstring; every scheduler in the registry must satisfy the
Scheduler contract.  Guards against silent API rot.
"""

import importlib
import inspect

import pytest

SUBMODULES = [
    "repro",
    "repro.network",
    "repro.core",
    "repro.sim",
    "repro.bounds",
    "repro.baselines",
    "repro.workloads",
    "repro.analysis",
    "repro.online",
    "repro.faults",
    "repro.replication",
    "repro.controlflow",
    "repro.io",
    "repro.viz",
    "repro.experiments",
    "repro.obs",
    "repro.service",
    "repro.cluster",
    "repro.staticcheck",
]


@pytest.mark.parametrize("modname", SUBMODULES)
def test_all_exports_resolve_and_are_documented(modname):
    mod = importlib.import_module(modname)
    assert mod.__doc__, f"{modname} needs a module docstring"
    exported = getattr(mod, "__all__", [])
    assert exported, f"{modname} should declare __all__"
    for name in exported:
        obj = getattr(mod, name)  # raises if the export dangles
        if inspect.ismodule(obj):
            assert obj.__doc__, f"{modname}.{name} (module) lacks a docstring"
        elif inspect.isclass(obj) or inspect.isfunction(obj):
            assert obj.__doc__, f"{modname}.{name} lacks a docstring"


def test_registry_schedulers_satisfy_contract():
    import numpy as np

    from repro.core import available_schedulers, get_scheduler
    from repro.core.scheduler import Scheduler
    from repro.network import clique
    from repro.workloads import random_k_subsets

    inst = random_k_subsets(clique(6), 3, 2, np.random.default_rng(0))
    for name in available_schedulers():
        sched = get_scheduler(name)
        assert isinstance(sched, Scheduler)
        assert sched.name == name
        # topology-specific schedulers may reject the clique; everything
        # else must produce a feasible schedule
        try:
            s = sched.schedule(inst, np.random.default_rng(1))
        except Exception as exc:  # noqa: BLE001 - topology mismatch only
            from repro.errors import TopologyError

            assert isinstance(exc, TopologyError), (name, exc)
            continue
        s.validate()


def test_version_is_consistent():
    import repro

    assert repro.__version__ == "1.2.0"
    import pathlib

    # repro/__init__.py -> src/repro -> src -> repo root
    pyproject = pathlib.Path(repro.__file__).parents[2] / "pyproject.toml"
    assert pyproject.exists(), pyproject
    assert 'version = "1.2.0"' in pyproject.read_text()
