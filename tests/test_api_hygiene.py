"""API hygiene: public surface completeness and documentation.

Every name exported through an ``__all__`` must resolve, be importable,
and carry a docstring; every scheduler in the table must satisfy the
Scheduler contract on every topology family.  Guards against silent API rot.
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
    """Every (family, scheduler) pair either rejects the family or certifies.

    Loops every SCHEDULER_INFO row over every TOPOLOGY_INFO family (one
    sample network each, three seeds): the scheduler raises TopologyError
    or its schedule certifies, and a family's own default_algo never
    raises.  A greedy-family session reproduces the batch schedule, and
    rejects exactly the pairs the batch path rejects.
    """
    import numpy as np

    from test_network_registry import SAMPLE_PARAMS

    from repro.core import GREEDY_FAMILY, SCHEDULER_INFO, open_session
    from repro.core.scheduler import Scheduler
    from repro.errors import TopologyError
    from repro.network import TOPOLOGY_INFO, make_network
    from repro.staticcheck import certify_schedule
    from repro.workloads import random_k_subsets

    assert set(SAMPLE_PARAMS) == set(TOPOLOGY_INFO)
    for family, params in SAMPLE_PARAMS.items():
        net = make_network(family, **params)
        for name, row in SCHEDULER_INFO.items():
            sched = row.factory()
            assert isinstance(sched, Scheduler)
            assert sched.name == name
            for seed in range(3):
                inst = random_k_subsets(
                    net, max(2, net.n // 2), 2, np.random.default_rng(seed)
                )
                case = (family, name, seed)
                try:
                    batch = sched.schedule(inst, np.random.default_rng(seed))
                except TopologyError:
                    assert name != TOPOLOGY_INFO[family].default_algo, case
                    if name in GREEDY_FAMILY:
                        with pytest.raises(TopologyError):
                            open_session(net, algo=name)
                    continue
                assert certify_schedule(batch, strict=False).ok, case
                if name not in GREEDY_FAMILY:
                    continue
                sess = open_session(
                    net, algo=name, object_homes=dict(inst.object_homes)
                )
                sess.submit(inst.transactions)
                live = sess.current_schedule()
                assert live.commit_times == batch.commit_times, case
                assert certify_schedule(live, strict=False).ok, case


def test_version_is_consistent():
    import repro

    assert repro.__version__ == "1.2.0"
    import pathlib

    # repro/__init__.py -> src/repro -> src -> repo root
    pyproject = pathlib.Path(repro.__file__).parents[2] / "pyproject.toml"
    assert pyproject.exists(), pyproject
    assert 'version = "1.2.0"' in pyproject.read_text()
