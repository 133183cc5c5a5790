"""Tests for the exception hierarchy contract."""

import pytest

from repro.errors import (
    ClusterError,
    FaultError,
    GraphError,
    InfeasibleScheduleError,
    InstanceError,
    RecoveryError,
    ReproError,
    SchedulingError,
    ServiceError,
    TopologyError,
)


class TestHierarchy:
    @pytest.mark.parametrize(
        "exc",
        [
            GraphError,
            InstanceError,
            InfeasibleScheduleError,
            TopologyError,
            SchedulingError,
            FaultError,
            RecoveryError,
            ServiceError,
            ClusterError,
        ],
    )
    def test_all_derive_from_repro_error(self, exc):
        assert issubclass(exc, ReproError)
        with pytest.raises(ReproError):
            raise exc("boom")

    def test_service_errors_form_a_sub_hierarchy(self):
        # one except ServiceError clause catches every service failure:
        # a bad configuration and a bad call alike
        from repro.network import grid
        from repro.service import SchedulingService, ServiceConfig
        from repro.workloads import PoissonStream, root_rng

        assert issubclass(ServiceError, ReproError)
        with pytest.raises(ServiceError):
            ServiceConfig(window=0)
        stream = PoissonStream(grid(3), w=4, k=2, rate=0.5, rng=root_rng(1))
        with pytest.raises(ServiceError):
            SchedulingService(stream).run()  # unbounded, no window count

    def test_recovery_error_is_a_fault_error(self):
        # callers handling fault-layer failures with one except clause
        # must also catch failed recoveries
        assert issubclass(RecoveryError, FaultError)
        with pytest.raises(FaultError):
            raise RecoveryError("partitioned")

    def test_fault_errors_importable_from_top_level(self):
        import repro

        assert repro.FaultError is FaultError
        assert repro.RecoveryError is RecoveryError

    def test_one_except_clause_catches_library_failures(self):
        from repro.core import Instance, Transaction
        from repro.network import clique

        caught = []
        for bad in (
            lambda: clique(0),
            lambda: Instance(clique(2), [], {}),
            lambda: Transaction(0, 0, []),
        ):
            try:
                bad()
            except ReproError as exc:
                caught.append(type(exc).__name__)
        assert caught == ["GraphError", "InstanceError", "InstanceError"]
