"""Parallel sweep runner: worker-count parity, merging, serialization."""

from __future__ import annotations

import pytest

from repro.errors import ReproError
from repro.experiments.sweep import SweepReport, run_sweep, sweep_shards
from repro.obs import MemoryRecorder


@pytest.fixture(scope="module")
def serial_report():
    return run_sweep(["e3"], seeds=[1, 2], quick=True, workers=1)


class TestWorkerParity:
    def test_workers_do_not_change_the_report(self, serial_report):
        parallel = run_sweep(["e3"], seeds=[1, 2], quick=True, workers=2)
        assert parallel.parity_key() == serial_report.parity_key()
        # everything except worker count and timings matches exactly
        assert parallel.experiments == serial_report.experiments
        assert parallel.seeds == serial_report.seeds
        assert parallel.quick == serial_report.quick

    def test_cells_in_shard_order(self, serial_report):
        pairs = [(c["experiment"], c["seed"]) for c in serial_report.cells]
        assert pairs == [("e3", 1), ("e3", 2)]

    def test_cell_payload_shape(self, serial_report):
        cell = serial_report.cells[0]
        assert set(cell) == {"experiment", "seed", "table", "metrics"}
        assert cell["table"]["rows"]
        assert set(cell["metrics"]) == {"counters", "gauges", "histograms"}

    def test_profiles_cover_every_cell(self, serial_report):
        assert len(serial_report.profiles) == len(serial_report.cells)
        for prof in serial_report.profiles:
            assert prof["wall_s"] > 0


class TestRecorderMerge:
    def test_parent_recorder_sees_cells_and_child_counters(self):
        rec = MemoryRecorder()
        report = run_sweep(["e3"], seeds=[5], quick=True, workers=1,
                           recorder=rec)
        snap = rec.registry.snapshot()
        assert snap["counters"]["sweep.cells"] == 1
        # child counters are folded into the parent registry
        for name, value in report.cells[0]["metrics"]["counters"].items():
            assert snap["counters"][name] == value
        assert any(p.name == "sweep" for p in rec.phases)


class TestSerialization:
    def test_roundtrip(self, serial_report):
        clone = SweepReport.from_json(serial_report.to_json())
        assert clone == serial_report

    def test_envelope_kind(self, serial_report):
        import json

        doc = json.loads(serial_report.to_json())
        assert doc["kind"] == "sweep"
        assert doc["schema_version"] == 1


class TestValidation:
    def test_unknown_experiment(self):
        with pytest.raises(ReproError, match="unknown experiment"):
            run_sweep(["e99"], seeds=[0])

    def test_empty_experiments(self):
        with pytest.raises(ReproError, match="at least one experiment"):
            run_sweep([], seeds=[0])

    def test_empty_seeds(self):
        with pytest.raises(ReproError, match="at least one seed"):
            run_sweep(["e3"], seeds=[])

    def test_bad_workers(self):
        with pytest.raises(ReproError, match="workers"):
            run_sweep(["e3"], seeds=[0], workers=0)

    def test_shards_are_the_cross_product(self):
        assert sweep_shards(["e1", "e3"], [4, 5], True) == [
            ("e1", 4, True),
            ("e1", 5, True),
            ("e3", 4, True),
            ("e3", 5, True),
        ]
