"""Unit tests for metrics, stats, and table rendering."""

import numpy as np
import pytest

from repro.analysis import (
    Evaluation,
    Table,
    evaluate,
    geometric_mean,
    summarize,
)
from repro.core import GreedyScheduler
from repro.network import clique
from repro.workloads import random_k_subsets


class TestEvaluate:
    def test_round_trip(self):
        rng = np.random.default_rng(0)
        inst = random_k_subsets(clique(10), w=4, k=2, rng=rng)
        ev = evaluate(GreedyScheduler(), inst, rng)
        assert ev.scheduler == "greedy"
        assert ev.makespan >= ev.lower_bound
        assert ev.ratio >= 1.0
        assert ev.runtime_s >= 0
        assert ev.max_in_flight >= 0

    def test_supplied_lower_bound_used(self):
        rng = np.random.default_rng(1)
        inst = random_k_subsets(clique(8), w=3, k=2, rng=rng)
        ev = evaluate(GreedyScheduler(), inst, rng, lower_bound=2)
        assert ev.lower_bound == 2

    def test_simulate_off_still_measures_comm(self):
        rng = np.random.default_rng(2)
        inst = random_k_subsets(clique(8), w=3, k=2, rng=rng)
        on = evaluate(GreedyScheduler(), inst, rng, simulate=True)
        off = evaluate(GreedyScheduler(), inst, rng, simulate=False)
        assert on.communication_cost == off.communication_cost

    def test_as_dict_shape(self):
        rng = np.random.default_rng(3)
        inst = random_k_subsets(clique(8), w=3, k=2, rng=rng)
        row = evaluate(GreedyScheduler(), inst, rng).as_dict()
        assert set(row) == {
            "scheduler", "makespan", "lower_bound", "ratio",
            "comm_cost", "runtime_s",
        }

    def test_as_row_deprecated_shim(self):
        # the 1.0 alias was removed on its published 1.2.0 schedule
        rng = np.random.default_rng(3)
        inst = random_k_subsets(clique(8), w=3, k=2, rng=rng)
        ev = evaluate(GreedyScheduler(), inst, rng)
        assert not hasattr(ev, "as_row")


class TestStats:
    def test_summary_basic(self):
        s = summarize([1.0, 2.0, 3.0])
        assert s.n == 3
        assert s.mean == pytest.approx(2.0)
        assert s.minimum == 1.0
        assert s.maximum == 3.0
        lo, hi = s.ci95
        assert lo < 2.0 < hi

    def test_singleton_sample(self):
        s = summarize([5.0])
        assert s.std == 0.0
        assert s.ci95_half_width == 0.0
        assert s.fmt().startswith("5.00")

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            summarize([])

    def test_geometric_mean(self):
        assert geometric_mean([1.0, 4.0]) == pytest.approx(2.0)
        with pytest.raises(ValueError):
            geometric_mean([])
        with pytest.raises(ValueError):
            geometric_mean([1.0, 0.0])


class TestTable:
    def make(self):
        t = Table("demo", columns=["a", "b"])
        t.add(a=1, b=2.5)
        t.add(a="x")
        return t

    def test_add_rejects_unknown_column(self):
        t = Table("demo", columns=["a"])
        with pytest.raises(KeyError):
            t.add(z=1)

    def test_render_contains_everything(self):
        t = self.make()
        t.add_note("hello")
        text = t.render()
        assert "demo" in text
        assert "2.500" in text
        assert "note: hello" in text

    def test_column_extraction(self):
        t = self.make()
        assert t.column("a") == [1, "x"]
        assert t.column("b") == [2.5]

    def test_markdown(self):
        md = self.make().to_markdown()
        assert md.splitlines()[0] == "| a | b |"
        assert "| 1 | 2.500 |" in md
