"""The arrival streams' own draws equal numpy's (``tests/stream_oracle.py``).

:mod:`repro.workloads.streams` draws homes, nodes and object sets with
numpy's own bounded-integer and ``choice`` algorithms, run on the bit
generator's ``next_uint32``.  These tests pin that draw against the
installed numpy: values, object order and the generator's state after
every draw.  A numpy release that changes ``integers`` or ``choice``
fails them by name.
"""

from __future__ import annotations

import copy
import json
import pickle

import numpy as np
import pytest

import stream_oracle
from repro.cluster import ShardedStream, StreamSpec
from repro.network import grid, network_from_sizes, shard_cluster
from repro.workloads import spawn
from repro.workloads.streams import (
    AdversarialStream,
    MMPPStream,
    PoissonStream,
    bounded,
)

BIT_GENERATORS = (np.random.PCG64, np.random.MT19937, np.random.Philox,
                  np.random.SFC64)


def _state(rng: np.random.Generator) -> str:
    """A bit generator's state as comparable text (MT19937 holds arrays)."""
    return json.dumps(rng.bit_generator.state, sort_keys=True,
                      default=lambda a: a.tolist())


def _rows(arrivals):
    return [(tt.release, tt.txn.tid, tt.txn.node, tt.txn.objects)
            for tt in arrivals]


def _pair(kind, net, w, k, limit, seed=3):
    """The stream of ``kind`` and its oracle twin, on equal generators."""
    classes = {
        "poisson": (PoissonStream, stream_oracle.OraclePoissonStream,
                    dict(rate=0.9)),
        "mmpp": (MMPPStream, stream_oracle.OracleMMPPStream,
                 dict(rate_low=0.25, rate_high=2.5, switch=0.2)),
        "adversarial": (AdversarialStream,
                        stream_oracle.OracleAdversarialStream,
                        dict(rho=0.5, burst=3)),
    }
    cls, oracle, params = classes[kind]
    return tuple(
        make(net, w=w, k=k, rng=spawn(seed, "parity", kind), limit=limit,
             **params)
        for make in (cls, oracle)
    )


class TestBoundedDraw:
    @pytest.mark.parametrize("bitgen", BIT_GENERATORS,
                             ids=lambda b: b.__name__)
    @pytest.mark.parametrize(
        "n", [1, 2, 3, 576, 2047, 2048, 3 * 2**30, 2**31 + 1])
    def test_equals_integers(self, bitgen, n):
        ours = np.random.Generator(bitgen(17))
        theirs = np.random.Generator(bitgen(17))
        got = [bounded(ours.bit_generator.ctypes, n) for _ in range(200)]
        assert got == [int(theirs.integers(n)) for _ in range(200)]
        assert _state(ours) == _state(theirs)
        assert ours.random(4).tolist() == theirs.random(4).tolist()


class TestDrawObjects:
    @pytest.mark.parametrize("w,k", [
        (1, 1), (2, 2), (3, 3), (16, 1), (2048, 2), (300, 7),
        # numpy's partial-shuffle branch: w > 10000 and k > w // 50
        (10001, 201), (20000, 1000),
    ])
    def test_equals_choice_in_order(self, w, k):
        stream = PoissonStream(grid(3), w=w, k=k, rate=1.0,
                               rng=spawn(5, "choice", w, k))
        numpy_rng = copy.deepcopy(stream._rng)
        for _ in range(5):
            expected = tuple(
                int(o) for o in numpy_rng.choice(w, k, replace=False))
            assert stream._draw_objects() == expected
        assert _state(stream._rng) == _state(numpy_rng)

    @pytest.mark.parametrize("bitgen", BIT_GENERATORS,
                             ids=lambda b: b.__name__)
    def test_homes_and_arrivals_on_every_bit_generator(self, bitgen):
        net = grid(4)
        ours = PoissonStream(net, w=30, k=3, rate=1.5,
                             rng=np.random.Generator(bitgen(23)))
        theirs = stream_oracle.OraclePoissonStream(
            net, w=30, k=3, rate=1.5, rng=np.random.Generator(bitgen(23)))
        assert ours.object_homes == theirs.object_homes
        assert _rows(ours.window(0, 40)) == _rows(theirs.window(0, 40))
        assert _state(ours._rng) == _state(theirs._rng)
        assert ours._rng.random(4).tolist() == theirs._rng.random(4).tolist()


@pytest.mark.parametrize("kind", ["poisson", "mmpp", "adversarial"])
class TestStreamParity:
    @pytest.mark.parametrize("net", [grid(3), network_from_sizes(
        "line", 7, None), network_from_sizes("clique", 6, None)],
        ids=["grid3", "line7", "clique6"])
    @pytest.mark.parametrize("k", [1, 2, 4])
    @pytest.mark.parametrize("limit", [None, 45])
    def test_ragged_windows_equal_the_oracle(self, kind, net, k, limit):
        ours, theirs = _pair(kind, net, w=20, k=k, limit=limit)
        assert ours.object_homes == theirs.object_homes
        for start, end in [(0, 3), (3, 4), (4, 4), (4, 21), (21, 80)]:
            assert _rows(ours.window(start, end)) == _rows(
                theirs.window(start, end))
            assert ours.state_dict() == theirs.state_dict()
        assert ours.released == theirs.released
        assert ours.exhausted == theirs.exhausted

    def test_restored_midway_equals_the_oracle(self, kind):
        net = grid(4)
        ours, theirs = _pair(kind, net, w=24, k=3, limit=None)
        ours.window(0, 30)
        theirs.window(0, 30)
        restored, _ = _pair(kind, net, w=24, k=3, limit=None)
        restored.load_state(theirs.state_dict())
        expected = _rows(theirs.window(30, 90))
        assert _rows(restored.window(30, 90)) == expected
        assert _rows(ours.window(30, 90)) == expected
        assert restored.state_dict() == theirs.state_dict()

    def test_one_window_equals_its_halves_and_prefixes_take(self, kind):
        net = grid(4)
        whole, _ = _pair(kind, net, w=24, k=2, limit=None)
        halves, _ = _pair(kind, net, w=24, k=2, limit=None)
        taken, _ = _pair(kind, net, w=24, k=2, limit=None)
        rows = _rows(whole.window(0, 512))
        assert rows == _rows(halves.window(0, 256)) + _rows(
            halves.window(256, 512))
        assert whole.state_dict() == halves.state_dict()
        assert _rows(taken.take(len(rows) + 5))[:len(rows)] == rows

    @pytest.mark.parametrize("clone", [
        copy.deepcopy, lambda s: pickle.loads(pickle.dumps(s))],
        ids=["deepcopy", "pickle"])
    def test_copies_continue_identically_and_independently(
            self, kind, clone):
        stream, _ = _pair(kind, grid(4), w=24, k=3, limit=None)
        stream.window(0, 20)
        twin = clone(stream)
        ahead = _rows(twin.window(20, 60))
        assert stream.state_dict()["clock"] == 20  # the copy moved alone
        assert _rows(stream.window(20, 60)) == ahead
        assert stream.state_dict() == twin.state_dict()


class TestShardParity:
    @pytest.mark.parametrize("assign,net", [
        ("tid", grid(4)), ("shard", shard_cluster(3, 4))])
    @pytest.mark.parametrize("kind", ["poisson", "mmpp", "adversarial"])
    def test_shards_partition_and_equal_the_oracle(self, assign, net, kind):
        spec = StreamSpec(kind=kind, w=24, k=3, rate=0.8, seed=5,
                          assign=assign)
        base = _rows(stream_oracle.build(spec, net).window(0, 90))
        owned = []
        for shard in (0, 1):
            ours = ShardedStream(spec.build(net), 2, shard, assign=assign)
            theirs = stream_oracle.OracleShardedStream(
                stream_oracle.build(spec, net), 2, shard, assign=assign)
            got = []
            for start, end in [(0, 7), (7, 40), (40, 41), (41, 90)]:
                rows = _rows(ours.window(start, end))
                assert rows == _rows(theirs.window(start, end))
                got += rows
            assert ours.released == theirs.released == len(got)
            assert ours.cross_released == theirs.cross_released
            assert ours.state_dict() == theirs.state_dict()
            owned.append(got)
        first, second = owned
        assert not {r[1] for r in first} & {r[1] for r in second}
        assert sorted(first + second, key=lambda r: r[1]) == base
        if assign == "shard" and kind != "adversarial":
            assert theirs.cross_released > 0
