"""The arrival streams' draws equal numpy's (``tests/stream_oracle.py``).

:mod:`repro.workloads.streams` reads a window's draws from one block of
raw bit-generator words: Poisson counts by numpy's multiplication method
(``Generator.poisson`` itself from rate 10 up), MMPP switches as
``random()``, homes and nodes as ``integers(n)`` and object sets as
``choice(w, k, replace=False)``, with every Lemire rejection redrawn
where numpy redraws it.  These tests pin that draw against the installed
numpy: values, object order and the generator's state after every
window, on all five of numpy's bit generators.  A numpy release that
changes any of those algorithms fails them by name.
"""

from __future__ import annotations

import copy
import json
import pickle
import types

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
    _draw_bounds,
    _integers,
    _place,
)

BIT_GENERATORS = (np.random.PCG64, np.random.MT19937, np.random.Philox,
                  np.random.SFC64, np.random.PCG64DXSM)


def _state_text(state) -> str:
    """A bit generator's state as comparable text (MT19937 holds arrays)."""
    return json.dumps(state, sort_keys=True, default=lambda a: a.tolist())


def _state(rng: np.random.Generator) -> str:
    return _state_text(rng.bit_generator.state)


def _rows(arrivals):
    return [(tt.release, tt.txn.tid, tt.txn.node, tt.txn.objects)
            for tt in arrivals]


def _ordered(stream, start, end):
    """A window as ``(release, tid, node, objects)`` rows, object order
    kept."""
    cols = stream.columns(start, end)
    return list(zip(cols.release.tolist(), cols.tid.tolist(),
                    cols.node.tolist(), map(tuple, cols.objects.tolist())))


def _pair(kind, net, w, k, limit, seed=3, rng=None, **params):
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
    cls, oracle, defaults = classes[kind]
    rng = rng or (lambda: spawn(seed, "parity", kind))
    return tuple(
        make(net, w=w, k=k, rng=rng(), limit=limit, **{**defaults, **params})
        for make in (cls, oracle)
    )


def _core(state) -> str:
    """A bit generator's state without numpy's buffered half."""
    return _state_text({key: value for key, value in state.items()
                        if key not in ("has_uint32", "uinteger")})


def _uint32_draws(rng, draw):
    """``draw()``, and the number of uint32s numpy read for it, counted
    by stepping a copy of the generator one raw word at a time."""
    before = rng.bit_generator.state
    value = draw()
    after = rng.bit_generator.state
    probe = type(rng.bit_generator)(0)
    probe.state = before
    words = 0
    while _core(probe.state) != _core(after):
        probe.random_raw()
        words += 1
    if "has_uint32" not in before:  # MT19937: a uint32 is a word
        return value, words
    return value, 2 * words + before["has_uint32"] - after["has_uint32"]


def _count_draws(stream, name):
    """Record, for each call of the oracle's draw ``name``, the state it
    starts from and the uint32s it reads (a rejected draw reads two or
    more)."""
    stream.draws = []
    draw = getattr(stream, name)

    def counted():
        start = stream._rng.bit_generator.state
        value, used = _uint32_draws(stream._rng, draw)
        stream.draws.append((start, used))
        return value

    setattr(stream, name, counted)


def _assert_twins(ours, theirs, windows):
    """Equal homes, then equal ordered rows and generator state after
    every window."""
    assert ours.object_homes == theirs.object_homes
    assert _state(ours._rng) == _state(theirs._rng)
    for start, end in windows:
        assert _ordered(ours, start, end) == _ordered(theirs, start, end)
        assert _state(ours._rng) == _state(theirs._rng)
        assert ours.state_dict()["extra"] == theirs.state_dict()["extra"]
    assert ours.released == theirs.released


class TestBoundedDraw:
    @pytest.mark.parametrize("bitgen", BIT_GENERATORS,
                             ids=lambda b: b.__name__)
    @pytest.mark.parametrize(
        "n", [1, 2, 3, 576, 2047, 2048, 3 * 2**30, 2**31 + 1])
    def test_equals_integers(self, bitgen, n):
        # the last two bounds reject a quarter and a half of the words
        ours = np.random.Generator(bitgen(17))
        theirs = np.random.Generator(bitgen(17))
        got = (_integers(ours, [n], 200)[:, 0].tolist() if n > 1
               else [0] * 200)
        assert got == [int(theirs.integers(n)) for _ in range(200)]
        assert _state(ours) == _state(theirs)
        assert ours.random(4).tolist() == theirs.random(4).tolist()

    @pytest.mark.parametrize("bitgen", BIT_GENERATORS,
                             ids=lambda b: b.__name__)
    def test_a_cycle_of_bounds_from_a_buffered_half(self, bitgen):
        ours = np.random.Generator(bitgen(29))
        ours.integers(7)  # a 64-bit generator now buffers a half
        theirs = copy.deepcopy(ours)
        bounds = [2**31 + 1, 5, 3 * 2**30]
        got = _integers(ours, bounds, 60)
        assert got.tolist() == [
            [int(theirs.integers(n)) for n in bounds] for _ in range(60)]
        assert _state(ours) == _state(theirs)


class TestDrawObjects:
    @pytest.mark.parametrize("w,k", [
        (1, 1), (2, 2), (3, 3), (16, 1), (2048, 2), (300, 7),
        # numpy's partial-shuffle branch: w > 10000 and k > w // 50
        (10001, 201), (20000, 1000),
    ])
    def test_equals_choice_in_order(self, w, k):
        rng = spawn(5, "choice", w, k)
        numpy_rng = copy.deepcopy(rng)
        bounds, floyd = _draw_bounds(1, w, k)
        _, objects = _place(_integers(rng, bounds, 5), 1, w, k, floyd)
        expected = [
            [int(o) for o in numpy_rng.choice(w, k, replace=False)]
            for _ in range(5)
        ]
        assert objects.tolist() == expected
        assert _state(rng) == _state(numpy_rng)

    @pytest.mark.parametrize("bitgen", BIT_GENERATORS,
                             ids=lambda b: b.__name__)
    def test_homes_and_arrivals_on_every_bit_generator(self, bitgen):
        net = grid(4)
        ours = PoissonStream(net, w=30, k=3, rate=1.5,
                             rng=np.random.Generator(bitgen(23)))
        theirs = stream_oracle.OraclePoissonStream(
            net, w=30, k=3, rate=1.5, rng=np.random.Generator(bitgen(23)))
        _assert_twins(ours, theirs, [(0, 40), (40, 41), (41, 100)])
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
            assert _ordered(ours, start, end) == _ordered(theirs, start, end)
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


class TestRejections:
    """Windows in which numpy rejects a draw and redraws it.

    In the pinned cases every arrival makes two uint32 draws, so without
    a rejection a window leaves the generator's buffered half as it
    found it; one redraw flips ``has_uint32``.  Those seeds are windows
    with exactly one redraw, which each test checks on numpy's own draw.
    The cases with one draw per arrival end windows on a redraw, and
    count numpy's uint32 reads to show that they do.
    """

    # 2**32 mod 107584 = 106431: a node draw on grid(328) is rejected
    # with probability 2.5e-5; 1024 and 16 are powers of two and never
    # reject, so only the other bound can
    @pytest.mark.parametrize("side,w,seed", [
        pytest.param(328, 1024, 21, id="node-bound"),
        # 1025 homes leave a half buffered before the first window
        pytest.param(328, 1025, 15, id="node-bound-buffered"),
        # 2**32 mod 199831 = 199436: an object draw is rejected with
        # probability 4.6e-5
        pytest.param(4, 199831, 2, id="object-bound"),
    ])
    def test_pinned_rejection_equals_the_oracle(self, side, w, seed):
        ours, theirs = _pair(
            "poisson", grid(side), w=w, k=1, limit=None, rate=9.0,
            rng=lambda: spawn(seed, "reject", side, w))
        buffered = theirs._rng.bit_generator.state["has_uint32"]
        assert buffered == w % 2
        _assert_twins(ours, theirs, [(0, 256)])
        # numpy redrew once: the buffer's parity flipped
        assert theirs._rng.bit_generator.state["has_uint32"] != buffered

    @pytest.mark.parametrize(
        "bitgen", [b for b in BIT_GENERATORS if b is not np.random.MT19937],
        ids=lambda b: b.__name__)
    def test_a_rejected_buffered_half_opens_the_window(self, bitgen):
        # the window's first draw is the first arrival's node, and it
        # takes the buffered half: buffer one its bound rejects
        net = grid(328)
        bad = 2**32 // net.n + 1  # bad * n overflows 2**32 by n - 1153
        assert bad * net.n % 2**32 < 2**32 % net.n
        ours, theirs = _pair("poisson", net, w=16, k=1, limit=None,
                             rng=lambda: np.random.Generator(bitgen(41)),
                             rate=3.0)
        for stream in (ours, theirs):
            state = stream._rng.bit_generator.state
            state.update(has_uint32=1, uinteger=bad)
            stream._rng.bit_generator.state = state
        _assert_twins(ours, theirs, [(0, 64)])
        assert theirs._rng.bit_generator.state["has_uint32"] == 0
        _assert_twins(ours, theirs, [(64, 65)])

    @pytest.mark.parametrize("bitgen", BIT_GENERATORS,
                             ids=lambda b: b.__name__)
    @pytest.mark.parametrize("kind", ["poisson", "mmpp"])
    @pytest.mark.parametrize("limit", [None, 70])
    def test_half_the_node_draws_rejected(self, bitgen, kind, limit):
        # a stand-in network of 2**31 + 1 nodes: a node draw is rejected
        # with probability 1/2, so most windows redraw many times
        net = types.SimpleNamespace(n=2**31 + 1)
        ours, theirs = _pair(kind, net, w=7, k=3, limit=limit,
                             rng=lambda: np.random.Generator(bitgen(5)))
        _assert_twins(ours, theirs,
                      [(0, 3), (3, 4), (4, 4), (4, 30), (30, 90)])

    @pytest.mark.parametrize("bitgen", BIT_GENERATORS,
                             ids=lambda b: b.__name__)
    @pytest.mark.parametrize("kind", ["poisson", "mmpp"])
    @pytest.mark.parametrize("limit", [None, 40])
    def test_windows_ending_on_a_rejected_draw(self, bitgen, kind, limit):
        # w == k == 1 on the stand-in of 2**31 + 1 nodes: an arrival's
        # node is its only draw, and half of those are rejected, so many
        # windows end on a redraw, some with empty steps after it
        net = types.SimpleNamespace(n=2**31 + 1)
        rates = (dict(rate=0.6) if kind == "poisson"
                 else dict(rate_low=0.3, rate_high=1.5))
        ours, theirs = _pair(kind, net, w=1, k=1, limit=limit,
                             rng=lambda: np.random.Generator(bitgen(11)),
                             **rates)
        _count_draws(theirs, "_draw_node")
        cuts = [0, 3, 4, 4, 9, 10, 12, 16, 17, 20, 25, 26, 28, 33, 34, 37,
                42, 43, 47, 50, 51, 56, 90]
        ends_on_redraw = ends_before_empty_steps = 0
        for start, end in zip(cuts, cuts[1:]):
            drawn = len(theirs.draws)
            rows = _ordered(theirs, start, end)
            assert _ordered(ours, start, end) == rows
            assert _state(ours._rng) == _state(theirs._rng)
            assert ours.state_dict()["extra"] == theirs.state_dict()["extra"]
            assert ours.released == theirs.released
            if len(theirs.draws) > drawn and theirs.draws[-1][1] > 1:
                ends_on_redraw += 1
                ends_before_empty_steps += rows[-1][0] < end - 1
        assert ends_on_redraw >= 3 and ends_before_empty_steps >= 1

    @pytest.mark.parametrize("bitgen", BIT_GENERATORS,
                             ids=lambda b: b.__name__)
    def test_a_window_equals_its_halves_when_draws_reject(self, bitgen):
        # the same redraw is the last draw of one split and not of another
        net = types.SimpleNamespace(n=2**31 + 1)

        def stream():
            return PoissonStream(net, w=1, k=1, rate=0.6,
                                 rng=np.random.Generator(bitgen(10)))

        whole = stream()
        rows = _ordered(whole, 0, 48)
        for split in range(1, 48):
            halves = stream()
            assert _ordered(halves, 0, split) + _ordered(
                halves, split, 48) == rows
            assert _state(halves._rng) == _state(whole._rng)

    @pytest.mark.parametrize("bitgen", BIT_GENERATORS,
                             ids=lambda b: b.__name__)
    @pytest.mark.parametrize("w", [7, 2047])
    def test_a_rejected_object_draw_ends_the_window(self, bitgen, w):
        # one node and k == 1: an arrival's object is its only draw, of
        # bound w.  Plant a zero as the uint32 the window's first arrival
        # draws -- every bound that is not a power of two rejects it --
        # and end the window after that arrival and the empty steps that
        # follow it
        net = types.SimpleNamespace(n=1)
        ours, theirs = _pair("poisson", net, w=w, k=1, limit=None,
                             rate=0.25,
                             rng=lambda: np.random.Generator(bitgen(1)))
        _assert_twins(ours, theirs, [(0, 5)])
        probe = copy.deepcopy(theirs)
        _count_draws(probe, "_draw_objects")
        first = 5
        while not probe.rows(first, first + 1):
            first += 1
        assert probe.released == theirs.released + 1
        after = [len(probe.rows(t, t + 1))
                 for t in range(first + 1, first + 41)]
        state = theirs._rng.bit_generator.state
        at = probe.draws[0][0]  # the state the arrival's draw starts from
        if "has_uint32" in state:
            state.update(has_uint32=1, uinteger=0)
        else:  # MT19937 reads its next word from key[pos]
            assert state["state"]["pos"] <= at["state"]["pos"] < 624
            state["state"]["key"][at["state"]["pos"]] = 0
        for stream in (ours, theirs):
            stream._rng.bit_generator.state = state
        probe = copy.deepcopy(theirs)
        assert len(probe.rows(5, first + 1)) == 1
        # end the window before the next arrival both with the redraw and
        # as if the zero were accepted, so the redraw is the window's last
        # draw however its empty steps are read
        end = first + 1
        while not (probe.rows(end, end + 1) or after[end - first - 1]):
            end += 1
        assert end > first + 1  # empty steps follow the arrival
        _count_draws(theirs, "_draw_objects")
        _assert_twins(ours, theirs, [(5, end), (end, end + 60)])
        # the arrival's draw read the zero, was rejected, and redrew
        assert theirs.draws[0][1] == 2


class TestHighRates:
    """From rate 10 up numpy counts by rejection; the stream asks it."""

    @pytest.mark.parametrize("bitgen", BIT_GENERATORS,
                             ids=lambda b: b.__name__)
    @pytest.mark.parametrize("kind,params", [
        ("poisson", dict(rate=12.0)),
        ("mmpp", dict(rate_low=0.5, rate_high=12.0, switch=0.25)),
    ], ids=["poisson", "mmpp"])
    @pytest.mark.parametrize("limit", [None, 150])
    def test_rate_twelve_equals_the_oracle(self, bitgen, kind, params,
                                           limit):
        ours, theirs = _pair(kind, grid(4), w=40, k=3, limit=limit,
                             rng=lambda: np.random.Generator(bitgen(8)),
                             **params)
        _assert_twins(ours, theirs, [(0, 5), (5, 6), (6, 6), (6, 40)])


class TestBoundsOfOne:
    """A bound of 1 draws nothing: one node, or ``k == w``."""

    @pytest.mark.parametrize("bitgen", BIT_GENERATORS,
                             ids=lambda b: b.__name__)
    @pytest.mark.parametrize("n,w,k", [(1, 9, 2), (9, 4, 4), (1, 3, 3),
                                       (1, 1, 1)])
    @pytest.mark.parametrize("kind", ["poisson", "mmpp"])
    def test_no_draw_equals_the_oracle(self, bitgen, n, w, k, kind):
        net = types.SimpleNamespace(n=n)
        ours, theirs = _pair(kind, net, w=w, k=k, limit=None,
                             rng=lambda: np.random.Generator(bitgen(12)))
        _assert_twins(ours, theirs, [(0, 7), (7, 8), (8, 60)])


class _Spy:
    """A generator whose draws are counted by name."""

    def __init__(self, rng, calls):
        object.__setattr__(self, "_real", rng)
        object.__setattr__(self, "_calls", calls)

    def __getattr__(self, name):
        self._calls[name] = self._calls.get(name, 0) + 1
        value = getattr(self._real, name)
        if name == "bit_generator":
            return _Spy(value, self._calls)
        return value

    def __setattr__(self, name, value):
        setattr(self._real, name, value)


def test_a_window_reads_one_block_of_words():
    stream = PoissonStream(grid(24), w=2048, k=2, rate=1.0,
                           rng=spawn(4, "spy"))
    twin = copy.deepcopy(stream)
    calls = {}
    stream._rng = _Spy(stream._rng, calls)
    got = stream.window(0, 256)
    assert len(got) > 200
    assert "poisson" not in calls
    assert "ctypes" not in calls
    assert "integers" not in calls and "choice" not in calls
    assert calls.get("random_raw", 0) <= 4
    assert _rows(got) == _rows(twin.window(0, 256))


def test_a_rate_twelve_window_is_numpys_own_calls():
    # numpy counts from rate 10 up: each step is one poisson call and one
    # integers call over its arrivals' bounds, and no block is read
    stream = PoissonStream(grid(24), w=2048, k=2, rate=12.0,
                           rng=spawn(4, "spy"))
    twin = copy.deepcopy(stream)
    calls = {}
    stream._rng = _Spy(stream._rng, calls)
    got = stream.window(0, 64)
    assert calls.get("poisson") == calls.get("integers") == 64
    assert "random_raw" not in calls and "choice" not in calls
    assert _rows(got) == _rows(twin.window(0, 64))


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
