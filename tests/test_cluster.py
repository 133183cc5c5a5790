"""Tests for the crash-tolerant multi-process cluster (repro.cluster).

The headline properties under test:

* the sharded streams partition the unsharded arrival sequence exactly
  (disjoint, union-complete, deterministic);
* a service snapshot/restore continues bit-for-bit identically;
* the journal is write-ahead (torn tails dropped, divergence loud);
* a cluster run with injected kills/stalls commits the same transaction
  set as the fault-free run (``parity_key`` bit-equality), and the
  cluster-wide accounting identity holds under every failure mode.
"""

from __future__ import annotations

import json
import re
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import (
    ChaosPlan,
    ClusterConfig,
    ClusterReport,
    ShardedStream,
    StreamSpec,
    WindowJournal,
    WorkerDelay,
    WorkerKill,
    WorkerStall,
    accounting_digest,
    run_cluster,
)
from repro.cluster.wire import (
    CELL_KIND,
    MSG_DONE,
    MSG_WINDOW,
    decode_message,
    encode_message,
)
import repro.cluster.supervisor as supervisor_mod
from repro.cluster.worker import WorkerSpec, worker_main
from repro.errors import ClusterError, ReproError, ServiceError
from repro.faults.backoff import RetryPolicy
from repro.errors import TopologyError
from repro.io import dumps_canonical, dumps_line, json_payload
from repro.network import grid, network_from_sizes, node_shards, shard_cluster
from repro.service import SchedulingService, ServiceConfig

STREAM = StreamSpec(kind="poisson", w=16, k=2, rate=0.6, seed=7)
# coordinator-shard handoff stream for the shard-cluster runs
SHARD_STREAM = StreamSpec(
    kind="poisson", w=12, k=2, rate=0.8, seed=3, assign="shard"
)
SVC = ServiceConfig(window=8)


class _Conn:
    """The send end of a worker pipe, kept in memory."""

    def __init__(self) -> None:
        self.sent: list = []

    def send(self, message) -> None:
        self.sent.append(message)

    def close(self) -> None:
        pass


def quick_config(**kw) -> ClusterConfig:
    defaults = dict(
        workers=2,
        windows=10,
        checkpoint_every=4,
        restart_backoff_s=0.01,
        poll_interval_s=0.02,
    )
    defaults.update(kw)
    return ClusterConfig(**defaults)


class TestWire:
    def test_round_trip(self):
        body = {"worker": 1, "window": 3, "cumulative": {"released": 9}}
        text = encode_message(MSG_WINDOW, body)
        assert "\n" not in text  # single-line framing
        kind, decoded = decode_message(text, expected_kind=MSG_WINDOW)
        assert kind == MSG_WINDOW
        assert decoded == body

    def test_unknown_kind_rejected_on_encode(self):
        with pytest.raises(ClusterError, match="unknown wire kind"):
            encode_message("gossip", {})

    def test_malformed_json_rejected(self):
        with pytest.raises(ClusterError, match="malformed"):
            decode_message("{not json")

    def test_wrong_schema_version_rejected(self):
        payload = json.loads(encode_message(MSG_WINDOW, {"x": 1}))
        payload["schema_version"] = 999
        with pytest.raises(ClusterError, match="schema_version"):
            decode_message(json.dumps(payload))

    def test_kind_mismatch_rejected(self):
        text = encode_message(MSG_WINDOW, {"x": 1})
        with pytest.raises(ClusterError, match="expected wire kind"):
            decode_message(text, expected_kind=CELL_KIND)

    def test_missing_body_rejected(self):
        payload = json.loads(encode_message(MSG_WINDOW, {"x": 1}))
        del payload["body"]
        with pytest.raises(ClusterError, match="missing 'body'"):
            decode_message(json.dumps(payload))


class TestChaosPlan:
    def test_events_sorted_and_stable(self):
        plan = ChaosPlan([WorkerKill(1, 5), WorkerKill(0, 2)])
        assert [e.window for e in plan.events] == [2, 5]
        assert len(plan) == 2

    def test_duplicate_coordinates_rejected(self):
        with pytest.raises(ClusterError, match="more than once"):
            ChaosPlan([WorkerKill(0, 2), WorkerStall(0, 2)])

    def test_validate_against_bounds(self):
        plan = ChaosPlan([WorkerKill(3, 5)])
        with pytest.raises(ClusterError, match="worker 3"):
            plan.validate_against(workers=2, windows=10)
        with pytest.raises(ClusterError, match="window 5"):
            ChaosPlan([WorkerKill(0, 5)]).validate_against(2, 4)

    def test_for_worker_filters(self):
        plan = ChaosPlan([WorkerKill(0, 1), WorkerDelay(1, 2)])
        assert len(plan.for_worker(0)) == 1
        assert plan.for_worker(0)[0].window == 1

    def test_negative_coordinates_rejected(self):
        with pytest.raises(ClusterError):
            ChaosPlan([WorkerKill(-1, 0)])
        with pytest.raises(ClusterError):
            ChaosPlan([WorkerStall(0, 0, seconds=0.0)])


class TestShardedStream:
    def test_shards_partition_the_base_stream(self):
        net = grid(3)
        horizon = 80
        base_all = STREAM.build(net).window(0, horizon)
        shard_tids = []
        for i in range(3):
            shard = ShardedStream(STREAM.build(net), 3, i)
            got = shard.window(0, horizon)
            assert all(t.txn.tid % 3 == i for t in got)
            assert shard.released == len(got)
            shard_tids.append([t.txn.tid for t in got])
        union = sorted(t for tids in shard_tids for t in tids)
        assert union == [t.txn.tid for t in base_all]

    def test_state_round_trip(self):
        net = grid(3)
        a = ShardedStream(STREAM.build(net), 2, 1)
        a.window(0, 40)
        b = ShardedStream(STREAM.build(net), 2, 1)
        b.load_state(a.state_dict())
        assert [t.txn.tid for t in a.window(40, 80)] == [
            t.txn.tid for t in b.window(40, 80)
        ]

    def test_bad_shard_config_rejected(self):
        net = grid(3)
        with pytest.raises(ClusterError):
            ShardedStream(STREAM.build(net), 0, 0)
        with pytest.raises(ClusterError, match="shard 5 outside"):
            ShardedStream(STREAM.build(net), 2, 5)

    def test_unknown_stream_kind_rejected(self):
        with pytest.raises(ClusterError, match="unknown stream kind"):
            StreamSpec(kind="fractal")

    def test_unknown_assign_mode_rejected(self):
        with pytest.raises(ClusterError, match="unknown assignment mode"):
            StreamSpec(assign="alphabetical")
        net = grid(3)
        with pytest.raises(ClusterError, match="unknown assignment mode"):
            ShardedStream(STREAM.build(net), 2, 0, assign="alphabetical")


class TestShardAssignment:
    """StreamSpec(assign="shard"): coordinator-shard arrival handoff."""

    def _net(self):
        return shard_cluster(3, 4)

    def test_partition_by_coordinator_shard(self):
        net = self._net()
        horizon = 80
        base_all = SHARD_STREAM.build(net).window(0, horizon)
        shard_of = node_shards(net)
        homes = SHARD_STREAM.build(net).object_homes
        owned = []
        for i in range(2):
            s = ShardedStream(
                SHARD_STREAM.build(net), 2, i, assign="shard"
            )
            got = s.window(0, horizon)
            for tt in got:
                coord = min(shard_of[homes[o]] for o in tt.txn.objects)
                assert coord % 2 == i  # class is the coordinator shard
            owned.append([t.txn.tid for t in got])
        union = sorted(t for tids in owned for t in tids)
        assert union == [t.txn.tid for t in base_all]  # exact partition

    def test_cross_counter_tallies_owned_cross_arrivals(self):
        net = self._net()
        shard_of = node_shards(net)
        homes = SHARD_STREAM.build(net).object_homes
        s = ShardedStream(
            SHARD_STREAM.build(net), 1, 0, assign="shard"
        )
        got = s.window(0, 80)
        expected = sum(
            1 for tt in got
            if len({shard_of[homes[o]] for o in tt.txn.objects}) >= 2
        )
        assert s.cross_released == expected
        assert expected > 0  # w spans shards, so cross traffic exists

    def test_tid_mode_never_counts_cross(self):
        s = ShardedStream(
            SHARD_STREAM.build(self._net()), 2, 0, assign="tid"
        )
        s.window(0, 80)
        assert s.cross_released == 0

    def test_state_round_trip_preserves_cross_counter(self):
        net = self._net()
        a = ShardedStream(SHARD_STREAM.build(net), 2, 1, assign="shard")
        a.window(0, 40)
        b = ShardedStream(SHARD_STREAM.build(net), 2, 1, assign="shard")
        b.load_state(a.state_dict())
        assert b.cross_released == a.cross_released
        assert [t.txn.tid for t in a.window(40, 80)] == [
            t.txn.tid for t in b.window(40, 80)
        ]
        assert b.cross_released == a.cross_released

    def test_assign_mismatch_rejected_on_restore(self):
        net = self._net()
        a = ShardedStream(SHARD_STREAM.build(net), 2, 0, assign="shard")
        a.window(0, 8)
        b = ShardedStream(SHARD_STREAM.build(net), 2, 0, assign="tid")
        with pytest.raises(ClusterError, match="assignment mode"):
            b.load_state(a.state_dict())

    def test_shard_mode_requires_sharded_topology(self):
        with pytest.raises(TopologyError):
            ShardedStream(
                STREAM.build(grid(3)), 2, 0, assign="shard"
            )


class TestServiceSnapshot:
    def _service(self):
        net = grid(3)
        return SchedulingService(
            ShardedStream(STREAM.build(net), 2, 0), SVC
        )

    def test_snapshot_restore_continues_identically(self):
        a = self._service()
        for w in range(6):
            a.run_window(w)
        snap = a.snapshot_state()
        b = self._service()
        b.restore_state(snap)
        for w in range(6, 12):
            a.run_window(w)
            b.run_window(w)
        assert a.report() == b.report()
        assert a.accounting() == b.accounting()

    def test_restore_requires_fresh_service(self):
        a = self._service()
        a.run_window(0)
        snap = a.snapshot_state()
        with pytest.raises(ServiceError, match="fresh service"):
            a.restore_state(snap)

    def test_snapshot_is_json_safe(self):
        a = self._service()
        for w in range(4):
            a.run_window(w)
        text = json.dumps(a.snapshot_state())  # raises on non-JSON types
        b = self._service()
        b.restore_state(json.loads(text))
        assert b.accounting() == a.accounting()


class TestJournal:
    def test_append_load_round_trip(self, tmp_path):
        j = WindowJournal(tmp_path / "w.jsonl", tmp_path / "w.ckpt")
        assert not j.has_history()
        for w in range(3):
            j.append(w, f"d{w}", {"released": w})
        ckpt, tail = j.load()
        assert ckpt is None
        assert [r["window"] for r in tail] == [0, 1, 2]
        assert j.has_history()

    def test_checkpoint_floors_the_tail(self, tmp_path):
        j = WindowJournal(tmp_path / "w.jsonl", tmp_path / "w.ckpt")
        for w in range(6):
            j.append(w, f"d{w}", {"released": w})
        j.checkpoint(4, {"stream": "state"})
        ckpt, tail = j.load()
        assert ckpt["window"] == 4
        assert [r["window"] for r in tail] == [4, 5]

    def test_torn_tail_record_dropped(self, tmp_path):
        j = WindowJournal(tmp_path / "w.jsonl", tmp_path / "w.ckpt")
        j.append(0, "d0", {"released": 1})
        j.append(1, "d1", {"released": 2})
        path = tmp_path / "w.jsonl"
        path.write_bytes(path.read_bytes()[:-9])  # tear the last record
        _, tail = j.load()
        assert [r["window"] for r in tail] == [0]

    def test_conflicting_digests_raise(self, tmp_path):
        j = WindowJournal(tmp_path / "w.jsonl", tmp_path / "w.ckpt")
        j.append(0, "aaaa", {"released": 1})
        j.append(0, "bbbb", {"released": 2})
        with pytest.raises(ClusterError, match="conflicting"):
            j.load()

    def test_gap_raises(self, tmp_path):
        j = WindowJournal(tmp_path / "w.jsonl", tmp_path / "w.ckpt")
        j.append(0, "d0", {"released": 1})
        j.append(2, "d2", {"released": 3})
        with pytest.raises(ClusterError, match="gap"):
            j.load()

    def test_digest_is_order_insensitive(self):
        a = accounting_digest({"released": 3, "committed": 2})
        b = accounting_digest({"committed": 2, "released": 3})
        assert a == b

    def test_checkpoint_is_one_sorted_line(self, tmp_path):
        j = WindowJournal(tmp_path / "w.jsonl", tmp_path / "w.ckpt")
        state = {"stream": {"clock": 8}, "homes": {"3": 1, "10": 2}}
        j.checkpoint(4, state)
        text = (tmp_path / "w.ckpt").read_text(encoding="utf-8")
        assert text == dumps_line(json_payload(
            "cluster_checkpoint", {"window": 4, "state": state}))
        assert j.load()[0] == {"window": 4, "state": state}

    def test_indented_checkpoint_recovers_worker_bit_for_bit(self, tmp_path):
        # checkpoints were indented JSON before they became one line;
        # a journal left with one must still recover the same worker
        def spec(directory, windows):
            return WorkerSpec(
                worker=0, shards=1, topology="grid",
                size=3, size2=None, stream=STREAM, service=SVC,
                windows=windows,
                journal_path=str(directory / "w.journal.jsonl"),
                checkpoint_path=str(directory / "w.ckpt.json"),
                checkpoint_every=4,
            )

        def done(directory, windows):
            directory.mkdir(exist_ok=True)
            conn = _Conn()
            worker_main(conn, spec(directory, windows))
            kind, body = decode_message(conn.sent[-1])
            assert kind == MSG_DONE
            return body

        clean = done(tmp_path / "clean", 10)
        crashed = tmp_path / "crashed"
        done(crashed, 6)  # checkpoint at window 4, journal to window 5
        ckpt = crashed / "w.ckpt.json"
        ckpt.write_text(dumps_canonical(json.loads(ckpt.read_text())))
        assert "\n" in ckpt.read_text()
        recovered = done(crashed, 10)
        assert (clean["replayed"], recovered["replayed"]) == (0, 2)
        for key in ("report", "sojourns", "accounting"):
            assert recovered[key] == clean[key]


def _run_worker(directory, windows, checkpoint_every):
    """One in-process worker incarnation; returns its done-message body."""
    directory.mkdir(exist_ok=True)
    conn = _Conn()
    worker_main(conn, WorkerSpec(
        worker=0, shards=1, topology="grid",
        size=3, size2=None, stream=STREAM, service=SVC,
        windows=windows,
        journal_path=str(directory / "w.journal.jsonl"),
        checkpoint_path=str(directory / "w.ckpt.json"),
        checkpoint_every=checkpoint_every,
    ))
    kind, body = decode_message(conn.sent[-1])
    assert kind == MSG_DONE
    return body


class TestCrashPoints:
    """A crash may cut any write short; recovery loses no committed window."""

    def test_torn_append_at_every_offset_hides_no_later_window(self, tmp_path):
        probe = WindowJournal(tmp_path / "p.jsonl", tmp_path / "p.ckpt")
        probe.append(3, "d3", {"released": 3})
        record = (tmp_path / "p.jsonl").read_bytes()
        path = tmp_path / "w.jsonl"
        j = WindowJournal(path, tmp_path / "w.ckpt")
        for w in range(3):
            j.append(w, f"d{w}", {"released": w})
        committed = path.read_bytes()
        for offset in range(len(record)):
            path.write_bytes(committed + record[:offset])
            assert [r["window"] for r in j.load()[1]] == [0, 1, 2]
            assert path.read_bytes() == committed  # torn line cut off
            for w in range(3, 6):
                j.append(w, f"d{w}", {"released": w})
            assert [r["window"] for r in j.load()[1]] == list(range(6))

    @pytest.mark.parametrize("kept", ["all but the newline", "half", "one byte"])
    def test_torn_append_recovers_worker_bit_for_bit(self, tmp_path, kept):
        # no checkpoint in the run: recovery replays the whole journal
        clean = _run_worker(tmp_path / "clean", 10, checkpoint_every=100)
        crashed = tmp_path / "crashed"
        _run_worker(crashed, 6, checkpoint_every=100)
        journal = crashed / "w.journal.jsonl"
        data = journal.read_bytes()
        start = data.rstrip(b"\n").rfind(b"\n") + 1  # window 5's record
        size = len(data) - start
        cut = {"all but the newline": size - 1, "half": size // 2,
               "one byte": 1}[kept]
        journal.write_bytes(data[:start + cut])
        first = _run_worker(crashed, 8, checkpoint_every=100)
        second = _run_worker(crashed, 10, checkpoint_every=100)
        assert (first["replayed"], second["replayed"]) == (5, 8)
        for key in ("report", "sojourns", "accounting"):
            assert second[key] == clean[key]

    def test_torn_checkpoint_temp_keeps_the_intact_checkpoint(self, tmp_path):
        j = WindowJournal(tmp_path / "w.jsonl", tmp_path / "w.ckpt")
        for w in range(10):
            j.append(w, f"d{w}", {"released": w})
        j.checkpoint(4, {"stream": {"clock": 32}})
        probe = WindowJournal(tmp_path / "p.jsonl", tmp_path / "p.ckpt")
        probe.checkpoint(8, {"stream": {"clock": 64}})
        doc = (tmp_path / "p.ckpt").read_bytes()
        tmp = (tmp_path / "w.ckpt").with_suffix(".tmp")
        # every offset, and the whole temp file written but never renamed
        for offset in range(len(doc) + 1):
            tmp.write_bytes(doc[:offset])
            ckpt, tail = j.load()
            assert ckpt == {"window": 4, "state": {"stream": {"clock": 32}}}
            assert [r["window"] for r in tail] == list(range(4, 10))
        j.checkpoint(8, {"stream": {"clock": 64}})
        assert j.load()[0]["window"] == 8


class TestClusterConfig:
    @pytest.mark.parametrize(
        "kw",
        [
            {"workers": 0},
            {"windows": 0},
            {"heartbeat_timeout_s": 0},
            {"checkpoint_every": 0},
            {"poll_interval_s": 0},
            {"restart_backoff_s": -1},
        ],
    )
    def test_invalid_config_rejected(self, kw):
        with pytest.raises(ClusterError):
            ClusterConfig(**kw)

    def test_default_restart_budget(self):
        assert ClusterConfig().retry == RetryPolicy(max_retries=3, max_wait=4)

    def test_build_network_rejects_unknown_topology(self):
        with pytest.raises(ReproError, match="unknown topology"):
            network_from_sizes("moebius", 3)


class TestClusterRuns:
    def test_fault_free_identity_and_worker_sum(self):
        rep = run_cluster("grid", 3, None, STREAM, SVC, quick_config())
        assert rep.accounted
        assert rep.released > 0
        for key in ("released", "committed", "shed", "expired", "lost"):
            assert getattr(rep, key) == sum(w[key] for w in rep.per_worker)
        assert rep.restarts == 0 and rep.stragglers == 0
        assert all(w["end"] == "done" for w in rep.per_worker)

    def test_one_worker_reports_its_services_sojourns(self):
        # the supervisor summarizes its workers' merged histogram with
        # the service's own percentile rule
        spec = StreamSpec(kind="poisson", w=16, k=2, rate=0.6, seed=1)
        rep = run_cluster("grid", 3, None, spec, SVC,
                          quick_config(workers=1, windows=10))
        own = SchedulingService(
            ShardedStream(spec.build(grid(3)), 1, 0), SVC
        ).run(10)
        fields = ("sojourn_p50", "sojourn_p99", "sojourn_mean",
                  "sojourn_max")
        assert [getattr(rep, f) for f in fields] == [
            getattr(own, f) for f in fields
        ]

    def test_repeat_runs_bit_identical(self):
        a = run_cluster("grid", 3, None, STREAM, SVC, quick_config())
        b = run_cluster("grid", 3, None, STREAM, SVC, quick_config())
        assert a.parity_key() == b.parity_key()

    def test_kill_chaos_matches_fault_free_run(self):
        cfg = quick_config(workers=3)
        base = run_cluster("grid", 3, None, STREAM, SVC, cfg)
        killed = run_cluster(
            "grid", 3, None, STREAM, SVC, cfg,
            chaos=ChaosPlan([WorkerKill(1, 5)]),
        )
        assert killed.restarts == 1
        assert killed.accounted
        assert killed.parity_key() == base.parity_key()

    def test_parity_across_restart_timings(self):
        # wall-clock backoff must not leak into the outcome
        chaos = ChaosPlan([WorkerKill(0, 4)])
        fast = run_cluster(
            "grid", 3, None, STREAM, SVC,
            quick_config(restart_backoff_s=0.0), chaos=chaos,
        )
        slow = run_cluster(
            "grid", 3, None, STREAM, SVC,
            quick_config(restart_backoff_s=0.05), chaos=chaos,
        )
        assert fast.parity_key() == slow.parity_key()

    def test_double_kill_same_worker_recovers(self):
        cfg = quick_config(workers=2, windows=12)
        base = run_cluster("grid", 3, None, STREAM, SVC, cfg)
        rep = run_cluster(
            "grid", 3, None, STREAM, SVC, cfg,
            chaos=ChaosPlan([WorkerKill(1, 3), WorkerKill(1, 8)]),
        )
        assert rep.restarts == 2
        assert rep.parity_key() == base.parity_key()

    def test_kill_across_checkpoint_boundary(self):
        # die right after a checkpoint: replay must resume from it
        cfg = quick_config(workers=2, windows=10, checkpoint_every=4)
        base = run_cluster("grid", 3, None, STREAM, SVC, cfg)
        rep = run_cluster(
            "grid", 3, None, STREAM, SVC, cfg,
            chaos=ChaosPlan([WorkerKill(0, 4)]),
        )
        assert rep.parity_key() == base.parity_key()

    def test_restart_budget_exhaustion_retires_with_typed_loss(self):
        cfg = quick_config(
            workers=2, windows=10,
            retry=RetryPolicy(max_retries=1, max_wait=2),
        )
        base = run_cluster("grid", 3, None, STREAM, SVC, cfg)
        rep = run_cluster(
            "grid", 3, None, STREAM, SVC, cfg,
            chaos=ChaosPlan([WorkerKill(0, 2), WorkerKill(0, 5)]),
        )
        assert rep.accounted
        retired = [w for w in rep.per_worker if w["end"] == "retired"]
        assert len(retired) == 1
        assert retired[0]["final_backlog"] == 0  # moved into lost
        survivors = [w for w in rep.per_worker if w["end"] == "done"]
        assert survivors and all(w["released"] > 0 for w in survivors)
        # the retired class's arrivals after its last window are released
        # and lost, not dropped: released matches the fault-free run's
        assert (base.released, base.lost) == (40, 0)
        assert (rep.released, rep.lost) == (base.released, 13)
        assert retired[0]["released"] == base.per_worker[0]["released"]

    def test_stall_restart_matches_fault_free_run(self):
        cfg = quick_config(heartbeat_timeout_s=0.3)
        base = run_cluster("grid", 3, None, STREAM, SVC, quick_config())
        rep = run_cluster(
            "grid", 3, None, STREAM, SVC, cfg,
            chaos=ChaosPlan([WorkerStall(0, 4, seconds=30.0)]),
        )
        assert rep.stragglers == 1 and rep.restarts == 1
        assert rep.parity_key() == base.parity_key()

    def test_stall_after_a_kill_retires_past_the_budget(self):
        # a silent worker spends the same restart budget as a dead one
        cfg = quick_config(
            heartbeat_timeout_s=0.3,
            retry=RetryPolicy(max_retries=1, max_wait=2),
        )
        rep = run_cluster(
            "grid", 3, None, STREAM, SVC, cfg,
            chaos=ChaosPlan([
                WorkerKill(0, 2), WorkerStall(0, 5, seconds=30.0),
            ]),
        )
        assert rep.accounted
        assert (rep.restarts, rep.stragglers) == (1, 1)
        worker = rep.per_worker[0]
        assert (worker["end"], worker["restarts"]) == ("retired", 1)
        assert worker["final_backlog"] == 0  # moved into lost
        assert rep.per_worker[1]["end"] == "done"

    def test_hung_worker_retires_past_the_budget(self, monkeypatch):
        # every incarnation hangs before its hello; the spy fails the
        # run instead of letting the supervisor respawn it forever
        retry = RetryPolicy(max_retries=1, max_wait=2)
        base = run_cluster(
            "grid", 3, None, STREAM, SVC, quick_config(workers=1)
        )
        spawn = supervisor_mod._Supervisor._spawn
        procs = []

        def spy(sup, state):
            if len(procs) >= retry.max_retries + 2:
                raise AssertionError(f"{len(procs)} spawns, budget {retry}")
            spawn(sup, state)
            procs.append(state.proc)

        monkeypatch.setattr(
            supervisor_mod, "worker_main", lambda conn, spec: time.sleep(60)
        )
        monkeypatch.setattr(supervisor_mod._Supervisor, "_spawn", spy)
        rep = run_cluster(
            "grid", 3, None, STREAM, SVC,
            quick_config(workers=1, heartbeat_timeout_s=0.3, retry=retry),
        )
        assert [w["end"] for w in rep.per_worker] == ["retired"]
        assert (rep.restarts, rep.stragglers) == (1, 2)
        assert len(procs) == retry.max_retries + 1
        assert not any(proc.is_alive() for proc in procs)
        # no window ran, so every arrival is released and lost
        assert rep.accounted and rep.lost == rep.released
        assert rep.released == base.released > 0

    def test_reused_journal_dir_rejected(self, tmp_path):
        # recovery would replay the first run's journals as the second's
        first = run_cluster(
            "grid", 3, None, STREAM, SVC,
            quick_config(journal_dir=str(tmp_path)),
        )
        other = StreamSpec(kind="poisson", w=16, k=2, rate=0.6, seed=8)
        with pytest.raises(ClusterError, match=re.escape(str(tmp_path))):
            run_cluster(
                "grid", 3, None, other, SVC,
                quick_config(journal_dir=str(tmp_path)),
            )
        fresh = run_cluster(
            "grid", 3, None, STREAM, SVC,
            quick_config(journal_dir=str(tmp_path / "fresh")),
        )
        assert fresh.parity_key() == first.parity_key()

    def test_delay_below_timeout_triggers_nothing(self):
        cfg = quick_config(heartbeat_timeout_s=2.0)
        base = run_cluster("grid", 3, None, STREAM, SVC, cfg)
        rep = run_cluster(
            "grid", 3, None, STREAM, SVC, cfg,
            chaos=ChaosPlan([WorkerDelay(0, 3, seconds=0.05)]),
        )
        assert rep.stragglers == 0 and rep.restarts == 0
        assert rep.parity_key() == base.parity_key()

    def test_shard_assign_counts_cross_traffic(self):
        rep = run_cluster(
            "shard-cluster", 3, 4, SHARD_STREAM, SVC,
            quick_config(windows=8),
        )
        assert rep.accounted
        assert rep.cross_shard > 0
        assert rep.cross_shard == sum(
            w["cross"] for w in rep.per_worker
        )

    def test_tid_assign_reports_zero_cross(self):
        rep = run_cluster("grid", 3, None, STREAM, SVC, quick_config())
        assert rep.cross_shard == 0
        assert all(w["cross"] == 0 for w in rep.per_worker)

    def test_shard_assign_kill_chaos_matches_fault_free(self):
        # the coordinator handoff must survive a worker crash: the
        # replayed worker re-derives its coordinator classes and its
        # cross-shard tally bit-for-bit
        cfg = quick_config(windows=8)
        base = run_cluster("shard-cluster", 3, 4, SHARD_STREAM, SVC, cfg)
        killed = run_cluster(
            "shard-cluster", 3, 4, SHARD_STREAM, SVC, cfg,
            chaos=ChaosPlan([WorkerKill(1, 4)]),
        )
        assert killed.restarts == 1
        assert killed.parity_key() == base.parity_key()
        assert killed.cross_shard == base.cross_shard > 0

    def test_chaos_validated_against_cluster_shape(self):
        with pytest.raises(ClusterError, match="worker 5"):
            run_cluster(
                "grid", 3, None, STREAM, SVC, quick_config(),
                chaos=ChaosPlan([WorkerKill(5, 2)]),
            )


@pytest.fixture(scope="module")
def fault_free():
    return run_cluster("grid", 3, None, STREAM, SVC, quick_config())


# distinct (worker, window) kill coordinates on quick_config's shape
KILLS = st.lists(
    st.tuples(st.integers(0, 1), st.integers(0, 9)),
    min_size=1, max_size=3, unique=True,
)


class TestEveryArrivalAccounted:
    """Whatever kills a run meets, the stream's arrivals are all released.

    A worker that retires past its restart budget still counts its class's
    later arrivals as released and lost, so ``released`` never moves.
    """

    @settings(max_examples=10, deadline=None)
    @given(kills=KILLS, max_retries=st.integers(0, 2))
    def test_random_kills(self, fault_free, kills, max_retries):
        cfg = quick_config(
            retry=RetryPolicy(max_retries=max_retries, max_wait=2)
        )
        rep = run_cluster(
            "grid", 3, None, STREAM, SVC, cfg,
            chaos=ChaosPlan([WorkerKill(w, k) for w, k in kills]),
        )
        assert rep.accounted
        assert rep.released == fault_free.released

    def test_kill_then_stall(self, fault_free):
        # the second failure is a silent worker, found by its heartbeat
        cfg = quick_config(
            heartbeat_timeout_s=0.3,
            retry=RetryPolicy(max_retries=1, max_wait=2),
        )
        rep = run_cluster(
            "grid", 3, None, STREAM, SVC, cfg,
            chaos=ChaosPlan([
                WorkerKill(1, 3), WorkerStall(1, 6, seconds=30.0),
            ]),
        )
        assert (rep.restarts, rep.stragglers) == (1, 1)
        assert rep.per_worker[1]["end"] == "retired"
        assert rep.accounted
        assert rep.released == fault_free.released
        assert rep.lost > 0


class TestClusterReport:
    def test_json_round_trip(self):
        rep = run_cluster(
            "grid", 3, None, STREAM, SVC, quick_config(),
            chaos=ChaosPlan([WorkerKill(1, 5)]),
        )
        back = ClusterReport.from_json(rep.to_json())
        assert back == rep
        assert back.parity_key() == rep.parity_key()

    def test_parity_key_excludes_the_supervision_path(self):
        rep = run_cluster(
            "grid", 3, None, STREAM, SVC, quick_config(),
            chaos=ChaosPlan([WorkerKill(1, 5)]),
        )
        key = json.dumps(rep.parity_key(), default=list)
        assert "wall" not in key
        assert "restarts" not in key
        assert "chaos" not in key

    def test_render_mentions_every_worker(self):
        rep = run_cluster("grid", 3, None, STREAM, SVC, quick_config())
        text = rep.render()
        for w in rep.per_worker:
            assert f"worker {w['worker']}" in text

    def test_parity_key_includes_cross_shard(self):
        rep = run_cluster(
            "shard-cluster", 3, 4, SHARD_STREAM, SVC,
            quick_config(windows=8),
        )
        assert rep.parity_key()["cross_shard"] == rep.cross_shard
        assert rep.as_dict()["cross_shard"] == rep.cross_shard
        assert f"cross-shard {rep.cross_shard}" in rep.render()


class TestClusterCli:
    def test_cluster_command_with_parity_gate(self, capsys):
        from repro.cli import main

        status = main([
            "cluster", "--topology", "grid", "--size", "3",
            "--workers", "2", "--windows", "8", "--rate", "0.6",
            "--seed", "7", "--chaos", "kill", "--parity",
        ])
        out = capsys.readouterr().out
        assert status == 0
        assert "parity with fault-free run: OK" in out

    def test_cluster_command_writes_report_json(self, tmp_path, capsys):
        from repro.cli import main
        from repro.io import load_report

        out_path = tmp_path / "cluster.json"
        status = main([
            "cluster", "--topology", "grid", "--size", "3",
            "--workers", "2", "--windows", "6", "--seed", "7",
            "--json", str(out_path),
        ])
        assert status == 0
        rep = load_report(out_path)
        assert isinstance(rep, ClusterReport)
        assert rep.accounted

    def test_bad_chaos_spec_rejected(self):
        from repro.cli import main

        with pytest.raises(ReproError, match="unknown chaos spec"):
            main([
                "cluster", "--topology", "grid", "--size", "3",
                "--windows", "6", "--chaos", "meteor",
            ])
