"""The one envelope: corrupt input and round trips.

Every saved file, journal line, report and wire message is the
``{"schema_version", "kind", "body"}`` envelope, read back through
:func:`repro.io.decode_envelope`.  The corrupt-input matrix feeds each
reader the same nine garbled documents: each must raise a typed error
(``ClusterError`` on the wire, ``ReproError`` everywhere else) -- never
a bare ``AttributeError`` or ``KeyError``, and never accept it.
"""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.analysis import REPORT_KINDS, evaluate, report_from_json
from repro.analysis.report import _ensure_kinds_registered
from repro.cluster import ClusterConfig, StreamSpec, run_cluster
from repro.cluster.wire import (
    MSG_WINDOW,
    WIRE_KINDS,
    decode_message,
    encode_message,
)
from repro.core import GreedyScheduler
from repro.errors import ClusterError, ReproError
from repro.io import (
    SCHEMA_VERSION,
    decode_envelope,
    fault_plan_to_json,
    instance_to_dict,
    json_payload,
    load_report,
    load_schedule,
    online_workload_to_dict,
    read_json,
    read_jsonl,
    rw_instance_to_dict,
    save_report,
    schedule_to_dict,
)
from repro.network import clique, grid, line
from repro.workloads import random_k_subsets


def _schedule():
    inst = random_k_subsets(line(6), w=3, k=2, rng=np.random.default_rng(1))
    return GreedyScheduler().schedule(inst)


def _evaluation():
    rng = np.random.default_rng(3)
    inst = random_k_subsets(clique(6), w=4, k=2, rng=rng)
    return evaluate(GreedyScheduler(), inst, rng)


def _without(envelope, key):
    return {k: v for k, v in envelope.items() if k != key}


#: the nine garbled documents, each derived from a reader's valid envelope
CASES = {
    "not JSON": lambda env: "{not json",
    "JSON array": lambda env: "[1, 2]",
    "JSON string": lambda env: '"envelope"',
    "no schema_version": lambda env: json.dumps(_without(env, "schema_version")),
    "schema_version 2": lambda env: json.dumps({**env, "schema_version": 2}),
    "no kind": lambda env: json.dumps(_without(env, "kind")),
    "integer kind": lambda env: json.dumps({**env, "kind": 3}),
    "no body": lambda env: json.dumps(_without(env, "body")),
    "list body": lambda env: json.dumps({**env, "body": []}),
}


def _file(tmp_path, text):
    path = tmp_path / "doc.json"
    path.write_text(text, encoding="utf-8")
    return path


def _jsonl(tmp_path, text):
    # the bad line comes first: a later good record must not hide it
    good = json.dumps(json_payload("probe", {"x": 2}))
    path = tmp_path / "doc.jsonl"
    path.write_text(f"{text}\n{good}\n", encoding="utf-8")
    return path


#: reader -> (valid envelope, read(text, tmp_path), error type)
READERS = {
    "read_json": (
        lambda: json_payload("probe", {"x": 1}),
        lambda text, tmp: read_json(_file(tmp, text)),
        ReproError,
    ),
    "read_jsonl": (
        lambda: json_payload("probe", {"x": 1}),
        lambda text, tmp: read_jsonl(_jsonl(tmp, text)),
        ReproError,
    ),
    "decode_message": (
        lambda: json_payload(MSG_WINDOW, {"worker": 0, "window": 1}),
        lambda text, tmp: decode_message(text),
        ClusterError,
    ),
    "report_from_json": (
        lambda: json.loads(_evaluation().to_json()),
        lambda text, tmp: report_from_json(text),
        ReproError,
    ),
    "load_schedule": (
        lambda: json_payload("schedule", schedule_to_dict(_schedule())),
        lambda text, tmp: load_schedule(_file(tmp, text)),
        ReproError,
    ),
}


class TestCorruptInputMatrix:
    @pytest.mark.parametrize("reader", READERS)
    def test_valid_envelope_is_accepted(self, reader, tmp_path):
        envelope, read, _ = READERS[reader]
        assert read(json.dumps(envelope()), tmp_path) is not None

    @pytest.mark.parametrize("case", CASES)
    @pytest.mark.parametrize("reader", READERS)
    def test_corrupt_envelope_raises_typed_error(self, reader, case, tmp_path):
        envelope, read, error = READERS[reader]
        with pytest.raises(error):
            read(CASES[case](envelope()), tmp_path)

    def test_bad_jsonl_line_is_named(self, tmp_path):
        path = _jsonl(tmp_path, "[1, 2]")
        with pytest.raises(ReproError, match=re.escape(f"{path}:1: ")):
            read_jsonl(path)

    def test_report_file_is_not_a_schedule(self, tmp_path):
        path = tmp_path / "report.json"
        save_report(_evaluation(), path)
        with pytest.raises(ReproError, match="'schedule', got 'evaluation'"):
            load_schedule(path)

    def test_missing_file_raises(self, tmp_path):
        for read in (read_json, read_jsonl, load_report):
            with pytest.raises(ReproError, match="cannot load"):
                read(tmp_path / "nope.json")


class TestDecodeEnvelope:
    def test_returns_kind_and_body(self):
        text = json.dumps(json_payload("probe", {"x": 1}))
        assert decode_envelope(text) == ("probe", {"x": 1})
        assert decode_envelope(text, "probe") == ("probe", {"x": 1})

    def test_kind_mismatch_names_both_kinds(self):
        text = json.dumps(json_payload("probe", {}))
        with pytest.raises(ReproError, match="expected kind 'other', got 'probe'"):
            decode_envelope(text, "other")

    def test_label_names_the_input(self):
        with pytest.raises(ReproError, match="malformed wire JSON"):
            decode_envelope("{", label="wire")

    def test_boolean_schema_version_rejected(self):
        doc = {"schema_version": True, "kind": "probe", "body": {}}
        with pytest.raises(ReproError, match="schema_version"):
            decode_envelope(json.dumps(doc))


class TestReadJsonl:
    def test_only_an_unterminated_final_line_is_dropped(self, tmp_path):
        line = json.dumps(json_payload("probe", {"x": 1}))
        path = tmp_path / "log.jsonl"
        path.write_text(f"{line}\n\n{line}", encoding="utf-8")
        assert read_jsonl(path) == [{"x": 1}]

    def test_garbled_middle_line_raises(self, tmp_path):
        line = json.dumps(json_payload("probe", {"x": 1}))
        path = tmp_path / "log.jsonl"
        path.write_text(f"{line}\n{line[:9]}\n{line}\n", encoding="utf-8")
        with pytest.raises(ReproError, match=re.escape(f"{path}:2: malformed")):
            read_jsonl(path)

    def test_kind_checked_on_every_line(self, tmp_path):
        path = tmp_path / "log.jsonl"
        path.write_text(
            json.dumps(json_payload("probe", {})) + "\n"
            + json.dumps(json_payload("other", {})) + "\n",
            encoding="utf-8",
        )
        with pytest.raises(ReproError, match=re.escape(f"{path}:2: expected kind")):
            read_jsonl(path, "probe")


def _model_files():
    """kind -> (saver, loader, value, plain-data converter)."""
    from repro.faults import random_fault_plan
    from repro.io import (
        load_fault_plan,
        load_instance,
        load_online_workload,
        load_rw_instance,
        save_fault_plan,
        save_instance,
        save_online_workload,
        save_rw_instance,
        save_schedule,
    )
    from repro.online import poisson_workload
    from repro.replication import random_rw_instance

    sched = _schedule()
    rng = np.random.default_rng(5)
    plan = random_fault_plan(grid(3), 30, rng, objects=range(4),
                             crash_rate=0.2)
    rw = random_rw_instance(grid(3), w=4, k=2, write_fraction=0.4, rng=rng)
    wl = poisson_workload(clique(6), w=4, k=2, rate=0.5, count=5, rng=rng)
    return {
        "instance": (save_instance, load_instance, sched.instance,
                     instance_to_dict),
        "schedule": (save_schedule, load_schedule, sched, schedule_to_dict),
        "fault_plan": (save_fault_plan, load_fault_plan, plan,
                       fault_plan_to_json),
        "rw_instance": (save_rw_instance, load_rw_instance, rw,
                        rw_instance_to_dict),
        "online_workload": (save_online_workload, load_online_workload, wl,
                            online_workload_to_dict),
    }


class TestModelFiles:
    @pytest.mark.parametrize(
        "kind",
        ["instance", "schedule", "fault_plan", "rw_instance", "online_workload"],
    )
    def test_saved_as_envelope_and_loaded_back(self, kind, tmp_path):
        save, load, value, to_dict = _model_files()[kind]
        path = tmp_path / f"{kind}.json"
        save(value, path)
        doc = json.loads(path.read_text(encoding="utf-8"))
        assert sorted(doc) == ["body", "kind", "schema_version"]
        assert (doc["schema_version"], doc["kind"]) == (SCHEMA_VERSION, kind)
        assert doc["body"] == to_dict(value)
        assert to_dict(load(path)) == to_dict(value)

    def test_loader_rejects_another_kind(self, tmp_path):
        from repro.io import load_instance, save_schedule

        path = tmp_path / "s.json"
        save_schedule(_schedule(), path)
        with pytest.raises(ReproError, match="'instance', got 'schedule'"):
            load_instance(path)


def _reports():
    """One real report of every registered kind."""
    from repro.experiments.sweep import SweepReport
    from repro.faults import (
        degradation_report,
        faulty_execute,
        random_fault_plan,
    )
    from repro.online import poisson_workload, run_resilient
    from repro.service import ServiceConfig, run_service
    from repro.workloads.streams import PoissonStream

    sched = _schedule()
    plan = random_fault_plan(line(6), horizon=sched.makespan,
                             rng=np.random.default_rng(7), crash_rate=0.1,
                             objects=sched.instance.objects)
    degradation = degradation_report(sched, plan, faulty_execute(sched, plan))
    wl = poisson_workload(clique(8), w=6, k=2, rate=0.7, count=6,
                          rng=np.random.default_rng(11))
    online = run_resilient(
        wl, plan=random_fault_plan(clique(8), horizon=20,
                                   rng=np.random.default_rng(5)),
    ).report
    stream = StreamSpec(kind="poisson", w=8, k=2, rate=0.6, seed=7)
    cluster = run_cluster(
        "grid", 3, None, stream, ServiceConfig(window=8),
        ClusterConfig(workers=1, windows=2, poll_interval_s=0.02),
    )
    service = run_service(
        PoissonStream(grid(3), w=8, k=2, rate=0.6,
                      rng=np.random.default_rng(1)),
        windows=3, config=ServiceConfig(window=8),
    )
    sweep = SweepReport(
        experiments=("e1",), seeds=(1,), quick=True, workers=1,
        cells=({"experiment": "e1", "seed": 1, "table": {"rows": [[1, 2]]}},),
        profiles=({"wall_s": 0.5},),
    )
    return {
        "evaluation": _evaluation(),
        "degradation": degradation,
        "online_degradation": online,
        "service": service,
        "cluster": cluster,
        "sweep": sweep,
    }


class TestReportRoundTrips:
    def test_every_registered_kind_round_trips(self, tmp_path):
        _ensure_kinds_registered()
        reports = _reports()
        assert set(reports) == set(REPORT_KINDS)
        for kind, rep in reports.items():
            text = rep.to_json()
            assert sorted(json.loads(text)) == ["body", "kind", "schema_version"]
            assert type(rep).from_json(text) == rep
            assert report_from_json(text) == rep
            path = tmp_path / f"{kind}.json"
            save_report(rep, path)
            assert path.read_text() == text
            assert load_report(path) == rep


def test_a_fresh_process_loads_every_report_kind(tmp_path):
    # other test modules import every report class; a fresh interpreter
    # must find them all through the report registry alone
    reports = _reports()
    path = tmp_path / "sweep.json"
    save_report(reports["sweep"], path)
    code = (
        "import sys\n"
        "from repro.analysis import REPORT_KINDS\n"
        "from repro.io import load_report\n"
        "print(type(load_report(sys.argv[1])).__name__, sorted(REPORT_KINDS))\n"
    )
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(src), os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run([sys.executable, "-c", code, str(path)], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr[-2000:]
    name, kinds = proc.stdout.split(" ", 1)
    assert name == "SweepReport"
    assert kinds.strip() == str(sorted(reports))


class TestWireRoundTrips:
    @pytest.mark.parametrize("kind", WIRE_KINDS)
    def test_every_wire_kind_round_trips(self, kind):
        body = {"worker": 1, "nested": {"a": [1, 2]}, "text": "x\ny"}
        text = encode_message(kind, body)
        assert "\n" not in text
        assert decode_message(text, expected_kind=kind) == (kind, body)

    def test_unknown_kind_in_a_valid_envelope_rejected(self):
        text = json.dumps(json_payload("gossip", {}))
        with pytest.raises(ClusterError, match="unknown wire kind"):
            decode_message(text)
