"""Schedule certificates: accept every schedule the dispatcher emits,
reject tampered ones with typed violations, and round-trip through the
signed JSON envelope."""

import json

import numpy as np
import pytest

import repro
from repro.cli import main
from repro.core.schedule import Schedule
from repro.errors import CertificationError
from repro.io import load_certificate, save_certificate, save_schedule
from repro.network import clique, cluster, grid, hypercube, line, star
from repro.staticcheck import (
    certificate_from_dict,
    certificate_to_dict,
    certify_schedule,
    verify_certificate,
)
from repro.staticcheck.certify import CHECK_NAMES
from repro.workloads import random_k_subsets

NETWORKS = {
    "clique": clique(12),
    "line": line(16),
    "grid": grid(5),
    "hypercube": hypercube(4),
    "cluster": cluster(4, 4),
    "star": star(4, 5),
}


def build(name, seed, w=None, k=2):
    net = NETWORKS[name]
    rng = np.random.default_rng(seed)
    if w is None:
        w = max(2, net.n // 2)
    inst = random_k_subsets(net, w, k, rng)
    return inst, repro.schedule(inst, rng=np.random.default_rng(seed + 1))


# ---------------------------------------------------------------------- #
# acceptance across topologies
# ---------------------------------------------------------------------- #


@pytest.mark.parametrize("name", sorted(NETWORKS))
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_dispatcher_schedules_certify(name, seed):
    _, sched = build(name, seed)
    cert = certify_schedule(sched)
    assert cert.ok
    assert cert.failures() == ()
    assert [c.name for c in cert.checks] == list(CHECK_NAMES)
    assert cert.makespan == sched.makespan
    assert verify_certificate(cert)


@pytest.mark.parametrize("algo", ["greedy", "sequential", "tsp-order"])
def test_baseline_algorithms_certify(algo):
    net = clique(10)
    inst = random_k_subsets(net, 6, 2, np.random.default_rng(9))
    sched = repro.schedule(inst, algo=algo, rng=np.random.default_rng(10))
    assert certify_schedule(sched).ok


def test_certificate_records_context():
    _, sched = build("clique", 4)
    cert = certify_schedule(sched)
    assert cert.topology == "clique"
    assert cert.transactions == len(sched.instance.transactions)
    assert cert.lower_bound <= cert.makespan
    assert cert.signature
    assert "OK" in cert.render()


# ---------------------------------------------------------------------- #
# rejection of tampered schedules
# ---------------------------------------------------------------------- #


def conflicting_pair(inst):
    """Two transactions at distinct nodes sharing an object."""
    for obj in inst.objects:
        users = inst.users(obj)
        for a in users:
            for b in users:
                if a.tid < b.tid and a.node != b.node:
                    return a.tid, b.tid
    raise AssertionError("instance has no usable conflict pair")


def test_mutated_schedule_rejected_strict():
    inst, sched = build("clique", 5)
    a, b = conflicting_pair(inst)
    times = dict(sched.commit_times)
    times[b] = times[a]  # two conflicting commits collide
    broken = Schedule(inst, times, meta=sched.meta)
    with pytest.raises(CertificationError) as exc:
        certify_schedule(broken)
    assert "conflict_separation" in exc.value.failures
    assert set(exc.value.failures) <= set(CHECK_NAMES)


def test_mutated_schedule_nonstrict_reports_failures():
    inst, sched = build("line", 6)
    a, b = conflicting_pair(inst)
    times = dict(sched.commit_times)
    times[b] = times[a]
    cert = certify_schedule(Schedule(inst, times, meta=sched.meta),
                            strict=False)
    assert not cert.ok
    assert "single_copy" in cert.failures()
    assert "REJECTED" in cert.render()


def test_infeasible_itinerary_rejected():
    inst, sched = build("line", 7)
    victim = None
    for obj in inst.objects:
        for t in inst.users(obj):
            if inst.network.dist(inst.home(obj), t.node) >= 2:
                victim = t.tid
                break
        if victim is not None:
            break
    assert victim is not None
    times = dict(sched.commit_times)
    times[victim] = 1  # object cannot reach the node in one step
    cert = certify_schedule(Schedule(inst, times, meta=sched.meta),
                            strict=False)
    assert "itinerary_feasibility" in cert.failures()


# ---------------------------------------------------------------------- #
# signatures and persistence
# ---------------------------------------------------------------------- #


def test_dict_roundtrip_preserves_certificate():
    _, sched = build("grid", 8)
    cert = certify_schedule(sched)
    clone = certificate_from_dict(certificate_to_dict(cert))
    assert clone == cert
    assert verify_certificate(certificate_to_dict(clone))


def test_tampered_payload_fails_verification():
    _, sched = build("star", 9)
    payload = certificate_to_dict(certify_schedule(sched))
    payload["makespan"] = payload["makespan"] + 1
    assert not verify_certificate(payload)


def test_tampered_check_fails_verification():
    _, sched = build("cluster", 10)
    payload = certificate_to_dict(certify_schedule(sched))
    payload["checks"][0]["passed"] = not payload["checks"][0]["passed"]
    assert not verify_certificate(payload)


def test_save_load_certificate(tmp_path):
    _, sched = build("hypercube", 11)
    cert = certify_schedule(sched)
    path = tmp_path / "cert.json"
    save_certificate(cert, path)
    envelope = json.loads(path.read_text())
    assert envelope["kind"] == "certificate"
    loaded = load_certificate(path)
    assert loaded == cert
    assert verify_certificate(loaded)


# ---------------------------------------------------------------------- #
# CLI integration
# ---------------------------------------------------------------------- #


def test_cli_validate_emits_certificate(tmp_path, capsys):
    _, sched = build("clique", 13)
    sched_path = tmp_path / "sched.json"
    save_schedule(sched, sched_path)
    cert_path = tmp_path / "cert.json"
    json_path = tmp_path / "validation.json"
    code = main([
        "validate", str(sched_path),
        "--certificate", str(cert_path), "--json", str(json_path),
    ])
    assert code == 0
    assert "certificate: OK" in capsys.readouterr().out
    loaded = load_certificate(cert_path)
    assert loaded.ok
    assert verify_certificate(loaded)
    body = json.loads(json_path.read_text())["body"]
    assert body["certificate"]["ok"] is True


def test_cli_schedule_certify_flag(tmp_path, capsys):
    cert_path = tmp_path / "cert.json"
    code = main([
        "schedule", "--topology", "line", "--size", "12", "--objects", "8",
        "--seed", "4", "--certify", "--certificate", str(cert_path),
    ])
    assert code == 0
    assert "certificate: OK" in capsys.readouterr().out
    assert load_certificate(cert_path).ok
