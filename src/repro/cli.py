"""Command-line interface.

Subcommands::

    repro-dtm run e1 e7 --quick      # rerun experiment tables (default)
    repro-dtm run all --seed 7
    repro-dtm run e1 --quick --trace-out e1.json   # record a trace
    repro-dtm sweep e1 e3 --seeds 1 2 3 --workers 4 --quick  # parallel sweep
    repro-dtm trace summarize e1.json              # digest a saved trace
    repro-dtm trace export e1.json --csv e1.csv
    repro-dtm schedule --topology clique --size 32 --objects 16 --k 2
    repro-dtm schedulers             # list schedulers, bounds, routed families
    repro-dtm figures                # regenerate the paper's figures (ASCII)
    repro-dtm validate sched.json    # check a saved schedule end to end
    repro-dtm lint src/repro         # static determinism/invariant lint
    repro-dtm lint --rules           # print the rule catalogue
    repro-dtm --list                 # list experiments

``run``/``validate`` accept ``--json FILE`` to additionally write their
results as a versioned JSON document (stable key order, ``schema_version``
field).  Bare experiment ids (``python -m repro e1 --quick``) are accepted
without the ``run`` keyword for convenience.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

from .experiments.registry import TITLES, experiment_ids, run_experiment

__all__ = ["main"]


def _insert_eid(path: str, eid: str) -> str:
    """``e1.json`` stays put for one target; multi-target runs get
    ``trace-e1.json``-style names so traces don't overwrite each other."""
    p = Path(path)
    return str(p.with_name(f"{p.stem}-{eid}{p.suffix or '.json'}"))


def _cmd_run(args) -> int:
    targets = (
        experiment_ids() if "all" in args.experiments else list(args.experiments)
    )
    tables = {}
    for eid in targets:
        recorder = None
        if args.trace_out:
            from .obs import MemoryRecorder

            recorder = MemoryRecorder(
                meta={"experiment": eid, "quick": args.quick,
                      "seed": args.seed}
            )
        t0 = time.perf_counter()
        table = run_experiment(
            eid, seed=args.seed, quick=args.quick, recorder=recorder
        )
        dt = time.perf_counter() - t0
        tables[eid] = table
        print(table.to_markdown() if args.markdown else table.render())
        print(f"[{eid} finished in {dt:.1f}s]")
        print()
        if recorder is not None:
            from .io import save_trace

            out = (
                args.trace_out
                if len(targets) == 1
                else _insert_eid(args.trace_out, eid)
            )
            save_trace(recorder.trace(), out)
            print(f"trace written to {out}")
            print()
    if args.json:
        from .io import write_json

        write_json(
            args.json,
            "experiment_tables",
            {
                "seed": args.seed,
                "quick": args.quick,
                "tables": {eid: t.as_dict() for eid, t in tables.items()},
            },
        )
        print(f"tables written to {args.json}")
    return 0


def _cmd_trace(args) -> int:
    from .io import load_trace, save_trace_csv

    trace = load_trace(args.path)
    if args.trace_command == "summarize":
        print(trace.summarize())
    else:  # export
        save_trace_csv(trace, args.csv)
        print(f"csv written to {args.csv}")
    return 0


def _build_network(args):
    from .network import network_from_sizes

    return network_from_sizes(args.topology, args.size, args.size2)


def _cmd_schedule(args) -> int:
    import numpy as np

    from .analysis.metrics import evaluate
    from .core import resolve_scheduler
    from .viz import render_gantt
    from .workloads import hot_object_instance, random_k_subsets, zipf_k_subsets

    net = _build_network(args)
    rng = np.random.default_rng(args.seed)
    gen = {
        "random": random_k_subsets,
        "zipf": zipf_k_subsets,
        "hot": hot_object_instance,
    }[args.workload]
    inst = gen(net, args.objects, args.k, rng)
    sched_algo = resolve_scheduler(args.scheduler, topology=net.topology.name)
    ev = evaluate(sched_algo, inst, rng)
    print(
        f"{net.topology.name} n={net.n} m={inst.m} w={inst.num_objects} "
        f"k={args.k} workload={args.workload}"
    )
    print(
        f"scheduler={ev.scheduler} makespan={ev.makespan} "
        f"lower_bound={ev.lower_bound} ratio<={ev.ratio:.3f} "
        f"comm_cost={ev.communication_cost}"
    )
    schedule = None
    if args.save or args.gantt or args.certify:
        schedule = sched_algo.schedule(inst, np.random.default_rng(args.seed))
    if args.save:
        from .io import save_schedule

        save_schedule(schedule, args.save)
        print(f"schedule written to {args.save}")
    if args.certify:
        from .staticcheck import certify_schedule

        cert = certify_schedule(schedule, strict=False)
        print(cert.render())
        if args.certificate:
            from .io import save_certificate

            save_certificate(cert, args.certificate)
            print(f"certificate written to {args.certificate}")
    if args.gantt:
        print(render_gantt(schedule))
    return 0


def _cmd_session(args) -> int:
    import time

    import numpy as np

    from .core import open_session
    from .core.transaction import Transaction

    net = _build_network(args)
    if args.window >= net.n:
        print(f"error: --window must be < n={net.n} (one txn per node)",
              file=sys.stderr)
        return 2
    rng = np.random.default_rng(args.seed)
    homes = {
        obj: int(node)
        for obj, node in enumerate(rng.integers(0, net.n, size=args.objects))
    }
    total = args.window + args.batch * args.epochs
    txns = [
        Transaction(
            tid,
            tid % net.n,
            rng.choice(args.objects, size=args.k, replace=False),
        )
        for tid in range(total)
    ]
    latencies = []
    with open_session(
        net, algo=args.algo, object_homes=homes,
        home_policy=args.home_policy,
    ) as sess:
        sess.submit(txns[:args.window])
        sched = sess.current_schedule()
        print(
            f"{net.topology.name} n={net.n} mode={sess.mode} "
            f"algo={sess.algo} window={args.window} batch={args.batch} "
            f"epochs={args.epochs}"
        )
        next_tid = args.window
        for epoch in range(args.epochs):
            oldest = sess.active_ids()[:args.batch]
            batch = txns[next_tid:next_tid + args.batch]
            t0 = time.perf_counter()
            sess.commit(oldest)
            sess.submit(batch)
            sched = sess.current_schedule()
            latencies.append(time.perf_counter() - t0)
            next_tid += args.batch
            if args.verbose:
                print(
                    f"  epoch {epoch:4d}: makespan={sched.makespan:4d} "
                    f"colors={sched.meta['colors_used']:3d} "
                    f"{latencies[-1] * 1e3:7.3f} ms"
                )
        stats = sess.stats
    lat = np.asarray(latencies)
    committed = args.batch * args.epochs
    summary = {
        "committed": committed,
        "throughput_txn_s": committed / float(lat.sum()),
        "p50_latency_s": float(np.percentile(lat, 50)),
        "p99_latency_s": float(np.percentile(lat, 99)),
        "stats": stats,
    }
    print(
        f"committed={committed} "
        f"throughput={summary['throughput_txn_s']:.0f} txn/s "
        f"p50={summary['p50_latency_s'] * 1e3:.3f} ms "
        f"p99={summary['p99_latency_s'] * 1e3:.3f} ms"
    )
    print(
        f"repairs examined={stats.get('repairs_examined', 0)} "
        f"changed={stats.get('repairs_changed', 0)} "
        f"full_rebuilds={stats.get('full_rebuilds', 0)} "
        f"memo hits={stats.get('memo_hits', 0)} "
        f"misses={stats.get('memo_misses', 0)}"
    )
    if args.json:
        from .io import write_json

        write_json(args.json, "session_summary", summary)
        print(f"session summary written to {args.json}")
    return 0


def _cmd_service(args) -> int:
    import numpy as np

    from .service import ServiceConfig, run_service
    from .workloads import spawn
    from .workloads.streams import AdversarialStream, MMPPStream, PoissonStream

    net = _build_network(args)
    rng = spawn(args.seed, "cli-service", args.stream)
    if args.stream == "poisson":
        stream = PoissonStream(net, w=args.objects, k=args.k, rate=args.rate,
                               rng=rng)
    elif args.stream == "mmpp":
        stream = MMPPStream(net, w=args.objects, k=args.k,
                            rate_low=args.rate / 4, rate_high=args.rate * 2,
                            switch=0.1, rng=rng)
    else:  # adversarial
        stream = AdversarialStream(net, w=args.objects, k=args.k,
                                   rho=args.rate, burst=args.burst, rng=rng)
    plan = None
    if args.plan:
        from .io import load_fault_plan

        plan = load_fault_plan(args.plan, network=net)
    config = ServiceConfig(
        window=args.window,
        high_water=args.high_water,
        admission=args.policy,
        deadline=args.deadline,
    )
    report = run_service(
        stream, windows=args.windows, config=config, plan=plan,
        rng=np.random.default_rng(args.seed or 0),
    )
    print(report.render())
    if args.json:
        from .io import save_report

        save_report(report, args.json)
        print(f"service report written to {args.json}")
    return 0


def _cmd_cluster(args) -> int:
    from .cluster import (
        ChaosPlan,
        ClusterConfig,
        StreamSpec,
        WorkerDelay,
        WorkerKill,
        WorkerStall,
        run_cluster,
    )
    from .errors import ReproError
    from .faults.backoff import RetryPolicy
    from .service import ServiceConfig

    events = []
    for spec in args.chaos or []:
        parts = spec.split(":")
        kind = parts[0]
        worker = int(parts[1]) if len(parts) > 1 else min(1, args.workers - 1)
        window = int(parts[2]) if len(parts) > 2 else max(1, args.windows // 2)
        if kind == "kill":
            events.append(WorkerKill(worker, window))
        elif kind == "stall":
            events.append(WorkerStall(
                worker, window, seconds=args.heartbeat_timeout * 20
            ))
        elif kind == "delay":
            events.append(WorkerDelay(
                worker, window, seconds=args.heartbeat_timeout / 10
            ))
        else:
            raise ReproError(
                f"unknown chaos spec {spec!r}; use kind[:worker[:window]] "
                f"with kind in kill/stall/delay"
            )
    stream = StreamSpec(
        kind=args.stream, w=args.objects, k=args.k, rate=args.rate,
        rate_low=args.rate / 4, rate_high=args.rate * 2, burst=args.burst,
        seed=args.seed, assign=args.assign,
    )
    svc = ServiceConfig(window=args.window, high_water=args.high_water)
    config = ClusterConfig(
        workers=args.workers,
        windows=args.windows,
        heartbeat_timeout_s=args.heartbeat_timeout,
        retry=RetryPolicy(max_retries=args.max_restarts, max_wait=4),
        restart_backoff_s=0.02,
        checkpoint_every=args.checkpoint_every,
    )
    report = run_cluster(
        args.topology, args.size, args.size2, stream, svc, config,
        chaos=ChaosPlan(events),
    )
    print(report.render())
    status = 0
    if args.parity:
        baseline = run_cluster(
            args.topology, args.size, args.size2, stream, svc, config,
        )
        match = baseline.parity_key() == report.parity_key()
        print(
            "parity with fault-free run: " + ("OK" if match else "MISMATCH")
        )
        status = 0 if match else 1
    if args.json:
        from .io import save_report

        save_report(report, args.json)
        print(f"cluster report written to {args.json}")
    return status


def _cmd_figures(args) -> int:
    from .core import GridScheduler
    from .network import cluster, grid, lower_bound_grid, lower_bound_tree, star
    from .viz import (
        render_block_graph,
        render_cluster,
        render_line_blocks,
        render_object_path,
        render_star_rings,
        render_subgrid_order,
    )
    from .workloads import random_k_subsets, root_rng

    print("Fig 1:", render_line_blocks(32, 8), sep="\n")
    print("\nFig 2:", render_subgrid_order(16, 16, 4), sep="\n")
    inst = random_k_subsets(grid(16), w=16, k=2, rng=root_rng(args.seed))
    sched = GridScheduler(side=4).schedule(inst)
    hot = max(inst.objects, key=inst.load)
    print(render_object_path(sched, hot, cols=16))
    print("\nFig 3:", render_cluster(cluster(5, 6, gamma=8)), sep="\n")
    print("\nFig 4:", render_star_rings(star(8, 7)), sep="\n")
    print("\nFig 5:", render_block_graph(lower_bound_grid(4)), sep="\n")
    print("\nFig 6:", render_block_graph(lower_bound_tree(4)), sep="\n")
    return 0


def _cmd_validate(args) -> int:
    from .bounds import makespan_lower_bound
    from .io import load_fault_plan, load_schedule
    from .sim import execute

    from .staticcheck import certify_schedule

    schedule = load_schedule(args.path)
    schedule.validate()
    trace = execute(schedule)
    lb = makespan_lower_bound(schedule.instance)
    print(
        f"OK: {len(schedule.commit_times)} commits, makespan "
        f"{schedule.makespan} (lower bound {lb}), communication "
        f"{trace.total_distance}, peak in-flight {trace.max_in_flight}"
    )
    cert = certify_schedule(schedule, strict=False)
    print(cert.render())
    result = {
        "path": str(args.path),
        "valid": True,
        "commits": len(schedule.commit_times),
        "makespan": schedule.makespan,
        "lower_bound": lb,
        "communication": trace.total_distance,
        "max_in_flight": trace.max_in_flight,
        "certificate": cert.as_dict(),
    }
    if args.certificate:
        from .io import save_certificate

        save_certificate(cert, args.certificate)
        print(f"certificate written to {args.certificate}")
    if args.plan:
        from .faults import degradation_report, faulty_execute

        plan = load_fault_plan(args.plan, network=schedule.instance.network)
        ftrace = faulty_execute(schedule, plan)
        print(f"fault plan OK: {len(plan)} events validated against the "
              f"network; replay:")
        rep = degradation_report(schedule, plan, ftrace)
        print(rep.render())
        result["degradation"] = rep.as_dict()
    if args.json:
        from .io import write_json

        write_json(args.json, "validation", result)
        print(f"validation written to {args.json}")
    return 0


def _cmd_lint(args) -> int:
    from .staticcheck import rule_catalog, run_lint, run_typing_gate

    if args.rules:
        for entry in rule_catalog():
            print(
                f"{entry['rule']:8s} [{entry['severity']:7s}] "
                f"{entry['title']} (scope: {entry['scope']})"
            )
            print(f"{'':8s} fix: {entry['fix_hint']}")
        return 0
    paths = args.paths or [str(Path(__file__).parent)]
    select = args.select.split(",") if args.select else None
    report = run_lint(paths, select=select)
    gate_steps = run_typing_gate() if args.gate else []
    if args.json:
        from .io import dumps_canonical, json_payload, write_json

        body = report.as_dict()
        if gate_steps:
            body["gate"] = [step.as_dict() for step in gate_steps]
        if args.json == "-":
            print(dumps_canonical(json_payload("lint", body)))
        else:
            write_json(args.json, "lint", body)
            print(f"lint report written to {args.json}")
    if args.json != "-":
        print(report.render())
        for step in gate_steps:
            print(step.render())
    gate_ok = all(step.ok for step in gate_steps)
    return 0 if (report.ok and gate_ok) else 1


def _cmd_report(args) -> int:
    from .experiments.report import generate_report

    out = generate_report(
        args.output,
        seed=args.seed,
        quick=not args.full,
        experiments=args.experiments or None,
        json_out=args.json,
    )
    print(f"report written to {out}")
    if args.json:
        print(f"tables written to {args.json}")
    return 0


def _list_experiments() -> int:
    for eid in experiment_ids():
        print(f"{eid:4s} {TITLES[eid]}")
    return 0


def _cmd_sweep(args) -> int:
    from .experiments.sweep import run_sweep

    targets = (
        experiment_ids() if "all" in args.experiments else list(args.experiments)
    )
    t0 = time.perf_counter()
    report = run_sweep(
        targets,
        seeds=args.seeds,
        quick=args.quick,
        workers=args.workers,
    )
    dt = time.perf_counter() - t0
    for cell, prof in zip(report.cells, report.profiles):
        rows = len(cell["table"]["rows"])
        print(
            f"{cell['experiment']:4s} seed={cell['seed']:<4d} "
            f"rows={rows:<3d} wall={prof['wall_s']:.2f}s"
        )
    print(
        f"[{len(report.cells)} cells, workers={report.workers}, "
        f"{dt:.1f}s wall]"
    )
    if args.json:
        from .io import save_report

        save_report(report, args.json)
        print(f"sweep report written to {args.json}")
    return 0


def _cmd_schedulers(args) -> int:
    from .core import SCHEDULER_INFO
    from .network import TOPOLOGY_INFO

    for info in SCHEDULER_INFO.values():
        topos = ",".join(
            f.name for f in TOPOLOGY_INFO.values()
            if f.default_algo == info.name
        ) or "-"
        print(f"{info.name:15s} auto for: {topos}")
        print(f"{'':15s} bound: {info.bound}")
    return 0


def _cmd_topologies(args) -> int:
    from .network import TOPOLOGY_INFO

    for info in TOPOLOGY_INFO.values():
        params = ", ".join(
            p.name if p.required else f"{p.name}={p.default!r}"
            for p in info.params
        )
        print(
            f"{info.name:14s} algo={info.default_algo:9s} params=({params})"
        )
        print(f"{'':14s} {info.doc}")
    return 0


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    # convenience: bare experiment ids imply `run`
    if argv and (argv[0] in experiment_ids() or argv[0] == "all"):
        argv.insert(0, "run")

    parser = argparse.ArgumentParser(
        prog="repro-dtm",
        description=(
            "Reproduction of 'Fast Scheduling in Distributed Transactional "
            "Memory' (SPAA 2017)."
        ),
    )
    parser.add_argument("--list", action="store_true", help="list experiments")
    sub = parser.add_subparsers(dest="command")

    p_run = sub.add_parser("run", help="run experiment tables")
    p_run.add_argument("experiments", nargs="+", help="e1..e21 or 'all'")
    p_run.add_argument("--seed", type=int, default=None)
    p_run.add_argument("--quick", action="store_true")
    p_run.add_argument("--markdown", action="store_true")
    p_run.add_argument("--trace-out", default=None, metavar="FILE",
                       help="record an observability trace per experiment "
                            "and write it as JSON")
    p_run.add_argument("--json", default=None, metavar="FILE",
                       help="also write the result tables as JSON")
    p_run.set_defaults(func=_cmd_run)

    p_sweep = sub.add_parser(
        "sweep", help="run experiments x seeds across worker processes"
    )
    p_sweep.add_argument("experiments", nargs="+", help="e1..e21 or 'all'")
    p_sweep.add_argument("--seeds", type=int, nargs="+", default=[0],
                         metavar="S", help="seeds to sweep (default: 0)")
    p_sweep.add_argument("--workers", type=int, default=1,
                         help="worker processes (default: 1; result is "
                              "identical for any count)")
    p_sweep.add_argument("--quick", action="store_true")
    p_sweep.add_argument("--json", default=None, metavar="FILE",
                         help="write the merged sweep report as JSON")
    p_sweep.set_defaults(func=_cmd_sweep)

    p_trace = sub.add_parser("trace", help="inspect a saved trace JSON")
    trace_sub = p_trace.add_subparsers(dest="trace_command", required=True)
    p_tsum = trace_sub.add_parser(
        "summarize", help="print a digest of a saved trace"
    )
    p_tsum.add_argument("path")
    p_tsum.set_defaults(func=_cmd_trace)
    p_texp = trace_sub.add_parser(
        "export", help="export a saved trace's events as CSV"
    )
    p_texp.add_argument("path")
    p_texp.add_argument("--csv", required=True, metavar="OUT")
    p_texp.set_defaults(func=_cmd_trace)

    p_sched = sub.add_parser("schedule", help="schedule an ad-hoc instance")
    p_sched.add_argument("--topology", required=True)
    p_sched.add_argument("--size", type=int, required=True,
                         help="n / side / dim / alpha (per topology)")
    p_sched.add_argument("--size2", type=int, default=None,
                         help="cols / beta / ray length where applicable")
    p_sched.add_argument("--objects", type=int, default=16)
    p_sched.add_argument("--k", type=int, default=2)
    p_sched.add_argument("--workload", default="random",
                         choices=["random", "zipf", "hot"])
    p_sched.add_argument("--scheduler", default="auto")
    p_sched.add_argument("--seed", type=int, default=0)
    p_sched.add_argument("--save", default=None, help="write schedule JSON")
    p_sched.add_argument("--certify", action="store_true",
                         help="statically certify the schedule and print "
                              "the signed certificate")
    p_sched.add_argument("--certificate", default=None, metavar="FILE",
                         help="with --certify, also write the certificate "
                              "JSON envelope")
    p_sched.add_argument("--gantt", action="store_true")
    p_sched.set_defaults(func=_cmd_schedule)

    p_sess = sub.add_parser(
        "session",
        help="drive a rolling scheduler session (incremental engine demo)",
    )
    p_sess.add_argument("--topology", default="grid")
    p_sess.add_argument("--size", type=int, default=8,
                        help="n / side / dim / alpha (per topology)")
    p_sess.add_argument("--size2", type=int, default=None,
                        help="cols / beta / ray length where applicable")
    p_sess.add_argument("--algo", default="auto",
                        help="scheduler algo (auto routes by topology)")
    p_sess.add_argument("--window", type=int, default=48,
                        help="live transactions kept in flight")
    p_sess.add_argument("--batch", type=int, default=8,
                        help="transactions committed+admitted per epoch")
    p_sess.add_argument("--epochs", type=int, default=50)
    p_sess.add_argument("--objects", type=int, default=64)
    p_sess.add_argument("--k", type=int, default=2)
    p_sess.add_argument("--home-policy", default="static",
                        choices=["static", "follow"])
    p_sess.add_argument("--seed", type=int, default=0)
    p_sess.add_argument("--verbose", action="store_true",
                        help="print per-epoch makespan and latency")
    p_sess.add_argument("--json", default=None, metavar="FILE",
                        help="write the session summary JSON")
    p_sess.set_defaults(func=_cmd_session)

    p_svc = sub.add_parser(
        "service", help="run the continuous-arrival scheduling service"
    )
    p_svc.add_argument("--topology", required=True)
    p_svc.add_argument("--size", type=int, required=True,
                       help="n / side / dim / alpha (per topology)")
    p_svc.add_argument("--size2", type=int, default=None,
                       help="cols / beta / ray length where applicable")
    p_svc.add_argument("--stream", default="poisson",
                       choices=["poisson", "mmpp", "adversarial"])
    p_svc.add_argument("--rate", type=float, default=0.5,
                       help="arrival rate (poisson/mmpp mean; rho for "
                            "adversarial)")
    p_svc.add_argument("--burst", type=int, default=4,
                       help="adversarial burst bound b")
    p_svc.add_argument("--objects", type=int, default=16)
    p_svc.add_argument("--k", type=int, default=2)
    p_svc.add_argument("--windows", type=int, default=50,
                       help="arrival windows to run")
    p_svc.add_argument("--window", type=int, default=16,
                       help="window length in steps")
    p_svc.add_argument("--high-water", type=int, default=64,
                       help="backpressure high-water mark")
    p_svc.add_argument("--policy", default="defer",
                       choices=["defer", "shed", "strict"])
    p_svc.add_argument("--deadline", type=int, default=None,
                       help="max sojourn before a queued transaction expires")
    p_svc.add_argument("--plan", default=None,
                       help="fault plan JSON to inject live")
    p_svc.add_argument("--seed", type=int, default=0)
    p_svc.add_argument("--json", default=None, metavar="FILE",
                       help="write the service report JSON envelope")
    p_svc.set_defaults(func=_cmd_service)

    p_cl = sub.add_parser(
        "cluster",
        help="run the supervised multi-process scheduling cluster",
    )
    p_cl.add_argument("--topology", default="grid")
    p_cl.add_argument("--size", type=int, default=3,
                      help="n / side / dim / alpha (per topology)")
    p_cl.add_argument("--size2", type=int, default=None,
                      help="cols / beta / ray length where applicable")
    p_cl.add_argument("--workers", type=int, default=2,
                      help="worker processes (one tid residue class each)")
    p_cl.add_argument("--stream", default="poisson",
                      choices=["poisson", "mmpp", "adversarial"])
    p_cl.add_argument("--rate", type=float, default=0.5,
                      help="arrival rate (poisson/mmpp mean; rho for "
                           "adversarial)")
    p_cl.add_argument("--burst", type=int, default=4,
                      help="adversarial burst bound b")
    p_cl.add_argument("--objects", type=int, default=16)
    p_cl.add_argument("--k", type=int, default=2)
    p_cl.add_argument("--assign", default="tid",
                      choices=["tid", "shard"],
                      help="worker ownership: 'tid' residue classes, or "
                           "'shard' coordinator-shard handoff (sharded "
                           "topology families only)")
    p_cl.add_argument("--windows", type=int, default=12,
                      help="arrival windows each worker runs")
    p_cl.add_argument("--window", type=int, default=16,
                      help="window length in steps")
    p_cl.add_argument("--high-water", type=int, default=64,
                      help="backpressure high-water mark")
    p_cl.add_argument("--chaos", action="append", default=None,
                      metavar="KIND[:WORKER[:WINDOW]]",
                      help="inject a chaos event (kill/stall/delay); "
                           "repeatable; defaults: worker 1, mid-run window")
    p_cl.add_argument("--heartbeat-timeout", type=float, default=2.0,
                      help="seconds of silence before a worker is "
                           "killed and restarted like a dead one")
    p_cl.add_argument("--max-restarts", type=int, default=3,
                      help="per-worker restart budget before retirement")
    p_cl.add_argument("--checkpoint-every", type=int, default=8,
                      help="windows between full state checkpoints")
    p_cl.add_argument("--parity", action="store_true",
                      help="also run fault-free and verify the chaos run's "
                           "parity_key matches (exit 1 on mismatch)")
    p_cl.add_argument("--seed", type=int, default=0)
    p_cl.add_argument("--json", default=None, metavar="FILE",
                      help="write the cluster report JSON envelope")
    p_cl.set_defaults(func=_cmd_cluster)

    p_lint = sub.add_parser(
        "lint", help="static determinism/invariant lint over source trees"
    )
    p_lint.add_argument("paths", nargs="*",
                        help="files/directories to lint (default: the "
                             "installed repro package)")
    p_lint.add_argument("--select", default=None, metavar="RULE,...",
                        help="comma-separated rule ids to run "
                             "(default: all rules)")
    p_lint.add_argument("--json", default=None, metavar="FILE",
                        help="write the findings as an enveloped JSON "
                             "document ('-' for stdout)")
    p_lint.add_argument("--rules", action="store_true",
                        help="print the rule catalogue and exit")
    p_lint.add_argument("--gate", action="store_true",
                        help="additionally run ruff and mypy --strict "
                             "when installed")
    p_lint.set_defaults(func=_cmd_lint)

    p_list = sub.add_parser(
        "schedulers",
        help="list each scheduler, its bound and the families routed to it",
    )
    p_list.set_defaults(func=_cmd_schedulers)

    p_topo = sub.add_parser(
        "topologies",
        help="list the registered topology families and their parameters",
    )
    p_topo.set_defaults(func=_cmd_topologies)

    p_fig = sub.add_parser("figures", help="regenerate the paper's figures")
    p_fig.add_argument("--seed", type=int, default=7)
    p_fig.set_defaults(func=_cmd_figures)

    p_val = sub.add_parser("validate", help="validate a saved schedule JSON")
    p_val.add_argument("path")
    p_val.add_argument("--plan", default=None,
                       help="fault plan JSON to validate and replay "
                            "against the schedule")
    p_val.add_argument("--json", default=None, metavar="FILE",
                       help="also write the validation verdict as JSON")
    p_val.add_argument("--certificate", default=None, metavar="FILE",
                       help="also write the signed static certificate")
    p_val.set_defaults(func=_cmd_validate)

    p_rep = sub.add_parser(
        "report", help="write a full reproduction report (tables + figures)"
    )
    p_rep.add_argument("-o", "--output", default="REPRODUCTION_REPORT.md")
    p_rep.add_argument("--seed", type=int, default=None)
    p_rep.add_argument("--full", action="store_true",
                       help="full sweeps (default: quick)")
    p_rep.add_argument("--json", default=None, metavar="FILE",
                       help="also write every table as JSON")
    p_rep.add_argument("experiments", nargs="*", help="subset of e1..e21")
    p_rep.set_defaults(func=_cmd_report)

    args = parser.parse_args(argv)
    if args.list or args.command is None:
        return _list_experiments()
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
