"""End-to-end pipeline benchmark: one command, every workload.

Usage (from the repository root)::

    python3 benchmarks/pipeline/run.py --seed S [--workload NAME]
        [--seconds N] [--trace [0|1]] [--out FILE]

Each selected workload runs once, in its own fresh subprocess
(``measure.py``), started from this one process, which prints every
metric by name with its unit, checks the outputs (the accounting
identity and pass-to-pass determinism inside the subprocess; the
golden digest for the default seed here; traced against untraced
digests in ``--trace`` runs) and ends with one JSON line:
``{"correct", "attempted", "failed", "metrics"}`` for a single
workload.  ``--trace`` reports the per-layer metrics instead of the
end-to-end ones.  The exit status is non-zero when any check fails.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
DEFAULT_SEED = 20170722
#: a workload subprocess is killed this long after its measured seconds
#: (start-up and set-up take a few seconds; a hang takes forever)
CHILD_GRACE_S = 140


def _spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 scale: float) -> dict:
    """Measure one workload in a fresh subprocess; its parsed result."""
    workdir = HERE / ".work" / f"{name}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    env["TMPDIR"] = str(workdir)
    cmd = [sys.executable, str(HERE / "measure.py"), "--workload", name,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(int(trace)), "--scale", str(scale),
           "--workdir", str(workdir)]
    # a session of its own, so a timeout kills the cluster workers too
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                            text=True, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=seconds + CHILD_GRACE_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise RuntimeError(f"{name}: no result within "
                           f"{seconds + CHILD_GRACE_S:.0f} s")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:  # another run's directory is still in there
            pass
    if proc.returncode != 0:
        raise RuntimeError(f"{name}: measurement exited {proc.returncode}")
    return json.loads(out.strip().splitlines()[-1])


def check(result: dict, seed: int, scale: float) -> None:
    """Mark ``result`` incorrect on a golden-digest mismatch."""
    if seed != DEFAULT_SEED or scale != 1.0:
        return
    golden = json.loads((HERE / "golden.json").read_text(encoding="utf-8"))
    want = golden.get(result["workload"])
    if result["digest"] != want:
        print(f"{result['workload']}: digest {result['digest']} differs from "
              f"the golden {want}", file=sys.stderr)
        result["correct"] = False
        result["failed"] = result["attempted"]


def main(argv=None) -> int:
    spec = _spec()
    names = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    ap.add_argument("--workload", choices=names,
                    help="one workload (default: all, one after another)")
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"],
                    help="measured seconds per workload")
    ap.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                    choices=(0, 1), help="report per-layer metrics")
    ap.add_argument("--scale", type=float, default=1.0,
                    help="fraction of each workload's pass length "
                         "(the smoke test runs 1/64)")
    ap.add_argument("--out", help="write the full results here as JSON")
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"run.py: no repro sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2

    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    results = {}
    for name in [args.workload] if args.workload else names:
        result = run_workload(name, args.seed, args.seconds,
                              bool(args.trace), args.scale)
        check(result, args.seed, args.scale)
        results[name] = result
        for metric in wanted:
            m = result["metrics"][metric["name"]]
            print(f"{name:16s} {metric['name']:32s} {m['value']:>16.6g} "
                  f"{m['unit']}")
        print(f"{name:16s} digest {result['digest']} "
              f"{'ok' if result['correct'] else 'FAILED'}")
    if args.out:
        Path(args.out).write_text(json.dumps(
            {"seed": args.seed, "trace": bool(args.trace),
             "scale": args.scale, "results": results}, indent=1) + "\n",
            encoding="utf-8")

    correct = all(r["correct"] for r in results.values())
    summary = {
        "correct": correct,
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
    }
    keep = {m["name"] for m in wanted}
    if args.workload:
        summary["metrics"] = {
            k: v for k, v in results[args.workload]["metrics"].items()
            if k in keep}
    else:
        summary["workloads"] = {
            name: {k: v for k, v in r["metrics"].items() if k in keep}
            for name, r in results.items()}
    print(json.dumps(summary))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
