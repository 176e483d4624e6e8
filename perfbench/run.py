"""Benchmark entry point for the ray-kg engine.

    python3 perfbench/run.py --workload crawl --seed 1 --seconds 10 --trace 0

Runs from the root of a checkout. Workloads: ``crawl``, ``append``, ``ops``
(see perfbench/README.md). The last line of standard output is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``; with ``--trace 0``
the metrics are BENCHMARK.json's ``end_to_end`` list, with ``--trace 1`` its
``per_layer`` list.

This process only supervises: the run itself happens in a child
(``harness.py``) under a deadline. The supervisor is a child subreaper, so
every process the run starts (Ray's GCS, raylet, workers) stays its
descendant even when orphaned; whatever is still alive after the child ends
is killed and reaped before the result is printed.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import tempfile
from pathlib import Path

import procs

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# the program under test; without it there is nothing to measure
REQUIRED = ("portuguese_pt_legal_ner_ray/pipelines/kg.py", "__ray_entry__.py",
            "scripts/driver_sim.py")
# Ray's socket paths (<temp_dir>/session_<date>_<pid>/sockets/plasma_store)
# must fit in 107 bytes, which leaves about 40 for the temp dir itself
MAX_RAY_TMP = 40


def _read_progress(path: Path) -> tuple[int, int]:
    try:
        lines = path.read_text().splitlines()
    except FileNotFoundError:
        return 0, 0
    recs = [json.loads(x) for x in lines if x.strip()]
    return len(recs), sum(1 for r in recs if not r["ok"])


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=("crawl", "append", "ops"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", default="full", choices=("full", "tiny"),
                   help="input size; 'tiny' is for the smoke test")
    p.add_argument("--deadline", type=float, default=150.0,
                   help="seconds before the run is killed and counted failed")
    args = p.parse_args()

    missing = [r for r in REQUIRED if not (ROOT / r).exists()]
    if missing:
        print(f"run.py: not a checkout of the engine, missing {missing}",
              file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    work = HERE / ".work"
    work.mkdir(exist_ok=True)
    # one Ray temp dir per run, so concurrent runs never share a session dir
    ray_tmp = work / f"ray{os.getpid()}"
    if len(str(ray_tmp)) > MAX_RAY_TMP:
        ray_tmp = Path(tempfile.mkdtemp(prefix="rkb-"))
    # everything the run writes, removed when it ends (spans are kept)
    run_dir = work / f"run-{args.workload}-{args.seed}-{os.getpid()}"
    run_dir.mkdir()
    out, progress = run_dir / "result.json", run_dir / "progress.jsonl"

    procs.become_subreaper()
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT)] + [x for x in env.get("PYTHONPATH", "").split(os.pathsep) if x])
    cmd = [sys.executable, str(HERE / "harness.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--size", args.size, "--run-dir", str(run_dir),
           "--ray-tmp", str(ray_tmp)]
    # the child's stdout goes to our stderr: our stdout carries only results
    child = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=sys.stderr.fileno())
    timed_out = False
    try:
        child.wait(timeout=args.deadline)
    except subprocess.TimeoutExpired:
        timed_out = True
        print(f"run.py: deadline {args.deadline:g}s passed, stopping the run",
              file=sys.stderr)
        child.send_signal(signal.SIGTERM)
        try:
            child.wait(timeout=15)
        except subprocess.TimeoutExpired:
            child.kill()
            child.wait()
    leaked = procs.kill_descendants(os.getpid())
    if leaked:
        print(f"run.py: killed {leaked} process(es) the run left behind",
              file=sys.stderr)
    shutil.rmtree(ray_tmp, ignore_errors=True)
    remaining = procs.live_descendants(os.getpid())
    if remaining:
        print(f"run.py: processes still alive: {remaining}", file=sys.stderr)
        return 3

    if out.exists() and not timed_out:
        res = json.loads(out.read_text())
    else:  # killed or crashed: the operation in flight counts as failed
        attempted, failed = _read_progress(progress)
        res = {"attempted": attempted + 1, "failed": failed + 1, "metrics": {}}
    if (run_dir / "spans.json").exists():
        (run_dir / "spans.json").replace(work / f"spans-{args.workload}-{args.seed}.json")
    shutil.rmtree(run_dir, ignore_errors=True)

    metrics = {m["name"]: {"value": res["metrics"][m["name"]], "unit": m["unit"]}
               for m in wanted if m["name"] in res["metrics"]}
    complete = len(metrics) == len(wanted)
    if not complete:
        print("run.py: metrics missing: "
              f"{[m['name'] for m in wanted if m['name'] not in metrics]}",
              file=sys.stderr)
    if not args.trace and complete:
        # the workload's headline under its own name
        wall = metrics["wall_s"]["value"]
        if args.workload == "crawl":
            head = f"pages_per_s = {res['inputs']['pages'] / wall:.4f} 1/s"
        else:
            head = f"{args.workload}_s = {wall:.4f} s"
        print(f"# {args.workload}: {head}")
    if "host" in res:
        print(f"# host: {json.dumps(res['host'])}; inputs: {json.dumps(res['inputs'])}"
              f"; op walls: {res.get('walls')}")
    print(json.dumps({
        "correct": res["failed"] == 0 and res["attempted"] > 0 and complete,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
