"""Smoke test of the benchmark itself, at the tiny input size.

    python3 perfbench/smoke.py

Checks, for each workload, that one run prints every end-to-end metric of
BENCHMARK.json with its unit and a correct result, and that no process the
run started survives it; that a run forced past its deadline, and a run whose
harness process is killed outright, are counted as failed and leave no process
behind either; and that a directory holding only the benchmark's own files
makes it exit non-zero without a result.
"""

from __future__ import annotations

import json
import os
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import procs

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run(args: list[str], cwd: Path = ROOT) -> tuple[int, dict | None]:
    p = subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                       stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                       text=True, timeout=240)
    lines = p.stdout.strip().splitlines()
    last = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
    return p.returncode, last


def check(cond: bool, what: str) -> None:
    if not cond:
        raise SystemExit(f"smoke: FAILED: {what}")
    print(f"smoke: ok: {what}", flush=True)


def no_survivors(what: str) -> None:
    # we are a subreaper: anything the run left behind is our descendant
    left = procs.live_descendants(os.getpid())
    procs.kill_descendants(os.getpid())
    check(not left, f"no process survives {what} (found {left})")


def _cmdline(pid: int) -> str:
    try:
        return Path(f"/proc/{pid}/cmdline").read_bytes().replace(b"\0", b" ").decode()
    except OSError:
        return ""


def harness_killed() -> None:
    """SIGKILL the harness process (the one that called ray.init) once Ray's
    workers are up: Ray's processes lose their parent, and run.py must still
    find and stop every one of them."""
    p = subprocess.Popen([sys.executable, "perfbench/run.py", "--workload", "crawl",
                          "--seed", "0", "--seconds", "1", "--trace", "0",
                          "--size", "tiny"], cwd=ROOT, stdout=subprocess.PIPE,
                         stderr=subprocess.DEVNULL, text=True)
    end = time.monotonic() + 120
    harness = None
    while harness is None and time.monotonic() < end:
        cmds = {pid: _cmdline(pid) for pid in procs.descendants(p.pid)}
        if any(c.startswith("ray::") for c in cmds.values()):  # workers are up
            harness = next(pid for pid, c in cmds.items() if "harness.py" in c)
        time.sleep(0.2)
    check(harness is not None, "the run started Ray workers")
    os.kill(harness, signal.SIGKILL)
    out, _ = p.communicate(timeout=120)
    res = json.loads(out.strip().splitlines()[-1])
    check(p.returncode == 0 and res["failed"] >= 1 and not res["correct"],
          "a run whose harness is killed counts as failed")
    no_survivors("a run whose harness was killed")


def main() -> int:
    procs.become_subreaper()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for w in spec["workloads"]:
        rc, res = run(["--workload", w["name"], "--seed", "0", "--seconds", "1",
                       "--trace", "0", "--size", "tiny"])
        check(rc == 0 and res is not None, f"{w['name']}: exit 0 with a result")
        check(set(res) == {"correct", "attempted", "failed", "metrics"},
              f"{w['name']}: result keys")
        check(res["correct"] and res["failed"] == 0 and res["attempted"] >= 1,
              f"{w['name']}: outputs match the oracle")
        for m in spec["end_to_end"]:
            got = res["metrics"].get(m["name"], {})
            check(got.get("unit") == m["unit"] and got.get("value", 0) > 0,
                  f"{w['name']}: {m['name']} printed in {m['unit']}")
        no_survivors(f"the {w['name']} run")

    rc, res = run(["--workload", "crawl", "--seed", "0", "--seconds", "1",
                   "--trace", "0", "--size", "tiny", "--deadline", "8"])
    check(rc == 0 and res is not None and res["failed"] >= 1
          and not res["correct"], "a run past its deadline counts as failed")
    no_survivors("a run killed at its deadline")
    harness_killed()

    bare = HERE / ".work" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    (bare / "perfbench").mkdir(parents=True)
    shutil.copy2(ROOT / "BENCHMARK.json", bare)
    for f in HERE.iterdir():
        if f.is_file():
            shutil.copy2(f, bare / "perfbench")
    rc, res = run(["--workload", "crawl", "--seed", "0", "--seconds", "1",
                   "--trace", "0"], cwd=bare)
    shutil.rmtree(bare)
    check(rc != 0 and res is None, "without the engine: non-zero exit, no result")
    print("smoke: all checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
