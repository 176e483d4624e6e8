"""One benchmark run in a fresh process; ``run.py`` supervises it.

Usage (normally through run.py):
    python3 perfbench/harness.py --workload crawl --seed 1 --seconds 10 \
        --trace 0 --size full --run-dir <dir> --ray-tmp <dir>

Every operation is a call users make: ``pipelines.kg.run_kg_pipeline`` or a
query from ``__ray_entry__.queries()``. Each one is timed from outside, its
output is checked, and a failed or wrong one counts against ``failed``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT), str(ROOT / "scripts")]

import pyarrow as pa  # noqa: E402
import pyarrow.parquet as pq  # noqa: E402
from driver_sim import canon, to_arrow  # noqa: E402

import inputs  # noqa: E402
import layers  # noqa: E402
from procs import PeakPss  # noqa: E402

# two set-ups per run: each costs ~6 s with its shutdown, and a full
# evaluation (70 runs in 3,420 s) leaves no room for a third
SETUP_REPEATS = 2

# the goldens each workload needs (append checks its crawl base too)
PHASES = {"crawl": ("crawl",), "append": ("crawl", "append"), "ops": ("ops",)}
# inputs generators, oracle and oracle SQL: a change to any of them makes
# the cached goldens stale
GOLDEN_SOURCES = [HERE / "inputs.py", ROOT / "__ray_entry__.py",
                  *(ROOT / "portuguese_pt_legal_ner_ray").rglob("*.py")]


def log(*a) -> None:
    print(*a, file=sys.stderr, flush=True)


def _warm(batch):
    # the worker-side half of set-up: the package import every task pays once
    import portuguese_pt_legal_ner_ray.pipelines.kg  # noqa: F401

    return batch


def nproc() -> int:
    """What coreutils ``nproc`` prints: the CPUs this process may run on,
    capped by OMP_NUM_THREADS when that is set."""
    n = len(os.sched_getaffinity(0))
    omp = os.environ.get("OMP_NUM_THREADS", "")
    return min(n, int(omp)) if omp.isdigit() and int(omp) > 0 else n


def start_ray(ray_tmp: str) -> float:
    """ray.init + package import + one trivial Ray Data job; -> seconds.

    Ray gets one logical CPU per CPU this process may run on, and at least
    2: at num_cpus=1 the NER actor holds the only CPU and run_kg_pipeline's
    read tasks never get scheduled (see README.md, known defects)."""
    t0 = time.perf_counter()
    import ray

    ray.init(num_cpus=max(2, len(os.sched_getaffinity(0))), include_dashboard=False,
             logging_level="ERROR", log_to_driver=False,
             object_store_memory=256 * 2**20, _temp_dir=ray_tmp)
    from ray.data import DataContext

    import portuguese_pt_legal_ner_ray.pipelines.kg  # noqa: F401

    DataContext.get_current().enable_progress_bars = False
    ray.data.range(8, override_num_blocks=2).map_batches(_warm).take_all()
    return time.perf_counter() - t0


class Run:
    """Inputs, goldens and the timed operations of one workload."""

    def __init__(self, args):
        self.args = args
        self.size = inputs.SIZES[args.size]
        self.run_dir = Path(args.run_dir)
        self.work = self.run_dir.parent  # shared across runs: the golden cache
        self.dir = self.run_dir / "data"
        self.attempted = 0
        self.failed = 0
        # one line per finished operation, so a supervisor that has to kill
        # this run can still count what it attempted
        self.progress = open(self.run_dir / "progress.jsonl", "a")

    # -- inputs ---------------------------------------------------------------
    def prepare(self, phases: tuple[str, ...]) -> None:
        """Write this seed's inputs for ``phases`` and load their goldens."""
        s, seed = self.size, self.args.seed
        self.pages_dir = self.dir / "pages"
        self.out = self.dir / "out"
        if "crawl" in phases:
            for i in range(s.files):
                inputs.write_pages(self.pages_dir, seed, i, s.pages_per_file)
            # the append shard is generated now and copied in when needed
            self.new_shard = inputs.write_pages(self.dir / "new", seed, s.files,
                                                s.pages_per_file)
        if "ops" in phases:
            self.ops_dir = inputs.write_ops_tables(self.dir / "tables", seed,
                                                   s.customers)
        self.golden = {ph: self._golden(ph) for ph in phases}

    def _golden(self, phase: str) -> dict:
        """The oracle's answer for ``phase`` on this seed and size, computed
        once and cached in the work dir (never timed). The cache key covers
        the source of everything that shapes the answer."""
        key = hashlib.md5(b"".join(
            f.read_bytes() for f in sorted(GOLDEN_SOURCES, key=str))).hexdigest()[:12]
        path = (self.work / "golden"
                / f"{self.args.size}-{self.args.seed}-{phase}-{key}.json")
        if path.exists():
            return json.loads(path.read_text())
        if phase == "ops":
            g = self._sql_goldens()
        else:
            from portuguese_pt_legal_ner_ray.oracle import run_oracle

            files = self.pages_files()
            if phase == "append":
                files.append(str(self.new_shard))
            pages = pa.concat_tables(pq.read_table(f) for f in files)
            gold = run_oracle(pages)
            g = {t: list(canon(gold[t])) for t in ("nodes", "edges")}
            g["inputs"] = inputs.page_properties(pages, gold["paragraphs"])
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = path.with_suffix(f".tmp{os.getpid()}")
        tmp.write_text(json.dumps(g))
        os.replace(tmp, path)
        return g

    def _sql_goldens(self) -> dict:
        """DuckDB results of oracle_sql() for the ops queries, hashed with
        scripts/driver_sim.py's canon."""
        import duckdb

        sqls = oracle_sql()
        con = duckdb.connect()
        rows = {}
        for f in sorted(self.ops_dir.glob("*.parquet")):
            con.execute(f"CREATE VIEW {f.stem} AS SELECT * FROM read_parquet('{f}')")
            rows[f"{f.stem}_rows"] = con.execute(
                f"SELECT count(*) FROM {f.stem}").fetchone()[0]
        out = {q: list(canon(con.execute(sqls[q]).arrow()))
               for q in self.size.queries}
        con.close()
        return {"queries": out, "inputs": rows}

    # -- checked operations ---------------------------------------------------
    def _record(self, name: str, ok: bool, wall_s: float, err: str = "") -> bool:
        self.attempted += 1
        self.failed += 0 if ok else 1
        self.progress.write(json.dumps({"op": name, "ok": ok, "wall_s": wall_s,
                                        "error": err}) + "\n")
        self.progress.flush()
        if not ok:
            log(f"FAILED {name}: {err}")
        return ok

    def pipeline(self, phase: str) -> float | None:
        """run_kg_pipeline over the pages dir into self.out, checked against
        the oracle's nodes/edges for ``phase`` ('crawl' or 'append')."""
        from portuguese_pt_legal_ner_ray.pipelines import kg

        t0 = time.perf_counter()
        err = ""
        try:
            kg.run_kg_pipeline(self.pages_dir, self.out,
                               num_partitions=self.size.partitions)
            wall = time.perf_counter() - t0
            for t in ("nodes", "edges"):
                got = list(canon(pq.read_table(self.out / "graph" / t)))
                want = self.golden[phase][t]
                if got != want:
                    err += f"{t} {got[:2]} != oracle {want[:2]}; "
        except Exception as exc:  # noqa: BLE001 - a raising op is a failed op
            wall = time.perf_counter() - t0
            err = f"{type(exc).__name__}: {exc}"
            log(traceback.format_exc())
        return wall if self._record(phase, not err, wall, err) else None

    def fresh_crawl(self) -> float | None:
        """run_kg_pipeline over the crawl files into an empty output dir."""
        shutil.rmtree(self.out, ignore_errors=True)
        (self.pages_dir / self.new_shard.name).unlink(missing_ok=True)
        return self.pipeline("crawl")

    def pages_files(self) -> list[str]:
        return sorted(str(p) for p in self.pages_dir.glob("*.parquet"))

    def snapshot(self) -> None:
        self.snap = self.dir / "snapshot"
        shutil.rmtree(self.snap, ignore_errors=True)
        shutil.copytree(self.out, self.snap)

    def append(self) -> float | None:
        """Restore the finished crawl (same paths, same file mtimes, so its
        manifest rows stay valid), add one new shard and rerun."""
        shutil.rmtree(self.out)
        shutil.copytree(self.snap, self.out)
        shutil.copy2(self.new_shard, self.pages_dir / self.new_shard.name)
        return self.pipeline("append")

    def ops_pass(self, tracer: layers.Tracer | None = None) -> float | None:
        """Every ops query once, one after another (closed loop, one
        client); each result is materialized inside the timed region and
        hash-checked outside it. -> summed query wall time."""
        from contextlib import nullcontext

        import __ray_entry__

        reg = __ray_entry__.queries()
        walls, ok = [], True
        for q in self.size.queries:
            span = (tracer.span(f"ops.q.{q}") if tracer is not None
                    else nullcontext())
            t0 = time.perf_counter()
            err = ""
            try:
                with span:
                    tbl = to_arrow(reg[q](str(self.ops_dir)))
                wall = time.perf_counter() - t0
                got, want = list(canon(tbl)), self.golden["ops"]["queries"][q]
                if got != want:
                    err = f"{got[:2]} != duckdb {want[:2]}"
            except Exception as exc:  # noqa: BLE001 - a raising op is a failed op
                wall = time.perf_counter() - t0
                err = f"{type(exc).__name__}: {exc}"
                log(traceback.format_exc())
            walls.append(wall)
            ok &= self._record(q, not err, wall, err)
        return sum(walls) if ok else None


def oracle_sql() -> dict[str, str]:
    """``__ray_entry__.oracle_sql()`` with its golden builders stubbed out.

    oracle_sql() first builds the goldens of every registry query (a web
    corpus, media tables and mirror goldens, all under /tmp). The ops
    queries need only their SQL text over the plain tables, so the three
    builders are replaced for the duration of the call and restored."""
    import __ray_entry__
    import portuguese_pt_legal_ner_ray.oracle as oracle
    import portuguese_pt_legal_ner_ray.oracle_mirrors as mirrors
    import portuguese_pt_legal_ner_ray.sources.multimodal as mm

    stubs = [(oracle, "ensure_goldens"), (mirrors, "ensure_mirror_goldens"),
             (mm, "ensure_media_table")]
    saved = [getattr(m, a) for m, a in stubs]
    try:
        for m, a in stubs:
            setattr(m, a, lambda *_a, **_k: Path("unused"))
        return __ray_entry__.oracle_sql()
    finally:
        for (m, a), orig in zip(stubs, saved):
            setattr(m, a, orig)


def measure(run: Run, seconds: float) -> list[float]:
    """The workload's operation, repeated until ``seconds`` of it have been
    measured (at least once); -> the wall time of each."""
    w = run.args.workload
    if w == "append":
        run.fresh_crawl()  # untimed base for every append below
        run.snapshot()
    op = {"crawl": run.fresh_crawl, "append": run.append, "ops": run.ops_pass}[w]
    walls = []
    while not walls or sum(walls) < seconds:
        wall = op()
        if wall is None:
            break
        walls.append(wall)
    log(f"{w} walls: {[round(x, 3) for x in walls]}")
    return walls


def traced(run: Run) -> dict:
    """The traced run: crawl, append and the ops pass, each with spans, then
    the kernel replay over the input of this workload's pipeline call (the
    crawl's for ``ops``)."""
    from portuguese_pt_legal_ner_ray.pipelines import kg

    tr = layers.Tracer()
    w = run.args.workload
    m: dict[str, float] = {}
    own: dict = {}
    kg_phase = "append" if w == "append" else "crawl"

    def traced_pipeline(name, op):
        with tr.patch(kg, "extract_partition", "kg.extract_partition",
                      keep_args=lambda a, k: {"files": list(a[0])}), \
                tr.patch(kg, "graph_stage", "kg.graph_stage"), \
                tr.patch(kg, "run_kg_pipeline", "kg.run_kg_pipeline"):
            op()
        top = tr.find("kg.run_kg_pipeline")[-1]
        if name == kg_phase:  # the call this workload's kg.* metrics describe
            m["kg.extract_partitions_run"] = len(tr.find("kg.extract_partition", top))
            m["kg.extract_partition_s"] = tr.total_s("kg.extract_partition", top)
            m["kg.graph_stage_s"] = tr.total_s("kg.graph_stage", top)
            for d in ("extracted", "extraction", "graph"):
                m[f"kg.written_mb.{d}"] = layers.dir_mb(run.out / d)
            own["top"], own["files"] = top, run.pages_files()

    traced_pipeline("crawl", run.fresh_crawl)
    run.snapshot()
    traced_pipeline("append", run.append)
    with tr.span("ops.pass") as ops_top:
        run.ops_pass(tracer=tr)

    rep = layers.replay(own["files"])
    m.update(rep["metrics"])
    top = own["top"]
    extracted = [f for s in tr.find("kg.extract_partition", top) for f in s["files"]]
    kernel_s = sum(rep["file_s"][f] for f in extracted) + layers.graph_kernel_s(rep)
    m["kg.framework_s"] = (top["end"] - top["start"]) - kernel_s
    m["extract.repeat_share"] = run.golden[kg_phase]["inputs"]["repeat_share"]

    fam = dict.fromkeys(inputs.OPS_QUERIES.values(), 0.0)
    for q in run.size.queries:
        d = tr.total_s(f"ops.q.{q}", ops_top)
        m[f"ops.q.{q}_s"] = d
        fam[inputs.OPS_QUERIES[q]] += d
    m.update({f"ops.{f}_s": d for f, d in fam.items()})
    # the wall time tracing adds to this workload's operation: its spans
    # times the measured cost of one span
    n_spans = len(tr.find("ops.q.", ops_top, prefix=True) if w == "ops"
                  else tr.find("kg.", top, prefix=True))
    m["trace.overhead_s"] = n_spans * layers.span_cost_s()
    tr.dump(run.run_dir / "spans.json")
    return m


def main() -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", choices=("crawl", "append", "ops"), required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=tuple(inputs.SIZES), default="full")
    p.add_argument("--run-dir", required=True)
    p.add_argument("--ray-tmp", required=True)
    args = p.parse_args()

    # a supervisor deadline arrives as SIGTERM: unwind so ray.shutdown runs
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    import ray

    run = Run(args)
    run.dir.mkdir(parents=True, exist_ok=True)
    res: dict = {"metrics": {}}
    try:
        setups = []
        for i in range(1 if args.trace else SETUP_REPEATS):
            if i:
                ray.shutdown()
            setups.append(start_ray(args.ray_tmp))
        log(f"setup samples: {[round(x, 3) for x in setups]}")
        run.prepare(("crawl", "append", "ops") if args.trace else
                    PHASES[args.workload])
        if args.trace:
            res["metrics"] = traced(run)
        else:
            with PeakPss(os.getpid()) as mem:
                walls = measure(run, args.seconds)
            res["walls"] = walls
            if walls:
                res["metrics"] = {"wall_s": statistics.median(walls),
                                  "setup_s": statistics.median(setups),
                                  "peak_mem_mb": mem.peak_mb}
        res["inputs"] = run.golden[args.workload]["inputs"]
        res["host"] = {"nproc": nproc(), "affinity_cpus": len(os.sched_getaffinity(0)),
                       "ray_cpus": int(ray.cluster_resources().get("CPU", 0))}
    finally:
        res["attempted"], res["failed"] = run.attempted, run.failed
        run.progress.close()
        ray.shutdown()
    (run.run_dir / "result.json").write_text(json.dumps(res))
    return 0


if __name__ == "__main__":
    sys.exit(main())
