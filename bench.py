"""Benchmark harness (driver contract: one JSON line on stdout).

Headline: the end-to-end KG pipeline users run, ``run_kg_pipeline``
(html->text -> explode -> NER -> triples -> linking -> graph), fresh, over the deterministic synthetic web-pages
corpus. The bench corpus is 100x the nominal scale factor of $GRAFT_SF_DIR
(sf0.1 -> 5M pages, ~22.5M paragraphs) so distributed compute dominates
fixed job overhead — the regime a 100 TB run lives in. Secondary
per-operator timings run over the $GRAFT_SF_DIR testdata tables.

    python bench.py              # single run at $RAY_GRAFT_CPUS (default 32)
    python bench.py --scaling    # fresh processes at N=4 and 4N=16 CPUs on
                                 # the same input + scaling efficiency (plus
                                 # a raw CPU-capacity probe for context)

Owns its Ray session (ray.init/shutdown) per the driver contract.
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

# Bench corpus = 100x the nominal sf so distributed compute dominates fixed
# job overhead (the regime a 100 TB run lives in): sf0.1 -> 5M pages,
# ~22.5M paragraphs. Bench IO lives on /dev/shm — on a real cluster reads
# and writes hit per-node disks; tmpfs is the single-node stand-in.
BENCH_SF_MULT = 100.0
BENCH_OUT = "/dev/shm/kgray_bench"
BENCH_CORPUS_ROOT = "/dev/shm/kgray_corpus"


def _sf_of(sf_dir: str) -> float:
    m = re.search(r"sf([0-9.]+)", sf_dir)
    return float(m.group(1)) if m else 0.1


def ensure_corpus(sf_dir: str, num_cpus: int = 32) -> None:
    """Generate (once) the bench corpus with a full-width Ray session."""
    import ray

    ray.init(address="local", num_cpus=num_cpus, include_dashboard=False,
             ignore_reinit_error=True, logging_level="ERROR")
    from portuguese_pt_legal_ner_ray.corpus import ensure_webpages

    ensure_webpages(_sf_of(sf_dir) * BENCH_SF_MULT, root=BENCH_CORPUS_ROOT)
    ray.shutdown()


def run_once(sf_dir: str, num_cpus: int, kg_only: bool = False) -> dict:
    import ray

    ray.init(address="local", num_cpus=num_cpus, include_dashboard=False,
             ignore_reinit_error=True, logging_level="ERROR")
    from ray.data import DataContext

    ctx = DataContext.get_current()
    ctx.enable_progress_bars = False

    from portuguese_pt_legal_ner_ray.corpus import ensure_webpages, pages_for_sf
    from portuguese_pt_legal_ner_ray.pipelines.kg import run_kg_pipeline

    sf = _sf_of(sf_dir)
    bench_sf = sf * BENCH_SF_MULT
    corpus = ensure_webpages(bench_sf, root=BENCH_CORPUS_ROOT)
    n_pages = pages_for_sf(bench_sf)

    out = Path(BENCH_OUT) / f"cpus{num_cpus}"
    shutil.rmtree(out, ignore_errors=True)  # a fresh build, never a resume
    t0 = time.time()
    meta = run_kg_pipeline(corpus / "webpages", out).read("graph", "all")
    kg_sec = time.time() - t0

    queries: dict[str, float] = {"kg_pipeline": round(kg_sec, 3)}

    def timed(name: str, fn):
        t = time.time()
        fn()
        queries[name] = round(time.time() - t, 3)

    import __ray_entry__ as e

    q = e.queries()
    if kg_only:
        q = {}
    if q:
        timed("dedup_exact_docs", lambda: q["dedup_exact_docs"](sf_dir).count())
        timed("dedup_apply_docs", lambda: q["dedup_apply_docs"](sf_dir).count())
        timed("doc_token_counts", lambda: q["doc_token_counts"](sf_dir).count())
        timed("doc_langid", lambda: q["doc_langid"](sf_dir).count())
        timed("doc_simhash", lambda: q["doc_simhash"](sf_dir).count())
        timed("ann_cosine_topk", lambda: q["ann_cosine_topk"](sf_dir).count())

        timed("ann_ivf_index_topk",
              lambda: q["ann_ivf_index_topk"](sf_dir).count())
        # second invocation hits the signature-keyed index cache: this is
        # the steady-state indexed-query cost (build amortized away)
        timed("ann_ivf_index_query_only",
              lambda: q["ann_ivf_index_topk"](sf_dir).count())
        timed("near_dup_minhash", lambda: q["near_dup_minhash"](sf_dir).count())
        timed("near_dup_ngram", lambda: q["near_dup_ngram"](sf_dir).count())
        timed("doc_top_terms", lambda: q["doc_top_terms"](sf_dir).count())
        timed("near_dup_embedding_ivf",
              lambda: q["near_dup_embedding_ivf"](sf_dir).count())
        timed("events_heavy_hitters", lambda: q["events_heavy_hitters"](sf_dir))
        timed("orders_price_quantiles", lambda: q["orders_price_quantiles"](sf_dir))
        timed("orders_price_quantiles_sketch",
              lambda: q["orders_price_quantiles_sketch"](sf_dir))
        timed("rel_returned_lineitems_by_order_line",
              lambda: q["rel_returned_lineitems_by_order_line"](sf_dir).count())
        timed("events_tumbling_hour", lambda: q["events_tumbling_hour"](sf_dir).count())
        timed("events_sessionize", lambda: q["events_sessionize"](sf_dir).count())

    result = {
        "metric": "kg_pipeline_e2e",
        "value": round(kg_sec, 3),
        "unit": "sec",
        "queries": queries,
        "sf": sf,
        "num_cpus": num_cpus,
        "bench_pages": n_pages,
        "bench_paragraphs": meta["paragraphs"],
        "pages_per_sec": round(n_pages / kg_sec, 1),
        "paragraphs_per_sec": round(meta["paragraphs"] / kg_sec, 1),
        "phases": meta["phases"],
        "nodes": meta["nodes"],
        "edges": meta["edges"],
    }
    ray.shutdown()
    return result


def _burn(seconds: float) -> int:
    t0 = time.time()
    x = 0
    while time.time() - t0 < seconds:
        x += 1
    return x


def _burn_stream(seconds: float) -> int:
    """Memory-STREAMING kernel (pre-allocated 8 MB uint8 in / 64 MB uint64
    out buffers): the bandwidth-bound ceiling, complementing the
    L1-resident ``_burn``."""
    import numpy as np

    a = np.random.default_rng(0).integers(0, 255, 8_000_000, dtype=np.uint8)
    out = np.empty(8_000_000, dtype=np.uint64)
    t0 = time.time()
    n = 0
    while time.time() - t0 < seconds:
        np.multiply(a, np.uint64(1099511628211), out=out, casting="unsafe")
        n += 1
    return n


def _capacity(fn, n: int, seconds: float = 2.0, scale: float = 1.0) -> float:
    """Total throughput of ``fn`` with n busy workers.

    On this VM per-core capacity drops as more cores load up (shared/burst
    host) — and MEMORY-bound work saturates far earlier than compute-bound
    work (measured 4->16 workers: ~3.9x for the compute kernel vs ~1.75x
    for the streaming kernel; the pipeline, Arrow batch work, lands in
    between). Both ceilings are reported so the pipeline's scaling can be
    read against the hardware it actually ran on. Real cluster nodes add
    per-node memory bandwidth with each node, so the streaming ceiling is a
    single-box artifact, not a property of the engine.
    """
    import multiprocessing as mp

    with mp.Pool(n) as pool:
        return round(sum(pool.map(fn, [seconds] * n)) / seconds / scale, 1)


SCALING_LEGS = (4, 16)  # N and 4N workers, both within physical cores


def run_scaling(sf_dir: str) -> dict:
    """Same job, fresh processes, N vs 4N CPUs -> throughput + efficiency."""
    # generate the shared corpus up-front at full width so neither timed leg
    # pays (or skews on) one-time synthesis
    subprocess.run(
        [sys.executable, __file__, "--ensure-corpus"],
        capture_output=True, text=True,
        env={**os.environ, "GRAFT_SF_DIR": sf_dir}, check=True,
    )
    lo, hi = SCALING_LEGS
    capacity = {n: _capacity(_burn, n, scale=1e6) for n in SCALING_LEGS}
    stream = {n: _capacity(_burn_stream, n) for n in SCALING_LEGS}
    results = {}
    for cpus in SCALING_LEGS:
        proc = subprocess.run(
            [sys.executable, __file__, "--one-run", "--cpus", str(cpus), "--kg-only"],
            capture_output=True, text=True,
            env={**os.environ, "GRAFT_SF_DIR": sf_dir},
            check=True,
        )
        results[cpus] = json.loads(proc.stdout.strip().splitlines()[-1])
    thr_lo = results[lo]["pages_per_sec"]
    thr_hi = results[hi]["pages_per_sec"]
    speedup = thr_hi / thr_lo
    cap_ratio = capacity[hi] / capacity[lo]
    return {
        "metric": "scaling_efficiency",
        "value": round(speedup / 4, 3),
        "unit": "ratio",
        "legs": list(SCALING_LEGS),
        f"pages_per_sec_{lo}cpu": thr_lo,
        f"pages_per_sec_{hi}cpu": thr_hi,
        f"kg_sec_{lo}cpu": results[lo]["value"],
        f"kg_sec_{hi}cpu": results[hi]["value"],
        "phases_lo": results[lo]["phases"],
        "phases_hi": results[hi]["phases"],
        "cpu_capacity_miters": capacity,
        "hardware_capacity_ratio": round(cap_ratio, 2),
        "efficiency_vs_capacity": round(speedup / cap_ratio, 3),
        "stream_capacity_passes": stream,
        "stream_capacity_ratio": round(stream[hi] / stream[lo], 2),
        "efficiency_vs_stream": round(speedup / (stream[hi] / stream[lo]), 3),
        "sf": results[hi]["sf"],
        "bench_pages": results[hi]["bench_pages"],
        "num_cpus": hi,
    }


def main():
    sf_dir = os.environ.get("GRAFT_SF_DIR", "/root/testdata/sf0.1")
    cpus = int(os.environ.get("RAY_GRAFT_CPUS", "32"))
    if "--cpus" in sys.argv:
        cpus = int(sys.argv[sys.argv.index("--cpus") + 1])
    if "--ensure-corpus" in sys.argv:
        ensure_corpus(sf_dir)
    elif "--scaling" in sys.argv:
        print(json.dumps(run_scaling(sf_dir)))
    else:
        print(json.dumps(run_once(sf_dir, cpus, kg_only="--kg-only" in sys.argv)))


if __name__ == "__main__":
    main()
