"""IVF top-k scale evidence: query compute tracks nprobe/n_cells, not corpus.

Synthesizes a deterministic clustered vector table (N x d, anchors on
``n_cells`` directions so coarse cells are meaningful), then times

  * exact brute-force cosine top-k (the oracle baseline), from the object
    store and from Parquet on disk, and
  * one ``ivf_build`` of the persisted index, then ``ivf_query`` at nprobe
    in {1, 4, 16} over the SAME table,

and reports recall@k of each indexed query against the brute-force truth.
Expected shape: indexed query time grows with nprobe (it reads and scores
only the probed cells), while brute force pays the full n x nq matmul — the
gap is the pruned corpus fraction. One JSON line on stdout; results
recorded in BASELINE.md.

    python scripts/ivf_scaling.py [--n 2000000] [--cpus 32]
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

import numpy as np
import pyarrow as pa

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

D = 64
N_CELLS = 128
N_QUERIES = 8
K = 10


def _anchor_matrix(n_cells: int, d: int) -> np.ndarray:
    """Deterministic well-spread unit anchors (seeded PRNG, script-only)."""
    rng = np.random.default_rng(7)
    a = rng.standard_normal((n_cells, d))
    return a / np.linalg.norm(a, axis=1, keepdims=True)


def make_vectors(n: int):
    """Distributed synth: one seeded PRNG per block, anchor + small noise."""
    import ray

    anchors = _anchor_matrix(N_CELLS, D)
    anchors_ref = ray.put(anchors)

    def gen(batch: pa.Table) -> pa.Table:
        ids = batch["id"].to_numpy()
        a = ray.get(anchors_ref)
        rng = np.random.default_rng(int(ids[0]) + 1)
        cells = ids % N_CELLS
        vec = a[cells] + 0.15 * rng.standard_normal((len(ids), D))
        return pa.table({
            "vec_id": pa.array(ids, pa.int64()),
            "embedding": pa.FixedSizeListArray.from_arrays(
                pa.array(vec.astype(np.float32).ravel(), pa.float32()), D
            ).cast(pa.list_(pa.float32())),
        })

    import ray.data

    return ray.data.range(n).map_batches(gen, batch_format="pyarrow").materialize()


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--n", type=int, default=2_000_000)
    ap.add_argument("--cpus", type=int, default=32)
    args = ap.parse_args()

    import ray

    ray.init(address="local", num_cpus=args.cpus, include_dashboard=False,
             ignore_reinit_error=True, logging_level="ERROR")
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False

    from portuguese_pt_legal_ner_ray.sources.parquet import sized_read_parquet
    from portuguese_pt_legal_ner_ray.stages.similarity import (
        brute_force_topk,
        ivf_build,
        ivf_query,
    )

    vecs = make_vectors(args.n)
    anchors = _anchor_matrix(N_CELLS, D)
    qrng = np.random.default_rng(99)
    q_cells = qrng.choice(N_CELLS, N_QUERIES, replace=False)
    q_mat = anchors[q_cells] + 0.15 * qrng.standard_normal((N_QUERIES, D))
    qref = ray.put({"ids": np.arange(N_QUERIES, dtype=np.int64) + 10**9,
                    "mat": q_mat})

    def run(fn) -> tuple[float, dict[int, list[int]]]:
        t0 = time.time()
        out = fn().to_pandas()  # <= nq*k rows
        dt = time.time() - t0
        by_q: dict[int, list[int]] = {}
        for qid, vid in zip(out["query_id"], out["vec_id"]):
            by_q.setdefault(int(qid), []).append(int(vid))
        return round(dt, 2), by_q

    def recall_vs(truth, got) -> float:
        return float(np.mean([
            len(set(got.get(q, [])) & set(tr)) / len(tr)
            for q, tr in truth.items()
        ]))

    t_brute, truth = run(lambda: brute_force_topk(vecs, qref, k=K))
    # storage-fair baseline: at 100 TB the corpus lives on disk, not in the
    # object store — brute force then pays the full-table read+decode that
    # ivf_query only pays for the probed fraction (one block per CPU: the
    # scan is compute-bound)
    disk_dir = "/dev/shm/kgray_ivf_flat"
    vecs.write_parquet(disk_dir)
    t_brute_disk, _ = run(lambda: brute_force_topk(
        sized_read_parquet(disk_dir, min_blocks=args.cpus), qref, k=K))
    result = {"n": args.n, "d": D, "n_cells": N_CELLS, "nq": N_QUERIES,
              "k": K, "num_cpus": args.cpus, "brute_sec": t_brute,
              "brute_from_disk_sec": t_brute_disk,
              "ivf_index": {}}
    # persisted index: build once (streamed assignment + partitioned write),
    # then queries read ONLY probed partitions — I/O and compute scale with
    # nprobe/n_cells, independent of corpus size
    index_dir = "/dev/shm/kgray_ivf_index"
    t0 = time.time()
    ivf_build(vecs, index_dir, n_cells=N_CELLS)
    result["ivf_build_sec"] = round(time.time() - t0, 2)
    for nprobe in (1, 4, 16):
        t_q, got = run(lambda np_=nprobe: ivf_query(
            index_dir, qref, k=K, nprobe=np_))
        result["ivf_index"][str(nprobe)] = {
            "sec": t_q, "recall_at_k": round(recall_vs(truth, got), 4),
            # scanned corpus fraction upper bound: union of probe lists
            "probed_frac_max": round(min(1.0, N_QUERIES * nprobe / N_CELLS), 4),
        }
    print(json.dumps(result))
    ray.shutdown()


if __name__ == "__main__":
    main()
