"""Similarity search over an embedding column (training-data ops).

* ``brute_force_topk`` — baseline exact cosine top-k: the (small) query
  matrix is broadcast once (``ray.put``), each batch does one float64
  numpy matmul against it, per-batch partial top-k keeps the shuffle tiny,
  and a final per-query reduce merges partials. Never materializes the
  corpus. The scan runs as plain Ray tasks (``partial_topk_task``), not an
  actor pool: the per-worker init is one ``ray.get`` of the query matrix,
  too cheap to be worth a pool's fresh worker processes.
* ``ann_topk`` — THE default ANN entry point, index-first: with an
  ``index_dir`` it builds/reuses the persisted cell-partitioned IVF index
  (``ivf_build``/``ivf_query``) so queries read ONLY probed partitions —
  the 100-TB serving shape; without one it falls back to the one-shot
  ``ivf_topk``.
* ``ivf_topk`` — one-shot no-index fallback: k-means-lite (deterministic
  seeded centroids from the data itself) assigns each vector to a coarse
  cell; queries probe only the ``nprobe`` nearest cells, so compute per
  query is corpus_fraction × brute force, BUT the assignment matmul is a
  full-corpus pass paid on every call — measured slower than brute force
  at small query counts (BASELINE.md). Same output contract; recall < 1
  vs the exact path by design — hash-checked against the sequential IVF
  mirror (oracle_mirrors.py) plus a recall test vs brute force.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import ray
from ray.data import Dataset

from .shuffle import pool_size, worker_cached


def _norm_rows(m: np.ndarray) -> np.ndarray:
    n = np.linalg.norm(m, axis=1, keepdims=True)
    n[n == 0] = 1.0
    return m / n


def _emb_matrix(batch: pa.Table, col: str) -> np.ndarray:
    lists = batch[col].combine_chunks()
    flat = lists.flatten().to_numpy(zero_copy_only=False).astype(np.float64)
    return flat.reshape(len(batch), -1)


class _PartialTopK:
    """Per-batch cosine scores against the broadcast query matrix."""

    def __init__(self, queries_ref, k: int, emb_col: str, id_col: str):
        q = ray.get(queries_ref)  # {"ids": int64[nq], "mat": float64[nq, d]}
        # copied: a zero-copy view would pin the broadcast object for as
        # long as a task worker caches this kernel
        self.q_ids = np.array(q["ids"])
        self.q_mat = _norm_rows(q["mat"])
        self.k = k
        self.emb_col = emb_col
        self.id_col = id_col

    def __call__(self, batch: pa.Table) -> pa.Table:
        mat = _norm_rows(_emb_matrix(batch, self.emb_col))
        ids = batch[self.id_col].to_numpy(zero_copy_only=False)
        sims = self.q_mat @ mat.T  # [nq, batch]
        k = min(self.k + 1, sims.shape[1])  # +1 so self-hits can be dropped later
        q_out, id_out, sim_out = [], [], []
        for qi in range(sims.shape[0]):
            # tie-break by ascending vec_id INSIDE the partial: truncation on
            # sim alone could drop the smallest-id candidate of a tie group
            # at the cutoff. argpartition finds the top-k cutoff in O(B);
            # only rows >= the cutoff sim (top-k plus its ties) are sorted.
            part = np.argpartition(-sims[qi], k - 1)[:k]
            cand = np.where(sims[qi] >= sims[qi][part].min())[0]
            top = cand[np.lexsort((ids[cand], -sims[qi, cand]))][:k]
            for ci in top:
                q_out.append(self.q_ids[qi])
                id_out.append(ids[ci])
                sim_out.append(sims[qi, ci])
        return pa.table(
            {
                "query_id": pa.array(q_out, pa.int64()),
                "vec_id": pa.array(id_out, pa.int64()),
                "sim": pa.array(sim_out, pa.float64()),
            }
        )


_TASK_KERNELS: dict[tuple, _PartialTopK] = {}


def partial_topk_task(batch: pa.Table, queries_ref, k: int, emb_col: str,
                      id_col: str) -> pa.Table:
    """Task-mode scan of ``brute_force_topk``:
    ``map_batches(partial_topk_task, fn_kwargs=...)``.

    Ray reuses worker processes across tasks, so each worker builds the
    ``_PartialTopK`` kernel (one ``ray.get`` + row normalization of the
    query matrix) once per query ref and argument set, without an actor
    pool holding CPUs.
    """
    kernel = worker_cached(
        _TASK_KERNELS, (queries_ref.binary(), k, emb_col, id_col),
        lambda: _PartialTopK(queries_ref, k, emb_col, id_col))
    return kernel(batch)


def brute_force_topk(
    vectors: Dataset,
    queries_ref,
    k: int = 10,
    emb_col: str = "embedding",
    id_col: str = "vec_id",
    exclude_self: bool = True,
) -> Dataset:
    """Exact cosine top-k neighbors for each broadcast query vector.

    Returns (query_id, vec_id) rows, top-k per query, ties broken by
    ascending vec_id so output is fully deterministic.
    """
    partials = vectors.map_batches(
        partial_topk_task,
        batch_format="pyarrow",
        fn_kwargs=dict(queries_ref=queries_ref, k=k, emb_col=emb_col,
                       id_col=id_col),
    )
    return _topk_reduce(partials, k, exclude_self=exclude_self)


def _topk_reduce(partials: Dataset, k: int, exclude_self: bool = True,
                 num_buckets: int = 64) -> Dataset:
    """Shared per-query final reduce over (query_id, vec_id, sim) partials:
    top-k by (sim desc, vec_id asc), optionally dropping the self-hit.

    Queries route by ``hash(query_id) % num_buckets`` and ONE vectorized
    pandas pass per bucket (sort + ``groupby.head(k)``) finishes every
    query it holds — never one Python call per query id, so the reduce
    stays flat when a caller broadcasts millions of query vectors."""
    import pandas as pd

    from .shuffle import bucket_by

    def add_bucket(t: pa.Table) -> pa.Table:
        return bucket_by(t, ["query_id"], num_buckets)

    def per_bucket(df: pd.DataFrame) -> pd.DataFrame:
        if exclude_self:
            df = df[df["query_id"] != df["vec_id"]]
        df = df.sort_values(["query_id", "sim", "vec_id"],
                            ascending=[True, False, True], kind="stable")
        return df.groupby("query_id", sort=False).head(k)[["query_id", "vec_id"]]

    return (
        partials.map_batches(add_bucket, batch_format="pyarrow")
        .groupby("__bucket")
        .map_groups(per_bucket, batch_format="pandas")
    )


def make_query_ref(vectors: Dataset, query_ids: list[int],
                   emb_col: str = "embedding", id_col: str = "vec_id"):
    """Collect the (small) query vectors and broadcast them once."""
    import pyarrow as _pa
    import pyarrow.compute as _pc

    id_arr = _pa.array(sorted(set(query_ids)), _pa.int64())
    df = vectors.map_batches(
        lambda t: t.filter(_pc.is_in(t[id_col], value_set=id_arr)),
        batch_format="pyarrow",
    ).to_pandas().sort_values(id_col)
    mat = np.array(df[emb_col].tolist(), dtype=np.float64)
    ids = df[id_col].to_numpy(dtype=np.int64)
    return ray.put({"ids": ids, "mat": mat})


def embedding_near_dup_pairs(
    vectors: Dataset,
    threshold: float = 0.4,
    emb_col: str = "embedding",
    id_col: str = "vec_id",
    max_rows: int = 50_000,
) -> Dataset:
    """All (id_a < id_b) pairs with cosine similarity >= threshold.

    EXACT baseline, deliberately O(n²): the normalized matrix is broadcast
    once (numpy buffers are plasma zero-copy), each batch does one float64
    matmul against it and keeps upper-triangle hits. This exists to be the
    DuckDB-``list_cosine_similarity``-checkable oracle for the scale path —
    use :func:`embedding_near_dup_pairs_ivf` (cell-routed, no whole-table
    materialization) on anything larger than an oracle-sized sample.
    ``max_rows`` guards against pointing this baseline at a real corpus:
    it raises above the cap instead of silently materializing the table
    on the driver (raise the cap explicitly if you truly mean it).
    """
    n = vectors.count()
    if n > max_rows:
        raise ValueError(
            f"embedding_near_dup_pairs is an O(n²) oracle baseline; input has "
            f"{n} rows > max_rows={max_rows}. Use embedding_near_dup_pairs_ivf "
            f"(the cell-routed scale path) or raise max_rows explicitly."
        )
    df = vectors.select_columns([id_col, emb_col]).to_pandas().sort_values(id_col)
    mat = _norm_rows(np.array(df[emb_col].tolist(), dtype=np.float64))
    ids = df[id_col].to_numpy(dtype=np.int64)
    ref = ray.put({"ids": ids, "mat": mat})

    def scan(batch: pa.Table) -> pa.Table:
        b = ray.get(ref)
        all_ids, all_mat = b["ids"], b["mat"]
        rows = _norm_rows(_emb_matrix(batch, emb_col))
        row_ids = batch[id_col].to_numpy(zero_copy_only=False)
        sims = rows @ all_mat.T  # [batch, n]
        a_out, b_out = [], []
        for r in range(sims.shape[0]):
            hits = np.where((sims[r] >= threshold) & (all_ids > row_ids[r]))[0]
            for c in hits:
                a_out.append(int(row_ids[r]))
                b_out.append(int(all_ids[c]))
        return pa.table({"id_a": pa.array(a_out, pa.int64()),
                         "id_b": pa.array(b_out, pa.int64())})

    return vectors.map_batches(scan, batch_format="pyarrow")


def embedding_near_dup_pairs_ivf(
    vectors: Dataset,
    threshold: float = 0.4,
    n_cells: int = 16,
    emb_col: str = "embedding",
    id_col: str = "vec_id",
    train_iters: int = 0,
) -> Dataset:
    """Cell-routed near-dup pairs: assign each vector to its nearest coarse
    centroid, ``groupby(cell)``, score pairs only WITHIN each cell.

    The scale path ``embedding_near_dup_pairs`` promises: nothing is
    materialized on the driver (centroids are a partial-top-k pick of
    ``n_cells`` rows) and compute drops from O(n²) to Σ|cell|².
    Recall < 1 by design — near-dup pairs straddling a cell boundary are
    missed (benchmarked via the planted-pair recall test, not hash-checked).
    Partitioning assumption: a single cell's vectors fit one worker
    (size ``n_cells`` to the corpus; salt hot cells if the embedding space
    is degenerate). ``train_iters > 0`` refines cells with distributed
    Lloyd rounds first.
    """
    if train_iters > 0:
        cents = kmeans_centroids(vectors, n_cells, train_iters, emb_col, id_col)
    else:
        cents = deterministic_centroids(vectors, n_cells, emb_col, id_col)
    cents_ref = ray.put(cents)

    class AssignCell:
        def __init__(self):
            self.cents = ray.get(cents_ref)

        def __call__(self, batch: pa.Table) -> pa.Table:
            mat = _norm_rows(_emb_matrix(batch, emb_col))
            cells = (mat @ self.cents.T).argmax(axis=1)
            return batch.append_column("__cell", pa.array(cells, pa.int64()))

    def cell_pairs(g: pa.Table) -> pa.Table:
        ids = g[id_col].to_numpy(zero_copy_only=False)
        order = np.argsort(ids)
        ids = ids[order]
        mat = _norm_rows(_emb_matrix(g, emb_col))[order]
        sims = mat @ mat.T
        iu = np.triu_indices(len(ids), k=1)
        keep = sims[iu] >= threshold
        return pa.table({
            "id_a": pa.array(ids[iu[0][keep]], pa.int64()),
            "id_b": pa.array(ids[iu[1][keep]], pa.int64()),
        })

    return (
        vectors.select_columns([id_col, emb_col])
        .map_batches(AssignCell, batch_format="pyarrow", concurrency=pool_size())
        .groupby("__cell")
        .map_groups(cell_pairs, batch_format="pyarrow")
    )


# ---------------------------------------------------------------------------
# IVF-style coarse quantization (scale path)
# ---------------------------------------------------------------------------


def deterministic_centroids(vectors: Dataset, n_cells: int,
                            emb_col: str = "embedding", id_col: str = "vec_id") -> np.ndarray:
    """Seedless, order-free centroid pick: the ``n_cells`` vectors with the
    smallest ids (deterministic at any parallelism), L2-normalized.

    Partial-top-k, not a full sort: each batch keeps its ``n_cells``
    smallest ids, so the driver merges <= n_cells × num_blocks candidate
    rows instead of sorting the whole vector table.
    """

    def smallest(batch: pa.Table) -> pa.Table:
        ids = batch[id_col].to_numpy(zero_copy_only=False)
        if len(ids) > n_cells:
            keep = np.sort(np.argpartition(ids, n_cells)[:n_cells])
            batch = batch.take(pa.array(keep, pa.int64()))
        return batch.select([id_col, emb_col])

    df = (
        vectors.map_batches(smallest, batch_format="pyarrow")
        .to_pandas()
        .nsmallest(n_cells, id_col)
        .sort_values(id_col)
    )
    return _norm_rows(np.array(df[emb_col].tolist(), dtype=np.float64))


def ivf_topk(
    vectors: Dataset,
    queries_ref,
    k: int = 10,
    n_cells: int = 16,
    nprobe: int = 4,
    emb_col: str = "embedding",
    id_col: str = "vec_id",
    train_iters: int = 0,
) -> Dataset:
    """Approximate top-k: probe only the ``nprobe`` closest coarse cells.

    ``train_iters > 0`` refines the medoid seeds with that many distributed
    Lloyd rounds (:func:`kmeans_centroids`) — better-balanced cells, higher
    recall per probe, at one streamed pass per round."""
    if train_iters > 0:
        cents = kmeans_centroids(vectors, n_cells, train_iters, emb_col, id_col)
    else:
        cents = deterministic_centroids(vectors, n_cells, emb_col, id_col)
    cents_ref = ray.put(cents)
    q = ray.get(queries_ref)
    q_probe = np.argsort(-(_norm_rows(q["mat"]) @ cents.T), axis=1)[:, :nprobe]
    probe_ref = ray.put({qid: np.sort(cells) for qid, cells in zip(q["ids"], q_probe)})
    union_ref = ray.put(np.unique(q_probe))

    class CellPartial(_PartialTopK):
        """Sublinear scan: the only full-corpus work per batch is the cell
        assignment (one ``n × n_cells`` matmul — the IVF index-build cost).
        Rows outside the UNION of all probed cells are dropped BEFORE the
        expensive ``q_mat @ mat.T`` matmul, so query compute scales with the
        probed corpus fraction (nprobe/n_cells on balanced cells), not with
        corpus size. Pruning at the scan beats a ``groupby(cell)`` route
        here: same compute bound, no all-to-all shuffle of the vectors."""

        def __init__(self, queries_ref, k, emb_col, id_col):
            super().__init__(queries_ref, k, emb_col, id_col)
            self.cents = ray.get(cents_ref)
            self.probe = ray.get(probe_ref)
            self.union = ray.get(union_ref)

        def __call__(self, batch: pa.Table) -> pa.Table:
            mat = _norm_rows(_emb_matrix(batch, self.emb_col))
            cells = (mat @ self.cents.T).argmax(axis=1)
            keep = np.isin(cells, self.union)
            if not keep.any():
                return _EMPTY_CANDIDATES
            mat = mat[keep]
            cells = cells[keep]
            ids = batch[self.id_col].to_numpy(zero_copy_only=False)[keep]
            sims = self.q_mat @ mat.T  # [nq, kept] — probed fraction only
            return _emit_probed_candidates(self.q_ids, self.k, sims, ids,
                                           cells, self.probe)

    partials = vectors.map_batches(
        CellPartial,
        batch_format="pyarrow",
        fn_constructor_kwargs=dict(queries_ref=queries_ref, k=k,
                                   emb_col=emb_col, id_col=id_col),
        concurrency=pool_size(),
    )
    return _topk_reduce(partials, k)


_EMPTY_CANDIDATES = pa.table(
    {
        "query_id": pa.array([], pa.int64()),
        "vec_id": pa.array([], pa.int64()),
        "sim": pa.array([], pa.float64()),
    }
)


def _emit_probed_candidates(q_ids, k, sims, ids, cells, probe) -> pa.Table:
    """Per-query candidate emission restricted to that query's probe list:
    the top-(k+1) rows by (sim desc, vec_id asc) among rows whose cell the
    query probes (+1 so the final reduce can drop a self-hit)."""
    q_out, id_out, sim_out = [], [], []
    for qi, qid in enumerate(q_ids):
        mask = np.isin(cells, probe[int(qid)])
        if not mask.any():
            continue
        cand = np.where(mask)[0]
        order = cand[np.lexsort((ids[cand], -sims[qi, cand]))][: k + 1]
        for ci in order:
            q_out.append(qid)
            id_out.append(ids[ci])
            sim_out.append(sims[qi, ci])
    return pa.table(
        {
            "query_id": pa.array(q_out, pa.int64()),
            "vec_id": pa.array(id_out, pa.int64()),
            "sim": pa.array(sim_out, pa.float64()),
        }
    )


def kmeans_centroids(
    vectors: Dataset,
    n_cells: int,
    iters: int = 3,
    emb_col: str = "embedding",
    id_col: str = "vec_id",
) -> np.ndarray:
    """Distributed Lloyd k-means for the IVF coarse quantizer.

    Seeds with :func:`deterministic_centroids` (min-id medoids — order-free),
    then runs ``iters`` rounds; each round is ONE streamed pass where every
    batch emits its per-cell partial (sum vector, count) — a mergeable
    combiner, so the driver reduces ``n_cells`` rows per batch, never
    vectors. Empty cells keep their previous centroid. Stable to float ulps
    at any parallelism — NOT bitwise-identical: each batch's partial sums
    (``np.add.at``) accumulate in block row order, so centroids can differ
    across partitionings at the last float64 ulp, and a vector exactly
    equidistant between two centroids could then flip cells. Exact
    order-independence would need fixed-point accumulation; the IVF
    consumers tolerate ulp-level drift (recall is approximate by design).
    """
    cents = deterministic_centroids(vectors, n_cells, emb_col, id_col)
    d = cents.shape[1]
    for _ in range(iters):
        cents_ref = ray.put(cents)

        def partial(batch: pa.Table) -> pa.Table:
            c = ray.get(cents_ref)
            mat = _norm_rows(_emb_matrix(batch, emb_col))
            cells = (mat @ c.T).argmax(axis=1)
            sums = np.zeros((n_cells, d), dtype=np.float64)
            np.add.at(sums, cells, mat)
            counts = np.bincount(cells, minlength=n_cells).astype(np.int64)
            return pa.table({
                "cell": pa.array(np.arange(n_cells), pa.int64()),
                "vsum": pa.array(sums.tolist(), pa.list_(pa.float64())),
                "n": pa.array(counts, pa.int64()),
            })

        parts = vectors.map_batches(partial, batch_format="pyarrow",
                                    batch_size=None).to_pandas()
        sums = np.zeros((n_cells, d), dtype=np.float64)
        counts = np.zeros(n_cells, dtype=np.int64)
        # fixed reduction order: group partials by cell, sum in cell order
        for cell, grp in parts.groupby("cell", sort=True):
            sums[cell] = np.sum(np.stack(grp["vsum"].to_list()), axis=0)
            counts[cell] = grp["n"].sum()
        nonempty = counts > 0
        cents = cents.copy()
        cents[nonempty] = _norm_rows(sums[nonempty] / counts[nonempty, None])
    return cents


# ---------------------------------------------------------------------------
# Persisted IVF index: build once, query sublinearly (the 100-TB path)
# ---------------------------------------------------------------------------


def ivf_build(
    vectors: Dataset,
    index_dir,
    n_cells: int = 128,
    emb_col: str = "embedding",
    id_col: str = "vec_id",
    train_iters: int = 0,
) -> np.ndarray:
    """Build a cell-partitioned on-disk IVF index: ONE streamed assignment
    pass writes parquet hive-partitioned by coarse cell (plus the tiny
    centroid matrix next to it).

    This is the genuinely sublinear serving path: :func:`ivf_topk` prunes
    candidate EMISSION per batch but still pays the ``n x n_cells``
    assignment matmul on every query set (a full-corpus pass — measured
    slower than brute force for small query counts). With the index
    persisted, :func:`ivf_query` reads ONLY the probed cell partitions, so
    per-query-set I/O and compute both scale with ``nprobe / n_cells``,
    independent of corpus size. Build cost amortizes across query sets, the
    same trade every production ANN index makes. Partitioned output doubles
    as resumable/rebalanceable storage (one directory per cell).

    A complete index already at ``index_dir`` is replaced (a rebuild). One
    that another builder publishes there while this build runs is kept,
    and its centroids are returned.
    """
    import os
    import shutil
    from pathlib import Path

    index = Path(index_dir)
    marker = index / "centroids.npy"
    # identity of the complete index this build may replace (a deliberate
    # rebuild); any OTHER marker seen at publish time is a concurrent build
    prior = _marker_id(marker)
    if train_iters > 0:
        cents = kmeans_centroids(vectors, n_cells, train_iters, emb_col, id_col)
    else:
        cents = deterministic_centroids(vectors, n_cells, emb_col, id_col)
    if index.exists():
        # refuse to delete a directory that is not a previous index: an
        # unconditional rmtree at a caller-supplied path would destroy
        # arbitrary data on a typo (e.g. pointing at the corpus dir)
        is_prior_index = marker.exists() or (
            index.is_dir() and not any(index.iterdir())
        )
        if not is_prior_index:
            raise FileExistsError(
                f"{index} exists and does not look like a previous IVF index "
                "(no centroids.npy); refusing to delete it — pass a fresh or "
                "prior-index path"
            )
    # Build into a temp sibling and atomically publish: the target path is
    # always either absent, a complete prior index, or the complete new one —
    # a crash mid-build can never leave a half-written dir that the
    # prior-index guard above would then refuse to replace.
    index.parent.mkdir(parents=True, exist_ok=True)
    # crash debris only: a build dir whose owner (the pid suffix) is this
    # process or is gone. Another live builder's dir is still being written.
    for stale in index.parent.glob(f".{index.name}.build-*"):
        owner = stale.name.rsplit("-", 1)[1]
        if owner.isdigit() and (int(owner) == os.getpid()
                                or not _pid_alive(int(owner))):
            shutil.rmtree(stale, ignore_errors=True)
    build = index.parent / f".{index.name}.build-{os.getpid()}"
    build.mkdir(parents=True)
    cents_ref = ray.put(cents)

    def assign(batch: pa.Table) -> pa.Table:
        mat = _norm_rows(_emb_matrix(batch, emb_col))
        cells = (mat @ ray.get(cents_ref).T).argmax(axis=1)
        # cell is duplicated as a data column: hive partition values parse
        # back as strings/dictionary depending on reader defaults, and the
        # query path needs the int64 cell id per row
        return batch.select([id_col, emb_col]).append_column(
            "cell_id", pa.array(cells, pa.int64())
        ).append_column("cell", pa.array(cells, pa.int64()))

    (
        vectors.map_batches(assign, batch_format="pyarrow")
        # co-locate each cell before the partitioned write: without it every
        # (block x cell) pair becomes its own tiny file (cells x blocks
        # files) and query-time read planning dominates; sorted, each cell
        # dir holds O(cell_bytes / block_size) contiguous files
        .sort("cell")
        .write_parquet(str(build / "cells"), partition_cols=["cell"])
    )
    np.save(build / "centroids.npy", cents)
    # re-check the marker right before publishing: a concurrent builder
    # that published a complete index during this build wins (removing it
    # would pull files from under its readers), so drop ours and use theirs
    if _marker_id(marker) in (None, prior):
        if index.exists():
            shutil.rmtree(index)
        try:
            os.replace(build, index)
            return cents
        except OSError:  # published in the instant since the re-check
            if not marker.exists():
                raise
    shutil.rmtree(build, ignore_errors=True)
    return np.load(marker)


def _pid_alive(pid: int) -> bool:
    import os

    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:  # alive, owned by another user
        return True
    return True


def _marker_id(marker) -> tuple[int, int] | None:
    """(inode, mtime_ns) of an index's ``centroids.npy``, None if absent."""
    try:
        st = marker.stat()
    except FileNotFoundError:
        return None
    return st.st_ino, st.st_mtime_ns


def ivf_query(
    index_dir,
    queries_ref,
    k: int = 10,
    nprobe: int = 4,
    emb_col: str = "embedding",
    id_col: str = "vec_id",
) -> Dataset:
    """Top-k over a persisted IVF index, touching only probed partitions.

    Reads the union of the queries' ``nprobe`` closest cells' directories —
    unprobed partitions are never opened (I/O-level pruning, provable by
    deleting them; see the test) — then scores each batch against the
    broadcast query matrix and emits per-query candidates restricted to
    that query's own probe list. Output contract matches
    :func:`brute_force_topk` (query_id, vec_id; self-hits dropped; ties by
    ascending vec_id).
    """
    from pathlib import Path

    index = Path(index_dir)
    cents = np.load(index / "centroids.npy")
    q = ray.get(queries_ref)
    q_ids = q["ids"]
    q_mat = _norm_rows(q["mat"])
    q_probe = np.argsort(-(q_mat @ cents.T), axis=1)[:, :nprobe]
    probe = {int(qid): np.sort(cells).astype(np.int64)
             for qid, cells in zip(q_ids, q_probe)}
    paths = [str(f)
             for c in sorted(int(c) for c in np.unique(q_probe))
             for f in sorted((index / "cells" / f"cell={c}").glob("*.parquet"))]
    if not paths:
        return ray.data.from_arrow(pa.table({
            "query_id": pa.array([], pa.int64()),
            "vec_id": pa.array([], pa.int64()),
        }))
    probed = ray.data.read_parquet(paths, columns=[id_col, emb_col, "cell_id"])
    probe_ref = ray.put(probe)

    class ProbedPartial(_PartialTopK):
        def __init__(self, queries_ref, k, emb_col, id_col):
            super().__init__(queries_ref, k, emb_col, id_col)
            self.probe = ray.get(probe_ref)

        def __call__(self, batch: pa.Table) -> pa.Table:
            mat = _norm_rows(_emb_matrix(batch, self.emb_col))
            ids = batch[self.id_col].to_numpy(zero_copy_only=False)
            cells = batch["cell_id"].to_numpy(zero_copy_only=False)
            sims = self.q_mat @ mat.T  # [nq, batch] — probed partitions only
            return _emit_probed_candidates(self.q_ids, self.k, sims, ids,
                                           cells, self.probe)

    partials = probed.map_batches(
        ProbedPartial,
        batch_format="pyarrow",
        fn_constructor_kwargs=dict(queries_ref=queries_ref, k=k,
                                   emb_col=emb_col, id_col=id_col),
        concurrency=pool_size(),
    )
    return _topk_reduce(partials, k)


def ann_topk(
    vectors: Dataset,
    queries_ref,
    k: int = 10,
    nprobe: int = 4,
    index_dir=None,
    n_cells: int = 128,
    emb_col: str = "embedding",
    id_col: str = "vec_id",
    train_iters: int = 0,
) -> Dataset:
    """THE default ANN entry point — index-first (VERDICT r4 #2).

    With ``index_dir`` (the scale path): reuse the persisted
    cell-partitioned IVF index there, building it first if the directory
    holds no complete index (``centroids.npy`` marks completeness;
    :func:`ivf_build` publishes atomically, so a present marker means a
    whole index). Queries then read ONLY the probed cell partitions —
    per-query-set cost tracks ``nprobe / n_cells``, independent of corpus
    size, and the build amortizes across query sets.

    Without ``index_dir`` (explicit no-index fallback): the one-shot
    :func:`ivf_topk`, which pays a full-corpus assignment matmul on every
    call — measured SLOWER than brute force at small query counts
    (BASELINE.md). Reach for it only when the corpus will be queried once.
    """
    from pathlib import Path

    if index_dir is None:
        return ivf_topk(vectors, queries_ref, k=k, n_cells=n_cells,
                        nprobe=nprobe, emb_col=emb_col, id_col=id_col)
    index = Path(index_dir)
    if not (index / "centroids.npy").exists():
        ivf_build(vectors, index, n_cells=n_cells, emb_col=emb_col,
                  id_col=id_col, train_iters=train_iters)
    return ivf_query(index, queries_ref, k=k, nprobe=nprobe,
                     emb_col=emb_col, id_col=id_col)
