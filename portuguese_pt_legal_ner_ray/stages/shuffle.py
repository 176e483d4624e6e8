"""Shuffle helpers: pre-aggregated (combiner-style) grouped count/agg.

Scale-safe replacements for ``ds.groupby(cols).aggregate(...)`` on
high-cardinality string keys:

1. per-batch Arrow ``Table.group_by`` (C++ hash aggregation) — the
   *combiner*: the shuffle moves partial aggregates, never raw rows;
2. partials are hash-bucketed (vectorized segmented polynomial hash over
   the utf-8 buffer — process-stable, unlike ``hash()``) so the all-to-all
   exchange range-partitions a small int key instead of multi-column
   strings;
3. one Arrow group_by per bucket merges the partials.

All aggregates used are decomposable (min/max/sum/count as sum), so results
are exact at any parallelism (each key hashes to exactly one bucket).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
from ray.data import Dataset

_SEP = "\x1f"


def pool_size() -> tuple[int, int]:
    """Actor-pool bounds scaled to the session's CPU width — THE shared
    sizing policy (a hard-coded cap runs a stage at a fraction of a wide
    cluster; pools autoscale from 1 so tiny inputs don't pay spin-up)."""
    import ray

    return (1, max(2, int(ray.cluster_resources().get("CPU", 8))))


def worker_cached(store: dict, key, build):
    """Per-worker memo for task-mode ``map_batches`` functions — THE shared
    caching policy. Ray reuses worker processes across tasks, so what
    ``build()`` makes (a tagger, a normalized broadcast matrix) is built
    once per worker and ``key`` without an actor pool holding CPUs.
    ``store`` is the caller's module-level dict, cleared when it reaches 4
    entries to bound a long-lived worker's memory."""
    value = store.get(key)
    if value is None:
        if len(store) >= 4:
            store.clear()
        value = store[key] = build()
    return value


# FNV-64 prime as the polynomial base; math is uint64 with natural wraparound
_HASH_BASE = np.uint64(1099511628211)
_POW: np.ndarray = np.array([1], dtype=np.uint64)


def _pow_table(n: int) -> np.ndarray:
    """Powers of the hash base mod 2^64, grown on demand and cached."""
    global _POW
    if len(_POW) < n:
        grown = np.full(n, _HASH_BASE, dtype=np.uint64)
        grown[0] = 1
        np.cumprod(grown, out=grown)  # wraps mod 2^64 (array ops don't warn)
        _POW = grown
    return _POW


def hash_strings(arr: pa.Array | pa.ChunkedArray) -> np.ndarray:
    """Process-stable uint64 hash of a string array, fully vectorized.

    Segmented polynomial hash straight over the Arrow utf-8 data buffer
    (``np.add.reduceat`` per string segment) followed by a murmur-style
    finalizer so low bits are well mixed for ``% num_buckets``. No per-row
    Python — this runs in every combiner of every grouped_* shuffle.
    """
    if isinstance(arr, pa.ChunkedArray):
        arr = arr.combine_chunks()
    n = len(arr)
    if n == 0:
        return np.empty(0, dtype=np.uint64)
    # offsets are int32 for string, int64 for large_string (which pyarrow
    # promotes to on >2GB string data — exactly the sizes this layer serves)
    off_dtype = np.int64 if pa.types.is_large_string(arr.type) else np.int32
    bufs = arr.buffers()
    offsets = np.frombuffer(bufs[1], dtype=off_dtype)[arr.offset : arr.offset + n + 1]
    offsets = offsets.astype(np.int64)
    data = np.frombuffer(bufs[2], dtype=np.uint8) if bufs[2] is not None else np.empty(0, np.uint8)
    lengths = np.diff(offsets)
    base = offsets[0]
    total = int(lengths.sum())
    # dense start of each string in CONCATENATED byte order
    dense_starts = np.zeros(n, dtype=np.int64)
    np.cumsum(lengths[:-1], out=dense_starts[1:])
    # per-byte weight position = offset within its own string
    rel = np.arange(total, dtype=np.int64) - np.repeat(dense_starts, lengths)
    if total == offsets[-1] - base:
        # densely packed buffer: one contiguous slice
        seg = data[base : offsets[-1]].astype(np.uint64)
    else:
        # non-dense layout — e.g. Arrow split kernels return zero-copy
        # slices into the ORIGINAL buffer, leaving the separators as gaps
        # between strings; gather exactly each string's bytes (assuming
        # contiguity here would read gap bytes into the wrong hashes)
        seg = data[np.repeat(offsets[:-1], lengths) + rel].astype(np.uint64)
    pw = _pow_table(int(lengths.max()) + 1 if len(lengths) else 1)
    vals = seg * pw[rel]
    # sentinel 0 so a trailing empty segment's start index stays in bounds
    vals = np.append(vals, np.uint64(0))
    h = np.add.reduceat(vals, dense_starts)
    h[lengths == 0] = np.uint64(0)
    # fmix64 (murmur3 finalizer)
    h ^= h >> np.uint64(33)
    h *= np.uint64(0xFF51AFD7ED558CCD)
    h ^= h >> np.uint64(33)
    h *= np.uint64(0xC4CEB9FE1A85EC53)
    h ^= h >> np.uint64(33)
    return h


def bucket_by(tbl: pa.Table, cols: list[str], num_buckets: int = 64) -> pa.Table:
    """Append a ``__bucket`` int column = hash(joined key cols) % buckets.

    THE key-routing kernel shared by every bucket-level stage (grouped_*
    combiners, hash_join, LSH pair-gen, sessionize/as-of, grouped_topk) —
    one definition so separator / hash / dtype can never desynchronize.
    Also strips schema metadata (parquet pandas-metadata is an unhashable
    dict on this pyarrow and breaks Ray's block-schema dedup).
    """
    joined = pc.binary_join_element_wise(
        *[pc.cast(tbl[c], pa.string()) for c in cols], _SEP
    )
    buckets = (hash_strings(joined) % np.uint64(num_buckets)).astype(np.int64)
    return tbl.append_column(
        "__bucket", pa.array(buckets, pa.int64())
    ).replace_schema_metadata(None)


_bucket_col = bucket_by  # internal alias used by the grouped_* combiners


def _agg_select(g: pa.Table, cols: list[str], agg_names: list[str],
                outs: list[str]) -> pa.Table:
    """Reorder/rename aggregate output BY NAME (pyarrow's group_by output
    column order has differed across versions; positional renames would
    silently swap columns instead of erroring)."""
    return g.select([*cols, *agg_names]).rename_columns([*cols, *outs])


def strip_schema_metadata(ds: Dataset) -> Dataset:
    """Drop schema-level metadata from every block (fused, zero-copy).

    Parquet written via pandas carries a ``b'pandas'`` schema-metadata blob;
    on this pyarrow ``Schema.metadata`` is a plain dict, which is unhashable
    and defeats Ray's block-schema dedup (every shuffle reduce then logs a
    hash-failure warning). Apply after a read that feeds a Ray-native
    ``groupby``/``sort``.
    """
    return ds.map_batches(lambda t: t.replace_schema_metadata(None),
                          batch_format="pyarrow", zero_copy_batch=True)


def grouped_count(ds: Dataset, cols: list[str], alias: str = "count",
                  num_buckets: int = 64) -> Dataset:
    """Exact ``groupby(cols).count()`` with combiner + bucketed merge."""

    def preagg(batch: pa.Table) -> pa.Table:
        g = batch.group_by(cols).aggregate([(cols[0], "count")])
        g = _agg_select(g, cols, [f"{cols[0]}_count"], [alias])
        return _bucket_col(g, cols, num_buckets)

    def per_bucket(g: pa.Table) -> pa.Table:
        out = g.group_by(cols).aggregate([(alias, "sum")])
        return _agg_select(out, cols, [f"{alias}_sum"], [alias])

    return (
        ds.map_batches(preagg, batch_format="pyarrow", batch_size=None)
        .groupby("__bucket")
        .map_groups(per_bucket, batch_format="pyarrow")
    )


def grouped_count_distinct(ds: Dataset, group_cols: list[str], value_col: str,
                           alias: str = "n_distinct",
                           num_buckets: int = 64) -> Dataset:
    """Exact ``groupby(group_cols).count(DISTINCT value_col)``.

    Two bucketed combiner shuffles — the same shape ANSI SQL implies
    (DISTINCT pairs, then a count per group), never a per-group set build:

    1. :func:`grouped_count` over ``group_cols + [value_col]`` — per-batch
       Arrow ``group_by`` collapses repeats before the shuffle, the bucket
       merge leaves exactly one row per distinct (group, value) pair;
    2. :func:`grouped_count` over ``group_cols`` counts those rows.

    Both exchanges move pre-deduplicated pairs (bounded by the distinct
    count, not the row count), so a hot group with billions of repeated
    values ships each value once per block at most.
    """
    distinct_pairs = grouped_count(
        ds.select_columns([*group_cols, value_col]),
        [*group_cols, value_col], alias="__dup", num_buckets=num_buckets,
    )
    return grouped_count(distinct_pairs, group_cols, alias=alias,
                         num_buckets=num_buckets)


def grouped_agg(ds: Dataset, cols: list[str], agg_spec: dict[str, tuple[str, str]],
                num_buckets: int = 64, pre_aggregated: bool = False) -> Dataset:
    """Exact grouped aggregation via the same bucket pattern.

    ``agg_spec``: output_col -> (source_col, how); ``how`` must be
    decomposable (min / max / sum). ``pre_aggregated=True`` skips the
    combiner when the input already holds one partial row per (batch, key).
    """
    outs = list(agg_spec)

    def combine(batch: pa.Table, src: bool) -> pa.Table:
        aggs = [((s if src else o), h) for o, (s, h) in agg_spec.items()]
        g = batch.group_by(cols).aggregate(aggs)
        return _agg_select(g, cols, [f"{c}_{h}" for c, h in aggs], outs)

    def preagg(batch: pa.Table) -> pa.Table:
        return _bucket_col(combine(batch, src=True), cols, num_buckets)

    def bucketize_only(batch: pa.Table) -> pa.Table:
        # input columns carry source names; rename to output names first
        cols_order = [*cols, *[s for _, (s, _h) in agg_spec.items()]]
        t = batch.select(cols_order).rename_columns([*cols, *outs])
        return _bucket_col(t, cols, num_buckets)

    def per_bucket(g: pa.Table) -> pa.Table:
        aggs = [(o, h) for o, (_s, h) in agg_spec.items()]
        out = g.select([*cols, *outs]).group_by(cols).aggregate(aggs)
        return _agg_select(out, cols, [f"{o}_{h}" for o, h in aggs], outs)

    first = bucketize_only if pre_aggregated else preagg
    # batch_size=None -> whole blocks: the combiner's reduction ratio (and
    # therefore the shuffle volume) scales with batch size, and the Arrow
    # C++ hash aggregation is cheapest amortized over large batches
    return (
        ds.map_batches(first, batch_format="pyarrow", batch_size=None)
        .groupby("__bucket")
        .map_groups(per_bucket, batch_format="pyarrow")
    )
