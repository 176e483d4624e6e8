"""Shuffle helpers: THE bucketed exchange and the grouped operators on it.

* :func:`exchange` is the one bucketed shuffle every wide operator uses
  (grouped aggregates, joins, windows, dedup, linking bands, top-k
  reduces, distributed CC): a whole-block tag step routes each row by
  :func:`bucket_by` — a vectorized segmented polynomial hash over the
  utf-8 buffer of the joined key columns (process-stable, unlike
  ``hash()``) modulo :data:`NUM_BUCKETS` — so the all-to-all sorts a
  small int key instead of multi-column strings; a list of inputs is
  unioned; the union is sorted on ``__bucket``; and one UDF call per
  sorted block sees every row of each key it holds (one or more whole
  buckets, never a part of one).
* ``grouped_count`` / ``grouped_count_distinct`` / ``grouped_agg`` put a
  *combiner* in front of it: per-batch Arrow ``Table.group_by`` (C++ hash
  aggregation), so the shuffle moves partial aggregates, never raw rows,
  and one Arrow group_by per sorted block merges the partials. The
  combiners are the whole-table kernels :func:`count_by` / :func:`agg_by`;
  run once over a whole table, they are its exact result.

All aggregates used are decomposable (min/max/sum/count as sum), so results
are exact at any parallelism (each key hashes to exactly one bucket).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
from ray.data import Dataset

_SEP = "\x1f"


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


NUM_BUCKETS = 64  # buckets of every exchange (read once per exchange() call)


def bucket_by(tbl: pa.Table, cols: list[str], num_buckets: int = NUM_BUCKETS,
              spread_nulls: bool = False) -> pa.Table:
    """Append a ``__bucket`` int column = hash(joined key cols) % buckets.

    THE key-routing kernel behind :func:`exchange` — one definition so
    separator / hash / dtype can never desynchronize. A row with a null in
    any key column hashes to bucket 0; with ``spread_nulls`` (for rows that
    can never match, such as a join's null keys) such rows are dealt
    round-robin over the buckets instead, from an offset fixed by the batch
    (the sum of its buckets), so a re-executed task routes every row as
    before. Also strips schema metadata (parquet pandas-metadata is an
    unhashable dict on this pyarrow and breaks Ray's block-schema dedup).
    """
    joined = pc.binary_join_element_wise(
        *[pc.cast(tbl[c], pa.string()) for c in cols], _SEP
    )
    buckets = (hash_strings(joined) % np.uint64(num_buckets)).astype(np.int64)
    if spread_nulls:
        null = np.asarray(pc.is_null(joined))
        buckets[null] = (int(buckets.sum()) + np.arange(int(null.sum()))) % num_buckets
    return tbl.append_column(
        "__bucket", pa.array(buckets, pa.int64())
    ).replace_schema_metadata(None)


def _canonical_floats(tbl: pa.Table, cols: list[str]) -> pa.Table:
    """Float key columns with one zero and one NaN: ``-0.0`` becomes
    ``0.0`` (``x + 0.0``) and every NaN the plain NaN. SQL treats the two
    zeros, and all NaNs, as one key; Arrow's ``group_by``/``join`` and the
    string cast in :func:`bucket_by` compare bits and keep them apart."""
    for c in cols:
        col = tbl[c]
        if pa.types.is_floating(col.type):
            fixed = pc.if_else(pc.is_nan(col), pa.scalar(float("nan"), col.type),
                               pc.add(col, pa.scalar(0.0, col.type)))
            tbl = tbl.set_column(tbl.schema.get_field_index(c), c, fixed)
    return tbl


def exchange(inputs: Dataset | list[Dataset], keys: list[str], per_bucket,
             batch_format: str = "pyarrow", spread_nulls: bool = False) -> Dataset:
    """THE bucketed shuffle: every row with equal ``keys`` reaches the same
    ``per_bucket`` call, which gets every row of each key it sees, for one
    or more whole buckets (one UDF call per sorted block, never one per
    key or per bucket).

    1. each input is tagged with :func:`bucket_by` in a whole-block
       ``map_batches``, which fuses into the upstream map (float keys are
       canonicalized first, see :func:`_canonical_floats`);
    2. a list of inputs is unioned (the "tag, union, partition" join plan);
    3. a sort on the ``__bucket`` column range-partitions the union, so
       one bucket is never split across output blocks (the sort shuffle
       Ray's ``groupby().map_groups`` runs, minus its per-group slicing);
    4. ``per_bucket`` gets each whole sorted block without ``__bucket``,
       as a ``batch_format`` batch ("pyarrow" or "pandas"). Ray passes an
       empty block through without calling it.

    The bucket count is :data:`NUM_BUCKETS`, read here in the driver and
    captured by the tag closure (a worker importing the module would not
    see a value set in the driver, e.g. a test's monkeypatch).
    """
    from ray.data.block import BlockAccessor

    num_buckets = NUM_BUCKETS

    def tag(t: pa.Table) -> pa.Table:
        return bucket_by(_canonical_floats(t, keys), keys, num_buckets, spread_nulls)

    if isinstance(inputs, Dataset):
        inputs = [inputs]
    tagged = [ds.map_batches(tag, batch_format="pyarrow", batch_size=None)
              for ds in inputs]
    ds = tagged[0].union(*tagged[1:]) if len(tagged) > 1 else tagged[0]

    def run(g: pa.Table):
        g = g.drop_columns(["__bucket"])
        if batch_format != "pyarrow":
            g = BlockAccessor.for_block(g).to_batch_format(batch_format)
        return per_bucket(g)

    run.__name__ = getattr(per_bucket, "__name__", "per_bucket")
    return ds.sort("__bucket").map_batches(run, batch_format="pyarrow", batch_size=None)


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


def count_by(tbl: pa.Table, cols: list[str], alias: str = "count") -> pa.Table:
    """``groupby(cols).count()`` of one Arrow table (SQL ``count(*)``, null
    keys included): :func:`grouped_count`'s combiner, and over a whole
    table its whole result."""
    g = tbl.group_by(cols).aggregate([([], "count_all")])
    return _agg_select(g, cols, ["count_all"], [alias])


def agg_by(tbl: pa.Table, cols: list[str],
           agg_spec: dict[str, tuple[str, str]]) -> pa.Table:
    """Grouped aggregation of one Arrow table (C++ hash aggregation).
    ``agg_spec``: output_col -> (source_col, how). :func:`grouped_agg`'s
    combiner and bucket merge, and over a whole table its whole result."""
    aggs = list(agg_spec.values())
    g = tbl.group_by(cols).aggregate(aggs)
    return _agg_select(g, cols, [f"{s}_{h}" for s, h in aggs], list(agg_spec))


def grouped_count(ds: Dataset, cols: list[str], alias: str = "count") -> Dataset:
    """Exact ``groupby(cols).count()`` (SQL ``count(*)``, null keys
    included) with combiner (:func:`count_by`) + bucketed merge."""

    def per_bucket(g: pa.Table) -> pa.Table:
        return agg_by(g, cols, {alias: (alias, "sum")})

    return exchange(ds.map_batches(count_by, batch_format="pyarrow", batch_size=None,
                                   fn_kwargs=dict(cols=cols, alias=alias)),
                    cols, per_bucket)


def grouped_count_distinct(ds: Dataset, group_cols: list[str], value_col: str,
                           alias: str = "n_distinct") -> Dataset:
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
        [*group_cols, value_col], alias="__dup",
    )
    return grouped_count(distinct_pairs, group_cols, alias=alias)


def grouped_agg(ds: Dataset | list[Dataset], cols: list[str],
                agg_spec: dict[str, tuple[str, str]],
                pre_aggregated: bool = False) -> Dataset:
    """Exact grouped aggregation via the same bucket pattern.

    ``ds`` may be a list of Datasets with one schema, aggregated as their
    union (the exchange unions them after each one's combiner).
    ``agg_spec``: output_col -> (source_col, how); ``how`` must be
    decomposable (min / max / sum). ``pre_aggregated=True`` skips the
    combiner when the input already holds one partial row per (batch, key).
    """
    outs = list(agg_spec)

    def preagg(batch: pa.Table) -> pa.Table:
        return agg_by(batch, cols, agg_spec)

    def rename_only(batch: pa.Table) -> pa.Table:
        # input columns carry source names; rename to output names first
        srcs = [s for s, _h in agg_spec.values()]
        return batch.select([*cols, *srcs]).rename_columns([*cols, *outs])

    def per_bucket(g: pa.Table) -> pa.Table:
        return agg_by(g, cols, {o: (o, h) for o, (_s, h) in agg_spec.items()})

    # batch_size=None -> whole blocks: the combiner's reduction ratio (and
    # therefore the shuffle volume) scales with batch size, and the Arrow
    # C++ hash aggregation is cheapest amortized over large batches
    first = rename_only if pre_aggregated else preagg
    inputs = [ds] if isinstance(ds, Dataset) else ds
    return exchange([d.map_batches(first, batch_format="pyarrow", batch_size=None)
                     for d in inputs], cols, per_bucket)
