"""Join helpers for Ray Data (SURVEY.md §2.4 — the reference has no joins;
the target pipeline adds broadcast lookups and a partitioned hash join).

* ``BroadcastLookup`` — small-side lookup: the mapping dict is put in the
  object store ONCE (``ray.put`` on the driver) and resolved once per task
  from the local object store, never re-shipped per batch.
* ``hash_join`` / ``hash_left_join`` / ``hash_semi_join`` /
  ``hash_anti_join`` — both-sides-large equi-joins (SQL inner, LEFT OUTER,
  EXISTS, NOT EXISTS). All four are thin wrappers over ONE bucketed plan
  (the "join over UNION ALL" shape): both sides are tagged by source and
  routed by ``shuffle.bucket_by`` on the (single or composite) key, one
  grouped ``map_groups`` exchange gathers each bucket, and the bucket
  is resolved by ONE Arrow ``Table.join`` over the key columns plus a
  row-index column; payloads are then gathered with ``take``. SQL null
  semantics (a null key matches nothing), exact int64 payloads (no pandas
  float promotion) and list payloads (which ``Table.join`` rejects as
  non-key fields) all follow from that shape. Null-key rows never join, so
  they are dropped before the exchange, or, where the join keeps them
  (left outer/anti), dealt round-robin over the buckets instead of piling
  into one hot bucket.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import ray

from .shuffle import bucket_by


class BroadcastLookup:
    """map_batches callable: adds columns by dict lookup on a key column.

    ``mapping_ref`` is a ``ray.ObjectRef`` to a dict; fetched once per actor
    (zero-copy shared memory on one node; one transfer per node in a
    cluster).
    """

    def __init__(self, mapping_ref, key_col: str, out_col: str, default=None):
        self.mapping = ray.get(mapping_ref)
        if any(v is None for v in self.mapping.values()):
            raise ValueError("BroadcastLookup mapping values must be non-null "
                             "(None is indistinguishable from a missing key)")
        self.key_col = key_col
        self.out_col = out_col
        self.default = default

        _I64_MIN, _I64_MAX = np.iinfo(np.int64).min, np.iinfo(np.int64).max

        def _is_i64(x) -> bool:
            return (isinstance(x, (int, np.integer)) and not isinstance(x, bool)
                    and _I64_MIN <= int(x) <= _I64_MAX)

        # all-int64-range mapping: precompute sorted key/value arrays so
        # lookups run as exact int64 searchsorted — Series.map would
        # round-trip found values through float64 (NaN promote), silently
        # corrupting integers above 2^53 (hash/fingerprint ids). Out-of-
        # int64-range ints (raw uint64 hashes) fall back to the map path.
        self._k_arr = self._v_arr = None
        if (self.mapping and (default is None or _is_i64(default))
                and all(_is_i64(k) for k in self.mapping)
                and all(_is_i64(v) for v in self.mapping.values())):
            items = sorted(self.mapping.items())
            self._k_arr = np.array([k for k, _ in items], dtype=np.int64)
            self._v_arr = np.array([v for _, v in items], dtype=np.int64)
        # map-path dtype restore is only exact below 2^53 (float64 mantissa)
        self._small_int_values = all(
            isinstance(v, (int, np.integer)) and not isinstance(v, bool)
            and abs(int(v)) < 2 ** 53
            for v in self.mapping.values()
        ) if self.mapping else False
        # int values beyond 2^53 that the searchsorted path can't serve
        # (e.g. raw uint64 hashes > int64 max) would be corrupted by the
        # pandas float64 round-trip: serve them with an exact object loop
        self._need_exact_loop = self._k_arr is None and any(
            isinstance(v, (int, np.integer)) and not isinstance(v, bool)
            and abs(int(v)) >= 2 ** 53
            for v in self.mapping.values()
        )

    @staticmethod
    def _is_uint64(keys: pd.Series) -> bool:
        arr = keys.to_numpy()
        return arr.dtype.kind == "u" and arr.dtype.itemsize == 8

    def __call__(self, batch: pd.DataFrame) -> pd.DataFrame:
        keys = batch[self.key_col]
        if (pd.api.types.is_integer_dtype(keys) and not keys.isna().any()
                and self._is_uint64(keys)):
            # uint64-keyed batches ALWAYS take the exact loop and emit a
            # uint64 column: the searchsorted fast path's to_numpy(int64)
            # silently WRAPS keys above 2^63 (a wrapped key misses the
            # mapping — or spuriously equals a negative mapping key — and
            # the identity fallback emits the wrapped negative value), and
            # deciding per batch would give wrapping and non-wrapping
            # blocks of one Dataset different output dtypes (int64 vs
            # uint64), breaking block-schema agreement downstream.
            m, d = self.mapping, self.default
            vals = [m.get(int(k), int(k) if d is None else d) for k in keys]
            if all(isinstance(v, (int, np.integer)) and not isinstance(v, bool)
                   for v in vals):
                if any(int(v) < 0 for v in vals):
                    raise ValueError(
                        "BroadcastLookup: negative mapping/default values "
                        "are not representable in the uint64 output column "
                        "that uint64 keys require (mixed-sign output has "
                        "no exact integer dtype)")
                batch[self.out_col] = np.array(vals, dtype=np.uint64)
            else:  # non-integer payload values: keep exact objects
                batch[self.out_col] = vals
            return batch
        if (self._k_arr is not None and pd.api.types.is_integer_dtype(keys)
                and not keys.isna().any()):  # nullable Int64 NA -> map path
            kn = keys.to_numpy(dtype=np.int64)
            idx = np.clip(np.searchsorted(self._k_arr, kn), 0, len(self._k_arr) - 1)
            hit = self._k_arr[idx] == kn
            fb = kn if self.default is None else np.int64(self.default)
            batch[self.out_col] = np.where(hit, self._v_arr[idx], fb)
            return batch
        if self._need_exact_loop:
            m, d = self.mapping, self.default
            batch[self.out_col] = [m.get(k, k if d is None else d) for k in keys]
            return batch
        mapped = keys.map(self.mapping)  # vectorized dict lookup (object values)
        miss = mapped.isna()
        if miss.any():
            mapped = mapped.where(~miss, keys if self.default is None else self.default)
            int_fallback = ((self.default is None and pd.api.types.is_integer_dtype(keys))
                            or (isinstance(self.default, (int, np.integer))
                                and not isinstance(self.default, bool)))
            if self._small_int_values and int_fallback:
                mapped = mapped.astype(np.int64)  # undo the NaN float64 promote
        batch[self.out_col] = mapped
        return batch


def _key_list(key) -> list[str]:
    """Normalize ``key`` (one column name or a list for composite-key
    equi-joins, e.g. ``["url", "para_idx"]``) to a list."""
    return [key] if isinstance(key, str) else list(key)


def _fields(ds) -> dict[str, pa.DataType]:
    """Column name -> Arrow type of a Dataset (pandas-block schemas report
    numpy dtypes; object dtype is taken as string payload)."""
    sch = ds.schema()
    out = {}
    for n, t in zip(sch.names, sch.types):
        if not isinstance(t, pa.DataType):
            try:
                t = pa.from_numpy_dtype(np.dtype(t))
            except (pa.ArrowNotImplementedError, TypeError):
                t = pa.string()
        out[n] = t
    return out


def _bucketed_join(ds_a, ds_b, key, join_type: str, num_buckets: int,
                   bucket_post=None):
    """THE join kernel behind the four public wrappers. ``join_type`` is an
    Arrow ``Table.join`` type: "inner", "left outer", "left semi" or
    "left anti".

    Both sides are reindexed to one shared tagged schema (keys, ``ds_a``
    payloads, ``ds_b`` payloads, ``__src``; a side's missing payload
    columns are typed nulls) so union blocks agree on layout, then routed
    by ``bucket_by`` so every occurrence of a key co-locates. Semi/anti
    joins never read ``ds_b`` payloads, so the probe side ships only its
    per-batch-distinct key tuples. Inside a bucket the join runs on the
    keys plus a row index only, and payloads follow by ``take`` (a null
    right index — a left-outer miss — gathers a typed null).
    """
    keys = _key_list(key)
    probe_only = join_type in ("left semi", "left anti")
    # the probe side's keys are cast to ds_a's types, and its schema is
    # never read (an all-empty Dataset has none)
    fa = _fields(ds_a)
    fb = {} if probe_only else _fields(ds_b)
    missing = [k for k in keys if k not in fa or not (probe_only or k in fb)]
    if missing:
        raise ValueError(f"join key columns missing from a side: {missing}")
    a_cols = [c for c in fa if c not in keys]
    b_cols = [c for c in fb if c not in keys]
    overlap = set(a_cols) & set(b_cols)
    if overlap:
        raise ValueError(f"join payload columns must be disjoint: {overlap}")
    out_schema = pa.schema([(k, fa[k]) for k in keys]
                           + [(c, fa[c]) for c in a_cols]
                           + [(c, fb[c]) for c in b_cols])
    tagged_schema = out_schema.append(pa.field("__src", pa.int8()))

    def tag(src: int, own_cols: list[str]):
        # a null key component matches nothing: rows that cannot reach the
        # output (every right row, and left rows of inner/semi joins) are
        # dropped here, and left rows that survive unmatched (left outer/
        # anti) are dealt round-robin over the buckets, where ``bucket_by``
        # would send them all to bucket 0. The deal starts at an offset
        # fixed by the batch's other buckets, so a re-executed task routes
        # every row as before.
        keep_nulls = src == 0 and join_type in ("left outer", "left anti")

        def f(t: pa.Table) -> pa.Table:
            null = np.zeros(len(t), dtype=bool)
            for k in keys:
                null |= np.asarray(pc.is_null(t[k]))
            has_nulls = bool(null.any())
            if has_nulls and not keep_nulls:
                t = t.filter(~null)
            if src == 1 and probe_only:
                t = t.select(keys).group_by(keys).aggregate([])
            n = len(t)
            cols = []
            for field in tagged_schema:
                if field.name == "__src":
                    cols.append(pa.array(np.full(n, src, dtype=np.int8)))
                elif field.name in keys or field.name in own_cols:
                    cols.append(pc.cast(t[field.name], field.type))
                else:
                    cols.append(pa.nulls(n, field.type))
            out = bucket_by(pa.Table.from_arrays(cols, schema=tagged_schema),
                            keys, num_buckets)
            if has_nulls and keep_nulls:
                b = np.array(out["__bucket"])
                b[null] = (int(b.sum()) + np.arange(int(null.sum()))) % num_buckets
                out = out.set_column(out.num_columns - 1, "__bucket", pa.array(b))
            return out

        return f

    def join_bucket(g: pa.Table) -> pa.Table:
        left = g.filter(pc.equal(g["__src"], 0))
        right = g.filter(pc.equal(g["__src"], 1))
        lk = left.select(keys).append_column(
            "__l", pa.array(np.arange(len(left), dtype=np.int64)))
        rk = right.select(keys)
        if not probe_only:
            rk = rk.append_column(
                "__r", pa.array(np.arange(len(right), dtype=np.int64)))
        j = lk.join(rk, keys=keys, join_type=join_type)
        cols = left.select([*keys, *a_cols]).take(j["__l"]).columns
        if b_cols:
            cols += right.select(b_cols).take(j["__r"]).columns
        out = pa.Table.from_arrays(cols, schema=out_schema)
        return out if bucket_post is None else bucket_post(out)

    return (
        ds_a.map_batches(tag(0, a_cols), batch_format="pyarrow")
        .union(ds_b.map_batches(tag(1, b_cols), batch_format="pyarrow"))
        .groupby("__bucket")
        .map_groups(join_bucket, batch_format="pyarrow")
    )


def hash_join(ds_a, ds_b, key, num_buckets: int = 64, bucket_post=None):
    """Inner equi-join of two Datasets on ``key`` (a column name, or a LIST
    of names for a composite key). Payload (non-key) column names must be
    disjoint; output is (keys, ``ds_a`` payloads, ``ds_b`` payloads).

    Used when neither side fits a broadcast (e.g. canonical-id application
    at 10^12-doc scale). ``bucket_post``: optional ``pa.Table -> pa.Table``
    applied to each bucket's joined table INSIDE the join stage — fuses a
    post-join transform (filter/projection) so wide joined payloads (e.g.
    both shingle arrays of a candidate pair) are consumed where they were
    joined instead of being re-blocked and shipped to a separate stage. The
    callback owns the output schema (return the same schema for every
    bucket, empty ones included).
    """
    return _bucketed_join(ds_a, ds_b, key, "inner", num_buckets, bucket_post)


def hash_left_join(ds_a, ds_b, key, num_buckets: int = 64):
    """LEFT OUTER equi-join on ``key`` (single column or composite list):
    every ``ds_a`` row survives, matched ``ds_b`` payloads attach, misses
    get typed nulls (int64 stays int64 — exact above 2^53)."""
    return _bucketed_join(ds_a, ds_b, key, "left outer", num_buckets)


def hash_semi_join(ds_a, ds_b, key, num_buckets: int = 64):
    """Rows of ``ds_a`` whose ``key`` (single or composite) equals some
    ``ds_b`` key (SQL ``EXISTS``); left duplicates are kept, each once."""
    return _bucketed_join(ds_a, ds_b, key, "left semi", num_buckets)


def hash_anti_join(ds_a, ds_b, key, num_buckets: int = 64):
    """Rows of ``ds_a`` whose ``key`` (single or composite) equals NO
    ``ds_b`` key (SQL ``NOT EXISTS``) — null keys never match, so a left
    row with a null key component always survives."""
    return _bucketed_join(ds_a, ds_b, key, "left anti", num_buckets)
