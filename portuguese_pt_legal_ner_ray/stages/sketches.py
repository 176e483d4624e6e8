"""Mergeable sketches: KMV (k-minimum-values) approximate distinct count.

The decomposable-aggregate pattern for when exact distinct (a full shuffle,
see stages/shuffle.grouped_count) is too expensive at 10^12 rows: each
batch keeps the k smallest 64-bit hashes of its values (a combiner),
partial sketches merge by keeping the global k smallest — order-free and
exact under union, so the estimate is identical at any parallelism.
Estimator: (k-1) / kth_min_normalized (standard KMV). Hashing is the
shared vectorized ``hash_strings`` kernel (one pass per batch, no per-value
Python); 64-bit width keeps the exact-degradation mode collision-free far
beyond the 32-bit birthday bound.
"""

from __future__ import annotations

import heapq

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
from ray.data import Dataset

_MAX64 = float(1 << 64)


def _hash_values(arr: pa.Array | pa.ChunkedArray) -> np.ndarray:
    from .shuffle import hash_strings

    vals = pc.cast(arr, pa.string())
    if isinstance(vals, pa.ChunkedArray):
        vals = vals.combine_chunks()
    return hash_strings(vals)


def approx_distinct(ds: Dataset, col: str, k: int = 1024) -> float:
    """KMV estimate of the number of distinct values in ``col``."""

    def partial(batch: pa.Table) -> pa.Table:
        h = np.unique(_hash_values(batch[col]))
        smallest = h[:k] if len(h) <= k else np.partition(h, k - 1)[:k]
        return pa.table({"h": pa.array(np.sort(smallest), pa.uint64())})

    merged = ds.map_batches(partial, batch_format="pyarrow").to_pandas()
    uniq = np.unique(merged["h"].to_numpy())
    if len(uniq) < k:
        return float(len(uniq))  # saw everything: exact
    kth = float(np.sort(uniq)[k - 1])
    return (k - 1) / (kth / _MAX64)


def merge_kmv(sketches: list[np.ndarray], k: int) -> np.ndarray:
    """Union of KMV sketches = k smallest of the union (mergeable proof)."""
    return np.array(sorted(heapq.nsmallest(k, set().union(*map(set, sketches)))),
                    dtype=np.uint64)


def heavy_hitters(ds: Dataset, col: str, k: int = 10,
                  width: int = 4096, depth: int = 4) -> "pd.DataFrame":
    """Count-min-sketch heavy hitters: top-``k`` values of ``col`` by count.

    Decomposable: each batch emits (a) its local count-min matrix (depth ×
    width uint64 — CMS matrices merge by elementwise sum) and (b) its local
    candidate set (values that could be heavy). The driver sums the
    matrices, estimates each candidate's count from the merged CMS (min
    across rows — the classic upward-biased estimator) and keeps the top-k,
    ties broken by value. Memory is O(depth × width + candidates) per
    worker and on the driver — never O(distinct values).

    NULL values are excluded from counting (SQL's GROUP BY would surface a
    NULL group; filter upstream if that distinction matters).

    Candidate recall is only guaranteed while every block's distinct count
    fits the 4k per-block candidate budget (near-uniform splits); when any
    block saturates it, a ``UserWarning`` is emitted so a complete-looking
    top-k can't silently hide imperfect recall.

    Exact-degradation contract (same as ``approx_distinct``): when ``width``
    is much larger than the distinct-value cardinality, no candidate shares
    a slot with another value in ALL ``depth`` rows, every estimate is the
    true count and the result is SQL-checkable (`GROUP BY ... ORDER BY count DESC, value
    LIMIT k`). At 10^12 rows, fix width/depth to the memory budget and
    accept the ±εN overestimate.
    """
    import pandas as pd

    from .shuffle import hash_strings

    seeds = np.arange(1, depth + 1, dtype=np.uint64) * np.uint64(0x9E3779B97F4A7C15)

    def row_idx(h: np.ndarray, d: int) -> np.ndarray:
        # full avalanche per row: a bare (h ^ seed) * C keeps the low bits
        # of every row a function of the low bits of h alone, so rows would
        # collide TOGETHER for power-of-two widths (seen in testing);
        # fmix64 makes each row an independent slot assignment
        x = h ^ seeds[d]
        x ^= x >> np.uint64(33)
        x *= np.uint64(0xFF51AFD7ED558CCD)
        x ^= x >> np.uint64(33)
        x *= np.uint64(0xC4CEB9FE1A85EC53)
        x ^= x >> np.uint64(33)
        return (x % np.uint64(width)).astype(np.int64)

    def partial(batch: pa.Table) -> pa.Table:
        # NULLs are excluded from the count entirely (hash_strings reads the
        # raw buffer, where a null is indistinguishable from ""; counting
        # nulls would inflate the empty string's estimate)
        vals = pc.drop_null(pc.cast(batch[col], pa.string()))
        h = hash_strings(vals.combine_chunks()
                         if isinstance(vals, pa.ChunkedArray) else vals)
        cms = np.zeros((depth, width), dtype=np.uint64)
        for d in range(depth):
            np.add.at(cms[d], row_idx(h, d), 1)
        # local candidates: this batch's top-4k by true local count (4x
        # over-sampling guards against a global heavy hitter that is only
        # rank k+1..4k inside every batch; a value below that in EVERY
        # batch cannot be a global top-k under any near-uniform split)
        vc = pd.Series(vals.to_pandas()).value_counts()
        cand = vc.nlargest(4 * k).index.tolist()
        # saturated = this batch had MORE distinct values than the 4k
        # candidate budget, so its tail was cut — candidate recall for the
        # global top-k is no longer guaranteed (surfaced to the driver)
        saturated = len(vc) > len(cand)
        n = max(len(cand), 1)
        return pa.table({
            "cms": pa.array([cms.tobytes()] + [None] * (n - 1), pa.binary()),
            "cand": pa.array((cand + [None] * (n - len(cand)))[:n], pa.string()),
            "saturated": pa.array([saturated] + [None] * (n - 1), pa.bool_()),
        })

    parts = ds.map_batches(partial, batch_format="pyarrow", batch_size=None).to_pandas()
    merged = np.zeros((depth, width), dtype=np.uint64)
    for blob in parts["cms"]:
        if blob is not None:
            merged += np.frombuffer(blob, dtype=np.uint64).reshape(depth, width)
    # nulls are padding rows; == True treats them as False without the
    # fillna object-downcast FutureWarning
    if (parts["saturated"] == True).any():  # noqa: E712
        import warnings

        warnings.warn(
            "heavy_hitters: at least one block exceeded the per-block "
            f"candidate budget ({4 * k}); a value below that rank in EVERY "
            "block is missing from the candidate union, so top-k recall is "
            "not guaranteed (the CMS estimates are also upward-biased once "
            "width < cardinality). Raise k/width or pre-aggregate.",
            stacklevel=2,
        )
    # null = padding; "" is a legitimate candidate value
    cands = sorted({c for c in parts["cand"] if c is not None})
    if not cands:
        return pd.DataFrame({col: [], "n": []})
    h = hash_strings(pa.array(cands, pa.string()))
    est = np.full(len(cands), np.iinfo(np.uint64).max, dtype=np.uint64)
    for d in range(depth):
        est = np.minimum(est, merged[d, row_idx(h, d)])
    out = pd.DataFrame({col: cands, "n": est.astype(np.int64)})
    return (out.sort_values(["n", col], ascending=[False, True])
            .head(k).reset_index(drop=True))


def histogram_quantiles(ds: Dataset, col: str, qs: list[float]) -> "pd.DataFrame":
    """Exact discrete quantiles via a distributed value histogram.

    The shuffle carries one row per DISTINCT value (grouped_count combiner),
    never one per input row; the driver cumsums the (value, count) histogram
    — O(distinct values), the standard exact-quantile pattern for columns
    with bounded value cardinality (prices, durations, sizes). For unbounded
    continuous columns, quantize first or use a mergeable sketch instead.

    Matches DuckDB ``quantile_disc``: the result for ``q`` is the value at
    0-indexed rank ``ceil(q*n) - 1`` of the sorted column (inverse CDF).
    -> DataFrame (q, value), one row per requested quantile.
    """
    import math

    import pandas as pd

    from .shuffle import grouped_count

    hist = grouped_count(ds.select_columns([col]), [col], alias="n").to_pandas()
    if hist.empty:
        return pd.DataFrame([{"q": q, "value": float("nan")} for q in qs])
    hist = hist.sort_values(col).reset_index(drop=True)
    cum = hist["n"].cumsum()
    total = int(cum.iloc[-1])
    out = []
    for q in qs:
        rank = max(1, math.ceil(q * total))  # 1-indexed target rank
        idx = int(cum.searchsorted(rank, side="left"))
        out.append({"q": q, "value": float(hist[col].iloc[idx])})
    return pd.DataFrame(out)


def grouped_quantiles(ds: Dataset, group_cols: list[str], value_col: str,
                      qs: list[float]) -> Dataset:
    """Exact discrete quantiles PER GROUP (DuckDB ``quantile_disc`` rule:
    value at 1-indexed rank ``max(1, ceil(q*n))`` of the group's sorted
    column).

    Distributed shape: one :func:`~..stages.shuffle.grouped_count` combiner
    shuffle builds the per-(group, value) histogram — the exchange carries
    one row per DISTINCT (group, value), never one per input row — then the
    histograms are bucket-routed BY GROUP so each group's rows co-locate,
    and one vectorized-pandas UDF per sorted block of whole buckets cumsums
    and rank-picks every group it holds (a Python loop per group inside the
    call, the accepted pattern — never one Ray task per group). Same
    bounded-value-cardinality caveat as :func:`histogram_quantiles`.
    """
    import math

    import pandas as pd

    from .shuffle import exchange, grouped_count

    hist = grouped_count(ds.select_columns([*group_cols, value_col]),
                         [*group_cols, value_col], alias="__n")

    def per_bucket(df: pd.DataFrame) -> pd.DataFrame:
        df = df.sort_values([*group_cols, value_col])
        rows = []
        for gkey, grp in df.groupby(group_cols, sort=False):
            if not isinstance(gkey, tuple):
                gkey = (gkey,)
            cum = grp["__n"].cumsum()
            total = int(cum.iloc[-1])
            for q in qs:
                rank = max(1, math.ceil(q * total))
                idx = int(cum.searchsorted(rank, side="left"))
                rows.append((*gkey, float(q), float(grp[value_col].iloc[idx])))
        return pd.DataFrame(rows, columns=[*group_cols, "q", "value"])

    return exchange(hist, group_cols, per_bucket, batch_format="pandas")


def binned_quantiles(ds: Dataset, col: str, qs: list[float],
                     num_bins: int = 4096,
                     max_refine_rows: int = 200_000,
                     pre_merge_rows: int = 50_000_000) -> "pd.DataFrame":
    """EXACT quantiles for unbounded-cardinality columns via fixed-width
    binning with iterative exact refinement (VERDICT r4 #6).

    :func:`histogram_quantiles` ships one histogram row per DISTINCT value —
    wrong shape for a continuous column where most values are unique (the
    exchange degenerates to one row per input row). This path bounds every
    exchange by ``num_bins`` instead:

    1. one streamed pass: global ``(min, max, count)``;
    2. one streamed pass per refinement level: each block bins its values
       into ``num_bins`` fixed-width bins over the active value interval(s)
       and emits only its NON-EMPTY ``(node, bin, n)`` counts plus per-bin
       observed min/max — a mergeable sketch: above ``pre_merge_rows`` the
       partials pre-merge in a distributed ``grouped_agg`` combiner
       shuffle (sum/min/max are order-free), so the driver reads at most
       ``nodes x num_bins`` merged rows per level, never one partial per
       block; below it the tiny partial stream merges on the driver
       directly (identical result, no shuffle overhead);
    3. each target rank walks its bin's cumsum; a bin still holding more
       than ``max_refine_rows`` recurses with the OBSERVED [min, max] of
       that bin as the next interval (observed bounds guarantee progress:
       min == max resolves immediately, min < max always splits);
    4. when the containing bin is small, one filtered collect pass pulls
       just those values (≤ ``len(qs) * max_refine_rows`` floats) and
       ``np.partition`` picks the exact remaining rank.

    Deterministic (pure function of the value multiset — binning is
    arithmetic, merges are sums), parallelism-independent, and EXACT under
    DuckDB's ``quantile_disc`` rule — so it hash-checks against the SQL
    oracle rather than needing a tolerance. Unlike KLL/GK the answer
    carries no approximation parameter; like them every partial is
    mergeable and bounded. Levels needed: ``log_{num_bins}(n / max_refine_
    rows)`` — 2 passes cover 10^12 rows at the defaults.
    """
    import math

    import pandas as pd
    from ray.data.aggregate import Count, Max, Min

    vals = ds.select_columns([col])
    # count non-null values only: the histograms drop nulls, so counting
    # them would shift every rank (DuckDB's quantile_disc ignores nulls)
    stats = vals.aggregate(Min(col), Max(col),
                           Count(col, ignore_nulls=True, alias_name="n"))
    total = int(stats["n"] or 0)
    if total == 0:
        return pd.DataFrame([{"q": float(q), "value": float("nan")} for q in qs])
    glo, ghi = float(stats[f"min({col})"]), float(stats[f"max({col})"])

    B = int(num_bins)

    def assign(v: np.ndarray, lo: float, hi: float) -> np.ndarray:
        b = ((v - lo) / (hi - lo) * B).astype(np.int64)
        return np.clip(b, 0, B - 1)

    # unresolved[q] = (rank_within_node, node) with node = (lo, hi);
    # node membership is lo <= v <= hi — intervals at one level never
    # overlap EXCEPT via shared bin edges, which observed-min/max bounds
    # make exact: a value equal to a bin edge belongs to exactly the bin
    # `assign` placed it in, and the child interval is that bin's OBSERVED
    # value range, so re-membership by [lo, hi] is consistent.
    unresolved: dict[float, tuple[int, tuple[float, float]]] = {
        float(q): (max(1, math.ceil(float(q) * total)), (glo, ghi)) for q in qs
    }
    resolved: dict[float, float] = {}

    while True:
        # drop degenerate nodes (all values equal) before any pass
        for q, (rank, (lo, hi)) in list(unresolved.items()):
            if lo == hi:
                resolved[q] = lo
                del unresolved[q]
        if not unresolved:
            break
        nodes = sorted({node for _, node in unresolved.values()})
        node_idx = {node: i for i, node in enumerate(nodes)}
        bounds = np.array(nodes, dtype=np.float64)  # [m, 2]

        def level_hist(t: pa.Table, bounds=bounds) -> pa.Table:
            v = t[col].drop_null().to_numpy(zero_copy_only=False).astype(np.float64)
            out_node, out_bin, out_n = [], [], []
            out_lo, out_hi = [], []
            for i in range(len(bounds)):
                lo, hi = bounds[i]
                m = (v >= lo) & (v <= hi)
                if not m.any():
                    continue
                vi = v[m]
                b = assign(vi, lo, hi)
                cnt = np.bincount(b, minlength=B)
                # per-(node, bin) observed min/max -> exact child bounds
                lo_b = np.full(B, np.inf)
                hi_b = np.full(B, -np.inf)
                np.minimum.at(lo_b, b, vi)
                np.maximum.at(hi_b, b, vi)
                nz = np.flatnonzero(cnt)
                out_node.append(np.full(len(nz), i, dtype=np.int64))
                out_bin.append(nz.astype(np.int64))
                out_n.append(cnt[nz].astype(np.int64))
                out_lo.append(lo_b[nz])
                out_hi.append(hi_b[nz])
            if not out_node:
                return pa.table({
                    "node": pa.array([], pa.int64()),
                    "bin": pa.array([], pa.int64()),
                    "n": pa.array([], pa.int64()),
                    "lo": pa.array([], pa.float64()),
                    "hi": pa.array([], pa.float64()),
                })
            return pa.table({
                "node": pa.array(np.concatenate(out_node)),
                "bin": pa.array(np.concatenate(out_bin)),
                "n": pa.array(np.concatenate(out_n)),
                "lo": pa.array(np.concatenate(out_lo)),
                "hi": pa.array(np.concatenate(out_hi)),
            })

        # Above ``pre_merge_rows``, pre-merge the per-block partials in a
        # distributed grouped_agg combiner over (node, bin): the driver
        # then receives at most nodes x num_bins MERGED rows, not one
        # partial per block — at 10^5 blocks the unmerged stream would
        # push ~16 GB through the driver; merged it is a fixed ~few-MB
        # table. Below the threshold the streamed driver merge is cheaper
        # than the shuffle's fixed overhead. Result identical either way:
        # every merge op (sum / min / max) is order-free.
        merged = vals.map_batches(level_hist, batch_format="pyarrow")
        if total > pre_merge_rows:
            from .shuffle import grouped_agg

            merged = grouped_agg(
                merged, ["node", "bin"],
                {"n": ("n", "sum"), "lo": ("lo", "min"), "hi": ("hi", "max")},
                pre_aggregated=True,
            )
        agg_n = np.zeros((len(nodes), B), dtype=np.int64)
        agg_lo = np.full((len(nodes), B), np.inf)
        agg_hi = np.full((len(nodes), B), -np.inf)
        for part in merged.iter_batches(batch_format="pyarrow"):
            ni = part["node"].to_numpy(zero_copy_only=False)
            bi = part["bin"].to_numpy(zero_copy_only=False)
            np.add.at(agg_n, (ni, bi), part["n"].to_numpy(zero_copy_only=False))
            np.minimum.at(agg_lo, (ni, bi), part["lo"].to_numpy(zero_copy_only=False))
            np.maximum.at(agg_hi, (ni, bi), part["hi"].to_numpy(zero_copy_only=False))

        collect: dict[float, tuple[int, tuple[float, float]]] = {}
        next_unresolved: dict[float, tuple[int, tuple[float, float]]] = {}
        for q, (rank, node) in unresolved.items():
            i = node_idx[node]
            cum = np.cumsum(agg_n[i])
            j = int(np.searchsorted(cum, rank, side="left"))
            rank_in_bin = rank - (int(cum[j - 1]) if j > 0 else 0)
            child = (float(agg_lo[i, j]), float(agg_hi[i, j]))
            if child[0] == child[1]:
                resolved[q] = child[0]
            elif int(agg_n[i, j]) <= max_refine_rows:
                collect[q] = (rank_in_bin, child)
            else:
                next_unresolved[q] = (rank_in_bin, child)
        unresolved = next_unresolved

        if collect:
            c_nodes = sorted({node for _, node in collect.values()})
            c_idx = {node: i for i, node in enumerate(c_nodes)}
            c_bounds = np.array(c_nodes, dtype=np.float64)

            def take_small(t: pa.Table, c_bounds=c_bounds) -> pa.Table:
                v = t[col].drop_null().to_numpy(zero_copy_only=False).astype(np.float64)
                outs, idxs = [], []
                for i in range(len(c_bounds)):
                    lo, hi = c_bounds[i]
                    m = (v >= lo) & (v <= hi)
                    if m.any():
                        outs.append(v[m])
                        idxs.append(np.full(int(m.sum()), i, dtype=np.int64))
                if not outs:
                    return pa.table({"node": pa.array([], pa.int64()),
                                     "v": pa.array([], pa.float64())})
                return pa.table({"node": pa.array(np.concatenate(idxs)),
                                 "v": pa.array(np.concatenate(outs))})

            pool: dict[int, list[np.ndarray]] = {i: [] for i in range(len(c_nodes))}
            for part in vals.map_batches(take_small, batch_format="pyarrow") \
                             .iter_batches(batch_format="pyarrow"):
                ni = part["node"].to_numpy(zero_copy_only=False)
                vv = part["v"].to_numpy(zero_copy_only=False)
                for i in np.unique(ni):
                    pool[int(i)].append(vv[ni == i])
            for q, (rank_in_bin, node) in collect.items():
                arr = np.concatenate(pool[c_idx[node]])
                resolved[q] = float(np.partition(arr, rank_in_bin - 1)[rank_in_bin - 1])

    return pd.DataFrame(
        [{"q": float(q), "value": resolved[float(q)]} for q in qs]
    )
