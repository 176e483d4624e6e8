"""Hot-key salting (SURVEY.md §7 step 6b) and bucketed shuffle helpers."""

import numpy as np
import pyarrow as pa
import pytest

from portuguese_pt_legal_ner_ray.config import LinkingConfig
from portuguese_pt_legal_ner_ray.functions.blocking import SALT_THRESHOLD, pairs_for_block
from portuguese_pt_legal_ner_ray.functions.minhash import MinHasher, jaccard, shingles


def test_small_block_sorted_neighborhood():
    cfg = LinkingConfig(window=2)
    pairs = pairs_for_block(["c", "a", "b", "d"], cfg)
    assert ("a", "b") in pairs and ("a", "c") in pairs
    assert ("a", "d") not in pairs  # outside window
    assert pairs == pairs_for_block(["d", "b", "a", "c"], cfg)  # order-free


def test_hot_block_salted_pairing_deterministic_and_connected():
    cfg = LinkingConfig()
    members = [f"entity variant {i:04d}" for i in range(SALT_THRESHOLD * 3)]
    pairs = pairs_for_block(members, cfg)
    assert pairs  # capped but non-empty
    assert len(pairs) <= cfg.max_block_pairs
    # pure function of the member set: shuffled input -> identical pairs
    rng = np.random.default_rng(1)
    shuffled = list(members)
    rng.shuffle(shuffled)
    assert pairs_for_block(shuffled, cfg) == pairs
    # salt-group representatives are chained, so the block stays connectable
    parent = {m: m for m in members}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b in pairs:
        parent[find(a)] = find(b)
    assert len({find(m) for m in members}) == 1


def test_minhash_band_recall_at_threshold():
    """Pairs at Jaccard >= 0.5 should share >= 1 of 8 bands w.h.p."""
    h = MinHasher(16, 3)
    hits = 0
    n = 30
    for i in range(n):
        a = f"tribunal da relacao de lisboa {i}"
        b = f"tribunal relacao de lisboa {i}"
        assert jaccard(shingles(a, 3), shingles(b, 3)) >= 0.5
        if set(h.band_keys(a, 8)) & set(h.band_keys(b, 8)):
            hits += 1
    assert hits >= n * 0.9


def test_minhash_signature_stable_across_calls():
    a = MinHasher(16, 3).signature("banco de portugal")
    b = MinHasher(16, 3).signature("banco de portugal")
    assert (a == b).all()


@pytest.fixture()
def rand_tbl():
    rng = np.random.default_rng(11)
    n = 5000
    return pa.table(
        {
            "k1": pa.array([f"k{int(x)}" for x in rng.integers(0, 200, n)], pa.string()),
            "k2": pa.array([f"g{int(x)}" for x in rng.integers(0, 5, n)], pa.string()),
            "v": pa.array(rng.integers(0, 100, n), pa.int64()),
            "s": pa.array([f"s{int(x):03d}" for x in rng.integers(0, 1000, n)], pa.string()),
        }
    )


def test_grouped_count_matches_pandas(ray_session, rand_tbl):
    import ray

    from portuguese_pt_legal_ner_ray.stages.shuffle import grouped_count

    ds = ray.data.from_arrow(rand_tbl).repartition(8)
    got = grouped_count(ds, ["k1", "k2"], alias="n").to_pandas()
    want = rand_tbl.to_pandas().groupby(["k1", "k2"]).size().reset_index(name="n")
    got = got.sort_values(["k1", "k2"]).reset_index(drop=True)
    want = want.sort_values(["k1", "k2"]).reset_index(drop=True)
    assert got.equals(want)


def test_kmv_approx_distinct(ray_session, rand_tbl):
    import ray

    from portuguese_pt_legal_ner_ray.stages.sketches import approx_distinct

    ds = ray.data.from_arrow(rand_tbl).repartition(8)
    exact = rand_tbl.to_pandas()["s"].nunique()
    est_small_k = approx_distinct(ds, "s", k=256)
    assert abs(est_small_k - exact) / exact < 0.2  # sketch within 20%
    est_big_k = approx_distinct(ds, "s", k=4096)
    assert est_big_k == exact  # k >= distinct -> exact
    # parallelism-independent: same input, different partitioning
    assert approx_distinct(ray.data.from_arrow(rand_tbl).repartition(2),
                           "s", k=256) == est_small_k


def test_grouped_agg_matches_pandas(ray_session, rand_tbl):
    import ray

    from portuguese_pt_legal_ner_ray.stages.shuffle import grouped_agg

    ds = ray.data.from_arrow(rand_tbl).repartition(8)
    got = grouped_agg(ds, ["k1"], {"mn": ("s", "min"), "mx": ("s", "max"),
                                   "tot": ("v", "sum")}).to_pandas()
    want = (rand_tbl.to_pandas().groupby("k1")
            .agg(mn=("s", "min"), mx=("s", "max"), tot=("v", "sum")).reset_index())
    got = got.sort_values("k1").reset_index(drop=True)[["k1", "mn", "mx", "tot"]]
    want = want.sort_values("k1").reset_index(drop=True)
    assert got.equals(want)


def test_count_min_heavy_hitters(ray_session):
    """Exact-degradation (width >= cardinality) reproduces the true top-k
    with deterministic tie-break; the sketch is parallelism-independent."""
    import numpy as np
    import pandas as pd
    import pyarrow as pa
    import ray

    from portuguese_pt_legal_ner_ray.stages.sketches import heavy_hitters

    rng = np.random.default_rng(3)
    vals = [f"v{int(x)}" for x in rng.zipf(1.5, 30000) if x < 400]
    truth = pd.Series(vals).value_counts()
    want = sorted(zip(-truth.values, truth.index))[:8]
    for parts in (2, 13):
        ds = ray.data.from_arrow(
            pa.table({"v": pa.array(vals, pa.string())})).repartition(parts)
        hh = heavy_hitters(ds, "v", k=8, width=16384)
        assert list(hh["n"]) == [-w[0] for w in want]
        assert list(hh["v"]) == [w[1] for w in want]


def test_hash_join_matches_pandas_merge(ray_session):
    """Bucketed hash_join == pandas inner merge, including keys present on
    only one side and multi-row key groups (cross product within key)."""
    import numpy as np
    import pandas as pd
    import pyarrow as pa
    import ray

    from portuguese_pt_legal_ner_ray.stages.joins import hash_join

    rng = np.random.default_rng(4)
    left = pd.DataFrame({"k": rng.integers(0, 50, 300), "a": rng.integers(0, 9, 300)})
    right = pd.DataFrame({"k": rng.integers(25, 80, 200), "b": rng.integers(0, 9, 200)})
    ds_a = ray.data.from_arrow(pa.Table.from_pandas(left)).repartition(5)
    ds_b = ray.data.from_arrow(pa.Table.from_pandas(right)).repartition(3)
    got = hash_join(ds_a, ds_b, key="k").to_pandas()
    want = left.merge(right, on="k", how="inner")
    cols = ["k", "a", "b"]
    got = got[cols].sort_values(cols).reset_index(drop=True)
    want = want[cols].sort_values(cols).reset_index(drop=True)
    pd.testing.assert_frame_equal(got, want)


def test_histogram_quantiles_matches_duckdb(ray_session):
    import duckdb
    import numpy as np
    import pyarrow as pa
    import ray

    from portuguese_pt_legal_ner_ray.stages.sketches import histogram_quantiles

    rng = np.random.default_rng(9)
    vals = np.round(rng.gamma(2.0, 40.0, 5000), 2)
    ds = ray.data.from_arrow(pa.table({"v": pa.array(vals, pa.float64())})).repartition(7)
    got = histogram_quantiles(ds, "v", [0.1, 0.5, 0.99])
    con = duckdb.connect()
    con.execute("CREATE TABLE t AS SELECT unnest(?) AS v", [vals.tolist()])
    for _, r in got.iterrows():
        want = con.execute(f"SELECT quantile_disc(v, {r.q}) FROM t").fetchone()[0]
        assert abs(want - r.value) < 1e-9


def test_grouped_topk_matches_pandas(ray_session):
    """Combiner-based per-group top-k == pandas reference, deterministic
    tie-break, identical at any parallelism."""
    import numpy as np
    import pandas as pd
    import pyarrow as pa
    import ray

    from portuguese_pt_legal_ner_ray.stages.relational import grouped_topk

    rng = np.random.default_rng(6)
    df = pd.DataFrame({
        "g": [f"g{int(x)}" for x in rng.integers(0, 40, 2000)],
        "v": rng.integers(0, 50, 2000).astype(float),  # many ties
        "id": range(2000),
    })
    want = (df.sort_values(["v", "id"], ascending=[False, True], kind="stable")
            .groupby("g", sort=False).head(3)
            .sort_values(["g", "v", "id"], ascending=[True, False, True])
            .reset_index(drop=True))
    for parts in (2, 11):
        ds = ray.data.from_arrow(pa.Table.from_pandas(df)).repartition(parts)
        got = (grouped_topk(ds, ["g"], "v", "id", k=3).to_pandas()
               .sort_values(["g", "v", "id"], ascending=[True, False, True])
               .reset_index(drop=True))
        pd.testing.assert_frame_equal(got[["g", "v", "id"]], want)


def test_broadcast_lookup_dtype_exactness(ray_session):
    """BroadcastLookup must keep int64 exactness across every path: the
    searchsorted fast path (values > 2^53), the object loop (values beyond
    int64), the nullable-NA fallback, and the string-keyed map path."""
    import numpy as np
    import pandas as pd
    import ray

    from portuguese_pt_legal_ner_ray.stages.joins import BroadcastLookup

    big = 2 ** 60 + 1
    bl = BroadcastLookup(ray.put({1: big}), "k", "o", default=0)
    out = bl(pd.DataFrame({"k": [1, 2]}))
    assert out["o"].tolist() == [big, 0]  # would be off by one via float64

    huge = 2 ** 63 + 9
    bl2 = BroadcastLookup(ray.put({np.uint64(2 ** 63 + 5): np.uint64(huge)}), "k", "o")
    out2 = bl2(pd.DataFrame({"k": [2 ** 63 + 5, 1]}))
    assert out2["o"].tolist() == [huge, 1]

    bl3 = BroadcastLookup(ray.put({1: 10}), "k", "o", default=-1)
    out3 = bl3(pd.DataFrame({"k": pd.array([1, None], dtype="Int64")}))
    assert out3["o"].tolist() == [10, -1]

    bl4 = BroadcastLookup(ray.put({"a": 7}), "k", "o", default=0)
    out4 = bl4(pd.DataFrame({"k": ["a", "b"]}))
    assert out4["o"].tolist() == [7, 0] and str(out4["o"].dtype) == "int64"

    # uint64 batch keys above int64 max against an all-int64 mapping: the
    # searchsorted fast path would WRAP them (pandas to_numpy(int64) wraps
    # silently); they must come back via the exact loop, not corrupted
    wrap_key = 2 ** 63 + 11
    bl5 = BroadcastLookup(ray.put({1: 5}), "k", "o")
    out5 = bl5(pd.DataFrame({"k": np.array([wrap_key, 1], dtype=np.uint64)}))
    assert out5["o"].tolist() == [wrap_key, 5]  # identity, NOT wrapped negative
    assert str(out5["o"].dtype) == "uint64"
    bl6 = BroadcastLookup(ray.put({1: 5}), "k", "o", default=0)
    out6 = bl6(pd.DataFrame({"k": np.array([wrap_key, 1], dtype=np.uint64)}))
    assert out6["o"].tolist() == [0, 5]
    # non-wrapping uint64 batches use the SAME path/dtype, so blocks of one
    # Dataset can never disagree on the output column's schema
    out6b = bl6(pd.DataFrame({"k": np.array([1, 2], dtype=np.uint64)}))
    assert str(out6b["o"].dtype) == "uint64" and out6b["o"].tolist() == [5, 0]
    # negative mapping values cannot live in a uint64 output column: loud
    # error, never a silent wrap
    bl7 = BroadcastLookup(ray.put({1: -9}), "k", "o", default=0)
    with pytest.raises(ValueError, match="uint64"):
        bl7(pd.DataFrame({"k": np.array([wrap_key, 1], dtype=np.uint64)}))


def test_heavy_hitters_warns_on_candidate_saturation(ray_session):
    """A block with more distinct values than the per-block candidate
    budget must surface a UserWarning (silent truncation would make an
    incomplete top-k look complete); an unsaturated run must stay quiet."""
    import warnings

    import ray

    from portuguese_pt_legal_ner_ray.stages.sketches import heavy_hitters

    big = pa.table({"v": pa.array([f"v{i}" for i in range(500)], pa.string())})
    ds = ray.data.from_arrow(big).repartition(1)
    with warnings.catch_warnings(record=True) as w:
        warnings.simplefilter("always")
        heavy_hitters(ds, "v", k=5, width=16384)  # budget 4k=20 < 500 distinct
    assert any("candidate budget" in str(x.message) for x in w)

    small = pa.table({"v": pa.array(["a"] * 30 + ["b"] * 10, pa.string())})
    with warnings.catch_warnings(record=True) as w:
        warnings.simplefilter("always")
        out = heavy_hitters(ray.data.from_arrow(small), "v", k=5, width=4096)
    assert not any("candidate budget" in str(x.message) for x in w)
    assert out.iloc[0]["v"] == "a" and out.iloc[0]["n"] == 30


def test_grouped_count_distinct_matches_pandas(ray_session):
    """Exact grouped COUNT DISTINCT via two bucketed shuffles — identical
    to the pandas nunique at any block split."""
    import numpy as np
    import pandas as pd
    import pyarrow as pa
    import ray

    from portuguese_pt_legal_ner_ray.stages.shuffle import grouped_count_distinct

    rng = np.random.default_rng(7)
    df = pd.DataFrame({
        "g": rng.choice(list("abcde"), 5000),
        "v": rng.integers(0, 150, 5000),
        "payload": rng.normal(size=5000),  # must be ignored by the op
    })
    want = df.groupby("g")["v"].nunique().rename("n_distinct").reset_index()
    for nblocks in (1, 7):
        ds = ray.data.from_arrow(pa.Table.from_pandas(df, preserve_index=False))
        if nblocks > 1:
            ds = ds.repartition(nblocks)
        got = (grouped_count_distinct(ds, ["g"], "v")
               .to_pandas().sort_values("g").reset_index(drop=True))
        assert got.equals(want.sort_values("g").reset_index(drop=True)), nblocks


def test_hash_anti_join_matches_pandas(ray_session):
    """Anti equi-join: duplicates on the left preserved, duplicate probe
    keys collapse, empty probe side keeps everything, full overlap keeps
    nothing (with the output schema intact)."""
    import numpy as np
    import pandas as pd
    import pyarrow as pa
    import ray

    from portuguese_pt_legal_ner_ray.stages.joins import hash_anti_join

    rng = np.random.default_rng(11)
    left = pd.DataFrame({
        "k": rng.integers(0, 60, 400),
        "val": rng.normal(size=400),
    })
    right = pd.DataFrame({"k": np.repeat(rng.integers(0, 60, 25), 3)})

    def run(l, r):
        return hash_anti_join(
            ray.data.from_arrow(pa.Table.from_pandas(l, preserve_index=False)).repartition(5),
            ray.data.from_arrow(pa.Table.from_pandas(r, preserve_index=False)).repartition(3),
            key="k",
        ).to_pandas().sort_values(["k", "val"]).reset_index(drop=True)

    want = (left[~left["k"].isin(right["k"])]
            .sort_values(["k", "val"]).reset_index(drop=True))
    assert run(left, right).equals(want)

    # empty probe side -> the whole left survives
    got_all = run(left, right.iloc[:0])
    assert got_all.equals(left.sort_values(["k", "val"]).reset_index(drop=True))

    # full overlap -> empty result; block schema is preserved even though
    # an all-empty Dataset's to_pandas drops columns (Ray quirk), so assert
    # on count + Dataset.schema
    empty = hash_anti_join(
        ray.data.from_arrow(pa.Table.from_pandas(left, preserve_index=False)),
        ray.data.from_arrow(pa.Table.from_pandas(
            pd.DataFrame({"k": left["k"].unique()}), preserve_index=False)),
        key="k",
    )
    assert empty.count() == 0
    assert empty.schema().names == ["k", "val"]


def test_grouped_quantiles_matches_pandas(ray_session):
    """Per-group quantile_disc (value at 1-indexed rank max(1, ceil(q*n)))
    — identical to a sequential rank pick at any block split, including
    groups smaller than the quantile grid."""
    import math

    import numpy as np
    import pandas as pd
    import pyarrow as pa
    import ray

    from portuguese_pt_legal_ner_ray.stages.sketches import grouped_quantiles

    rng = np.random.default_rng(3)
    df = pd.DataFrame({
        "g": ["solo"] + list(rng.choice(list("xyz"), 3000)),
        "v": np.concatenate([[42.0], rng.integers(0, 500, 3000).astype(float)]),
    })
    qs = [0.25, 0.5, 0.9]

    def seq(grp):
        vals = np.sort(grp["v"].to_numpy())
        return [(float(q), float(vals[max(1, math.ceil(q * len(vals))) - 1]))
                for q in qs]

    want = pd.DataFrame(
        [(g, q, v) for g, grp in df.groupby("g") for q, v in seq(grp)],
        columns=["g", "q", "value"],
    ).sort_values(["g", "q"]).reset_index(drop=True)
    for nblocks in (1, 6):
        ds = ray.data.from_arrow(pa.Table.from_pandas(df, preserve_index=False))
        if nblocks > 1:
            ds = ds.repartition(nblocks)
        got = (grouped_quantiles(ds, ["g"], "v", qs)
               .to_pandas().sort_values(["g", "q"]).reset_index(drop=True))
        assert got.equals(want), nblocks


def test_hash_join_composite_key_matches_pandas(ray_session):
    """Composite-key (two-column) hash_join == pandas inner merge on the
    key list, including pairs that share one component but not the other
    (the routing must hash the TUPLE, not either column alone)."""
    import numpy as np
    import pandas as pd
    import pyarrow as pa
    import ray

    from portuguese_pt_legal_ner_ray.stages.joins import hash_join

    rng = np.random.default_rng(21)
    left = pd.DataFrame({
        "k1": rng.integers(0, 12, 300),
        "k2": np.array(list("abcd"))[rng.integers(0, 4, 300)],
        "a": rng.integers(0, 9, 300),
    })
    right = pd.DataFrame({
        "k1": rng.integers(0, 12, 200),
        "k2": np.array(list("cdef"))[rng.integers(0, 4, 200)],
        "b": rng.normal(size=200),
    })
    ds_a = ray.data.from_arrow(pa.Table.from_pandas(left, preserve_index=False)).repartition(5)
    ds_b = ray.data.from_arrow(pa.Table.from_pandas(right, preserve_index=False)).repartition(3)
    got = hash_join(ds_a, ds_b, key=["k1", "k2"]).to_pandas()
    want = left.merge(right, on=["k1", "k2"], how="inner")
    cols = ["k1", "k2", "a", "b"]
    got = got[cols].sort_values(cols).reset_index(drop=True)
    want = want[cols].sort_values(cols).reset_index(drop=True)
    pd.testing.assert_frame_equal(got, want)
    # single-key call sites keep working through the same generalized path
    g1 = hash_join(ds_a.drop_columns(["k2"]), ds_b.drop_columns(["k2"]),
                   key="k1").to_pandas()
    w1 = (left.drop(columns="k2").merge(right.drop(columns="k2"), on="k1"))
    assert len(g1) == len(w1)


def test_hash_anti_join_composite_key_matches_pandas(ray_session):
    """Composite-key anti join: a left row survives iff its (k1, k2) TUPLE
    is absent from the probe side — sharing just one component must not
    eliminate it."""
    import numpy as np
    import pandas as pd
    import pyarrow as pa
    import ray

    from portuguese_pt_legal_ner_ray.stages.joins import hash_anti_join

    rng = np.random.default_rng(22)
    left = pd.DataFrame({
        "k1": rng.integers(0, 10, 250),
        "k2": rng.integers(0, 5, 250),
        "val": rng.normal(size=250),
    })
    right = pd.DataFrame({
        "k1": np.repeat(rng.integers(0, 10, 20), 2),
        "k2": np.repeat(rng.integers(0, 5, 20), 2),
    })
    got = hash_anti_join(
        ray.data.from_arrow(pa.Table.from_pandas(left, preserve_index=False)).repartition(5),
        ray.data.from_arrow(pa.Table.from_pandas(right, preserve_index=False)).repartition(3),
        key=["k1", "k2"],
    ).to_pandas().sort_values(["k1", "k2", "val"]).reset_index(drop=True)
    probe = set(zip(right["k1"], right["k2"]))
    want = (left[[t not in probe for t in zip(left["k1"], left["k2"])]]
            .sort_values(["k1", "k2", "val"]).reset_index(drop=True))
    pd.testing.assert_frame_equal(got, want)
    assert len(want) > 0 and len(want) < len(left)  # fixture is non-trivial


def test_binned_quantiles_exact_vs_duckdb(ray_session):
    """binned_quantiles (fixed-width binning + exact refinement) == DuckDB
    quantile_disc on a mostly-unique continuous column — the shape where
    histogram_quantiles' per-distinct-value exchange degenerates.
    Parallelism-independent, and exact even when forced to recurse
    (num_bins=4, max_refine_rows=10 -> multiple levels)."""
    import duckdb
    import numpy as np
    import pyarrow as pa
    import ray

    from portuguese_pt_legal_ner_ray.stages.sketches import binned_quantiles

    rng = np.random.default_rng(33)
    # heavy tail + duplicates block + an outlier: exercises skewed bins,
    # the degenerate (min==max) child, and rank-in-bin arithmetic
    v = np.concatenate([
        rng.lognormal(4, 1.5, 4000),
        np.full(500, 123.456),
        [1e9],
    ])
    qs = [0.01, 0.25, 0.5, 0.75, 0.9, 0.99, 1.0]
    want = {
        q: duckdb.sql(
            f"SELECT quantile_disc(x, {q}) FROM (SELECT unnest(?::DOUBLE[]) x)",
            params=[list(map(float, v))],
        ).fetchone()[0]
        for q in qs
    }
    tbl = pa.table({"x": pa.array(v, pa.float64())})
    # last case forces BOTH the multi-level recursion AND the distributed
    # grouped_agg pre-merge path (pre_merge_rows=0); results must be
    # identical to the driver-merge path (all merge ops are order-free)
    for parts, bins, refine, premerge in [
            (1, 4096, 200_000, 50_000_000), (7, 4096, 200_000, 50_000_000),
            (7, 4, 10, 50_000_000), (7, 4096, 200_000, 0)]:
        ds = ray.data.from_arrow(tbl).repartition(parts)
        got = binned_quantiles(ds, "x", qs, num_bins=bins,
                               max_refine_rows=refine,
                               pre_merge_rows=premerge)
        for _, row in got.iterrows():
            assert row["value"] == want[row["q"]], (parts, bins, row["q"])

    # empty input -> NaN per q, schema intact
    empty = ray.data.from_arrow(tbl.slice(0, 0))
    out = binned_quantiles(empty, "x", [0.5])
    assert len(out) == 1 and np.isnan(out["value"].iloc[0])


def test_binned_quantiles_ignores_nulls_vs_duckdb(ray_session):
    """Null values are not ranked: quantile_disc over a column with nulls
    == DuckDB's (which skips them), on both the collect and the forced
    recursion path — counting null rows shifted every rank (q=0.5 read
    the 70th value) and pushed q=0.99 past the last bin (IndexError).
    An all-null column answers NaN (SQL NULL)."""
    import duckdb
    import numpy as np
    import pyarrow as pa
    import ray

    from portuguese_pt_legal_ner_ray.stages.sketches import binned_quantiles

    v = [float(i) for i in range(1, 101)] + [None] * 40
    np.random.default_rng(5).shuffle(v)
    tbl = pa.table({"x": pa.array(v, pa.float64())})
    qs = [0.01, 0.5, 0.9, 0.99, 1.0]
    con = duckdb.connect()
    con.register("t", tbl)
    want = {q: con.sql(f"SELECT quantile_disc(x, {q}) FROM t").fetchone()[0]
            for q in qs}
    assert want[0.5] == 50.0
    for parts, bins, refine in [(1, 4096, 200_000), (5, 4, 10)]:
        got = binned_quantiles(ray.data.from_arrow(tbl).repartition(parts),
                               "x", qs, num_bins=bins, max_refine_rows=refine)
        for _, row in got.iterrows():
            assert row["value"] == want[row["q"]], (parts, bins, row["q"])
    nulls = pa.table({"x": pa.array([None] * 5, pa.float64())})
    out = binned_quantiles(ray.data.from_arrow(nulls), "x", [0.5])
    assert np.isnan(out["value"].iloc[0])


def test_pytest_only_registry_drops_match_duckdb(ray_session):
    """The three shape-redundant queries consolidated out of the 50-entry
    gate registry in r5 (rel_parts_per_brand, docs_top10_longest-style
    global sort+limit, lang_histogram) keep DuckDB parity here so their
    semantics stay verified outside the gate."""
    import duckdb
    import pyarrow as pa
    import pyarrow.compute as pc
    import ray

    from portuguese_pt_legal_ner_ray.sources.parquet import sized_read_parquet
    from portuguese_pt_legal_ner_ray.stages import relational
    from portuguese_pt_legal_ner_ray.stages.shuffle import strip_schema_metadata

    sf = "/root/testdata/sf0.001"
    con = duckdb.connect()

    # rel_parts_per_brand: dimension-broadcast join + grouped count
    got = (relational.parts_per_brand(sf).to_pandas()
           .sort_values("p_brand").reset_index(drop=True))
    want = con.sql(f"""
        SELECT p.p_brand, count(*) AS n_lineitems
        FROM read_parquet('{sf}/lineitem.parquet') l
        JOIN read_parquet('{sf}/part.parquet') p ON l.l_partkey = p.p_partkey
        GROUP BY p.p_brand ORDER BY p.p_brand""").df()
    assert got["p_brand"].tolist() == want["p_brand"].tolist()
    assert got["n_lineitems"].tolist() == want["n_lineitems"].tolist()

    # docs_top10_longest shape: computed column -> global sort + limit
    docs = sized_read_parquet(f"{sf}/documents.parquet",
                              columns=["doc_id", "text"])
    top = (docs.map_batches(
        lambda t: pa.table({"doc_id": t["doc_id"],
                            "n_chars": pc.cast(pc.utf8_length(t["text"]),
                                               pa.int64())}),
        batch_format="pyarrow")
        .sort(["n_chars", "doc_id"], descending=[True, False]).limit(10)
        .to_pandas())
    want = con.sql(f"""
        SELECT doc_id, length(text) AS n_chars
        FROM read_parquet('{sf}/documents.parquet')
        ORDER BY n_chars DESC, doc_id LIMIT 10""").df()
    assert top["doc_id"].tolist() == want["doc_id"].tolist()

    # lang_histogram shape: grouped count over a categorical column
    langs = strip_schema_metadata(
        sized_read_parquet(f"{sf}/documents.parquet", columns=["lang"]))
    got = (langs.groupby("lang").count().to_pandas()
           .sort_values("lang").reset_index(drop=True))
    want = con.sql(f"""
        SELECT lang, count(*) AS n
        FROM read_parquet('{sf}/documents.parquet')
        GROUP BY lang ORDER BY lang""").df()
    assert got["lang"].tolist() == want["lang"].tolist()
    assert got["count()"].tolist() == want["n"].tolist()


def test_hash_left_join_matches_pandas(ray_session):
    """Left outer join: every left row survives, unmatched right payloads
    become TYPED NULLS (int64 stays int64 — no NaN float promote, ids
    above 2^53 stay exact); composite keys route by the tuple."""
    import numpy as np
    import pandas as pd
    import pyarrow as pa
    import ray

    from portuguese_pt_legal_ner_ray.stages.joins import hash_left_join

    rng = np.random.default_rng(31)
    big = 2**60  # would corrupt under a float64 round-trip
    left = pd.DataFrame({
        "k": rng.integers(0, 40, 300),
        "a": rng.integers(0, 9, 300),
    })
    right = pd.DataFrame({
        "k": rng.integers(20, 60, 150),
        "b": rng.integers(big, big + 1000, 150),
    })
    ds_a = ray.data.from_arrow(pa.Table.from_pandas(left, preserve_index=False)).repartition(5)
    ds_b = ray.data.from_arrow(pa.Table.from_pandas(right, preserve_index=False)).repartition(3)
    out = hash_left_join(ds_a, ds_b, key="k")
    got_t = pa.concat_tables(
        [b for b in out.iter_batches(batch_format="pyarrow")])
    assert got_t.schema.field("b").type == pa.int64()  # typed nulls, not float
    got = (got_t.to_pandas()
           .sort_values(["k", "a", "b"]).reset_index(drop=True))
    want = (left.merge(right, on="k", how="left")
            .sort_values(["k", "a", "b"]).reset_index(drop=True))
    assert len(got) == len(want)
    assert got["k"].tolist() == want["k"].tolist()
    assert got["a"].tolist() == want["a"].tolist()
    gb, wb = got["b"].tolist(), want["b"].tolist()
    for g_val, w_val in zip(gb, wb):
        if pd.isna(w_val):
            assert pd.isna(g_val)
        else:
            assert int(g_val) == int(w_val)  # exact above 2^53
    assert want["b"].isna().any()  # fixture exercises the null path

    # composite key: match requires the whole tuple
    left2 = left.assign(k2=rng.integers(0, 3, 300))
    right2 = right.assign(k2=rng.integers(0, 3, 150))
    got2 = hash_left_join(
        ray.data.from_arrow(pa.Table.from_pandas(left2, preserve_index=False)).repartition(4),
        ray.data.from_arrow(pa.Table.from_pandas(right2, preserve_index=False)).repartition(2),
        key=["k", "k2"],
    ).to_pandas()
    want2 = left2.merge(right2, on=["k", "k2"], how="left")
    assert len(got2) == len(want2)
    assert got2["b"].notna().sum() == want2["b"].notna().sum()


def test_hash_semi_join_matches_pandas(ray_session):
    """Semi join (SQL EXISTS): left rows whose key appears in the probe
    side, duplicates on the left preserved, probe duplicates collapse;
    exact complement of the anti join."""
    import numpy as np
    import pandas as pd
    import pyarrow as pa
    import ray

    from portuguese_pt_legal_ner_ray.stages.joins import (
        hash_anti_join,
        hash_semi_join,
    )

    rng = np.random.default_rng(41)
    left = pd.DataFrame({
        "k": rng.integers(0, 50, 400),
        "val": rng.normal(size=400),
    })
    right = pd.DataFrame({"k": np.repeat(rng.integers(0, 50, 20), 3)})

    def to_ds(df, parts):
        return ray.data.from_arrow(
            pa.Table.from_pandas(df, preserve_index=False)).repartition(parts)

    semi = (hash_semi_join(to_ds(left, 5), to_ds(right, 3), key="k")
            .to_pandas().sort_values(["k", "val"]).reset_index(drop=True))
    want = (left[left["k"].isin(right["k"])]
            .sort_values(["k", "val"]).reset_index(drop=True))
    pd.testing.assert_frame_equal(semi, want)
    assert 0 < len(semi) < len(left)

    # semi ∪ anti == left, disjoint
    anti = hash_anti_join(to_ds(left, 5), to_ds(right, 3), key="k").to_pandas()
    assert len(semi) + len(anti) == len(left)


def test_bucketed_joins_match_duckdb_nulls_separator_bigint(ray_session, monkeypatch):
    """All four bucketed joins == DuckDB on the edge cases the pandas
    references cannot judge (pandas merge itself matches null keys):
    composite string keys CONTAINING the key-join separator '\x1f' (two
    different tuples that join to the same string must not match), null
    key components on both sides (a null matches nothing: inner/semi drop
    the row, left/anti keep it), and int64 payloads above 2^53 in a bucket
    that also holds null payloads (no float64 round-trip)."""
    import duckdb
    import pyarrow as pa
    import ray

    from portuguese_pt_legal_ner_ray.stages import shuffle
    from portuguese_pt_legal_ner_ray.stages.joins import (
        hash_anti_join,
        hash_join,
        hash_left_join,
        hash_semi_join,
    )

    big = 2**60 + 3
    left = pa.table({
        "k1": ["a\x1fb", "a", None, "x", "x", "m", "m"],
        "k2": ["c", "b\x1fc", "z", "y", None, "n", "n"],
        "p": pa.array([1, 2, 3, 4, 5, 6, 7], pa.int64()),
        "v": pa.array([big, None, big + 1, big + 2, None, None, big + 4],
                      pa.int64()),
    })
    right = pa.table({
        "k1": ["a", None, "x", "x", "m", "q"],
        "k2": ["b\x1fc", "z", "y", None, "n", "r"],
        "w": pa.array([2**62 + 1, 5, None, 7, 2**55 + 9, 1], pa.int64()),
    })
    con = duckdb.connect()
    con.register("l", left)
    con.register("r", right)
    on = "l.k1 = r.k1 AND l.k2 = r.k2"
    sql = {
        "inner": f"SELECT l.*, r.w FROM l JOIN r ON {on}",
        "left": f"SELECT l.*, r.w FROM l LEFT JOIN r ON {on}",
        "semi": f"SELECT * FROM l WHERE EXISTS (SELECT 1 FROM r WHERE {on})",
        "anti": f"SELECT * FROM l WHERE NOT EXISTS (SELECT 1 FROM r WHERE {on})",
    }
    joins = {"inner": hash_join, "left": hash_left_join,
             "semi": hash_semi_join, "anti": hash_anti_join}

    def rows(t: pa.Table) -> list:
        # exact Python ints via Arrow (a pandas hop would float-promote)
        return sorted((tuple(r.values()) for r in t.to_pylist()), key=repr)

    for name, fn in joins.items():
        want = rows(con.sql(sql[name]).arrow())
        cols = ["k1", "k2", "p", "v"] + (["w"] if name in ("inner", "left") else [])
        for nb in (1, 64):  # 1 bucket: nulls and 2^60 payloads co-locate
            monkeypatch.setattr(shuffle, "NUM_BUCKETS", nb)
            out = fn(ray.data.from_arrow(left).repartition(3),
                     ray.data.from_arrow(right).repartition(2),
                     key=["k1", "k2"])
            got = pa.concat_tables(
                [t.select(cols) for t in out.iter_batches(batch_format="pyarrow")])
            assert rows(got) == want, (name, nb)
    # the fixture reaches every edge: separator-aliased and null-keyed rows
    # are excluded by inner/semi and kept by left/anti
    assert sorted(r[2] for r in rows(con.sql(sql["anti"]).arrow())) == [1, 3, 5]


def test_left_join_spreads_null_keys_over_buckets(ray_session, monkeypatch):
    """A null join key matches nothing, so null-key rows must not pile into
    the one bucket ``bucket_by`` hashes a null to. With a 50%-null key the
    rows a left join exchanges have bucket max/mean under 2 (all nulls in
    bucket 0 gives ~30 here) and land in the same buckets when the tag
    step runs again, every left row still comes out once with a null
    payload where its key is null, and an inner join exchanges no null-key
    row at all."""
    import numpy as np
    import pyarrow as pa
    import ray
    from ray.data import Dataset

    from portuguese_pt_legal_ner_ray.stages import shuffle
    from portuguese_pt_legal_ner_ray.stages.joins import hash_join, hash_left_join

    n, nb = 4000, 64
    monkeypatch.setattr(shuffle, "NUM_BUCKETS", nb)
    left = pa.table({"k": [None if i % 2 else f"k{i}" for i in range(n)],
                     "p": pa.array(range(n), pa.int64())})
    right = pa.table({"k": [None if i % 2 else f"k{2 * i}" for i in range(n // 2)],
                      "w": pa.array(range(n // 2), pa.int64())})
    exchanged = []
    orig = Dataset.sort

    def spy(self, key, *a, **kw):
        exchanged.append(self)
        return orig(self, key, *a, **kw)

    monkeypatch.setattr(Dataset, "sort", spy)

    def run(join):
        exchanged.clear()
        out = join(ray.data.from_arrow(left).repartition(4),
                   ray.data.from_arrow(right).repartition(2), key="k")
        got = pa.concat_tables(out.iter_batches(batch_format="pyarrow"))
        assert len(exchanged) == 1
        tagged = pa.concat_tables(exchanged[0].iter_batches(batch_format="pyarrow"))
        return got.sort_by("p"), tagged

    got, tagged = run(hash_left_join)
    assert got["p"].to_pylist() == list(range(n))
    want_w = [i // 2 if i % 4 == 0 else None for i in range(n)]
    assert got["w"].to_pylist() == want_w
    sizes = np.bincount(np.asarray(tagged["__bucket"]), minlength=nb)
    assert sizes.max() / sizes.mean() < 2, sizes.max() / sizes.mean()
    # routing is a function of the batch: a re-executed tag task (lineage
    # reconstruction) must send every row to the same bucket again
    again = pa.concat_tables(exchanged[0].iter_batches(batch_format="pyarrow"))
    order = [("p", "ascending"), ("w", "ascending")]
    assert (again.sort_by(order)["__bucket"].to_pylist()
            == tagged.sort_by(order)["__bucket"].to_pylist())

    got, tagged = run(hash_join)
    assert got["p"].to_pylist() == list(range(0, n, 4))
    assert tagged["k"].null_count == 0
