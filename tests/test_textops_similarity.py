"""Training-data operators: text analysis, dedup, similarity, windows."""

import numpy as np
import pyarrow as pa
import pytest


@pytest.fixture()
def docs(ray_session):
    import ray

    texts = [
        "The quick brown fox jumps over the lazy dog.",
        "The quick brown fox jumps over the lazy dog.",   # exact dup of 0
        "The quick brown fox jumped over the lazy dogs.",  # near dup of 0
        "Completely different content about databases and tables.",
        "la casa es una de las mejores por los precios",
    ]
    return ray.data.from_arrow(pa.table({"doc_id": pa.array(range(5), pa.int64()),
                                         "text": pa.array(texts, pa.string())}))


def test_token_and_quality(docs):
    from portuguese_pt_legal_ner_ray.stages.textops import quality_batch, token_count_batch

    t = docs.map_batches(token_count_batch, batch_format="pyarrow").to_pandas()
    assert t.set_index("doc_id").loc[0, "n_tokens"] == 9
    q = docs.map_batches(quality_batch, batch_format="pyarrow").to_pandas().set_index("doc_id")
    assert q.loc[0, "n_punct"] == 1
    assert q.loc[0, "n_chars"] == 44
    assert q.loc[0, "n_capitalized"] == 1  # "The" (second "the" lowercase)


def test_langid(docs):
    from portuguese_pt_legal_ner_ray.stages.textops import langid_batch

    out = docs.map_batches(langid_batch, batch_format="pyarrow").to_pandas().set_index("doc_id")
    assert out.loc[0, "pred_lang"] == "en"
    assert out.loc[4, "pred_lang"] == "es"


def test_fingerprint_and_simhash(docs):
    from portuguese_pt_legal_ner_ray.stages.textops import fingerprint_batch, simhash_batch

    f = docs.map_batches(fingerprint_batch, batch_format="pyarrow").to_pandas()
    assert f.loc[0, "fingerprint"] == f.loc[1, "fingerprint"]
    assert f.loc[0, "fingerprint"] != f.loc[3, "fingerprint"]
    s = docs.map_batches(simhash_batch, batch_format="pyarrow").to_pandas()
    assert s.loc[0, "simhash"] == s.loc[1, "simhash"]
    ham = bin(int(s.loc[0, "simhash"]) ^ int(s.loc[2, "simhash"])).count("1")
    assert ham <= 16  # near-dup -> close simhash
    ham_far = bin(int(s.loc[0, "simhash"]) ^ int(s.loc[3, "simhash"])).count("1")
    assert ham_far > ham


def test_exact_dedup(docs):
    from portuguese_pt_legal_ner_ray.stages.dedup import exact_dedup

    out = exact_dedup(docs).to_pandas()
    assert len(out) == 4  # 5 docs, one exact dup
    dup_row = out[out["n_dups"] == 2].iloc[0]
    assert dup_row["keep_id"] == 0
    # fingerprint (scale) path: same keep/count multiset without moving text
    fp = exact_dedup(docs, by_fingerprint=True).to_pandas()
    assert sorted(zip(fp["keep_id"], fp["n_dups"])) == sorted(
        zip(out["keep_id"], out["n_dups"])
    )


def test_minhash_lsh_finds_near_dups(docs):
    from portuguese_pt_legal_ner_ray.stages.dedup import minhash_lsh_pairs

    pairs = minhash_lsh_pairs(docs, threshold=0.5, verify_docs=docs).to_pandas()
    found = {(a, b) for a, b in zip(pairs["id_a"], pairs["id_b"])}
    assert (0, 1) in found and (0, 2) in found
    assert not any(3 in p for p in found)


def test_ngram_jaccard_pairs_exact(ray_session):
    """Distributed gram-inverted-index pairs == brute-force word-trigram
    Jaccard, at two partitionings (intersection counts must be exact)."""
    import itertools

    import ray

    from portuguese_pt_legal_ner_ray.stages.dedup import ngram_jaccard_pairs

    texts = [
        "o tribunal da relacao confirmou a sentenca do processo em lisboa",
        "o tribunal da relacao confirmou a sentenca do processo no porto",
        "o tribunal da relacao negou o recurso do processo em lisboa",
        "um texto completamente diferente sem qualquer relacao com os outros",
        "curto",  # < n tokens: no grams, never pairs
    ]
    tbl = pa.table({"doc_id": pa.array(range(len(texts)), pa.int64()),
                    "text": pa.array(texts, pa.string())})

    def grams(t, n=3):
        w = t.lower().split()
        return {" ".join(w[i:i + n]) for i in range(len(w) - n + 1)}

    want = set()
    for a, b in itertools.combinations(range(len(texts)), 2):
        A, B = grams(texts[a]), grams(texts[b])
        if A and B:
            inter = len(A & B)
            if inter / (len(A) + len(B) - inter) >= 0.3:
                want.add((a, b))
    assert want  # the fixture must actually contain near-dups
    for parts in (1, 3):
        ds = ray.data.from_arrow(tbl).repartition(parts)
        got = ngram_jaccard_pairs(ds, threshold=0.3).to_pandas()
        assert set(zip(got["id_a"], got["id_b"])) == want


def test_minhash_verify_no_driver_collect(docs, monkeypatch):
    """The join-based verify must never materialize pairs or candidate ids
    on the driver (O(corpus) on dup-heavy web corpora): poison the
    driver-side collectors and require the verified pairs to still come
    through, consumed via streaming iter_batches."""
    from ray.data import Dataset

    from portuguese_pt_legal_ner_ray.stages.dedup import minhash_lsh_pairs

    def boom(self, *a, **k):
        raise AssertionError("driver-side collect inside minhash verify")

    monkeypatch.setattr(Dataset, "to_pandas", boom)
    monkeypatch.setattr(Dataset, "take_all", boom)
    pairs_ds = minhash_lsh_pairs(docs, threshold=0.5, verify_docs=docs)
    found = set()
    for batch in pairs_ds.iter_batches(batch_format="pyarrow"):
        found.update(zip(batch["id_a"].to_pylist(), batch["id_b"].to_pylist()))
    assert (0, 1) in found and (0, 2) in found
    assert not any(3 in p for p in found)


def test_brute_force_topk_matches_numpy(ray_session):
    import ray

    from portuguese_pt_legal_ner_ray.stages.similarity import brute_force_topk, make_query_ref

    rng = np.random.default_rng(7)
    mat = rng.normal(size=(100, 16))
    vecs = ray.data.from_arrow(pa.table({
        "vec_id": pa.array(range(100), pa.int64()),
        "embedding": pa.array([list(map(float, r)) for r in mat],
                              pa.list_(pa.float32())),
    }))
    qref = make_query_ref(vecs, [0, 1])
    got = brute_force_topk(vecs, qref, k=5).to_pandas()
    m32 = mat.astype(np.float32).astype(np.float64)
    m = m32 / np.linalg.norm(m32, axis=1, keepdims=True)
    for qid in (0, 1):
        sims = m @ m[qid]
        order = sorted(range(100), key=lambda i: (-sims[i], i))
        want = [i for i in order if i != qid][:5]
        assert list(got[got["query_id"] == qid]["vec_id"]) == want


def test_brute_force_topk_scans_as_tasks(ray_session, monkeypatch):
    """The brute-force scan is a task-mode ``map_batches`` over a function
    with the query ref in ``fn_kwargs``: no actor class, no ``concurrency``
    pool holding CPUs."""
    import ray
    from ray.data import Dataset

    from portuguese_pt_legal_ner_ray.stages import similarity

    calls = []
    orig = Dataset.map_batches

    def spy(self, fn, *a, **kw):
        calls.append((fn, kw))
        return orig(self, fn, *a, **kw)

    monkeypatch.setattr(Dataset, "map_batches", spy)
    vecs = ray.data.from_arrow(pa.table({
        "vec_id": pa.array(range(20), pa.int64()),
        "embedding": pa.array([[float(i), 1.0] for i in range(20)],
                              pa.list_(pa.float32())),
    }))
    qref = similarity.make_query_ref(vecs, [3])
    calls.clear()
    got = similarity.brute_force_topk(vecs, qref, k=2).to_pandas()
    assert len(got) == 2
    scan = [(fn, kw) for fn, kw in calls if fn is similarity.partial_topk_task]
    assert len(scan) == 1
    assert scan[0][1]["fn_kwargs"]["queries_ref"] == qref
    for fn, kw in calls:
        assert not isinstance(fn, type), fn
        assert kw.get("concurrency") is None, fn


def test_embedding_near_dup_finds_planted_pair(ray_session):
    import ray

    from portuguese_pt_legal_ner_ray.stages.similarity import embedding_near_dup_pairs

    rng = np.random.default_rng(5)
    mat = rng.normal(size=(50, 16))
    mat[7] = mat[3] + rng.normal(scale=0.01, size=16)  # planted near-dup
    vecs = ray.data.from_arrow(pa.table({
        "vec_id": pa.array(range(50), pa.int64()),
        "embedding": pa.array([list(map(float, r)) for r in mat], pa.list_(pa.float32())),
    }))
    pairs = embedding_near_dup_pairs(vecs, threshold=0.95).to_pandas()
    assert (3, 7) in set(zip(pairs["id_a"], pairs["id_b"]))
    assert len(pairs) <= 3  # random vectors rarely cross 0.95


def test_embedding_near_dup_ivf_planted_recall(ray_session):
    import ray

    from portuguese_pt_legal_ner_ray.stages.similarity import (
        embedding_near_dup_pairs,
        embedding_near_dup_pairs_ivf,
    )

    rng = np.random.default_rng(11)
    mat = rng.normal(size=(120, 16))
    # planted outside the centroid seed range (ids 0..n_cells-1): two
    # near-dups that are BOTH centroids would each win their own cell —
    # a real, accepted recall edge of medoid-seeded IVF
    planted = [(13, 17), (40, 41), (90, 119)]
    for a, b in planted:
        mat[b] = mat[a] + rng.normal(scale=0.01, size=16)
    vecs = ray.data.from_arrow(pa.table({
        "vec_id": pa.array(range(120), pa.int64()),
        "embedding": pa.array([list(map(float, r)) for r in mat], pa.list_(pa.float32())),
    }))
    ivf = set(map(tuple, embedding_near_dup_pairs_ivf(
        vecs, threshold=0.95, n_cells=8).to_pandas()[["id_a", "id_b"]].itertuples(index=False)))
    # near-identical vectors share an argmax cell -> every planted pair found
    for p in planted:
        assert p in ivf
    # and cell routing only ever MISSES pairs, never invents them
    exact = set(map(tuple, embedding_near_dup_pairs(
        vecs, threshold=0.95).to_pandas()[["id_a", "id_b"]].itertuples(index=False)))
    assert ivf <= exact


def test_partial_topk_tie_break_at_cutoff(ray_session):
    import ray

    from portuguese_pt_legal_ner_ray.stages.similarity import brute_force_topk, make_query_ref

    # 30 identical embeddings: every candidate ties on sim, so top-k must be
    # the k smallest vec_ids — a partial that truncates on sim alone would
    # keep arbitrary members of the tie group
    n, k = 30, 5
    vecs = ray.data.from_arrow(pa.table({
        "vec_id": pa.array(range(n), pa.int64()),
        "embedding": pa.array([[1.0, 2.0, 3.0]] * n, pa.list_(pa.float32())),
    })).repartition(3)
    qref = make_query_ref(vecs, [0])
    got = brute_force_topk(vecs, qref, k=k).to_pandas()
    assert list(got["vec_id"]) == list(range(1, k + 1))


def test_ivf_recall_reasonable(ray_session, tmp_path):
    import ray

    from portuguese_pt_legal_ner_ray.stages.similarity import (
        brute_force_topk,
        ivf_build,
        ivf_query,
        make_query_ref,
    )

    rng = np.random.default_rng(3)
    mat = rng.normal(size=(200, 8))
    vecs = ray.data.from_arrow(pa.table({
        "vec_id": pa.array(range(200), pa.int64()),
        "embedding": pa.array([list(map(float, r)) for r in mat], pa.list_(pa.float32())),
    }))
    qref = make_query_ref(vecs, [5])
    exact = set(brute_force_topk(vecs, qref, k=10).to_pandas()["vec_id"])
    ivf_build(vecs, tmp_path / "idx", n_cells=8)
    approx = set(ivf_query(tmp_path / "idx", qref, k=10, nprobe=4).to_pandas()["vec_id"])
    assert len(exact & approx) >= 5  # >=50% recall probing half the cells


def test_tumbling_window_and_sessionize(ray_session):
    import pandas as pd
    import ray

    from portuguese_pt_legal_ner_ray.stages.windows import sessionize, tumbling_window

    ts = pd.to_datetime([
        "2024-01-01 10:05", "2024-01-01 10:50", "2024-01-01 11:15",  # u1: 2 sessions
        "2024-01-01 10:10", "2024-01-01 13:00",                       # u2: 2 sessions
    ])
    events = ray.data.from_arrow(pa.table({
        "event_id": pa.array(range(5), pa.int64()),
        "ts": pa.array(ts, pa.timestamp("us")),
        "user_id": pa.array([1, 1, 1, 2, 2], pa.int64()),
        "event_type": pa.array(["a", "b", "a", "a", "a"], pa.string()),
        "value": pa.array([1.0, 2.0, 3.0, 4.0, 5.0], pa.float64()),
    }))
    w = tumbling_window(events).to_pandas()
    row = w[(w["window_start"] == pd.Timestamp("2024-01-01 10:00")) & (w["event_type"] == "a")]
    assert int(row["n_events"].iloc[0]) == 2
    assert float(row["min_value"].iloc[0]) == 1.0 and float(row["max_value"].iloc[0]) == 4.0

    s = sessionize(events, gap_minutes=30).to_pandas().sort_values(["user_id", "session_idx"])
    u1 = s[s["user_id"] == 1]
    assert list(u1["n_events"]) == [1, 2]  # 10:05 | 10:50+11:40
    u2 = s[s["user_id"] == 2]
    assert list(u2["n_events"]) == [1, 1]


def test_multimodal_decode(ray_session, tmp_path):
    import ray

    from portuguese_pt_legal_ner_ray.sources.multimodal import (
        decode_images,
        ensure_media_table,
    )

    path = ensure_media_table(60, root=str(tmp_path))
    out = decode_images(ray.data.read_parquet(str(path))).to_pandas()
    assert (out["decode_ok"]).all()
    assert (out["width"] == 64 + out["doc_id"] % 1216).all()
    assert (out["height"] == 64 + out["doc_id"] % 656).all()


def test_asof_last_event(ray_session):
    import pandas as pd
    import ray

    from portuguese_pt_legal_ner_ray.stages.windows import asof_last_event

    ts = pd.to_datetime([
        "2024-01-01 10:00",  # u1 purchase
        "2024-01-01 10:05",  # u1 click  -> asof 10:00
        "2024-01-01 10:10",  # u1 purchase
        "2024-01-01 10:20",  # u1 click  -> asof 10:10
        "2024-01-01 09:00",  # u2 click  -> no prior purchase (null)
        "2024-01-01 09:30",  # u2 purchase
        "2024-01-01 09:45",  # u2 click  -> asof 09:30
    ])
    events = ray.data.from_arrow(pa.table({
        "event_id": pa.array(range(7), pa.int64()),
        "ts": pa.array(ts, pa.timestamp("us")),
        "user_id": pa.array([1, 1, 1, 1, 2, 2, 2], pa.int64()),
        "event_type": pa.array(
            ["purchase", "click", "purchase", "click", "click", "purchase", "click"],
            pa.string()),
    }))
    out = asof_last_event(events).to_pandas().sort_values("event_id")
    got = dict(zip(out["event_id"], out["asof_ts"]))
    assert got[1] == pd.Timestamp("2024-01-01 10:00")
    assert got[3] == pd.Timestamp("2024-01-01 10:10")
    assert pd.isna(got[4])
    assert got[6] == pd.Timestamp("2024-01-01 09:30")


def test_kmeans_centroids_cluster_recovery(ray_session):
    """Distributed Lloyd rounds recover well-separated cluster directions
    (every true center has a near-parallel learned centroid) and the result
    is stable across partitionings up to float ulps."""
    import ray

    from portuguese_pt_legal_ner_ray.stages.similarity import (
        _norm_rows,
        kmeans_centroids,
    )

    rng = np.random.default_rng(2)
    centers = rng.normal(size=(4, 8)) * 5
    mat = np.concatenate([c + rng.normal(scale=0.3, size=(200, 8)) for c in centers])
    ids = rng.permutation(len(mat))
    vecs = ray.data.from_arrow(pa.table({
        "vec_id": pa.array(ids.tolist(), pa.int64()),
        "embedding": pa.array([list(map(float, r)) for r in mat], pa.list_(pa.float32())),
    })).repartition(6)
    km = kmeans_centroids(vecs, 4, iters=4)
    cn = _norm_rows(centers.astype(np.float64))
    # every true cluster direction has a close learned centroid (Lloyd from
    # medoid seeds can split/merge, so 0.9 — not 1.0 — is the honest bar)
    assert ((cn @ km.T).max(axis=1) > 0.9).all()
    km2 = kmeans_centroids(vecs.repartition(13), 4, iters=4)
    assert np.allclose(km, km2, atol=1e-12)


def test_multimodal_audio_decode(ray_session, tmp_path):
    """Audio branch mirrors the image plumbing: kind filter, actor-pool
    header decode, integer resample plan."""
    import ray

    from portuguese_pt_legal_ner_ray.sources.multimodal import (
        decode_audio,
        ensure_media_table,
        resample_plan,
    )

    path = ensure_media_table(60, root=str(tmp_path))
    media = ray.data.read_parquet(str(path))
    dec = decode_audio(media).to_pandas().set_index("doc_id")
    assert len(dec) == 20  # every third row is audio
    for doc_id, row in dec.iterrows():
        assert row["sample_rate"] == 8000 * (1 + doc_id % 5)
        assert row["n_samples"] == 1000 + doc_id * 13 % 8000
        assert row["duration_ms"] == row["n_samples"] * 1000 // row["sample_rate"]
        assert bool(row["decode_ok"])
    rs = resample_plan(decode_audio(media)).to_pandas().set_index("doc_id")
    for doc_id, row in rs.iterrows():
        want = (1000 + doc_id * 13 % 8000) * 16000 // (8000 * (1 + doc_id % 5))
        assert row["out_samples"] == want


def test_ngram_jaccard_property_random_docs(ray_session):
    """Property check: on random short word-soup docs the inverted-index
    pairs equal brute force for several thresholds and n."""
    import itertools

    import ray

    from portuguese_pt_legal_ner_ray.stages.dedup import ngram_jaccard_pairs

    rng = np.random.default_rng(11)
    vocab = [f"w{i}" for i in range(25)]
    texts = [" ".join(rng.choice(vocab, size=rng.integers(1, 30)))
             for _ in range(40)]
    tbl = pa.table({"doc_id": pa.array(range(len(texts)), pa.int64()),
                    "text": pa.array(texts, pa.string())})
    ds = ray.data.from_arrow(tbl).repartition(5)
    for n, thr in ((2, 0.2), (3, 0.1), (3, 0.5)):
        def grams(t):
            w = t.lower().split()
            return {" ".join(w[i:i + n]) for i in range(len(w) - n + 1)}

        want = set()
        for a, b in itertools.combinations(range(len(texts)), 2):
            A, B = grams(texts[a]), grams(texts[b])
            if A and B:
                inter = len(A & B)
                if inter / (len(A) + len(B) - inter) >= thr:
                    want.add((a, b))
        got = ngram_jaccard_pairs(ds, threshold=thr, n=n).to_pandas()
        got_pairs = (set(zip(got["id_a"], got["id_b"]))
                     if "id_a" in got.columns else set())
        assert got_pairs == want, (n, thr)

def test_o_n2_baselines_raise_above_row_cap(ray_session):
    """The disclosed O(n²) oracle baseline refuses real-corpus inputs
    (VERDICT r3 item #5) instead of silently materializing on the driver."""
    import pytest
    import ray

    from portuguese_pt_legal_ner_ray.stages.similarity import embedding_near_dup_pairs

    vecs = ray.data.from_arrow(pa.table({
        "vec_id": pa.array(range(20), pa.int64()),
        "embedding": pa.array([[1.0, 0.0]] * 20, pa.list_(pa.float32())),
    }))
    with pytest.raises(ValueError, match="max_rows"):
        embedding_near_dup_pairs(vecs, max_rows=10)
    # at/below the cap it still runs
    assert embedding_near_dup_pairs(vecs, threshold=0.9, max_rows=20).count() > 0


def test_ngram_cap_sentinel_warns_and_is_stripped():
    """The df-cap sentinel row (id_a == id_b == -1) surfaces as a UserWarning
    carrying the capped-gram count and never leaks into the pair output
    (ADVICE r3 #1 — no silent caps)."""
    import warnings

    import pytest

    from portuguese_pt_legal_ner_ray.stages.dedup import _ngram_keep

    t = pa.table({
        "id_a": pa.array([-1, 1], pa.int64()),
        "id_b": pa.array([-1, 2], pa.int64()),
        "na": pa.array([1, 10], pa.int64()),
        "nb": pa.array([1, 10], pa.int64()),
        "ni": pa.array([7, 9], pa.int64()),
    })
    with pytest.warns(UserWarning, match="7 gram\\(s\\) exceeded max_gram_df"):
        out = _ngram_keep(t, threshold=0.5, max_gram_df=4096)
    assert out.to_pydict() == {"id_a": [1], "id_b": [2]}
    # no sentinel -> no warning
    clean = t.slice(1)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out2 = _ngram_keep(clean, threshold=0.5, max_gram_df=4096)
    assert out2.num_rows == 1
    # a corpus legitimately using doc_id -1 is NOT the sentinel (the
    # sentinel is id_a == id_b == -1; real pairs always have id_a < id_b)
    real = pa.table({
        "id_a": pa.array([-1], pa.int64()),
        "id_b": pa.array([2], pa.int64()),
        "na": pa.array([10], pa.int64()),
        "nb": pa.array([10], pa.int64()),
        "ni": pa.array([9], pa.int64()),
    })
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out3 = _ngram_keep(real, threshold=0.5, max_gram_df=4096)
    assert out3.to_pydict() == {"id_a": [-1], "id_b": [2]}



def _brute_run_pairs(keys, ids, dense_cap=None, window=0, max_run=None):
    """``dedup.run_pairs`` by itertools: each key's rows in (id, row) order,
    all i<j pairs, or pairs at most ``window`` apart above ``dense_cap``."""
    import itertools

    runs: dict = {}
    for row, k in enumerate(keys):
        runs.setdefault(k, []).append(row)
    pairs, capped = [], 0
    for rows in runs.values():
        rows.sort(key=lambda r: ids[r])
        if max_run is not None and len(rows) > max_run:
            capped += 1
            continue
        wide = dense_cap is not None and len(rows) > dense_cap
        pairs += [(rows[a], rows[b])
                  for a, b in itertools.combinations(range(len(rows)), 2)
                  if not wide or b - a <= window]
    return sorted(pairs), capped


def test_run_pairs_matches_brute_force():
    """The near-dup pair kernel equals an itertools brute force on random
    runs: single-row runs, runs above the dense cap (windowed) and above
    ``max_run`` (counted, exactly), duplicate ids, empty and multi-chunk
    input."""
    from portuguese_pt_legal_ner_ray.stages.dedup import run_pairs

    rng = np.random.default_rng(0)
    cases = [((), {}), ((), {"dense_cap": 2, "window": 1, "max_run": 3})]
    for _ in range(60):
        n = int(rng.integers(0, 80))
        # skewed key pool: a few long runs, many single-row runs
        keys = [f"g{int(v)}" for v in rng.zipf(1.6, n) % 40]
        ids = rng.integers(-3, 25, n)  # small range: duplicate ids
        params = {"dense_cap": int(rng.integers(1, 8)) if rng.random() < 0.5 else None,
                  "window": int(rng.integers(0, 4)),
                  "max_run": int(rng.integers(1, 12)) if rng.random() < 0.5 else None}
        cases.append(((keys, ids), params))
    total_capped = 0
    for data, params in cases:
        keys, ids = data or ([], np.empty(0, np.int64))
        cut = len(keys) // 3
        chunked = pa.chunked_array([pa.array(keys[:cut], pa.string()),
                                    pa.array(keys[cut:], pa.string())])
        want, want_capped = _brute_run_pairs(keys, list(ids), **params)
        total_capped += want_capped
        for arr in (pa.array(keys, pa.string()), chunked):
            left, right, capped = run_pairs(arr, np.asarray(ids), **params)
            assert sorted(zip(left.tolist(), right.tolist())) == want, params
            assert capped == want_capped, params
            assert (np.asarray(ids)[left] <= np.asarray(ids)[right]).all()
    assert total_capped > 0

def test_ivf_index_build_query_prunes_io(ray_session, tmp_path):
    """Persisted IVF index: full-probe query equals brute force exactly,
    and a pruned query touches ONLY its probed cell partitions — proven by
    deleting every unprobed partition dir and getting identical output."""
    import shutil

    import ray

    from portuguese_pt_legal_ner_ray.stages.similarity import (
        brute_force_topk,
        ivf_build,
        ivf_query,
        make_query_ref,
    )

    rng = np.random.default_rng(11)
    n_cells = 8
    anchors = rng.normal(size=(n_cells, 8))
    anchors /= np.linalg.norm(anchors, axis=1, keepdims=True)
    mat = anchors[np.arange(400) % n_cells] + 0.1 * rng.normal(size=(400, 8))
    vecs = ray.data.from_arrow(pa.table({
        "vec_id": pa.array(range(400), pa.int64()),
        "embedding": pa.array([list(map(float, r)) for r in mat],
                              pa.list_(pa.float32())),
    }))
    qref = make_query_ref(vecs, [5, 6])
    index = tmp_path / "ivf"
    cents = ivf_build(vecs, index, n_cells=n_cells)
    assert cents.shape == (n_cells, 8)
    assert (index / "centroids.npy").exists()
    cell_dirs = sorted(p.name for p in (index / "cells").iterdir() if p.is_dir())
    assert len(cell_dirs) > 1  # clustered data spreads over cells

    # full probe == exact brute force (same contract incl. self-exclusion)
    exact = brute_force_topk(vecs, qref, k=10).to_pandas()
    full = ivf_query(index, qref, k=10, nprobe=n_cells).to_pandas()
    key = ["query_id", "vec_id"]
    assert full.sort_values(key).reset_index(drop=True).equals(
        exact.sort_values(key).reset_index(drop=True))

    # pruned probe: compute the probed union, delete every OTHER partition,
    # and the result must be byte-identical — unprobed dirs are never read
    nprobe = 2
    q = ray.get(qref)
    qm = q["mat"] / np.linalg.norm(q["mat"], axis=1, keepdims=True)
    probed = np.unique(np.argsort(-(qm @ cents.T), axis=1)[:, :nprobe])
    before = ivf_query(index, qref, k=10, nprobe=nprobe).to_pandas()
    for d in (index / "cells").iterdir():
        if d.is_dir() and int(d.name.split("=")[1]) not in probed:
            shutil.rmtree(d)
    after = ivf_query(index, qref, k=10, nprobe=nprobe).to_pandas()
    assert after.sort_values(key).reset_index(drop=True).equals(
        before.sort_values(key).reset_index(drop=True))
    # and the pruned answer is still high-recall on clustered data
    ex = set(exact[exact["query_id"] == 5]["vec_id"])
    ap = set(after[after["query_id"] == 5]["vec_id"])
    assert len(ex & ap) >= 8


def test_ivf_full_probe_equals_brute_on_random_vectors(ray_session, tmp_path):
    """Property (randomized, fixed seeds): with nprobe = n_cells the
    persisted-index path must equal brute force EXACTLY — no clustered
    structure assumed, ties and self-exclusion included."""
    import ray

    from portuguese_pt_legal_ner_ray.stages.similarity import (
        brute_force_topk,
        ivf_build,
        ivf_query,
        make_query_ref,
    )

    key = ["query_id", "vec_id"]
    for seed, n, d, n_cells, k in [(0, 150, 4, 4, 5), (1, 97, 16, 7, 10),
                                   (2, 64, 3, 16, 3)]:
        rng = np.random.default_rng(seed)
        mat = rng.normal(size=(n, d))
        # inject exact duplicates so cosine ties exercise the vec_id
        # tie-break identically on both paths
        mat[n // 2] = mat[0]
        mat[n // 2 + 1] = mat[1]
        vecs = ray.data.from_arrow(pa.table({
            "vec_id": pa.array(range(n), pa.int64()),
            "embedding": pa.array([list(map(float, r)) for r in mat],
                                  pa.list_(pa.float32())),
        }))
        qref = make_query_ref(vecs, [0, 3, n - 1])
        index = tmp_path / f"ivf_{seed}"
        ivf_build(vecs, index, n_cells=n_cells)
        exact = brute_force_topk(vecs, qref, k=k).to_pandas()
        full = ivf_query(index, qref, k=k, nprobe=n_cells).to_pandas()
        assert full.sort_values(key).reset_index(drop=True).equals(
            exact.sort_values(key).reset_index(drop=True)), (seed, n, d)


def test_cumulative_window_matches_pandas(ray_session):
    """Per-key running sum: deterministic under ties (event_id tie-break)
    and identical at any block split."""
    import pandas as pd
    import ray

    from portuguese_pt_legal_ner_ray.stages.windows import cumulative_window

    ts = pd.to_datetime([
        "2024-01-01 10:00", "2024-01-01 10:00",  # same-ts tie, same user
        "2024-01-01 11:00", "2024-01-01 09:00", "2024-01-01 12:00",
    ])
    events = ray.data.from_arrow(pa.table({
        "event_id": pa.array([2, 1, 3, 4, 5], pa.int64()),
        "ts": pa.array(ts, pa.timestamp("us")),
        "user_id": pa.array([1, 1, 1, 2, 2], pa.int64()),
        "value": pa.array([10.0, 1.0, 5.0, 2.0, 3.0], pa.float64()),
    }))
    for parts in (1, 3):
        ds = events if parts == 1 else events.repartition(parts)
        got = (cumulative_window(ds).to_pandas()
               .sort_values(["user_id", "ts", "event_id"]).reset_index(drop=True))
        # user 1: tie at 10:00 orders by event_id -> 1.0, then +10, then +5
        assert list(got[got["user_id"] == 1]["running_sum"]) == [1.0, 11.0, 16.0]
        assert list(got[got["user_id"] == 2]["running_sum"]) == [2.0, 5.0]


def test_top_terms_per_doc_ranking(ray_session):
    """tf desc, then df asc (rarer across docs wins), then term asc; stable
    at any block split."""
    import ray

    from portuguese_pt_legal_ner_ray.stages import textops

    docs = ray.data.from_arrow(pa.table({
        "doc_id": pa.array([1, 2, 3], pa.int64()),
        "text": pa.array([
            "raro raro comum unico",     # tf(raro)=2; unico df=1 beats comum df=3
            "comum Comum outro",         # lowercasing folds Comum into comum
            "comum outro outro",
        ], pa.string()),
    }))
    for parts in (1, 3):
        ds = docs if parts == 1 else docs.repartition(parts)
        got = (textops.top_terms_per_doc(ds, k=2).to_pandas()
               .sort_values(["doc_id", "tf", "df", "term"],
                            ascending=[True, False, True, True])
               .reset_index(drop=True))
        d1 = got[got["doc_id"] == 1]
        assert list(d1["term"]) == ["raro", "unico"]  # tf=2 first, df=1 beats df=3
        d2 = got[got["doc_id"] == 2]
        assert list(d2["term"]) == ["comum", "outro"]
        assert int(d2[d2["term"] == "comum"]["tf"].iloc[0]) == 2  # case-folded
        assert int(d2[d2["term"] == "comum"]["df"].iloc[0]) == 3


def test_ivf_build_atomic_publish_survives_interrupt(ray_session, tmp_path):
    """A crash mid-build must never brick the index path: ivf_build stages
    into a temp sibling and publishes atomically, so the target is always
    absent, a complete prior index, or the complete new one (ADVICE r4 #2).
    Simulated by failing the partitioned write, then rebuilding."""
    import numpy as np
    import pytest
    import ray

    from portuguese_pt_legal_ner_ray.stages.similarity import (
        brute_force_topk,
        ivf_build,
        ivf_query,
        make_query_ref,
    )

    rng = np.random.default_rng(7)
    mat = rng.normal(size=(60, 4))
    vecs = ray.data.from_arrow(pa.table({
        "vec_id": pa.array(range(60), pa.int64()),
        "embedding": pa.array([list(map(float, r)) for r in mat],
                              pa.list_(pa.float32())),
    }))
    index = tmp_path / "ivf_atomic"

    # 1) interrupt the first build after the temp dir exists but before
    #    publish: poison the Dataset write
    class Boom(RuntimeError):
        pass

    def exploding(batch):
        raise Boom("injected crash mid-build")

    with pytest.raises(Exception):
        ivf_build(vecs.map_batches(exploding, batch_format="pyarrow"),
                  index, n_cells=4)
    # target path untouched — no half-written dir blocking the guard
    assert not index.exists()

    # 2) a plain rebuild at the SAME path succeeds and serves exact results
    ivf_build(vecs, index, n_cells=4)
    assert (index / "centroids.npy").exists()
    # stale .build-* temp dirs are cleaned up by the successful build
    assert not list(index.parent.glob(f".{index.name}.build-*"))
    qref = make_query_ref(vecs, [0, 59])
    key = ["query_id", "vec_id"]
    exact = brute_force_topk(vecs, qref, k=5).to_pandas()
    got = ivf_query(index, qref, k=5, nprobe=4).to_pandas()
    assert got.sort_values(key).reset_index(drop=True).equals(
        exact.sort_values(key).reset_index(drop=True))

    # 3) rebuilding over a complete prior index also succeeds (guard allows)
    ivf_build(vecs, index, n_cells=4)
    assert (index / "centroids.npy").exists()


def test_ivf_build_keeps_index_published_mid_build(ray_session, tmp_path,
                                                  monkeypatch):
    """Two builders racing for one fresh path: the one that publishes a
    complete index while the other is still building wins. The late
    builder must not delete the published index (its readers may be
    serving from it); it drops its own build and returns the published
    centroids without error."""
    import shutil

    import ray

    from portuguese_pt_legal_ner_ray.stages import similarity
    from portuguese_pt_legal_ner_ray.stages.similarity import (
        brute_force_topk,
        ivf_build,
        ivf_query,
        make_query_ref,
    )

    rng = np.random.default_rng(13)
    vecs = ray.data.from_arrow(pa.table({
        "vec_id": pa.array(range(60), pa.int64()),
        "embedding": pa.array([list(map(float, r))
                               for r in rng.normal(size=(60, 4))],
                              pa.list_(pa.float32())),
    }))
    theirs = tmp_path / "theirs"
    their_cents = ivf_build(vecs, theirs, n_cells=2)
    (theirs / "published-by-other-builder").touch()
    index = tmp_path / "ivf_race"

    real = similarity.deterministic_centroids

    def publish_then_train(*a, **k):
        shutil.copytree(theirs, index)  # the other builder publishes now
        return real(*a, **k)

    monkeypatch.setattr(similarity, "deterministic_centroids", publish_then_train)
    cents = ivf_build(vecs, index, n_cells=4)
    assert (index / "published-by-other-builder").exists()
    assert np.array_equal(cents, their_cents)
    assert not list(index.parent.glob(f".{index.name}.build-*"))
    qref = make_query_ref(vecs, [0, 59])
    key = ["query_id", "vec_id"]
    got = ivf_query(index, qref, k=5, nprobe=2).to_pandas()
    exact = brute_force_topk(vecs, qref, k=5).to_pandas()
    assert got.sort_values(key).reset_index(drop=True).equals(
        exact.sort_values(key).reset_index(drop=True))


def test_ivf_build_spares_live_sibling_build_dir(ray_session, tmp_path):
    """A build removes only crash debris: build dirs whose owner pid is dead.
    The build dir of a concurrent builder that is still alive (here the
    test's parent process) survives, with its files."""
    import os
    import subprocess
    import sys

    import ray

    from portuguese_pt_legal_ner_ray.stages.similarity import ivf_build

    vecs = ray.data.from_arrow(pa.table({
        "vec_id": pa.array(range(20), pa.int64()),
        "embedding": pa.array([[float(i), 1.0] for i in range(20)],
                              pa.list_(pa.float32())),
    }))
    index = tmp_path / "ivf"
    live = tmp_path / f".{index.name}.build-{os.getppid()}"
    (live / "cells").mkdir(parents=True)
    (live / "cells" / "part.parquet").touch()
    done = subprocess.run([sys.executable, "-c", "import os; print(os.getpid())"],
                          capture_output=True, text=True, check=True)
    dead = tmp_path / f".{index.name}.build-{int(done.stdout)}"
    dead.mkdir()
    ivf_build(vecs, index, n_cells=2)
    assert (live / "cells" / "part.parquet").exists()
    assert not dead.exists()
    assert (index / "centroids.npy").exists()


def test_ann_topk_routes_index_first(ray_session, tmp_path):
    """ann_topk (the default ANN entry) with index_dir builds the persisted
    index once, REUSES it on later calls (no rebuild), and at full probe
    equals brute force; without index_dir it is brute force."""
    import numpy as np
    import ray

    from portuguese_pt_legal_ner_ray.stages.similarity import (
        ann_topk,
        brute_force_topk,
        make_query_ref,
    )

    rng = np.random.default_rng(17)
    mat = rng.normal(size=(80, 6))
    vecs = ray.data.from_arrow(pa.table({
        "vec_id": pa.array(range(80), pa.int64()),
        "embedding": pa.array([list(map(float, r)) for r in mat],
                              pa.list_(pa.float32())),
    }))
    qref = make_query_ref(vecs, [0, 40])
    key = ["query_id", "vec_id"]
    index = tmp_path / "ann_default"

    got = ann_topk(vecs, qref, k=5, nprobe=8, index_dir=index,
                   n_cells=8).to_pandas()
    exact = brute_force_topk(vecs, qref, k=5).to_pandas()
    assert got.sort_values(key).reset_index(drop=True).equals(
        exact.sort_values(key).reset_index(drop=True))

    # second call must reuse, not rebuild: centroids file identity survives
    sig = (index / "centroids.npy").stat().st_mtime_ns
    again = ann_topk(vecs, qref, k=5, nprobe=8, index_dir=index,
                     n_cells=8).to_pandas()
    assert (index / "centroids.npy").stat().st_mtime_ns == sig
    assert again.sort_values(key).reset_index(drop=True).equals(
        exact.sort_values(key).reset_index(drop=True))

    # no index_dir -> exact brute force, whatever nprobe asks for
    no_idx = ann_topk(vecs, qref, k=5, nprobe=2, n_cells=8).to_pandas()
    assert no_idx.sort_values(key).reset_index(drop=True).equals(
        exact.sort_values(key).reset_index(drop=True))


def test_lag_window_matches_pandas(ray_session):
    """Per-key LAG/LEAD: SQL null semantics at key edges, deterministic
    under same-ts ties (event_id tie-break), identical at any split."""
    import pandas as pd
    import ray

    from portuguese_pt_legal_ner_ray.stages.windows import lag_window

    ts = pd.to_datetime([
        "2024-01-01 10:00", "2024-01-01 10:00",  # tie, same user
        "2024-01-01 11:00", "2024-01-01 09:00", "2024-01-01 12:00",
    ])
    events = ray.data.from_arrow(pa.table({
        "event_id": pa.array([2, 1, 3, 4, 5], pa.int64()),
        "ts": pa.array(ts, pa.timestamp("us")),
        "user_id": pa.array([1, 1, 1, 2, 2], pa.int64()),
        "value": pa.array([10.0, 1.0, 5.0, 2.0, 3.0], pa.float64()),
    }))
    for parts in (1, 3):
        ds = events if parts == 1 else events.repartition(parts)
        got = (lag_window(ds).to_pandas()
               .sort_values(["user_id", "ts", "event_id"]).reset_index(drop=True))
        # user 1 order (ts, event_id): value 1.0 (eid1), 10.0 (eid2), 5.0
        u1 = got[got["user_id"] == 1]["lag_value"].tolist()
        assert pd.isna(u1[0]) and u1[1:] == [1.0, 10.0]
        u2 = got[got["user_id"] == 2]["lag_value"].tolist()
        assert pd.isna(u2[0]) and u2[1] == 2.0
        # LEAD via negative offset
        lead = (lag_window(ds, offset=-1, alias="next_value").to_pandas()
                .sort_values(["user_id", "ts", "event_id"]).reset_index(drop=True))
        l1 = lead[lead["user_id"] == 1]["next_value"].tolist()
        assert l1[:2] == [10.0, 5.0] and pd.isna(l1[2])
