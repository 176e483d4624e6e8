"""Deduplication operators over a document table (training-data ops).

* exact dedup            — ``groupby(text)`` keeping min doc_id + dup count
  (hash-partition + order-free per-group reducers, SURVEY.md §2.5 pattern)
* minhash + LSH near-dup — shingle -> minhash -> band -> ``groupby(band)``
  -> in-bucket verified pairs (the scale path: candidate generation never
  goes quadratic in the corpus, only within buckets)

At 100 TB: exact dedup shuffles only (hash(text) -> fingerprint) pairs, not
raw text, when ``by_fingerprint=True``; LSH shuffles one row per (doc, band).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
from ray.data import Dataset
from ray.data.aggregate import Count, Min

from ..config import LinkingConfig
from ..functions.minhash import MinHasher


def exact_dedup(docs: Dataset, text_col: str = "text", id_col: str = "doc_id",
                by_fingerprint: bool = False) -> Dataset:
    """One row per distinct text: (text, keep_id=min id, n_dups).

    ``by_fingerprint=True`` is the 100 TB path: the shuffle moves
    (md5 fingerprint, id) pairs instead of raw document text — output keyed
    by ``fingerprint`` instead of ``text`` (collision probability ~n²/2¹²⁸).
    """
    if by_fingerprint:
        import hashlib

        from .shuffle import grouped_agg

        def fp(batch: pa.Table) -> pa.Table:
            return pa.table(
                {
                    "fingerprint": pa.array(
                        [hashlib.md5(t.encode()).hexdigest()
                         for t in batch[text_col].to_pylist()],
                        pa.string(),
                    ),
                    id_col: batch[id_col],
                    "n": pa.array([1] * len(batch), pa.int64()),
                }
            )

        return grouped_agg(
            docs.select_columns([id_col, text_col]).map_batches(fp, batch_format="pyarrow"),
            ["fingerprint"],
            {"keep_id": (id_col, "min"), "n_dups": ("n", "sum")},
        )
    from .shuffle import strip_schema_metadata

    return (
        strip_schema_metadata(docs.select_columns([id_col, text_col]))
        .groupby(text_col)
        .aggregate(Min(id_col, alias_name="keep_id"), Count(alias_name="n_dups"))
    )


def dedup_apply(docs: Dataset, text_col: str = "text", id_col: str = "doc_id") -> Dataset:
    """Keep-first application of exact dedup: the min-id row of each text
    group survives.

    Scale path: ONE shuffle keyed by the md5 fingerprint of the text (a
    32-char key, not the raw document), min-id row kept per group. No
    broadcast keep-set (that costs O(distinct docs) memory in every worker
    at corpus scale) and no driver materialization; the corpus streams
    through the exchange exactly once. Fingerprint collisions (~n²/2¹²⁸)
    are the same accepted risk as ``exact_dedup(by_fingerprint=True)``.
    """
    import hashlib

    from .shuffle import exchange

    def fp(batch: pa.Table) -> pa.Table:
        fps = pa.array(
            [hashlib.md5(t.encode()).hexdigest()
             for t in batch[text_col].to_pylist()],
            pa.string(),
        )
        return pa.table({"fingerprint": fps, id_col: batch[id_col],
                         text_col: batch[text_col]})

    def keep_first(g: "pd.DataFrame") -> "pd.DataFrame":
        g = g.sort_values(["fingerprint", id_col], kind="stable")
        return g.drop_duplicates("fingerprint")[[id_col, text_col]]

    # route by fingerprint hash so the keep-first runs once per sorted
    # block of buckets (vectorized sort + drop_duplicates), not once per
    # distinct text
    return exchange(
        docs.select_columns([id_col, text_col]).map_batches(fp, batch_format="pyarrow"),
        ["fingerprint"], keep_first, batch_format="pandas")


def run_pairs(keys: pa.Array | pa.ChunkedArray, ids: np.ndarray,
              dense_cap: int | None = None, window: int = 0,
              max_run: int | None = None) -> tuple[np.ndarray, np.ndarray, int]:
    """THE pair kernel of both near-dup operators: candidate pairs among
    rows that share a key, with no Python loop over keys.

    Rows are sorted by (key, id), so each distinct key is one run in id
    order. A run pairs each row with every later row of the run, or, when
    the run is longer than ``dense_cap``, with at most ``window`` later
    rows (a sorted-neighbourhood window). A run longer than ``max_run`` is
    capped: it emits nothing and is counted instead. Runs of one row emit
    nothing.

    Returns ``(left, right, n_capped)``: the row indices (into ``keys`` /
    ``ids``) of every pair, with ``ids[left] <= ids[right]``, and the
    number of capped runs.
    """
    if isinstance(keys, pa.ChunkedArray):
        keys = keys.combine_chunks()
    codes = pc.dictionary_encode(keys).indices.to_numpy()
    order = np.lexsort((ids, codes))
    n = len(order)
    codes = codes[order]
    starts = np.flatnonzero(np.diff(codes, prepend=-1))
    lengths = np.diff(np.r_[starts, n])
    capped = (lengths > max_run if max_run is not None
              else np.zeros(len(lengths), dtype=bool))
    span = lengths - 1
    if dense_cap is not None:
        span = np.where(lengths > dense_cap, np.minimum(span, window), span)
    span[capped] = 0
    # pairs each sorted row opens: later rows of its run, up to the span
    pos = np.arange(n) - np.repeat(starts, lengths)
    opens = np.minimum(np.repeat(span, lengths), np.repeat(lengths, lengths) - 1 - pos)
    left = np.repeat(np.arange(n), opens)
    first = np.repeat(np.cumsum(opens) - opens, opens)
    right = left + 1 + np.arange(len(left)) - first
    return order[left], order[right], int(capped.sum())


class MinhashBandStage:
    """doc -> one row per LSH band: (band, doc_id). Stateful hasher per actor."""

    def __init__(self, cfg: LinkingConfig | None = None, text_col: str = "text"):
        self.cfg = cfg or LinkingConfig(num_hashes=32, num_bands=8, shingle_k=5)
        self.hasher = MinHasher(self.cfg.num_hashes, self.cfg.shingle_k)
        self.text_col = text_col

    def __call__(self, batch: pa.Table) -> pa.Table:
        bands, ids = [], []
        for doc_id, text in zip(batch["doc_id"].to_pylist(), batch[self.text_col].to_pylist()):
            for bk in self.hasher.band_keys(text.lower(), self.cfg.num_bands):
                bands.append(bk)
                ids.append(doc_id)
        return pa.table({"band": pa.array(bands, pa.string()),
                         "doc_id": pa.array(ids, pa.int64())})


def minhash_lsh_pairs(
    docs: Dataset,
    text_col: str = "text",
    threshold: float = 0.7,
    cfg: LinkingConfig | None = None,
    verify_docs: Dataset | None = None,
    dense_bucket_cap: int = 256,
) -> Dataset:
    """Verified near-dup pairs (id_a < id_b) via minhash LSH.

    Candidate generation: buckets up to ``dense_bucket_cap`` docs emit ALL
    in-bucket pairs (full recall within the bucket); larger (hot) buckets
    fall back to a sorted-neighborhood window of ``cfg.window`` neighbors in
    doc_id order, which deliberately caps the O(bucket²) blow-up — pairs
    more than ``window`` apart inside such a hot bucket are NOT candidates
    (bounded-recall tradeoff, same spirit as the salted blocking cap in
    functions/blocking.py).

    ``verify_docs``: optional (id, text) Dataset — candidates are verified
    by true shingle-Jaccard >= ``threshold`` via two partitioned hash joins
    that bring each pair's texts together (the pair set is tiny relative to
    the corpus); nothing is materialized on the driver and no whole-corpus
    broadcast is made. When None, pairs are returned unverified.
    """
    from .shuffle import exchange, grouped_count

    cfg = cfg or LinkingConfig(num_hashes=32, num_bands=8, shingle_k=5)
    # task mode (warm workers), not an actor pool: the hasher state is a
    # cheap build, and pool startup would dominate at this stage size
    stage = MinhashBandStage(cfg=cfg, text_col=text_col)

    def bucket_pairs(group: pa.Table) -> pa.Table:
        ids = group["doc_id"].to_numpy()
        left, right, _ = run_pairs(group["band"], ids, dense_cap=dense_bucket_cap,
                                   window=cfg.window)
        return pa.table({"id_a": pa.array(ids[left], pa.int64()),
                         "id_b": pa.array(ids[right], pa.int64())})

    # route whole LSH bands by band-hash so pair generation runs once per
    # sorted block of bands, not once per band (one Python call per
    # distinct band key — tens of thousands)
    raw_pairs = exchange(docs.map_batches(stage, batch_format="pyarrow"),
                         ["band"], bucket_pairs)
    if verify_docs is None:
        # distinct-pairs contract for the unverified output
        return grouped_count(raw_pairs, ["id_a", "id_b"]).select_columns(
            ["id_a", "id_b"]
        )

    from ..functions.minhash import _gram_hashes
    from .joins import hash_join

    # The semi-join is done BY the two inner hash_joins themselves: each
    # bucket's join discards non-candidate docs, so nothing is ever
    # materialized on the driver and no candidate-id set is shipped into
    # tasks. (A driver collect of distinct candidate ids is O(corpus) on
    # heavily duplicated web corpora — 30-50% dup rates are normal — which
    # made the previous is_in pre-filter a scale hazard.)
    #
    # Shuffle-round economy — this path is exactly THREE all-to-all rounds
    # (band->pair-gen, join a-side, join b-side):
    # * each doc's SORTED SHINGLE ARRAY is computed once per join side in
    #   the (streamed, embarrassingly parallel) docs map and shipped as a
    #   list<uint32> column — verifying from texts instead would recompute
    #   every doc's shingles once per bucket it appears in (measured ~12x
    #   the corpus at 64 buckets: it dominated the whole op's CPU);
    # * duplicate candidates (a pair surfacing from k>1 bands) co-locate in
    #   join 1 — its bucket hashes id_a, so every copy of (a, b) lands in
    #   one bucket — and are dropped there (``bucket_post`` keeps one copy),
    #   making the output distinct WITHOUT a dedicated dedup round;
    # * the Jaccard verify is FUSED into join 2's bucket UDF (sorted-array
    #   ``np.intersect1d`` per pair), so the widest intermediate (pair +
    #   both shingle arrays) never leaves the stage that built it.
    def _as(side: str):
        def f(t: pa.Table) -> pa.Table:
            sh_arrays = [
                np.unique(_gram_hashes(x.lower(), cfg.shingle_k))
                for x in t[text_col].to_pylist()
            ]
            return pa.table({
                f"id_{side}": t["doc_id"],
                f"sh_{side}": pa.array(sh_arrays, pa.list_(pa.uint32())),
            })

        return f

    docs_a = verify_docs.map_batches(_as("a"), batch_format="pyarrow")
    docs_b = verify_docs.map_batches(_as("b"), batch_format="pyarrow")

    def dedup_bucket(t: pa.Table) -> pa.Table:
        # first row of each (id_a, id_b): the shingle payload is identical
        # across copies, so any representative is exact
        first = (t.select(["id_a", "id_b"])
                 .append_column("__i", pa.array(np.arange(len(t), dtype=np.int64)))
                 .group_by(["id_a", "id_b"]).aggregate([("__i", "min")]))
        return t.take(first["__i_min"])

    with_a = hash_join(raw_pairs, docs_a, key="id_a", bucket_post=dedup_bucket)

    def verify_bucket(t: pa.Table) -> pa.Table:
        def sets(col: str):
            arr = t[col].combine_chunks()
            vals, off = arr.values.to_numpy(), arr.offsets.to_numpy()
            return [vals[off[i]:off[i + 1]] for i in range(len(arr))]

        keep = []
        for sa, sb in zip(sets("sh_a"), sets("sh_b")):
            na, nb = len(sa), len(sb)
            if na == 0 or nb == 0:
                keep.append(na == nb)  # both empty: Jaccard 1 by convention
                continue
            inter = np.intersect1d(sa, sb, assume_unique=True).size
            keep.append(inter / (na + nb - inter) >= threshold)
        return t.filter(pa.array(keep, pa.bool_())).select(["id_a", "id_b"])

    return hash_join(with_a, docs_b, key="id_b", bucket_post=verify_bucket)


def ngram_jaccard_pairs(
    docs: Dataset,
    threshold: float = 0.4,
    n: int = 3,
    text_col: str = "text",
    id_col: str = "doc_id",
    max_gram_df: int = 4096,
) -> Dataset:
    """EXACT word-n-gram Jaccard near-dup pairs via a distributed
    gram-inverted index — two all-to-all rounds, no driver materialization.

    1. Each doc maps to its DISTINCT lowercased word n-grams (plain
       ``str.split`` tokens — process-stable, unlike pyarrow's whitespace
       split), one ``(gram, doc_id, doc_gram_count)`` row per gram,
       bucket-routed by gram hash.
    2. Per sorted block of gram buckets, :func:`run_pairs` emits every
       co-occurring doc pair of every gram at once (one lexsort by (gram,
       id), then index arithmetic, no loop over grams), both docs' set
       sizes riding along.
    3. One ``grouped_agg`` per pair: the pair's row count IS ``|A∩B|``
       (each shared gram lives in exactly one bucket and emits the pair
       once); keep pairs with ``ni / (na + nb - ni) >= threshold``.

    Exactness caveat: grams with document frequency > ``max_gram_df`` are
    excluded from pair generation (the stopword-gram guard that bounds the
    per-gram quadratic emission at corpus scale). Shared grams above the
    cap then under-count the intersection — at the oracle scales the cap is
    never reached (max trigram df is ~25 at sf0.1), so SQL parity is exact.
    The cap is NOT silent (same contract as ``sketches.heavy_hitters``):
    every capped gram is counted through the shuffle on a sentinel pair key
    and the final filter stage emits a ``UserWarning`` with the capped-gram
    count (raised in the Ray worker running that stage, so it lands in the
    job logs; unit-testable by calling the filter on a synthetic table).
    Docs with fewer than ``n`` tokens have no grams and never pair (the SQL
    oracle agrees by construction).
    """
    from .shuffle import exchange, grouped_agg

    def gram_rows(batch: pa.Table) -> pa.Table:
        grams, ids, sizes = [], [], []
        for doc_id, text in zip(batch[id_col].to_pylist(),
                                batch[text_col].to_pylist()):
            w = text.lower().split()
            gs = {" ".join(w[i:i + n]) for i in range(len(w) - n + 1)}
            grams.extend(gs)
            ids.extend([doc_id] * len(gs))
            sizes.extend([len(gs)] * len(gs))
        return pa.table({
            "gram": pa.array(grams, pa.string()),
            id_col: pa.array(ids, pa.int64()),
            "sz": pa.array(sizes, pa.int64()),
        })

    def bucket_pairs(group: pa.Table) -> pa.Table:
        ids = group[id_col].to_numpy()
        sz = group["sz"].to_numpy()
        left, right, n_capped = run_pairs(group["gram"], ids, max_run=max_gram_df)
        one = np.ones(len(left), dtype=np.int64)
        cols = [ids[left], ids[right], sz[left], sz[right], one]
        if n_capped:
            # sentinel pair key (-1, -1): rides the normal shuffle, its "one"
            # carries this call's capped-gram count so grouped_agg sums the
            # global total — no side channel, no extra pass
            sentinel = np.array([-1, -1, 1, 1, n_capped], dtype=np.int64)
            cols = [np.append(c, v) for c, v in zip(cols, sentinel)]
        return pa.table([pa.array(c, pa.int64()) for c in cols],
                        names=["id_a", "id_b", "na", "nb", "one"])

    pair_stats = grouped_agg(
        exchange(docs.select_columns([id_col, text_col])
                 .map_batches(gram_rows, batch_format="pyarrow"),
                 ["gram"], bucket_pairs),
        ["id_a", "id_b"],
        {"ni": ("one", "sum"), "na": ("na", "max"), "nb": ("nb", "max")},
    )

    def keep(t: pa.Table) -> pa.Table:
        return _ngram_keep(t, threshold, max_gram_df)

    return pair_stats.map_batches(keep, batch_format="pyarrow")


def _ngram_keep(t: "pa.Table", threshold: float, max_gram_df: int) -> "pa.Table":
    """Final Jaccard filter for :func:`ngram_jaccard_pairs`; surfaces the
    capped-gram sentinel (id_a == id_b == -1) as a ``UserWarning`` instead
    of silently dropping it."""
    import warnings

    id_a = t["id_a"].to_numpy(zero_copy_only=False)
    id_b = t["id_b"].to_numpy(zero_copy_only=False)
    # The capped-gram sentinel is id_a == id_b == -1 — match it exactly so
    # a corpus that legitimately uses doc_id -1 keeps its real pairs (pair
    # generation emits id_a < id_b, so no real pair can have id_a == id_b).
    sentinel = (id_a == -1) & (id_b == -1)
    if sentinel.any():
        n_capped = int(t["ni"].to_numpy(zero_copy_only=False)[sentinel].sum())
        warnings.warn(
            f"ngram_jaccard_pairs: {n_capped} gram(s) exceeded "
            f"max_gram_df={max_gram_df} and were excluded from pair "
            "generation — |A∩B| is under-counted for pairs sharing those "
            "grams, so near-dup recall is not guaranteed. Raise max_gram_df "
            "or pre-filter stopword grams.",
            stacklevel=2,
        )
        t = t.filter(pa.array(~sentinel))
    ni = t["ni"].to_numpy(zero_copy_only=False).astype(np.float64)
    na = t["na"].to_numpy(zero_copy_only=False)
    nb = t["nb"].to_numpy(zero_copy_only=False)
    mask = ni / (na + nb - ni) >= threshold
    return t.filter(pa.array(mask)).select(["id_a", "id_b"])
