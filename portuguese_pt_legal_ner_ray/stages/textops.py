"""Text-analysis operators over a document table (training-data pipeline ops).

All stateless, vectorized ``map_batches`` transforms using
``pyarrow.compute`` regex-count kernels — no per-row Python in hot paths.
Semantics are written to be replicable in ANSI SQL (DuckDB) so every
operator gets a hash-checked oracle in ``__ray_entry__.oracle_sql``:

* token counting    — # of maximal ``\\S+`` runs (whitespace tokenization)
* quality scoring   — n_chars / n_tokens / n_punct / upper-token count
* language ID       — per-language stopword hit counts, argmax with
  deterministic alphabetical tie-break (n-gram-free heuristic)
* fingerprinting    — md5 of the normalized text (exact-dup key), plus a
  64-bit simhash over whitespace tokens (near-dup key; not SQL-expressible)
"""

from __future__ import annotations

import hashlib

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

# keep in sync with the SQL strings in __ray_entry__.py
PUNCT_PATTERN = r"[.,;:!?]"
TOKEN_PATTERN = r"\S+"
UPPER_TOKEN_PATTERN = r"\b[A-Z][a-z]+\b"

STOPWORDS = {
    "en": ["the", "and", "of", "to", "in", "is", "that", "for"],
    "es": ["el", "la", "de", "que", "los", "las", "una", "por"],
    "de": ["der", "die", "das", "und", "nicht", "ist", "ein", "mit"],
    "fr": ["le", "la", "les", "des", "est", "une", "dans", "pour"],
    "pt": ["o", "a", "os", "as", "do", "da", "em", "para", "não", "uma"],
}


def stopword_regex(lang: str) -> str:
    return r"\b(?:" + "|".join(STOPWORDS[lang]) + r")\b"


def token_count_batch(batch: pa.Table, text_col: str = "text") -> pa.Table:
    return pa.table(
        {
            "doc_id": batch["doc_id"],
            "n_tokens": pc.cast(
                pc.count_substring_regex(batch[text_col], TOKEN_PATTERN), pa.int64()
            ),
        }
    )


def quality_batch(batch: pa.Table, text_col: str = "text") -> pa.Table:
    text = batch[text_col]
    return pa.table(
        {
            "doc_id": batch["doc_id"],
            "n_chars": pc.cast(pc.utf8_length(text), pa.int64()),
            "n_tokens": pc.cast(pc.count_substring_regex(text, TOKEN_PATTERN), pa.int64()),
            "n_punct": pc.cast(pc.count_substring_regex(text, PUNCT_PATTERN), pa.int64()),
            "n_capitalized": pc.cast(
                pc.count_substring_regex(text, UPPER_TOKEN_PATTERN), pa.int64()
            ),
        }
    )


def langid_batch(batch: pa.Table, text_col: str = "text") -> pa.Table:
    """Stopword-hit argmax language ID; ties break alphabetically."""
    lowered = pc.utf8_lower(batch[text_col])
    langs = sorted(STOPWORDS)
    counts = np.stack(
        [
            pc.count_substring_regex(lowered, stopword_regex(l))
            .combine_chunks().to_numpy(zero_copy_only=False)
            for l in langs
        ]
    )  # [lang, row]
    best = counts.argmax(axis=0)  # first max wins == alphabetical tie-break
    pred = np.array(langs, dtype=object)[best]
    return pa.table(
        {
            "doc_id": batch["doc_id"],
            "pred_lang": pa.array(list(pred), pa.string()),
            "n_hits": pa.array(counts.max(axis=0), pa.int64()),
        }
    )


def fingerprint_batch(batch: pa.Table, text_col: str = "text") -> pa.Table:
    """md5 hex of lower(trim(text)) — matches DuckDB md5(lower(trim(text)))."""
    normed = pc.utf8_trim_whitespace(pc.utf8_lower(batch[text_col])).to_pylist()
    return pa.table(
        {
            "doc_id": batch["doc_id"],
            "fingerprint": pa.array(
                [hashlib.md5(s.encode()).hexdigest() for s in normed], pa.string()
            ),
        }
    )


_SHIFTS = np.arange(64, dtype=np.uint64)


def _sign_pack(acc: np.ndarray) -> np.ndarray:
    """[docs, 64] bit-balance matrix -> packed uint64 simhash per doc."""
    return ((acc > 0).astype(np.uint64) << _SHIFTS[None, :]).sum(axis=1, dtype=np.uint64)


def simhash64(tokens: list[str]) -> int:
    """Classic 64-bit simhash over token hashes (process-stable polynomial
    hash shared with the shuffle layer). Scalar reference used by tests;
    the batch path below is the vectorized equivalent."""
    if not tokens:
        return 0
    from .shuffle import hash_strings

    h = hash_strings(pa.array(tokens, pa.string()))
    bits = ((h[:, None] >> _SHIFTS[None, :]) & np.uint64(1)).astype(np.int64)
    acc = (bits * 2 - 1).sum(axis=0)
    return int(_sign_pack(acc[None, :])[0])


def simhash_batch(batch: pa.Table, text_col: str = "text") -> pa.Table:
    """Whole-batch simhash: one Arrow whitespace split + ONE vectorized hash
    pass over every token in the batch + a segmented bit-balance reduce —
    no per-document (let alone per-token) Python in the loop.

    Tokenization is ASCII-whitespace split (exotic unicode spaces stay
    inside tokens): ``utf8_split_whitespace`` proved NONDETERMINISTIC
    across processes on this pyarrow for e.g. NBSP (lazy-init table race,
    found by hypothesis), and a fingerprint must never depend on process
    history."""
    from .shuffle import hash_strings

    n_docs = len(batch)
    toks = pc.ascii_split_whitespace(pc.utf8_lower(batch[text_col])).combine_chunks()
    flat = toks.flatten()
    parents = pc.list_parent_indices(toks).to_numpy(zero_copy_only=False)
    keep = pc.not_equal(flat, "").to_numpy(zero_copy_only=False)  # split artifacts
    h = hash_strings(flat)[keep]
    parents = parents[keep]
    bits = (((h[:, None] >> _SHIFTS[None, :]) & np.uint64(1)).astype(np.int64) * 2) - 1
    counts = np.bincount(parents, minlength=n_docs)
    starts = np.zeros(n_docs, dtype=np.int64)
    np.cumsum(counts[:-1], out=starts[1:])
    # sentinel row so empty-doc segments reduce in-bounds, then masked to 0
    bits = np.vstack([bits, np.zeros((1, 64), dtype=np.int64)])
    acc = np.add.reduceat(bits, starts, axis=0)
    sh = _sign_pack(acc)
    sh[counts == 0] = 0
    return pa.table(
        {
            "doc_id": batch["doc_id"],
            "simhash": pa.array(sh, pa.uint64()),
        }
    )


def top_terms_per_doc(docs, k: int = 3, text_col: str = "text",
                      id_col: str = "doc_id"):
    """Per-document top-``k`` characteristic terms — the tf-idf shape with
    an integer-exact ranking: terms ordered by (term frequency DESC,
    document frequency ASC, term ASC), so frequent-in-this-doc but
    rare-in-the-corpus terms rank first and every comparison is integer /
    string (no float idf to drift against an oracle).

    Distributed shape (all exchanges carry aggregates, never tokens):

    1. token explode — Arrow RE2 ``split_pattern_regex`` on the lowercased
       text (offset-aware kernels; boundary empties filtered) == RE2
       ``\\S+`` extraction, the oracle's tokenizer;
    2. ``grouped_count(doc, term)`` -> per-doc term frequencies (combiner
       shuffle, one row per distinct (doc, term));
    3. ``grouped_count(term)`` over those rows -> document frequencies
       (rows are already distinct per doc, so a plain count IS the df);
    4. ``hash_join`` df back onto tf (vocabulary-scale side — a broadcast
       would not hold at web scale);
    5. per-doc top-k: per-batch combiner head-k, then doc-bucketed final
       head-k — one vectorized pandas pass per sorted block of buckets.
    """
    import pandas as pd

    from .joins import hash_join
    from .shuffle import exchange, grouped_count

    def explode(batch: pa.Table) -> pa.Table:
        toks = pc.split_pattern_regex(
            pc.utf8_lower(batch[text_col]), pattern=r"\s+")
        flat = pc.list_flatten(toks)
        doc_ids = pc.take(batch[id_col], pc.list_parent_indices(toks))
        t = pa.table({id_col: doc_ids, "term": flat})
        return t.filter(pc.not_equal(t["term"], ""))

    tf = grouped_count(docs.select_columns([id_col, text_col])
                       .map_batches(explode, batch_format="pyarrow"),
                       [id_col, "term"], alias="tf")
    df = grouped_count(tf.select_columns(["term"]), ["term"], alias="df")
    joined = hash_join(tf, df, key="term")

    sort_cols = [id_col, "tf", "df", "term"]
    ascending = [True, False, True, True]

    def head_k(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(sort_cols, ascending=ascending, kind="stable")
        return g.groupby(id_col, sort=False).head(k)[[id_col, "term", "tf", "df"]]

    return exchange(joined.map_batches(head_k, batch_format="pandas"),  # combiner
                    [id_col], head_k, batch_format="pandas")
