"""Sequential single-process mirrors for the non-SQL-expressible queries.

Same contract as :mod:`.oracle` (which mirrors the tagger pipeline): share
only the LEAF primitives — the string-hash spec, the minhash family, the
tokenizer — and re-derive each pipeline sequentially in plain Python/numpy
with no Ray, no batching, no shuffle machinery. The distributed
implementations (vectorized segmented hashing, 3-round LSH joins, cell
routing, per-batch partial top-k) are then hash-checked against a direct
statement of their semantics, the same way the kg_* tables are checked
against the oracle goldens.

Goldens are frozen per ``MIRROR_VERSION`` under ``/tmp/kgray_mirrors`` and
reused across runs; ``oracle_sql()`` points DuckDB at the frozen parquet.
Every output table is integer-valued, so the driver's value-hash compare
is exact (floats appear only in intermediate similarity math).
"""

from __future__ import annotations

import re
from pathlib import Path

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

MIRROR_VERSION = "v1"
_M64 = (1 << 64) - 1
_BASE = 1099511628211  # FNV-64 prime — stages/shuffle.hash_strings spec


def _fmix64(h: int) -> int:
    """murmur3 finalizer, plain-int spec of the vectorized kernels."""
    h ^= h >> 33
    h = (h * 0xFF51AFD7ED558CCD) & _M64
    h ^= h >> 33
    h = (h * 0xC4CEB9FE1A85EC53) & _M64
    h ^= h >> 33
    return h


def _hash_str(s: str) -> int:
    """Plain-Python statement of ``stages/shuffle.hash_strings``: polynomial
    over utf-8 bytes (base = FNV-64 prime, wrap mod 2^64), fmix64 finalizer,
    empty string -> 0."""
    b = s.encode("utf-8")
    if not b:
        return 0
    h, p = 0, 1
    for byte in b:
        h = (h + byte * p) & _M64
        p = (p * _BASE) & _M64
    return _fmix64(h)


# pc.ascii_split_whitespace's separator class
_ASCII_WS = re.compile("[ \t\r\n\x0b\x0c]+")


def mirror_doc_simhash(doc_ids, texts) -> pa.Table:
    """Mirror of ``stages/textops.simhash_batch``: lowercase, ASCII-ws
    tokens, per-token 64-bit hash, bit-balance sign pack; 0 tokens -> 0."""
    out = []
    cache: dict[str, int] = {}
    for text in texts:
        toks = [t for t in _ASCII_WS.split(text.lower()) if t]
        if not toks:
            out.append(0)
            continue
        acc = np.zeros(64, dtype=np.int64)
        for t in toks:
            h = cache.get(t)
            if h is None:
                h = cache[t] = _hash_str(t)
            for bit in range(64):
                acc[bit] += 1 if (h >> bit) & 1 else -1
        out.append(sum(1 << bit for bit in range(64) if acc[bit] > 0))
    return pa.table({
        "doc_id": pa.array(doc_ids, pa.int64()),
        "simhash": pa.array(out, pa.uint64()),
    })


def mirror_near_dup_minhash(doc_ids, texts, threshold: float = 0.5) -> pa.Table:
    """Mirror of ``stages/dedup.minhash_lsh_pairs`` (verified): band keys
    per doc, per-band pair gen (all pairs up to the dense cap, else a
    sorted-neighborhood window), distinct pairs, true shingle-Jaccard
    verify. Sequential dict-of-bands — no buckets, no joins."""
    from .config import LinkingConfig
    from .functions.minhash import MinHasher, _gram_hashes

    cfg = LinkingConfig(num_hashes=32, num_bands=8, shingle_k=5)
    dense_bucket_cap = 256
    hasher = MinHasher(cfg.num_hashes, cfg.shingle_k)
    bands: dict[str, list[int]] = {}
    sh: dict[int, np.ndarray] = {}
    for doc_id, text in zip(doc_ids, texts):
        low = text.lower()
        sh[doc_id] = np.unique(_gram_hashes(low, cfg.shingle_k))
        for bk in hasher.band_keys(low, cfg.num_bands):
            bands.setdefault(bk, []).append(doc_id)
    pairs: set[tuple[int, int]] = set()
    for ids in bands.values():
        ids = sorted(ids)
        n = len(ids)
        for i in range(n):
            hi = n if n <= dense_bucket_cap else min(i + 1 + cfg.window, n)
            for j in range(i + 1, hi):
                pairs.add((ids[i], ids[j]))
    keep_a, keep_b = [], []
    for a, b in sorted(pairs):
        sa, sb = sh[a], sh[b]
        na, nb = len(sa), len(sb)
        if na == 0 or nb == 0:
            ok = na == nb  # both empty: Jaccard 1 by convention
        else:
            inter = np.intersect1d(sa, sb, assume_unique=True).size
            ok = inter / (na + nb - inter) >= threshold
        if ok:
            keep_a.append(a)
            keep_b.append(b)
    return pa.table({"id_a": pa.array(keep_a, pa.int64()),
                     "id_b": pa.array(keep_b, pa.int64())})


def _norm(m: np.ndarray) -> np.ndarray:
    n = np.linalg.norm(m, axis=1, keepdims=True)
    n[n == 0] = 1.0
    return m / n


def _load_vectors(emb_path: str | Path):
    t = pq.read_table(emb_path, columns=["vec_id", "embedding"])
    ids = t["vec_id"].to_numpy(zero_copy_only=False).astype(np.int64)
    mat = np.array(t["embedding"].to_pylist(), dtype=np.float64)
    order = np.argsort(ids)
    return ids[order], mat[order]


def _centroids(ids: np.ndarray, mat: np.ndarray, n_cells: int) -> np.ndarray:
    """``similarity.deterministic_centroids``: the n_cells smallest vec_ids
    in id order, L2-normalized (ids arrive pre-sorted here)."""
    return _norm(mat[:n_cells])


def mirror_embedding_ivf_pairs(ids, mat, threshold: float = 0.4,
                               n_cells: int = 16) -> pa.Table:
    """Mirror of ``similarity.embedding_near_dup_pairs_ivf``: argmax-cell
    assignment, all in-cell pairs with cosine >= threshold."""
    cents = _centroids(ids, mat, n_cells)
    nm = _norm(mat)
    cells = (nm @ cents.T).argmax(axis=1)
    a_out, b_out = [], []
    for c in range(n_cells):
        member = np.where(cells == c)[0]
        if len(member) < 2:
            continue
        cid = ids[member]
        order = np.argsort(cid)
        cid = cid[order]
        cm = nm[member][order]
        sims = cm @ cm.T
        iu = np.triu_indices(len(cid), k=1)
        keep = sims[iu] >= threshold
        a_out.extend(cid[iu[0][keep]].tolist())
        b_out.extend(cid[iu[1][keep]].tolist())
    return pa.table({"id_a": pa.array(a_out, pa.int64()),
                     "id_b": pa.array(b_out, pa.int64())})


def mirror_doc_mlm(doc_ids, texts, mask_prob: float = 0.15,
                   max_length: int = 512, seed: str = "kgray-mlm") -> pa.Table:
    """Mirror of the ``doc_mlm_batches`` projection over
    ``functions/align.mlm_mask_batch``: per-doc token count (truncated at
    max_length) and the count of positions whose deterministic
    ``fmix64(doc_digest ^ fmix64(pos))`` draw selects them for masking."""
    from .functions.tagger import tokenize_with_offsets

    n_tok_out, n_masked_out = [], []
    for text in texts:
        n_tok = len(tokenize_with_offsets(text)[:max_length])
        tdig = _hash_str(f"{seed}|{text}")
        n_masked = 0
        for pos in range(n_tok):
            d = _fmix64(tdig ^ _fmix64(pos))
            if (d % 10_000) / 10_000.0 < mask_prob:
                n_masked += 1
        n_tok_out.append(n_tok)
        n_masked_out.append(n_masked)
    return pa.table({
        "doc_id": pa.array(doc_ids, pa.int64()),
        "n_tokens": pa.array(n_tok_out, pa.int64()),
        "n_masked": pa.array(n_masked_out, pa.int64()),
    })


def ensure_mirror_goldens(sf_dir: str | Path,
                          root: str = "/tmp/kgray_mirrors") -> Path:
    """Compute (once) and freeze the mirror tables for ``sf_dir``'s
    documents/embeddings; returns the golden directory."""
    import hashlib

    sf_dir = Path(sf_dir)
    # cache key includes the SOURCE tables' identity (size + mtime), so a
    # regenerated documents/embeddings parquet can never be silently
    # compared against goldens frozen from the old corpus bytes
    sig = hashlib.md5()
    for t in ("documents.parquet", "embeddings.parquet"):
        st = (sf_dir / t).stat()
        sig.update(f"{t}:{st.st_size}:{st.st_mtime_ns};".encode())
    d = Path(root) / MIRROR_VERSION / f"{sf_dir.name}-{sig.hexdigest()[:10]}"
    if (d / "_DONE").exists():
        return d
    import tempfile

    from .corpus import atomic_publish

    docs = pq.read_table(sf_dir / "documents.parquet", columns=["doc_id", "text"])
    doc_ids = docs["doc_id"].to_pylist()
    texts = docs["text"].to_pylist()
    ids, mat = _load_vectors(sf_dir / "embeddings.parquet")

    tables = {
        "doc_simhash": mirror_doc_simhash(doc_ids, texts),
        "near_dup_minhash": mirror_near_dup_minhash(doc_ids, texts, threshold=0.5),
        "near_dup_embedding_ivf": mirror_embedding_ivf_pairs(
            ids, mat, threshold=0.4, n_cells=16),
        "doc_mlm_batches": mirror_doc_mlm(doc_ids, texts),
    }
    d.parent.mkdir(parents=True, exist_ok=True)
    tmp = Path(tempfile.mkdtemp(dir=d.parent, prefix=f"{sf_dir.name}.tmp."))
    for name, tbl in tables.items():
        pq.write_table(tbl, tmp / f"{name}.parquet")
    (tmp / "_DONE").write_text("ok")
    atomic_publish(tmp, d)
    return d
