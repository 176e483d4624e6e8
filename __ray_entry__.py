"""Driver contract for the graft builder (Ray Data target).

``entry()`` runs the flagship KG pipeline on the sf0.001 synthetic web-pages
corpus. ``queries()`` exposes every implemented operator/pipeline from
SURVEY.md §2 plus the training-data ops (dedup, similarity search, text
analysis, windows, multimodal); ``oracle_sql()`` gives DuckDB-checkable SQL
for each SQL-expressible entry. The web-pages corpus and the single-process
oracle goldens are synthesized deterministically under /tmp (TESTDATA.md
tables carry no html column, so the input_hint table is generated per
BASELINE.json; the `documents`/`embeddings`/`events` testdata tables back
the training-data ops).

Ray is initialised by the driver BEFORE this module is imported: nothing
here calls ``ray.init()`` / ``ray.shutdown()``.
"""

from __future__ import annotations

import re
from collections.abc import Callable
from pathlib import Path
from typing import Any

_KG_RUN_ROOT = "/tmp/kgray_runs"
_ANN_QUERY_IDS = [0, 1, 2, 3, 4]
# RE2-unicode equivalent of the tagger's  \w+|[^\w\s]  tokenizer (DuckDB
# regexp_* is RE2, whose \w is ASCII-only; \pL\pN covers the corpus's
# accented Latin) — used by the kg_confusion_tokens oracle
_TOK_RE2 = r"[\pL\pN_]+|[^\pL\pN_\s]"


def _sf_of(sf_dir: str) -> float:
    m = re.search(r"sf([0-9.]+)", str(sf_dir))
    return float(m.group(1)) if m else 0.01


def _kg_out(sf: float) -> Path:
    """Run (or resume) the KG pipeline for this scale; cached across calls."""
    from portuguese_pt_legal_ner_ray.corpus import CORPUS_VERSION, ensure_webpages
    from portuguese_pt_legal_ner_ray.pipelines.kg import run_kg_pipeline

    d = ensure_webpages(sf)
    out = Path(_KG_RUN_ROOT) / CORPUS_VERSION / f"sf{sf:g}"
    run_kg_pipeline(d / "webpages", out, num_partitions=8)
    return out


def _corpus_paths(sf: float) -> dict[str, str]:
    from portuguese_pt_legal_ner_ray.corpus import corpus_dir

    d = corpus_dir(sf)
    return {
        "webpages": f"{d}/webpages/part-*.parquet",
        "golden": f"{d}/golden",
    }


def entry() -> Any:
    """Flagship: full KG construction at sf0.001 -> triples Dataset."""
    from portuguese_pt_legal_ner_ray.sources.parquet import sized_read_parquet

    out = _kg_out(0.001)
    return sized_read_parquet(str(out / "graph" / "triples"))


# ---------------------------------------------------------------------------
# queries
# ---------------------------------------------------------------------------


def queries() -> dict[str, Callable[[str], Any]]:
    import ray

    from portuguese_pt_legal_ner_ray.stages import textops
    from portuguese_pt_legal_ner_ray.stages.dedup import (
        exact_dedup,
        minhash_lsh_pairs,
    )
    from portuguese_pt_legal_ner_ray.stages.similarity import (
        brute_force_topk,
        make_query_ref,
    )
    from portuguese_pt_legal_ner_ray.stages.windows import sessionize, tumbling_window
    from portuguese_pt_legal_ner_ray.sources.multimodal import (
        decode_images,
        ensure_media_table,
    )

    from portuguese_pt_legal_ner_ray.sources.parquet import sized_read_parquet

    def _docs(sf_dir: str, wide: bool = False):
        # byte-budgeted block count: the doc ops downstream are shuffle-bound
        # (dedup joins, groupbys) and the default read over-splits this
        # table. ``wide=True`` floors blocks at the CPU count instead — for
        # COMPUTE-heavy map-only consumers (simhash's per-token reduce, the
        # O(n²) char-jaccard scan), where map parallelism beats low shuffle
        # overhead (doc_simhash measured 0.8 s at 64 blocks vs 2.2 s at 8).
        min_blocks = 1
        if wide:
            min_blocks = max(8, int(ray.cluster_resources().get("CPU", 8)))
        return sized_read_parquet(f"{sf_dir}/documents.parquet",
                                  columns=["doc_id", "text"],
                                  min_blocks=min_blocks)

    def _events(sf_dir: str):
        return sized_read_parquet(f"{sf_dir}/events.parquet")

    def _graph_tbl(name: str):
        def fn(sf_dir: str):
            out = _kg_out(_sf_of(sf_dir))
            return sized_read_parquet(str(out / "graph" / name))

        return fn

    def kg_extract_text(sf_dir: str):
        out = _kg_out(_sf_of(sf_dir))
        return sized_read_parquet(str(out / "extracted"), columns=["url", "text"])

    def kg_paragraphs(sf_dir: str):
        out = _kg_out(_sf_of(sf_dir))
        return sized_read_parquet(str(out / "extraction"),
                                  columns=["url", "para_idx", "para_text"])

    def kg_span_label_counts(sf_dir: str):
        import pyarrow as pa

        out = _kg_out(_sf_of(sf_dir))
        ds = sized_read_parquet(str(out / "graph" / "spans"), columns=["label"])
        return ds.groupby("label").count().map_batches(
            lambda t: pa.table({"label": t["label"], "n_spans": t["count()"]}),
            batch_format="pyarrow",
        )

    def kg_triple_pr(sf_dir: str):
        """North-rule metric: engine (subj,pred,obj) set P/R vs oracle goldens."""
        import pandas as pd
        import pyarrow.dataset as pads

        sf = _sf_of(sf_dir)
        from portuguese_pt_legal_ner_ray.oracle import ensure_goldens

        gdir = ensure_goldens(sf)
        out = _kg_out(sf)
        g = pads.dataset(str(Path(gdir) / "triples.parquet")).to_table()
        want = set(zip(g["subj"].to_pylist(), g["pred"].to_pylist(), g["obj"].to_pylist()))
        import pyarrow as pa

        def partial(batch: pa.Table, want_ref) -> pa.Table:
            got = set(zip(batch["subj"].to_pylist(), batch["pred"].to_pylist(),
                          batch["obj"].to_pylist()))
            return pa.table({"tp": pa.array([len(got & ray.get(want_ref))], pa.int64()),
                             "n_got": pa.array([len(got)], pa.int64())})

        triples = sized_read_parquet(str(out / "graph" / "triples"),
                                     columns=["subj", "pred", "obj"])
        # distinct first so per-batch partial sets can be summed exactly
        # (bucketed combiner shuffle — Ray's native groupby pays
        # per-distinct-key cost in its sort reduce; see stages/shuffle.py)
        from portuguese_pt_legal_ner_ray.stages.shuffle import grouped_count

        distinct = grouped_count(triples, ["subj", "pred", "obj"])
        parts = distinct.map_batches(
            partial, batch_format="pyarrow",
            fn_kwargs=dict(want_ref=ray.put(want))).to_pandas()
        tp, n_got = int(parts["tp"].sum()), int(parts["n_got"].sum())
        n_want = len(want)
        precision = tp / max(1, n_got)
        recall = tp / max(1, n_want)
        f1 = 2 * precision * recall / max(1e-12, precision + recall)
        return pd.DataFrame(
            [{"tp": tp, "fp": n_got - tp, "fn": n_want - tp,
              "precision": precision, "recall": recall, "f1": f1}]
        )

    def doc_token_counts(sf_dir: str):
        return _docs(sf_dir).map_batches(textops.token_count_batch, batch_format="pyarrow")

    def doc_quality(sf_dir: str):
        """Per-doc quality metrics PLUS the keep/drop verdict of the
        standard quality gate (n_tokens >= 30 and n_punct <= 10) — one
        hash check covers both the metric kernels and the filter
        predicate (consolidated with the former doc_quality_filter)."""
        import pyarrow as pa
        import pyarrow.compute as pc

        def with_keep(batch: pa.Table) -> pa.Table:
            q = textops.quality_batch(batch)
            keep = pc.and_(
                pc.greater_equal(q["n_tokens"], 30),
                pc.less_equal(q["n_punct"], 10),
            )
            return q.append_column("keep", pc.cast(keep, pa.bool_()))

        return _docs(sf_dir).map_batches(with_keep, batch_format="pyarrow")

    def doc_langid(sf_dir: str):
        return _docs(sf_dir).map_batches(textops.langid_batch, batch_format="pyarrow")

    def doc_fingerprint(sf_dir: str):
        return _docs(sf_dir).map_batches(textops.fingerprint_batch, batch_format="pyarrow")

    def doc_simhash(sf_dir: str):
        return _docs(sf_dir, wide=True).map_batches(textops.simhash_batch,
                                                    batch_format="pyarrow")

    def dedup_exact_docs(sf_dir: str):
        return exact_dedup(_docs(sf_dir))

    def near_dup_minhash(sf_dir: str):
        docs = _docs(sf_dir)
        # join-based verify: candidate pairs are hash-joined back to their
        # texts — no driver materialization, no whole-corpus broadcast
        return minhash_lsh_pairs(docs, threshold=0.5, verify_docs=docs)

    def near_dup_ngram(sf_dir: str):
        """Exact word-trigram Jaccard pairs via the distributed
        gram-inverted index (2 shuffle rounds)."""
        from portuguese_pt_legal_ner_ray.stages.dedup import ngram_jaccard_pairs

        return ngram_jaccard_pairs(_docs(sf_dir), threshold=0.4, n=3)

    def ann_cosine_topk(sf_dir: str):
        vecs = sized_read_parquet(f"{sf_dir}/embeddings.parquet",
                                  columns=["vec_id", "embedding"])
        qref = make_query_ref(vecs, _ANN_QUERY_IDS)
        return brute_force_topk(vecs, qref, k=10)

    def docs_approx_distinct(sf_dir: str):
        """KMV sketch with k >= cardinality degrades to exact -> SQL-checkable."""
        import pandas as pd

        from portuguese_pt_legal_ner_ray.stages.sketches import approx_distinct

        est = approx_distinct(_docs(sf_dir), "text", k=65536)
        return pd.DataFrame([{"n_distinct": est}])

    def near_dup_embedding(sf_dir: str):
        from portuguese_pt_legal_ner_ray.stages.similarity import (
            embedding_near_dup_pairs,
        )

        # the O(n^2) all-pairs scan is compute-bound per block: floor the
        # block count at the CPU width (cf. _docs(wide=True))
        vecs = sized_read_parquet(
            f"{sf_dir}/embeddings.parquet", columns=["vec_id", "embedding"],
            min_blocks=max(8, int(ray.cluster_resources().get("CPU", 8))))
        return embedding_near_dup_pairs(vecs, threshold=0.4)

    def near_dup_embedding_ivf(sf_dir: str):
        from portuguese_pt_legal_ner_ray.stages.similarity import (
            embedding_near_dup_pairs_ivf,
        )

        vecs = sized_read_parquet(f"{sf_dir}/embeddings.parquet",
                                  columns=["vec_id", "embedding"])
        return embedding_near_dup_pairs_ivf(vecs, threshold=0.4, n_cells=16)

    def ann_ivf_index_topk(sf_dir: str):
        """Persisted cell-partitioned IVF index at FULL probe: builds the
        on-disk index (stages/similarity.ivf_build — one streamed
        assignment pass, hive-partitioned by cell), then answers from it
        with nprobe = n_cells, which is exactly brute force — so the exact
        cosine-top-k SQL oracle hash-checks the whole build+query path
        (partition routing, cell ids, probed-partition read, scoring).
        Sublinear partial-probe behavior is covered by
        test_ivf_index_build_query_prunes_io and scripts/ivf_scaling.py."""
        import hashlib

        from portuguese_pt_legal_ner_ray.stages.similarity import (
            ivf_build,
            ivf_query,
        )

        src = Path(sf_dir) / "embeddings.parquet"
        vecs = sized_read_parquet(str(src),
                                  columns=["vec_id", "embedding"])
        qref = make_query_ref(vecs, _ANN_QUERY_IDS)
        # ONE index per (corpus identity, n_cells), reused across runs: a
        # fresh mkdtemp per call leaked a full embeddings copy under /tmp on
        # every bench/gate invocation. Signature-keyed dirs are immutable
        # once published (ivf_build publishes atomically and we never
        # rebuild a valid one), so concurrent runs can share them safely —
        # the returned Dataset reads the partitions lazily.
        st = src.stat()
        sig = hashlib.sha256(
            f"{src}:{st.st_size}:{st.st_mtime_ns}:n_cells=16".encode()
        ).hexdigest()[:16]
        index_dir = Path("/tmp/kgray_ivf_cache") / sig
        if not (index_dir / "centroids.npy").exists():
            if index_dir.exists():
                # our own cache namespace: a sig-dir without the
                # completeness marker is garbage (e.g. hand-copied) — clear
                # it rather than let ivf_build's prior-index guard refuse it
                import shutil

                shutil.rmtree(index_dir)
            ivf_build(vecs, index_dir, n_cells=16)
        return ivf_query(index_dir, qref, k=10, nprobe=16)

    def doc_mlm_batches(sf_dir: str):
        """M5: MLM tokenize + deterministic 15% / 80-10-10 collator masking
        (per-row stats projected so the rows-only check can hash them; the
        raw padded input_ids/labels layout is pytest-covered)."""
        import pyarrow as pa
        import pyarrow.compute as pc

        from portuguese_pt_legal_ner_ray.functions.align import IGNORE_ID, mlm_mask_batch

        def op(t: pa.Table) -> pa.Table:
            out = mlm_mask_batch(t)
            att = out["attention_mask"].to_pylist()
            lab = out["labels"].to_pylist()
            return pa.table({
                "doc_id": t["doc_id"],
                "n_tokens": pa.array([sum(a) for a in att], pa.int64()),
                "n_masked": pa.array(
                    [sum(1 for x in row if x != IGNORE_ID) for row in lab], pa.int64()),
            })

        return _docs(sf_dir).map_batches(op, batch_format="pyarrow")

    def orders_price_quantiles(sf_dir: str):
        """Distributed exact quantiles (value-histogram shuffle)."""
        from portuguese_pt_legal_ner_ray.stages.sketches import histogram_quantiles

        orders = sized_read_parquet(f"{sf_dir}/orders.parquet",
                                     columns=["o_totalprice"])
        return histogram_quantiles(orders, "o_totalprice", [0.25, 0.5, 0.75, 0.9])

    def orders_price_quantiles_sketch(sf_dir: str):
        """Exact quantiles via the mergeable binned sketch (fixed-width
        binning + exact refinement, stages/sketches.binned_quantiles) — the
        scale path for UNBOUNDED-cardinality continuous columns where the
        value-histogram exchange of histogram_quantiles degenerates to one
        row per input row. Exact under quantile_disc, so it hash-checks
        against the same SQL rule (VERDICT r4 #6)."""
        from portuguese_pt_legal_ner_ray.stages.sketches import binned_quantiles

        orders = sized_read_parquet(f"{sf_dir}/orders.parquet",
                                    columns=["o_totalprice"])
        return binned_quantiles(orders, "o_totalprice",
                                [0.25, 0.5, 0.75, 0.9, 0.99])

    def doc_top_terms(sf_dir: str):
        """tf-idf-shaped per-doc top terms (integer-exact ranking):
        token explode -> tf/df combiner shuffles -> hash_join -> per-doc
        top-k — stages/textops.py."""
        return textops.top_terms_per_doc(_docs(sf_dir), k=3)

    def orders_quantiles_per_priority(sf_dir: str):
        """Exact per-group quantiles: one (group, value)-histogram combiner
        shuffle, then group-bucketed rank picks — stages/sketches.py."""
        from portuguese_pt_legal_ner_ray.stages.sketches import grouped_quantiles

        orders = sized_read_parquet(
            f"{sf_dir}/orders.parquet",
            columns=["o_orderpriority", "o_totalprice"])
        return grouped_quantiles(orders, ["o_orderpriority"], "o_totalprice",
                                 [0.25, 0.5, 0.9])

    def events_heavy_hitters(sf_dir: str):
        """Count-min heavy hitters; width >> cardinality -> exact, SQL-checkable."""
        from portuguese_pt_legal_ner_ray.stages.sketches import heavy_hitters

        ev = sized_read_parquet(f"{sf_dir}/events.parquet", columns=["event_type"])
        return heavy_hitters(ev, "event_type", k=10, width=4096)

    def events_distinct_users_per_type(sf_dir: str):
        """Exact grouped COUNT DISTINCT: two bucketed combiner shuffles
        (distinct pairs, then a count per group) — stages/shuffle.py."""
        from portuguese_pt_legal_ner_ray.stages.shuffle import (
            grouped_count_distinct,
        )

        ev = sized_read_parquet(f"{sf_dir}/events.parquet",
                                columns=["event_type", "user_id"])
        return grouped_count_distinct(ev, ["event_type"], "user_id")

    def rel_customers_without_orders(sf_dir: str):
        """Distributed anti equi-join (SQL NOT EXISTS): bucketed exchange,
        probe side pre-filtered at the read and shipped as per-batch-distinct
        keys only — stages/joins.py. Predicate (no order above 400k) keeps
        the result non-degenerate at every testdata scale."""
        import pyarrow.compute as _pc

        from portuguese_pt_legal_ner_ray.stages.joins import hash_anti_join

        def big_order_keys(t):
            return t.filter(
                _pc.greater(t["o_totalprice"], 400_000.0)
            ).select(["o_custkey"]).rename_columns(["c_custkey"])

        cust = sized_read_parquet(f"{sf_dir}/customer.parquet",
                                  columns=["c_custkey"])
        orders = sized_read_parquet(
            f"{sf_dir}/orders.parquet", columns=["o_custkey", "o_totalprice"]
        ).map_batches(big_order_keys, batch_format="pyarrow")
        return hash_anti_join(cust, orders, key="c_custkey")

    def events_running_total(sf_dir: str):
        """Ordered analytic window (SUM OVER PARTITION BY ... ORDER BY):
        key-bucketed exchange + one vectorized cumsum per sorted block."""
        from portuguese_pt_legal_ner_ray.stages.windows import cumulative_window

        return cumulative_window(_events(sf_dir))

    def events_tumbling_hour(sf_dir: str):
        return tumbling_window(_events(sf_dir))

    def events_sessionize(sf_dir: str):
        return sessionize(_events(sf_dir))

    def kg_prediction_counts(sf_dir: str):
        """Per-paragraph prediction-record shape (reference JSONL output)."""
        import pyarrow as pa
        import pyarrow.compute as pc

        out = _kg_out(_sf_of(sf_dir))

        def counts(batch: pa.Table) -> pa.Table:
            return pa.table(
                {
                    "url": batch["url"],
                    "para_idx": batch["para_idx"],
                    "n_labels": pc.cast(
                        pc.list_value_length(batch["spans"]), pa.int64()
                    ),
                }
            )

        return sized_read_parquet(
            str(out / "extraction"), columns=["url", "para_idx", "spans"]
        ).map_batches(counts, batch_format="pyarrow")

    def dedup_apply_docs(sf_dir: str):
        from portuguese_pt_legal_ner_ray.stages.dedup import dedup_apply

        return dedup_apply(_docs(sf_dir))

    def _spans_pair(sf_dir: str):
        from portuguese_pt_legal_ner_ray.oracle import ensure_goldens

        sf = _sf_of(sf_dir)
        gdir = ensure_goldens(sf)
        out = _kg_out(sf)
        pred = sized_read_parquet(str(out / "graph" / "spans"))
        gold = sized_read_parquet(str(Path(gdir) / "spans.parquet"))
        return pred, gold

    def kg_span_eval(sf_dir: str):
        from portuguese_pt_legal_ner_ray.stages.evalx import span_eval

        return span_eval(*_spans_pair(sf_dir))

    from portuguese_pt_legal_ner_ray.stages import relational

    def rel_customers_per_region(sf_dir: str):
        return relational.customers_per_region(sf_dir)

    def rel_orders_per_nation(sf_dir: str):
        return relational.orders_per_nation(sf_dir)

    def rel_top_orders(sf_dir: str):
        return relational.top_orders(sf_dir)

    def rel_lineitem_summary(sf_dir: str):
        return relational.lineitem_summary(sf_dir)

    def rel_lineitems_per_supplier_nation(sf_dir: str):
        return relational.lineitems_per_supplier_nation(sf_dir)

    def rel_top_parts_per_brand(sf_dir: str):
        return relational.top_parts_per_brand(sf_dir)

    def rel_returned_lineitems_by_order_line(sf_dir: str):
        """Composite-key (l_orderkey, l_linenumber) hash_join — the pair is
        lineitem's unique key, so routing must hash the TUPLE (VERDICT r4
        #3); stages/relational.returned_lineitems_by_order_line."""
        return relational.returned_lineitems_by_order_line(sf_dir)

    def docs_longest_per_lang(sf_dir: str):
        return relational.longest_doc_per_lang(sf_dir)

    def docs_hash_split(sf_dir: str):
        return relational.hash_split(_docs(sf_dir))

    def events_sliding_hour(sf_dir: str):
        from portuguese_pt_legal_ner_ray.stages.windows import sliding_window

        return sliding_window(_events(sf_dir))

    def events_asof_purchase(sf_dir: str):
        from portuguese_pt_legal_ner_ray.stages.windows import asof_last_event

        return asof_last_event(_events(sf_dir))

    def media_resize(sf_dir: str):
        from portuguese_pt_legal_ner_ray.sources.multimodal import resize_metadata

        path = ensure_media_table(500)
        return resize_metadata(decode_images(sized_read_parquet(str(path))))

    def media_audio_resample(sf_dir: str):
        from portuguese_pt_legal_ner_ray.sources.multimodal import (
            decode_audio,
            resample_plan,
        )

        path = ensure_media_table(500)
        return resample_plan(decode_audio(sized_read_parquet(str(path))))

    def kg_confusion(sf_dir: str):
        from portuguese_pt_legal_ner_ray.stages.evalx import confusion_matrix

        return confusion_matrix(*_spans_pair(sf_dir))

    def kg_confusion_tokens(sf_dir: str):
        """Token-level O-inclusive confusion (reference src/training.py:196-208
        flattens all tag sequences including O)."""
        from portuguese_pt_legal_ner_ray.stages.evalx import token_confusion

        pred, gold = _spans_pair(sf_dir)
        out = _kg_out(_sf_of(sf_dir))
        paras = sized_read_parquet(str(out / "extraction"), columns=["para_text"])
        return token_confusion(pred, gold, paras)

    # REGISTRY CONTRACT: exactly <= 50 entries, so the driver's 50-query
    # CORRECTNESS window hash-checks EVERY registered operator every round
    # (VERDICT r4 #1 — 6 green queries previously fell outside the window).
    # Consolidations (operator coverage unchanged, see COVERAGE.md):
    #  - doc_quality now also emits the quality-gate `keep` verdict
    #    (absorbed doc_quality_filter);
    #  - media_resize / media_audio_resample pass decode metadata through,
    #    so each hash check covers the full decode -> plan chain (absorbed
    #    media_decode / media_audio_decode; decode stages keep their own
    #    pytest parity tests);
    #  - near_dup_char_jaccard (guarded O(n^2) oracle baseline),
    #    docs_top10_longest + lang_histogram (sort/limit + grouped-count
    #    shapes already hash-checked via rel_top_orders / kg_span_label_
    #    counts et al.) and rel_parts_per_brand (plain grouped count) moved
    #    to pytest-only coverage.
    return {
        "kg_extract_text": kg_extract_text,
        "kg_paragraphs": kg_paragraphs,
        "kg_spans": _graph_tbl("spans"),
        "kg_triples": _graph_tbl("triples"),
        "kg_nodes": _graph_tbl("nodes"),
        "kg_edges": _graph_tbl("edges"),
        "kg_span_label_counts": kg_span_label_counts,
        "kg_triple_pr": kg_triple_pr,
        "doc_token_counts": doc_token_counts,
        "doc_quality": doc_quality,
        "doc_langid": doc_langid,
        "doc_fingerprint": doc_fingerprint,
        "doc_simhash": doc_simhash,
        "dedup_exact_docs": dedup_exact_docs,
        "near_dup_minhash": near_dup_minhash,
        "near_dup_ngram": near_dup_ngram,
        "near_dup_embedding": near_dup_embedding,
        "near_dup_embedding_ivf": near_dup_embedding_ivf,
        "docs_approx_distinct": docs_approx_distinct,
        "ann_cosine_topk": ann_cosine_topk,
        "ann_ivf_index_topk": ann_ivf_index_topk,
        "doc_mlm_batches": doc_mlm_batches,
        "orders_price_quantiles": orders_price_quantiles,
        "orders_price_quantiles_sketch": orders_price_quantiles_sketch,
        "events_heavy_hitters": events_heavy_hitters,
        "doc_top_terms": doc_top_terms,
        "orders_quantiles_per_priority": orders_quantiles_per_priority,
        "events_running_total": events_running_total,
        "events_distinct_users_per_type": events_distinct_users_per_type,
        "rel_customers_without_orders": rel_customers_without_orders,
        "events_tumbling_hour": events_tumbling_hour,
        "events_sessionize": events_sessionize,
        "kg_prediction_counts": kg_prediction_counts,
        "dedup_apply_docs": dedup_apply_docs,
        "kg_span_eval": kg_span_eval,
        "kg_confusion": kg_confusion,
        "kg_confusion_tokens": kg_confusion_tokens,
        "rel_customers_per_region": rel_customers_per_region,
        "rel_orders_per_nation": rel_orders_per_nation,
        "rel_top_orders": rel_top_orders,
        "rel_lineitem_summary": rel_lineitem_summary,
        "rel_lineitems_per_supplier_nation": rel_lineitems_per_supplier_nation,
        "rel_top_parts_per_brand": rel_top_parts_per_brand,
        "rel_returned_lineitems_by_order_line": rel_returned_lineitems_by_order_line,
        "docs_longest_per_lang": docs_longest_per_lang,
        "docs_hash_split": docs_hash_split,
        "events_sliding_hour": events_sliding_hour,
        "events_asof_purchase": events_asof_purchase,
        "media_resize": media_resize,
        "media_audio_resample": media_audio_resample,
    }


# ---------------------------------------------------------------------------
# oracle SQL (DuckDB; runs at sf=0.01)
# ---------------------------------------------------------------------------


def oracle_sql() -> dict[str, str]:
    import os

    from portuguese_pt_legal_ner_ray.oracle import ensure_goldens
    from portuguese_pt_legal_ner_ray.sources.multimodal import ensure_media_table
    from portuguese_pt_legal_ner_ray.stages.textops import (
        PUNCT_PATTERN,
        STOPWORDS,
        TOKEN_PATTERN,
        UPPER_TOKEN_PATTERN,
        stopword_regex,
    )

    # the driver contract compares at sf0.01; KGRAY_ORACLE_SF lets
    # scripts/driver_sim.py validate the kg oracles at other scales too
    sf = float(os.environ.get("KGRAY_ORACLE_SF", "0.01"))
    ensure_goldens(sf)  # goldens are the independent single-process oracle
    p = _corpus_paths(sf)
    media = ensure_media_table(500)
    # sequential plain-Python mirrors for the non-SQL-expressible queries
    # (minhash LSH, simhash, IVF, MLM) — frozen parquet the SQL just reads,
    # same pattern as the kg_* goldens above
    from portuguese_pt_legal_ner_ray.oracle_mirrors import ensure_mirror_goldens

    _td = Path(f"/root/testdata/sf{sf:g}")
    if (_td / "documents.parquet").exists():
        mir = ensure_mirror_goldens(_td)
    else:
        # scale-revalidation dirs (e.g. /tmp/sf1.0) synthesize only the
        # webpages corpus — the documents/embeddings mirror oracles are
        # undefined there; their SQL then points at a non-existent path and
        # fails ONLY if one of those queries is explicitly selected
        mir = _td / "mirrors-unavailable"
    from portuguese_pt_legal_ner_ray.corpus import CORPUS_VERSION as _CV

    # the engine run directory for this sf — the kg_triple_pr QUERY builds
    # it (driver runs each query before its oracle), the SQL only reads it
    run = Path(_KG_RUN_ROOT) / _CV / f"sf{sf:g}"

    langs = sorted(STOPWORDS)
    hit_cols = ",\n    ".join(
        f"len(regexp_extract_all(lower(text), '{stopword_regex(l)}')) AS hits_{l}"
        for l in langs
    )
    greatest = "greatest(" + ", ".join(f"hits_{l}" for l in langs) + ")"
    lang_case = "CASE " + greatest + " " + " ".join(
        f"WHEN hits_{l} THEN '{l}'" for l in langs[:-1]
    ) + f" ELSE '{langs[-1]}' END"

    return {
        "kg_extract_text": f"SELECT url, text FROM read_parquet('{p['webpages']}')",
        "kg_paragraphs": f"""
            WITH ex AS (
              SELECT url,
                     unnest(string_split(text, chr(10))) AS raw,
                     generate_subscripts(string_split(text, chr(10)), 1) AS i
              FROM read_parquet('{p['webpages']}'))
            SELECT url,
                   CAST(row_number() OVER (PARTITION BY url ORDER BY i) - 1 AS INT) AS para_idx,
                   trim(raw) AS para_text
            FROM ex WHERE trim(raw) <> ''
        """,
        "kg_spans": f"""SELECT url, para_idx, "start", "end", label, surface
                        FROM read_parquet('{p['golden']}/spans.parquet')""",
        "kg_triples": f"""SELECT subj, pred, obj, subj_label, obj_label, url, para_idx
                          FROM read_parquet('{p['golden']}/triples.parquet')""",
        "kg_nodes": f"""SELECT entity_id, canonical_surface, label, n_mentions
                        FROM read_parquet('{p['golden']}/nodes.parquet')""",
        "kg_edges": f"""SELECT subj_id, pred, obj_id, weight
                        FROM read_parquet('{p['golden']}/edges.parquet')""",
        "kg_span_label_counts": f"""SELECT label, count(*) AS n_spans
                                    FROM read_parquet('{p['golden']}/spans.parquet')
                                    GROUP BY label""",
        # independent recomputation of the north-rule metric: join the
        # ENGINE's distinct triple set (run output parquet) against the
        # golden triples and rebuild tp/fp/fn + P/R/F1 in SQL — checks the
        # engine's distributed partial-set metric reduction
        "kg_triple_pr": f"""
            WITH got AS (SELECT DISTINCT subj, pred, obj
                         FROM read_parquet('{run}/graph/triples/part=*/*.parquet')),
                 want AS (SELECT DISTINCT subj, pred, obj
                          FROM read_parquet('{p['golden']}/triples.parquet')),
                 m AS (SELECT
                   (SELECT count(*) FROM got JOIN want USING (subj, pred, obj)) AS tp,
                   (SELECT count(*) FROM got) AS n_got,
                   (SELECT count(*) FROM want) AS n_want)
            SELECT tp,
                   n_got - tp AS fp,
                   n_want - tp AS fn,
                   CAST(tp AS DOUBLE) / greatest(1, n_got) AS "precision",
                   CAST(tp AS DOUBLE) / greatest(1, n_want) AS recall,
                   2 * (CAST(tp AS DOUBLE) / greatest(1, n_got))
                     * (CAST(tp AS DOUBLE) / greatest(1, n_want))
                     / greatest(1e-12,
                                CAST(tp AS DOUBLE) / greatest(1, n_got)
                                + CAST(tp AS DOUBLE) / greatest(1, n_want)) AS f1
            FROM m""",
        "doc_token_counts": f"""SELECT doc_id,
                   len(regexp_extract_all(text, '{TOKEN_PATTERN}')) AS n_tokens
            FROM documents""",
        "doc_quality": f"""
            SELECT doc_id, n_chars, n_tokens, n_punct, n_capitalized,
                   (n_tokens >= 30 AND n_punct <= 10) AS keep
            FROM (
              SELECT doc_id,
                     length(text) AS n_chars,
                     len(regexp_extract_all(text, '{TOKEN_PATTERN}')) AS n_tokens,
                     len(regexp_extract_all(text, '{PUNCT_PATTERN}')) AS n_punct,
                     len(regexp_extract_all(text, '{UPPER_TOKEN_PATTERN}')) AS n_capitalized
              FROM documents)""",
        "doc_langid": f"""
            WITH h AS (SELECT doc_id, {hit_cols} FROM documents)
            SELECT doc_id, {lang_case} AS pred_lang, {greatest} AS n_hits FROM h""",
        "doc_fingerprint": "SELECT doc_id, md5(lower(trim(text))) AS fingerprint FROM documents",
        "dedup_exact_docs": """SELECT text, min(doc_id) AS keep_id, count(*) AS n_dups
                               FROM documents GROUP BY text""",
        # word-trigram Jaccard: tokens = runs of non-whitespace where the
        # whitespace class is the RE2 spelling of PYTHON str.split()'s
        # Unicode set — \s (ASCII) + \p{Z} separators + U+001C-1F + U+0085.
        # Validated exhaustively over all codepoints (both directions) like
        # _TOK_RE2; plain \S+ would diverge on NBSP/U+2028-style whitespace.
        # Distinct 3-gram sets per doc, |A n B| by gram self-join, Jaccard
        # from set sizes.
        "near_dup_ngram": r"""
            WITH t AS (SELECT doc_id,
                              regexp_extract_all(
                                lower(text),
                                '[^\s\p{Z}\x{1c}-\x{1f}\x{85}]+') AS w
                       FROM documents),
            u AS (SELECT doc_id, unnest(w) AS tok,
                         generate_subscripts(w, 1) AS i FROM t),
            g AS (SELECT a.doc_id, a.tok || ' ' || b.tok || ' ' || c.tok AS gram
                  FROM u a
                  JOIN u b ON a.doc_id = b.doc_id AND b.i = a.i + 1
                  JOIN u c ON a.doc_id = c.doc_id AND c.i = a.i + 2),
            gd AS (SELECT DISTINCT doc_id, gram FROM g),
            sz AS (SELECT doc_id, count(*) AS n FROM gd GROUP BY doc_id),
            inter AS (SELECT x.doc_id AS ia, y.doc_id AS ib, count(*) AS ni
                      FROM gd x JOIN gd y ON x.gram = y.gram
                                         AND x.doc_id < y.doc_id
                      GROUP BY 1, 2)
            SELECT ia AS id_a, ib AS id_b FROM inter
            JOIN sz a ON a.doc_id = ia
            JOIN sz b ON b.doc_id = ib
            WHERE CAST(ni AS DOUBLE) / (a.n + b.n - ni) >= 0.4""",
        # sequential plain-Python mirrors (oracle_mirrors.py), frozen per
        # MIRROR_VERSION — the SQL reads the golden parquet like kg_* does
        "doc_simhash": f"SELECT * FROM read_parquet('{mir}/doc_simhash.parquet')",
        "near_dup_minhash": f"""
            SELECT * FROM read_parquet('{mir}/near_dup_minhash.parquet')""",
        "near_dup_embedding_ivf": f"""
            SELECT * FROM read_parquet('{mir}/near_dup_embedding_ivf.parquet')""",
        "doc_mlm_batches": f"""
            SELECT * FROM read_parquet('{mir}/doc_mlm_batches.parquet')""",
        "docs_approx_distinct": """
            SELECT CAST(count(DISTINCT text) AS DOUBLE) AS n_distinct FROM documents""",
        "near_dup_embedding": """
            SELECT a.vec_id AS id_a, b.vec_id AS id_b
            FROM embeddings a JOIN embeddings b ON a.vec_id < b.vec_id
            WHERE list_cosine_similarity(CAST(a.embedding AS DOUBLE[]),
                                         CAST(b.embedding AS DOUBLE[])) >= 0.4""",
        "ann_cosine_topk": f"""
            WITH q AS (SELECT vec_id AS query_id, embedding AS qe FROM embeddings
                       WHERE vec_id IN ({", ".join(map(str, _ANN_QUERY_IDS))})),
                 s AS (SELECT q.query_id, e.vec_id,
                              list_cosine_similarity(CAST(q.qe AS DOUBLE[]),
                                                     CAST(e.embedding AS DOUBLE[])) AS sim
                       FROM q CROSS JOIN embeddings e
                       WHERE e.vec_id <> q.query_id),
                 r AS (SELECT query_id, vec_id,
                              row_number() OVER (PARTITION BY query_id
                                                 ORDER BY sim DESC, vec_id) AS rk
                       FROM s)
            SELECT query_id, vec_id FROM r WHERE rk <= 10""",
        # full-probe IVF == exact brute force by construction, so the same
        # exact top-k SQL is the oracle for the build+query index path
        "ann_ivf_index_topk": f"""
            WITH q AS (SELECT vec_id AS query_id, embedding AS qe FROM embeddings
                       WHERE vec_id IN ({", ".join(map(str, _ANN_QUERY_IDS))})),
                 s AS (SELECT q.query_id, e.vec_id,
                              list_cosine_similarity(CAST(q.qe AS DOUBLE[]),
                                                     CAST(e.embedding AS DOUBLE[])) AS sim
                       FROM q CROSS JOIN embeddings e
                       WHERE e.vec_id <> q.query_id),
                 r AS (SELECT query_id, vec_id,
                              row_number() OVER (PARTITION BY query_id
                                                 ORDER BY sim DESC, vec_id) AS rk
                       FROM s)
            SELECT query_id, vec_id FROM r WHERE rk <= 10""",
        "orders_price_quantiles": """
            SELECT CAST(0.25 AS DOUBLE) AS q,
                   CAST(quantile_disc(o_totalprice, 0.25) AS DOUBLE) AS value FROM orders
            UNION ALL SELECT 0.5, CAST(quantile_disc(o_totalprice, 0.5) AS DOUBLE) FROM orders
            UNION ALL SELECT 0.75, CAST(quantile_disc(o_totalprice, 0.75) AS DOUBLE) FROM orders
            UNION ALL SELECT 0.9, CAST(quantile_disc(o_totalprice, 0.9) AS DOUBLE) FROM orders""",
        "doc_top_terms": """
            WITH toks AS (
              SELECT doc_id, t.term
              FROM documents, unnest(regexp_extract_all(lower(text), '\\S+')) AS t(term)
            ),
            tf AS (SELECT doc_id, term, count(*) AS tf FROM toks GROUP BY 1, 2),
            df AS (SELECT term, count(*) AS df FROM tf GROUP BY 1),
            r AS (SELECT tf.doc_id, tf.term, tf.tf, df.df,
                         row_number() OVER (PARTITION BY tf.doc_id
                                            ORDER BY tf.tf DESC, df.df, tf.term) AS rk
                  FROM tf JOIN df USING (term))
            SELECT doc_id, term, tf, df FROM r WHERE rk <= 3""",
        "orders_quantiles_per_priority": """
            SELECT o_orderpriority, CAST(0.25 AS DOUBLE) AS q,
                   CAST(quantile_disc(o_totalprice, 0.25) AS DOUBLE) AS value
            FROM orders GROUP BY o_orderpriority
            UNION ALL
            SELECT o_orderpriority, 0.5,
                   CAST(quantile_disc(o_totalprice, 0.5) AS DOUBLE)
            FROM orders GROUP BY o_orderpriority
            UNION ALL
            SELECT o_orderpriority, 0.9,
                   CAST(quantile_disc(o_totalprice, 0.9) AS DOUBLE)
            FROM orders GROUP BY o_orderpriority""",
        "events_running_total": """
            SELECT user_id, ts, event_id, value,
                   SUM(value) OVER (PARTITION BY user_id
                                    ORDER BY ts, event_id
                                    ROWS UNBOUNDED PRECEDING) AS running_sum
            FROM events""",
        "events_distinct_users_per_type": """
            SELECT event_type, count(DISTINCT user_id) AS n_distinct
            FROM events GROUP BY event_type""",
        "rel_customers_without_orders": """
            SELECT c_custkey FROM customer
            WHERE NOT EXISTS (SELECT 1 FROM orders o
                              WHERE o.o_custkey = c_custkey
                                AND o.o_totalprice > 400000)""",
        "events_heavy_hitters": """
            SELECT event_type, count(*) AS n FROM events
            GROUP BY event_type ORDER BY n DESC, event_type LIMIT 10""",
        "events_tumbling_hour": """
            SELECT date_trunc('hour', ts) AS window_start, event_type,
                   count(*) AS n_events, min(value) AS min_value, max(value) AS max_value
            FROM events GROUP BY 1, 2""",
        "events_sessionize": """
            WITH flag AS (
              SELECT user_id, event_id, ts,
                     CASE WHEN ts - lag(ts) OVER (PARTITION BY user_id
                                                  ORDER BY ts, event_id)
                               > INTERVAL 30 MINUTE
                          THEN 1 ELSE 0 END AS new_s
              FROM events),
            sess AS (
              SELECT *, sum(new_s) OVER (PARTITION BY user_id ORDER BY ts, event_id
                                         ROWS UNBOUNDED PRECEDING) AS session_idx
              FROM flag)
            SELECT user_id, CAST(session_idx AS BIGINT) AS session_idx,
                   count(*) AS n_events, min(ts) AS session_start, max(ts) AS session_end
            FROM sess GROUP BY user_id, session_idx""",
        "kg_prediction_counts": f"""
            WITH sc AS (SELECT url, para_idx, count(*) AS n
                        FROM read_parquet('{p['golden']}/spans.parquet')
                        GROUP BY url, para_idx)
            SELECT pg.url, pg.para_idx, CAST(COALESCE(sc.n, 0) AS BIGINT) AS n_labels
            FROM read_parquet('{p['golden']}/paragraphs.parquet') pg
            LEFT JOIN sc ON pg.url = sc.url AND pg.para_idx = sc.para_idx""",
        "dedup_apply_docs": """
            SELECT doc_id, text FROM documents
            WHERE doc_id IN (SELECT min(doc_id) FROM documents GROUP BY text)""",
        "kg_span_eval": f"""
            SELECT label, count(*) AS tp, CAST(0 AS BIGINT) AS fp,
                   CAST(0 AS BIGINT) AS fn, CAST(1.0 AS DOUBLE) AS precision,
                   CAST(1.0 AS DOUBLE) AS recall, CAST(1.0 AS DOUBLE) AS f1
            FROM read_parquet('{p['golden']}/spans.parquet') GROUP BY label
            UNION ALL
            SELECT 'micro', count(*), 0, 0, CAST(1.0 AS DOUBLE),
                   CAST(1.0 AS DOUBLE), CAST(1.0 AS DOUBLE)
            FROM read_parquet('{p['golden']}/spans.parquet')
            UNION ALL
            SELECT 'macro', count(*), 0, 0, CAST(1.0 AS DOUBLE),
                   CAST(1.0 AS DOUBLE), CAST(1.0 AS DOUBLE)
            FROM read_parquet('{p['golden']}/spans.parquet')
            UNION ALL
            SELECT 'weighted', count(*), 0, 0, CAST(1.0 AS DOUBLE),
                   CAST(1.0 AS DOUBLE), CAST(1.0 AS DOUBLE)
            FROM read_parquet('{p['golden']}/spans.parquet')""",
        "kg_confusion": f"""
            SELECT label AS gold_label, label AS pred_label, count(*) AS n
            FROM read_parquet('{p['golden']}/spans.parquet')
            GROUP BY label""",
        # token-level O-inclusive confusion: the engine's predictions equal
        # the goldens, so every cell is diagonal — B- cells count spans,
        # I- cells count continuation tokens, O/O = corpus tokens minus
        # span-covered tokens. Token pattern is the RE2-unicode equivalent
        # of the tagger's \\w+|[^\\w\\s] (validated char-identical on this
        # corpus).
        "kg_confusion_tokens": f"""
            WITH tok AS (
              SELECT sum(len(regexp_extract_all(para_text, '{_TOK_RE2}'))) AS total
              FROM read_parquet('{p['golden']}/paragraphs.parquet')),
            st AS (
              SELECT label, count(*) AS n_spans,
                     sum(len(regexp_extract_all(surface, '{_TOK_RE2}'))) AS n_toks
              FROM read_parquet('{p['golden']}/spans.parquet') GROUP BY label)
            SELECT 'B-' || label AS gold_tag, 'B-' || label AS pred_tag,
                   CAST(n_spans AS BIGINT) AS n FROM st
            UNION ALL
            SELECT 'I-' || label, 'I-' || label, CAST(n_toks - n_spans AS BIGINT)
            FROM st WHERE n_toks > n_spans
            UNION ALL
            SELECT 'O', 'O',
                   CAST(tok.total - (SELECT sum(n_toks) FROM st) AS BIGINT)
            FROM tok""",
        "rel_customers_per_region": """
            SELECT r.r_name, count(*) AS n_customers
            FROM customer c
            JOIN nation n ON c.c_nationkey = n.n_nationkey
            JOIN region r ON n.n_regionkey = r.r_regionkey
            GROUP BY r.r_name""",
        "rel_orders_per_nation": """
            SELECT n.n_name, count(*) AS n_orders
            FROM orders o
            JOIN customer c ON o.o_custkey = c.c_custkey
            JOIN nation n ON c.c_nationkey = n.n_nationkey
            GROUP BY n.n_name""",
        "rel_top_orders": """
            SELECT o_orderkey, o_totalprice FROM orders
            ORDER BY o_totalprice DESC, o_orderkey LIMIT 10""",
        "rel_lineitem_summary": """
            SELECT l_returnflag, l_linestatus, count(*) AS n_items,
                   CAST(min(l_quantity) AS DOUBLE) AS min_qty,
                   CAST(max(l_quantity) AS DOUBLE) AS max_qty,
                   CAST(min(l_extendedprice) AS DOUBLE) AS min_price,
                   CAST(max(l_extendedprice) AS DOUBLE) AS max_price
            FROM lineitem GROUP BY l_returnflag, l_linestatus""",
        "rel_top_parts_per_brand": """
            SELECT p_brand, p_retailprice, p_partkey FROM (
              SELECT p_brand, p_retailprice, p_partkey,
                     row_number() OVER (PARTITION BY p_brand
                                        ORDER BY p_retailprice DESC, p_partkey) AS rk
              FROM part) WHERE rk <= 3""",
        "rel_lineitems_per_supplier_nation": """
            SELECT n.n_name, count(*) AS n_lineitems
            FROM lineitem l
            JOIN supplier s ON l.l_suppkey = s.s_suppkey
            JOIN nation n ON s.s_nationkey = n.n_nationkey
            GROUP BY n.n_name""",
        "docs_longest_per_lang": """
            SELECT lang, doc_id, n_chars FROM (
              SELECT lang, doc_id, length(text) AS n_chars,
                     row_number() OVER (PARTITION BY lang
                                        ORDER BY length(text) DESC, doc_id) AS rk
              FROM documents) WHERE rk = 1""",
        "docs_hash_split": """
            SELECT doc_id, text FROM documents
            WHERE substr(md5(CAST(doc_id AS VARCHAR)), 8, 1) IN ('0', '8')""",
        "events_sliding_hour": """
            WITH e AS (SELECT time_bucket(INTERVAL '15 minutes', ts) AS tb,
                              event_type FROM events),
                 x AS (SELECT tb - (k.k * INTERVAL '15 minutes') AS window_start,
                              event_type
                       FROM e CROSS JOIN (VALUES (0),(1),(2),(3)) k(k))
            SELECT window_start, event_type, count(*) AS n_events
            FROM x GROUP BY 1, 2""",
        "events_asof_purchase": """
            WITH w AS (
              SELECT event_id, user_id, ts, event_type,
                     max(CASE WHEN event_type = 'purchase' THEN ts END)
                       OVER (PARTITION BY user_id ORDER BY ts, event_id
                             ROWS BETWEEN UNBOUNDED PRECEDING AND CURRENT ROW)
                       AS asof_ts
              FROM events)
            SELECT event_id, user_id, ts, asof_ts FROM w
            WHERE event_type = 'click'""",
        "media_resize": f"""
            WITH d AS (SELECT doc_id,
                              64 + doc_id % 1216 AS w, 64 + doc_id % 656 AS h,
                              octet_length(payload) AS nb
                       FROM read_parquet('{media}') WHERE kind = 'image')
            SELECT doc_id,
                   CAST(w AS BIGINT) AS width, CAST(h AS BIGINT) AS height,
                   CAST(nb AS BIGINT) AS n_bytes, TRUE AS decode_ok,
                   CAST(CASE WHEN greatest(w, h) <= 256 THEN w
                        ELSE w * 256 // greatest(w, h) END AS BIGINT) AS new_width,
                   CAST(CASE WHEN greatest(w, h) <= 256 THEN h
                        ELSE h * 256 // greatest(w, h) END AS BIGINT) AS new_height
            FROM d""",
        "media_audio_resample": f"""
            WITH d AS (SELECT doc_id,
                              8000 * (1 + doc_id % 5) AS rate,
                              1000 + doc_id * 13 % 8000 AS ns,
                              octet_length(payload) AS nb
                       FROM read_parquet('{media}') WHERE kind = 'audio')
            SELECT doc_id,
                   CAST(rate AS BIGINT) AS sample_rate,
                   CAST(ns AS BIGINT) AS n_samples,
                   CAST(ns * 1000 // rate AS BIGINT) AS duration_ms,
                   CAST(nb AS BIGINT) AS n_bytes, TRUE AS decode_ok,
                   CAST(16000 AS BIGINT) AS target_rate,
                   CAST(ns * 16000 // rate AS BIGINT) AS out_samples
            FROM d""",
        "orders_price_quantiles_sketch": """
            SELECT CAST(0.25 AS DOUBLE) AS q,
                   CAST(quantile_disc(o_totalprice, 0.25) AS DOUBLE) AS value FROM orders
            UNION ALL SELECT 0.5, CAST(quantile_disc(o_totalprice, 0.5) AS DOUBLE) FROM orders
            UNION ALL SELECT 0.75, CAST(quantile_disc(o_totalprice, 0.75) AS DOUBLE) FROM orders
            UNION ALL SELECT 0.9, CAST(quantile_disc(o_totalprice, 0.9) AS DOUBLE) FROM orders
            UNION ALL SELECT 0.99, CAST(quantile_disc(o_totalprice, 0.99) AS DOUBLE) FROM orders""",
        "rel_returned_lineitems_by_order_line": """
            SELECT r.l_orderkey, r.l_linenumber, r.l_extendedprice, q.l_quantity
            FROM (SELECT l_orderkey, l_linenumber, l_extendedprice
                  FROM lineitem WHERE l_returnflag = 'R') r
            JOIN (SELECT l_orderkey, l_linenumber, l_quantity FROM lineitem) q
              ON r.l_orderkey = q.l_orderkey
             AND r.l_linenumber = q.l_linenumber""",
    }
