"""Seeded benchmark inputs. The same seed gives the same bytes.

* Web pages come from the package's own generator
  (``corpus.gen_pages_shard``); the seed picks the shard ids.
* The ``ops`` tables follow the schemas of the repo's TPC-H-ish test tables
  (nation, customer, orders, lineitem, events, documents, embeddings) and are
  generated here so a run reads nothing outside its checkout.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq


@dataclass(frozen=True)
class Size:
    files: int             # crawl input files (one generator shard each)
    pages_per_file: int
    partitions: int        # run_kg_pipeline(num_partitions=...)
    customers: int         # ops tables scale with this
    queries: tuple[str, ...]


# the ops queries, each with the registry stage module it exercises
OPS_QUERIES = {
    "rel_returned_lineitems_by_order_line": "joins",
    "rel_customers_without_orders": "joins",
    "rel_orders_per_nation": "joins",
    "events_sessionize": "windows",
    "events_asof_purchase": "windows",
    "events_running_total": "windows",
    "orders_quantiles_per_priority": "sketches",
    "orders_price_quantiles": "sketches",
    "ann_cosine_topk": "similarity",
    "near_dup_ngram": "similarity",
    "dedup_exact_docs": "dedup",
}

SIZES = {
    # 2,048 crawl pages in 4 files / 4 partitions, plus one 512-page file for
    # append; ops tables at the repo's sf0.01 row counts.
    "full": Size(files=4, pages_per_file=512, partitions=4, customers=1500,
                 queries=tuple(OPS_QUERIES)),
    # smoke-test size: a few hundred pages and one query
    "tiny": Size(files=2, pages_per_file=128, partitions=2, customers=100,
                 queries=("rel_customers_without_orders",)),
}


def _shard_id(seed: int, i: int) -> int:
    return (seed % (1 << 24)) * 16 + i


def write_pages(dirpath: Path, seed: int, index: int, n: int) -> Path:
    """Write input file ``index`` of this seed's crawl (one generator shard)."""
    from portuguese_pt_legal_ner_ray.corpus import gen_pages_shard

    dirpath.mkdir(parents=True, exist_ok=True)
    path = dirpath / f"part-{index:05d}.parquet"
    pq.write_table(gen_pages_shard(_shard_id(seed, index), index * n, n), path)
    return path


def page_properties(pages: pa.Table, paragraphs: pa.Table) -> dict[str, float]:
    """Input properties the engine's speed depends on. ``repeat_share`` is
    the share of pt paragraphs whose text already occurred earlier in the
    input: the share a per-text NER memo can skip."""
    pt = [t for t, lang in zip(paragraphs["para_text"].to_pylist(),
                               paragraphs["lang"].to_pylist()) if lang == "pt"]
    n_pt = max(1, len(pt))
    return {
        "pages": pages.num_rows,
        "paragraphs": paragraphs.num_rows,
        "pt_share": len(pt) / max(1, paragraphs.num_rows),
        "repeat_share": 1.0 - len(set(pt)) / n_pt,
    }


_WORDS = ("join hash row batch scan column customer filter small slow merge "
          "order vector line table data agg value key stream window a spark "
          "part group big sort query fast the").split()
_LANGS = ("en", "en", "en", "zh", "es", "de", "fr")
_PRIORITIES = ("1-URGENT", "2-HIGH", "3-MEDIUM", "4-NOT SPECIFIED", "5-LOW")
_EVENT_TYPES = ("signup", "error", "click", "view", "purchase")
_US_PER_DAY = 86_400_000_000
_T0_EVENTS = np.datetime64("2024-01-01T00:00:00", "us")
_T0_ORDERS = np.datetime64("1995-01-01T00:00:00", "us")


def _ts(t0: np.datetime64, offsets_us: np.ndarray) -> pa.Array:
    return pa.array(t0 + offsets_us.astype("timedelta64[us]"), pa.timestamp("us"))


def write_ops_tables(dirpath: Path, seed: int, customers: int) -> Path:
    """TPC-H-ish star schema + events/documents/embeddings, ``customers``
    customers and 10 orders, ~40 order lines and ~7 events per customer."""
    rng = np.random.default_rng([7, seed])
    dirpath.mkdir(parents=True, exist_ok=True)
    n_cust = customers
    n_orders = 10 * customers
    n_events = 7 * customers
    n_docs = max(50, customers // 3)
    n_vecs = max(50, customers // 3)

    def put(name: str, cols: dict) -> None:
        pq.write_table(pa.table(cols), dirpath / f"{name}.parquet")

    put("nation", {
        "n_nationkey": pa.array(np.arange(25), pa.int32()),
        "n_name": pa.array([f"NATION_{i}" for i in range(25)], pa.string()),
        "n_regionkey": pa.array(np.arange(25) % 5, pa.int32()),
    })
    put("customer", {
        "c_custkey": pa.array(np.arange(n_cust), pa.int64()),
        "c_name": pa.array([f"Customer#{i:09d}" for i in range(n_cust)]),
        "c_nationkey": pa.array(rng.integers(0, 25, n_cust), pa.int32()),
        "c_acctbal": pa.array(np.round(rng.uniform(-999, 9999, n_cust), 2)),
        "c_mktsegment": pa.array(rng.choice(
            ["AUTOMOBILE", "BUILDING", "FURNITURE", "HOUSEHOLD", "MACHINERY"], n_cust)),
    })
    put("orders", {
        "o_orderkey": pa.array(np.arange(n_orders), pa.int64()),
        "o_custkey": pa.array(rng.integers(0, n_cust, n_orders), pa.int64()),
        "o_orderstatus": pa.array(rng.choice(["F", "O", "P"], n_orders)),
        "o_totalprice": pa.array(np.round(rng.uniform(1000, 500_000, n_orders), 2)),
        "o_orderdate": _ts(_T0_ORDERS, rng.integers(0, 2500, n_orders) * _US_PER_DAY),
        "o_orderpriority": pa.array(rng.choice(_PRIORITIES, n_orders)),
    })
    # 1..7 lines per order: (l_orderkey, l_linenumber) is the unique key
    lines = rng.integers(1, 8, n_orders)
    okey = np.repeat(np.arange(n_orders), lines)
    lnum = np.concatenate([np.arange(1, k + 1) for k in lines])
    n_li = len(okey)
    qty = rng.integers(1, 51, n_li).astype(np.float64)
    put("lineitem", {
        "l_orderkey": pa.array(okey, pa.int64()),
        "l_partkey": pa.array(rng.integers(0, 2000, n_li), pa.int64()),
        "l_suppkey": pa.array(rng.integers(0, 100, n_li), pa.int64()),
        "l_linenumber": pa.array(lnum, pa.int32()),
        "l_quantity": pa.array(qty),
        "l_extendedprice": pa.array(np.round(qty * rng.uniform(900, 2100, n_li), 2)),
        "l_discount": pa.array(np.round(rng.integers(0, 11, n_li) / 100, 2)),
        "l_tax": pa.array(np.round(rng.integers(0, 9, n_li) / 100, 2)),
        "l_returnflag": pa.array(rng.choice(["A", "N", "R"], n_li)),
        "l_linestatus": pa.array(rng.choice(["F", "O"], n_li)),
        "l_shipdate": _ts(_T0_ORDERS, rng.integers(0, 2500, n_li) * _US_PER_DAY),
    })
    # events over 30 days for n_cust // 10 users: unique microsecond stamps
    ts = np.sort(rng.choice(30 * _US_PER_DAY, n_events, replace=False))
    put("events", {
        "event_id": pa.array(np.arange(n_events), pa.int64()),
        "ts": _ts(_T0_EVENTS, ts),
        "user_id": pa.array(rng.integers(0, max(10, n_cust // 10), n_events), pa.int64()),
        "event_type": pa.array(rng.choice(_EVENT_TYPES, n_events)),
        "value": pa.array(np.round(rng.exponential(50.0, n_events), 2) + 0.01),
        "props": pa.array([f'{{"k": {k}}}' for k in rng.integers(0, 100, n_events)]),
    })
    # documents: random word strings, ~5% exact copies and ~5% near copies
    # (a few words changed), so dedup and trigram-Jaccard both find pairs
    texts: list[str] = []
    for i in range(n_docs):
        r = rng.random()
        if i > 0 and r < 0.05:
            texts.append(texts[int(rng.integers(0, i))])
        elif i > 0 and r < 0.10:
            words = texts[int(rng.integers(0, i))].split()
            for j in rng.integers(0, len(words), 2):
                words[j] = "dup"
            texts.append(" ".join(words))
        else:
            texts.append(" ".join(rng.choice(_WORDS, int(rng.integers(10, 100)))))
    put("documents", {
        "doc_id": pa.array(np.arange(n_docs), pa.int64()),
        "text": pa.array(texts, pa.string()),
        "lang": pa.array(rng.choice(_LANGS, n_docs)),
        "source": pa.array([f"src{k}" for k in rng.integers(0, 20, n_docs)]),
        "n_chars": pa.array([len(t) for t in texts], pa.int64()),
    })
    emb = rng.standard_normal((n_vecs, 64)).astype(np.float32)
    put("embeddings", {
        "vec_id": pa.array(np.arange(n_vecs), pa.int64()),
        "embedding": pa.array(list(emb), pa.list_(pa.float32())),
        "label": pa.array(rng.integers(0, 10, n_vecs), pa.int32()),
    })
    return dirpath
