"""Entity linking + canonicalization (the pipeline's wide section).

SURVEY.md §7 step 6, target-spec mandated (no counterpart in the reference):

1. mention partials — a per-batch combiner (``mention_partial_task``) emits
   one (key, label, surface, n) row per distinct key per batch; each NER
   write task of ``pipelines/kg`` writes its own under ``mentions/``;
2. minhash band keys per distinct linkable entity (``BandStage``);
3. per-(label, band_key) deterministic salted sorted-neighborhood candidate
   pairs (functions/blocking.py — a pure function of the member set, so
   results are parallelism-independent);
4. Jaccard verification of each distinct candidate pair, with each distinct
   key shingled once (``_verify_pairs``);
5. union-find in the driver over the verified pairs' endpoints.

``link`` is the one entry point and there is one path: steps 2-4 yield the
verified same-as pairs, only those come to the driver, and step 5 turns
them into one non-identity key -> component map. Only where steps 2-4 run
depends on size: in the driver over the distinct linkable keys up to
``DRIVER_CC_MAX_KEYS`` mention partial rows, and as Ray tasks above it
(``band_task`` → ``candidate_pairs``) — banding is the step that needs
bounded memory, not the union-find.

Component id = lexicographic-min member key — order-free determinism
(SURVEY.md §4: never "first wins").
"""

from __future__ import annotations

from pathlib import Path

import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.dataset as pads
import ray
from ray.data import Dataset

from ..config import LINK_LABELS, LinkingConfig
from ..functions.blocking import pairs_for_block
from ..functions.minhash import MinHasher, jaccard, shingles
from ..functions.normalize import entity_key
from ..sources.parquet import read_plan, sized_read_parquet
from ..state.manifest import parquet_row_count
from .extract import MENTIONS_SCHEMA
from .shuffle import exchange, grouped_agg, grouped_count, worker_cached

# The row bound on every driver-side read of the wide section
# (``driver_read``), counted from the Parquet footers. Above this many
# mention partial rows (an upper bound on distinct linkable keys), banding,
# pairing and verification run as Ray tasks instead of in the driver;
# union-find stays in the driver either way. ``pipelines/kg.graph_stage``
# builds ``graph/nodes`` and ``graph/edges`` in the driver while
# ``mentions/`` and ``graph/triples`` each hold at most this many rows, and
# as two Ray jobs above it. With each key shingled once, the driver side of
# linking was faster at every measured size at 4 CPUs (8.6 vs 15.3 s at 20k
# keys, 68 vs 153 s at 200k, 355 vs 965 s at 1M;
# scripts/bench_scale_paths.py --link --keys N, BASELINE.md), and the gap
# grew with size. The driver build of nodes and edges was faster too at 4
# CPUs, up to the bound (0.10 vs 0.40 s at 20k rows per table, 0.92 vs
# 2.18 s at 200k, 5.3 vs 8.4 s at 1M, 10.6 vs 20.3 s at 2M; best of two
# each; scripts/bench_scale_paths.py --graph --rows N, BASELINE.md). No
# crossover was found, so the bound stays at 2M. Read at call time, so
# tests force the Ray side with a tiny override.
DRIVER_CC_MAX_KEYS = 2_000_000
_LINK_LABEL_ARR = pa.array(sorted(LINK_LABELS), pa.string())


class MentionPartial:
    """Per-batch combiner: span rows -> partial (key, label, surface, n).

    State = a (label, surface) -> entity_key memo cache; surfaces repeat
    heavily, so normalization (unicode NFKD) runs once per distinct surface
    per worker instead of once per span.
    """

    def __init__(self):
        self.cache: dict[tuple[str, str], str] = {}

    def __call__(self, batch: pa.Table) -> pa.Table:
        cache = self.cache
        agg: dict[str, list] = {}
        for label, surf in zip(batch["label"].to_pylist(), batch["surface"].to_pylist()):
            key = cache.get((label, surf))
            if key is None:
                key = entity_key(label, surf)
                cache[(label, surf)] = key
            cur = agg.get(key)
            if cur is None:
                agg[key] = [label, surf, 1]
            else:
                cur[2] += 1
                if surf < cur[1]:
                    cur[1] = surf
        return pa.table(
            {
                "key": pa.array(list(agg.keys()), pa.string()),
                "label": pa.array([v[0] for v in agg.values()], pa.string()),
                "surface": pa.array([v[1] for v in agg.values()], pa.string()),
                "n": pa.array([v[2] for v in agg.values()], pa.int64()),
            },
            schema=MENTIONS_SCHEMA,
        )


_TASK_PARTIAL: dict[None, MentionPartial] = {}


def mention_partial_task(batch: pa.Table) -> pa.Table:
    """Task-mode combiner: one ``MentionPartial`` per worker."""
    return worker_cached(_TASK_PARTIAL, None, MentionPartial)(batch)


def linkable_rows(batch: pa.Table) -> pa.Table:
    """The rows of ``batch`` whose label goes through linking."""
    return batch.filter(pc.is_in(batch["label"], value_set=_LINK_LABEL_ARR))


class BandStage:
    """mentions -> (label, band_key, norm) rows for linkable labels."""

    def __init__(self, cfg: LinkingConfig):
        self.cfg = cfg
        self.hasher = MinHasher(cfg.num_hashes, cfg.shingle_k)

    def __call__(self, batch: pa.Table) -> pa.Table:
        labels_out, bands_out, norms_out = [], [], []
        for key, label in zip(batch["key"].to_pylist(), batch["label"].to_pylist()):
            if label not in LINK_LABELS:
                continue
            norm = key.split("|", 1)[1]
            for bk in self.hasher.band_keys(norm, self.cfg.num_bands):
                labels_out.append(label)
                bands_out.append(bk)
                norms_out.append(norm)
        return pa.table(
            {
                "label": pa.array(labels_out, pa.string()),
                "band_key": pa.array(bands_out, pa.string()),
                "norm": pa.array(norms_out, pa.string()),
            }
        )


_TASK_BANDS: dict[LinkingConfig, BandStage] = {}


def band_task(batch: pa.Table, cfg: LinkingConfig) -> pa.Table:
    """Task-mode ``BandStage``: one hasher per worker and config."""
    return worker_cached(_TASK_BANDS, cfg, lambda: BandStage(cfg))(batch)


def block_pairs(bands: pa.Table, cfg: LinkingConfig) -> set[tuple[str, str]]:
    """Band rows (label, band_key, norm) -> the distinct candidate key pairs
    of every (label, band_key) block they hold (``pairs_for_block``)."""
    blocks: dict[tuple[str, str], list[str]] = {}
    for label, bk, norm in zip(bands["label"].to_pylist(),
                               bands["band_key"].to_pylist(),
                               bands["norm"].to_pylist()):
        blocks.setdefault((label, bk), []).append(norm)
    return {(f"{label}|{a}", f"{label}|{b}")
            for (label, _bk), norms in blocks.items()
            for a, b in pairs_for_block(norms, cfg)}


def candidate_pairs(bands_ds: Dataset, cfg: LinkingConfig) -> Dataset:
    """Per-block deterministic pairing, then global pair dedup + verify.

    Blocks are routed by ``hash(label, band_key) % 64`` and paired with ONE
    UDF call per sorted block of whole buckets (``block_pairs`` over all of
    it), never one Ray UDF call per distinct band — at web scale there are
    ~num_bands × distinct entities bands, and Ray's per-group ``map_groups``
    pays per-key task overhead. The pair dedup is the bucketed
    ``grouped_count`` for the same reason.
    """

    def bucket_block_pairs(g: pa.Table) -> pa.Table:
        pairs = sorted(block_pairs(g, cfg))
        return pa.table({"a": pa.array([a for a, _ in pairs], pa.string()),
                         "b": pa.array([b for _, b in pairs], pa.string())})

    pairs = exchange(bands_ds, ["label", "band_key"], bucket_block_pairs)
    # a pair found in several bands must be verified once: exact dedup shuffle
    deduped = grouped_count(pairs, ["a", "b"]).select_columns(["a", "b"])

    def verify(batch: pa.Table) -> pa.Table:
        pairs = zip(batch["a"].to_pylist(), batch["b"].to_pylist())
        return batch.filter(pa.array(_verify_pairs(pairs, cfg), pa.bool_()))

    return deduped.map_batches(verify, batch_format="pyarrow")


def _verify_pairs(pairs, cfg: LinkingConfig) -> list[bool]:
    """Jaccard verification of candidate pairs of entity keys, one verdict
    per pair. Each distinct key is shingled once, not once per pair it
    is in: a key sits in many candidate pairs, and shingling was most of
    the verify time."""
    k, memo = cfg.shingle_k, {}

    def shingled(key: str) -> set[int]:
        got = memo.get(key)
        if got is None:
            got = memo[key] = shingles(key.split("|", 1)[1], k)
        return got

    return [jaccard(shingled(a), shingled(b)) >= cfg.jaccard_threshold
            for a, b in pairs]


def connected_components_driver(keys: list[str], pairs: list[tuple[str, str]]) -> dict[str, str]:
    """Union-find on the driver; component id = min member key."""
    from ..oracle import _UnionFind

    uf = _UnionFind()
    for k in keys:
        uf.find(k)
    for a, b in pairs:
        uf.union(a, b)
    return {k: uf.find(k) for k in keys}


def _driver_pairs(keys: list[str], cfg: LinkingConfig) -> list[tuple[str, str]]:
    """Distinct linkable keys -> verified pairs, in the driver:
    ``BandStage`` → ``block_pairs`` → ``_verify_pairs``."""
    bands = BandStage(cfg)(pa.table({
        "key": pa.array(keys, pa.string()),
        "label": pa.array([k.split("|", 1)[0] for k in keys], pa.string()),
    }))
    pairs = list(block_pairs(bands, cfg))
    return [p for p, ok in zip(pairs, _verify_pairs(pairs, cfg)) if ok]


def _task_pairs(linkable: Dataset, cfg: LinkingConfig) -> tuple[list[tuple[str, str]], int]:
    """Linkable partial rows -> (verified pairs, distinct key count), with
    banding, pairing and verification as Ray tasks."""
    keys = grouped_agg(linkable, ["key"], {"label": ("label", "min")}).materialize()
    bands = keys.map_batches(band_task, batch_format="pyarrow", fn_kwargs=dict(cfg=cfg))
    # an empty input leaves the exchange an empty block with no columns
    pairs = [p for block in ray.get(candidate_pairs(bands, cfg).to_arrow_refs())
             if block.num_rows
             for p in zip(block["a"].to_pylist(), block["b"].to_pylist())]
    return pairs, keys.count()


def driver_read(path: str | Path, schema: pa.Schema, columns: list[str]) -> pa.Table:
    """``columns`` of the Parquet table under directory ``path`` (one
    ``part=<p>`` subdirectory per partition, no partition column), read
    whole into the driver with pyarrow: no Ray execution."""
    return pads.dataset(str(path), schema=schema, format="parquet").to_table(columns=columns)


def link(mentions: str | Path, cfg: LinkingConfig) -> tuple[dict[str, str], dict]:
    """The mention partials under directory ``mentions`` -> (non-identity
    key -> component map, stats).

    Keys missing from the map are their own component. The partial-row
    count comes from the Parquet footers; it bounds the distinct linkable
    keys, so the driver side, which reads ``key`` and ``label`` with
    pyarrow and runs no Ray job, cannot OOM the driver at web-scale surface
    counts. ``stats`` holds ``link_path`` (``"driver"`` or
    ``"distributed"``: where banding ran), ``link_keys`` (distinct linkable
    keys), ``link_pairs`` (the verified pairs union-find ran over; the same
    count on either side), and ``mentions_rows`` and ``mentions_bytes``
    (the partial rows and file bytes read)."""
    rows = parquet_row_count(mentions)
    if rows <= DRIVER_CC_MAX_KEYS:
        tbl = driver_read(mentions, MENTIONS_SCHEMA, ["key", "label"])
        keys = sorted(pc.unique(linkable_rows(tbl)["key"]).to_pylist())
        path, pairs, n_keys = "driver", _driver_pairs(keys, cfg), len(keys)
    else:
        linkable = sized_read_parquet(str(mentions), columns=["key", "label"]
                                      ).map_batches(linkable_rows, batch_format="pyarrow")
        path, (pairs, n_keys) = "distributed", _task_pairs(linkable, cfg)
    ends = sorted({k for pair in pairs for k in pair})
    mapping = connected_components_driver(ends, pairs)
    return ({k: c for k, c in mapping.items() if k != c},
            {"link_path": path, "link_keys": n_keys, "link_pairs": len(pairs),
             "mentions_rows": rows, "mentions_bytes": read_plan(str(mentions))[0]})
