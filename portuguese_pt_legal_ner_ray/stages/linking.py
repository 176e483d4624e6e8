"""Entity linking + canonicalization (the pipeline's wide section).

SURVEY.md §7 step 6, target-spec mandated (no counterpart in the reference):

1. mention partials — a per-batch combiner (``mention_partial_task``) emits
   one (key, label, surface, n) row per distinct key per batch;
2. minhash band keys per distinct linkable entity (``BandStage``);
3. per-(label, band_key) deterministic salted sorted-neighborhood candidate
   pairs (functions/blocking.py — a pure function of the member set, so
   results are parallelism-independent);
4. Jaccard verification of each distinct candidate pair;
5. connected components.

Steps 2-5 run one of two ways over the same kernels. ``link_driver`` runs
them in the driver over the distinct linkable keys — the normal case even
at corpus scale, since distinct surfaces ≪ mentions. Above
``DRIVER_CC_MAX_KEYS`` the pipeline runs them as Ray tasks instead:
``BandStage`` → ``candidate_pairs`` → ``canonicalize`` (min-label
propagation, ``state/components.py``).

Component id = lexicographic-min member key — order-free determinism
(SURVEY.md §4: never "first wins").
"""

from __future__ import annotations

import pyarrow as pa
import pyarrow.compute as pc
from ray.data import Dataset

from ..config import LINK_LABELS, LinkingConfig
from ..functions.blocking import pairs_for_block
from ..functions.minhash import MinHasher, jaccard, shingles
from ..functions.normalize import entity_key
from .shuffle import worker_cached

# Above this many linkable partial rows (an upper bound on distinct linkable
# keys), linking and canonical-id application switch to the distributed path
# (label propagation + hash_join). The distinct-entity graph at web scale is
# orders of magnitude smaller than the corpus, so the driver path covers
# realistic runs; the distributed path is exercised by tests via a tiny
# override (read at call time).
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
            }
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
    UDF call per bucket (``block_pairs`` over the whole bucket), never one
    Ray UDF call per distinct band — at web scale there are ~num_bands ×
    distinct entities bands, and Ray's per-group ``map_groups`` pays
    per-key task overhead (the trap measured in
    scripts/bench_scale_paths.py for CC). The pair dedup is the bucketed
    ``grouped_count`` for the same reason.
    """
    from .shuffle import bucket_by, grouped_count

    def bucket_block_pairs(g: pa.Table) -> pa.Table:
        pairs = sorted(block_pairs(g, cfg))
        return pa.table({"a": pa.array([a for a, _ in pairs], pa.string()),
                         "b": pa.array([b for _, b in pairs], pa.string())})

    pairs = (
        bands_ds.map_batches(lambda t: bucket_by(t, ["label", "band_key"]),
                             batch_format="pyarrow")
        .groupby("__bucket")
        .map_groups(bucket_block_pairs, batch_format="pyarrow")
    )
    # a pair found in several bands must be verified once: exact dedup shuffle
    deduped = grouped_count(pairs, ["a", "b"]).select_columns(["a", "b"])

    def verify(batch: pa.Table) -> pa.Table:
        pairs = zip(batch["a"].to_pylist(), batch["b"].to_pylist())
        keep = [_same_entity(a, b, cfg) for a, b in pairs]
        return batch.filter(pa.array(keep, pa.bool_()))

    return deduped.map_batches(verify, batch_format="pyarrow")


def _same_entity(a: str, b: str, cfg: LinkingConfig) -> bool:
    """Jaccard verification of one candidate pair of entity keys."""
    k = cfg.shingle_k
    return jaccard(shingles(a.split("|", 1)[1], k),
                   shingles(b.split("|", 1)[1], k)) >= cfg.jaccard_threshold


def connected_components_driver(keys: list[str], pairs: list[tuple[str, str]]) -> dict[str, str]:
    """Union-find on the driver; component id = min member key."""
    from ..oracle import _UnionFind

    uf = _UnionFind()
    for k in keys:
        uf.find(k)
    for a, b in pairs:
        uf.union(a, b)
    return {k: uf.find(k) for k in keys}


def link_driver(keys: list[str], cfg: LinkingConfig) -> dict[str, str]:
    """Distinct linkable keys -> non-identity key -> component map, in the
    driver: ``BandStage`` → ``block_pairs`` → verify →
    ``connected_components_driver``. Keys missing from the map are their
    own component."""
    bands = BandStage(cfg)(pa.table({
        "key": pa.array(keys, pa.string()),
        "label": pa.array([k.split("|", 1)[0] for k in keys], pa.string()),
    }))
    verified = [(a, b) for a, b in block_pairs(bands, cfg) if _same_entity(a, b, cfg)]
    mapping = connected_components_driver(keys, verified)
    return {k: c for k, c in mapping.items() if k != c}


def canonicalize(mentions_ds: Dataset, verified_pairs_ds: Dataset) -> Dataset:
    """Distributed CC: mentions (key, ...) + verified same-as pairs (a, b)
    -> rows (key, comp), by min-label propagation over Datasets
    (state/components.py) with no driver materialization."""
    from ..state.components import connected_components_distributed

    return connected_components_distributed(
        mentions_ds.select_columns(["key"]), verified_pairs_ds
    )
