"""Graph materialization: nodes and edges tables (SURVEY.md §7 step 7).

nodes = one row per canonical entity: ``(entity_id, canonical_surface,
label, n_mentions)`` — one bucketed grouped_agg by component with Min/Sum
aggregates (order-free reducers, never first-seen).
edges = exact-dedup of canonicalized triples with count as weight:
``(subj_id, pred, obj_id, weight)`` — the groupby([subj,pred,obj]).count()
pattern from SURVEY.md §2.5.

Canonical-id application is a broadcast small-side lookup: the non-identity
key -> component map from ``linking.link`` is ``ray.put`` once and read once
per worker-side closure; keys missing from it are their own component.
"""

from __future__ import annotations

import pyarrow as pa
import pyarrow.compute as pc
from ray.data import Dataset

from ..functions.normalize import entity_key
from .shuffle import grouped_agg, grouped_count

# the written tables' schemas: a table with no rows is one zero-row file in
# its schema (``pipelines/kg``), found without a Ray execution
NODES_SCHEMA = pa.schema(
    [
        ("entity_id", pa.string()),
        ("canonical_surface", pa.string()),
        ("label", pa.string()),
        ("n_mentions", pa.int64()),
    ]
)
EDGES_SCHEMA = pa.schema(
    [
        ("subj_id", pa.string()),
        ("pred", pa.string()),
        ("obj_id", pa.string()),
        ("weight", pa.int64()),
    ]
)


def nodes_from_comp(ds: Dataset) -> Dataset:
    """Rows carrying (comp, surface, n) -> one node row per component: one
    bucketed grouped_agg with order-free Min/Sum, then an Arrow finish."""
    nodes = grouped_agg(
        ds.select_columns(["comp", "surface", "n"]), ["comp"],
        {"canonical_surface": ("surface", "min"), "n_mentions": ("n", "sum")},
    )

    def finish(batch: pa.Table) -> pa.Table:
        # Arrow-native "LABEL|surface" -> "LABEL": split at the first '|'.
        label = pc.list_element(
            pc.split_pattern(batch["comp"], pattern="|", max_splits=1), 0
        )
        return pa.table(
            {
                "entity_id": batch["comp"],
                "canonical_surface": batch["canonical_surface"],
                "label": pc.cast(label, pa.string()),
                "n_mentions": batch["n_mentions"],
            }
        )

    return nodes.map_batches(finish, batch_format="pyarrow")


def _remap(arr, fn) -> pa.Array:
    """``fn`` applied once per DISTINCT value of a string column, spread
    back to every row by a vectorized ``take`` (no Python in the row loop)."""
    if isinstance(arr, pa.ChunkedArray):
        arr = arr.combine_chunks()
    enc = arr.dictionary_encode()
    mapped = pa.array([fn(v) for v in enc.dictionary.to_pylist()], pa.string())
    return pc.take(mapped, enc.indices)


def make_apply_comp(mapping_ref):
    """Task fn: mention partials (key, surface, n) -> (comp, surface, n),
    via the broadcast non-identity key -> component map (fetched once per
    worker-side closure; missing keys are their own component)."""
    state: dict = {}

    def apply_comp(batch: pa.Table) -> pa.Table:
        import ray as _ray

        if "m" not in state:
            state["m"] = _ray.get(mapping_ref)
        m = state["m"]
        return pa.table({"comp": _remap(batch["key"], lambda k: m.get(k, k)),
                         "surface": batch["surface"], "n": batch["n"]})

    return apply_comp


def make_canonize(mapping_ref):
    """Task fn: (subj, pred, obj, labels) -> (subj_id, pred, obj_id).

    The broadcast mapping is fetched lazily via ``ray.get`` inside the task
    (zero-copy from the node-local object store — one transfer per node, not
    per batch). Normalization (unicode NFKD) dominated this stage's profile;
    surfaces repeat HEAVILY, so each column is Arrow dictionary-encoded and
    the key/lookup runs once per DISTINCT (label, surface) of the batch
    (memoized across batches per worker) — the per-row work is a vectorized
    ``take``, no Python in the row loop.
    """
    state: dict = {}

    def canonize(batch: pa.Table) -> pa.Table:
        import ray as _ray

        mapping = state.get("m")
        if mapping is None:
            mapping = state["m"] = _ray.get(mapping_ref)
            state["cache"] = {}
        cache = state["cache"]

        def _id(joined_key: str) -> str:
            k = cache.get(joined_key)
            if k is None:
                label, surface = joined_key.split("\x00", 1)
                ek = entity_key(label, surface)
                k = cache[joined_key] = mapping.get(ek, ek)
            return k

        def col_ids(labels, surfaces) -> pa.Array:
            return _remap(pc.binary_join_element_wise(labels, surfaces, "\x00"), _id)

        return pa.table(
            {
                "subj_id": col_ids(batch["subj_label"], batch["subj"]),
                "pred": batch["pred"],
                "obj_id": col_ids(batch["obj_label"], batch["obj"]),
            }
        )

    return canonize


def build_edges(triples_ds: Dataset, mapping_ref) -> Dataset:
    """Canonicalized, weighted edge table from flat triple rows;
    ``mapping_ref``: ObjectRef to the non-identity key -> comp dict."""
    keyed = triples_ds.map_batches(make_canonize(mapping_ref), batch_format="pyarrow")
    return grouped_count(keyed, ["subj_id", "pred", "obj_id"], alias="weight")
