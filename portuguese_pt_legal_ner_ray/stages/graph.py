"""Graph materialization: nodes and edges tables (SURVEY.md §7 step 7).

nodes = one row per canonical entity: ``(entity_id, canonical_surface,
label, n_mentions)`` — one grouped min/sum by component (``NODE_AGG``,
order-free reducers, never first-seen), then the ``node_rows`` finish.
edges = exact-dedup of canonicalized triples with count as weight:
``(subj_id, pred, obj_id, weight)`` — the groupby([subj,pred,obj]).count()
pattern from SURVEY.md §2.5.

Every step is a whole-table Arrow kernel (``comp_rows``, ``canonize``,
``node_rows`` and the ``shuffle.agg_by``/``count_by`` combiners), called by
both placements: ``nodes_table``/``edges_table`` run them once over a whole
table in the driver; ``build_nodes``/``build_edges`` map them as Ray tasks
in front of the bucketed exchange. There the non-identity key -> component
map from ``linking.link`` is ``ray.put`` once and fetched once per
worker-side closure; keys missing from it are their own component.
"""

from __future__ import annotations

import pyarrow as pa
import pyarrow.compute as pc
from ray.data import Dataset

from ..functions.normalize import entity_key
from .shuffle import agg_by, count_by, grouped_agg, grouped_count

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

# canonical_surface = min surface, n_mentions = summed mention counts
NODE_AGG = {"canonical_surface": ("surface", "min"), "n_mentions": ("n", "sum")}
# an edge is one distinct canonical triple, weighted by its count
EDGE_KEY = ["subj_id", "pred", "obj_id"]


def _remap(arr, fn) -> pa.Array:
    """``fn`` applied once per DISTINCT value of a string column, spread
    back to every row by a vectorized ``take`` (no Python in the row loop)."""
    if isinstance(arr, pa.ChunkedArray):
        arr = arr.combine_chunks()
    enc = arr.dictionary_encode()
    mapped = pa.array([fn(v) for v in enc.dictionary.to_pylist()], pa.string())
    return pc.take(mapped, enc.indices)


def comp_rows(partials: pa.Table, mapping: dict[str, str]) -> pa.Table:
    """Mention partials (key, surface, n) -> (comp, surface, n) under the
    non-identity key -> component map (missing keys are their own
    component)."""
    return pa.table({"comp": _remap(partials["key"], lambda k: mapping.get(k, k)),
                     "surface": partials["surface"], "n": partials["n"]})


def node_rows(agg: pa.Table) -> pa.Table:
    """``NODE_AGG`` rows (comp, canonical_surface, n_mentions) -> node rows:
    the label is the component id's part before its first '|'."""
    label = pc.list_element(pc.split_pattern(agg["comp"], pattern="|", max_splits=1), 0)
    return pa.table({"entity_id": agg["comp"],
                     "canonical_surface": agg["canonical_surface"],
                     "label": pc.cast(label, pa.string()),
                     "n_mentions": agg["n_mentions"]})


def canonize(triples: pa.Table, mapping: dict[str, str],
             cache: dict[str, str] | None = None) -> pa.Table:
    """Triples (subj, pred, obj, subj_label, obj_label) -> (subj_id, pred,
    obj_id) under the non-identity key -> component map.

    Normalization (unicode NFKD) dominated this step's profile; surfaces
    repeat HEAVILY, so each column is dictionary-encoded and the key/lookup
    runs once per DISTINCT (label, surface), memoized in ``cache`` across
    calls — the per-row work is a vectorized ``take``.
    """
    cache = {} if cache is None else cache

    def _id(joined_key: str) -> str:
        k = cache.get(joined_key)
        if k is None:
            label, surface = joined_key.split("\x00", 1)
            ek = entity_key(label, surface)
            k = cache[joined_key] = mapping.get(ek, ek)
        return k

    def col_ids(labels, surfaces) -> pa.Array:
        return _remap(pc.binary_join_element_wise(labels, surfaces, "\x00"), _id)

    return pa.table({"subj_id": col_ids(triples["subj_label"], triples["subj"]),
                     "pred": triples["pred"],
                     "obj_id": col_ids(triples["obj_label"], triples["obj"])})


def nodes_table(partials: pa.Table, mapping: dict[str, str]) -> pa.Table:
    """All mention partials -> node rows, in this process."""
    return node_rows(agg_by(comp_rows(partials, mapping), ["comp"], NODE_AGG))


def edges_table(triples: pa.Table, mapping: dict[str, str]) -> pa.Table:
    """All triples -> weighted edge rows, in this process."""
    return count_by(canonize(triples, mapping), EDGE_KEY, "weight")


def _mapped(mapping_ref, kernel):
    """Task fn: ``kernel(batch, mapping, cache)`` with the broadcast map
    fetched by ``ray.get`` on first use (zero-copy from the node-local
    object store: one transfer per node, not per batch) and one memo per
    worker-side closure."""
    state: dict = {}

    def fn(batch: pa.Table) -> pa.Table:
        if not state:
            import ray as _ray

            state.update(m=_ray.get(mapping_ref), cache={})
        return kernel(batch, state["m"], state["cache"])

    fn.__name__ = kernel.__name__
    return fn


def make_canonize(mapping_ref):
    """Task fn: ``canonize`` under the broadcast map ``mapping_ref``."""
    return _mapped(mapping_ref, canonize)


def build_nodes(partials_ds: Dataset, mapping_ref) -> Dataset:
    """Node rows from mention partial rows as Ray tasks: ``comp_rows``
    under the broadcast map, one bucketed ``grouped_agg`` of ``NODE_AGG``,
    then ``node_rows``."""

    def apply_comp(batch: pa.Table, mapping: dict, _cache: dict) -> pa.Table:
        return comp_rows(batch, mapping)

    comp = partials_ds.map_batches(_mapped(mapping_ref, apply_comp), batch_format="pyarrow")
    return grouped_agg(comp, ["comp"], NODE_AGG).map_batches(node_rows,
                                                              batch_format="pyarrow")


def build_edges(triples_ds: Dataset, mapping_ref) -> Dataset:
    """Weighted edge rows from flat triple rows as Ray tasks; ``mapping_ref``:
    ObjectRef to the non-identity key -> comp dict."""
    keyed = triples_ds.map_batches(make_canonize(mapping_ref), batch_format="pyarrow")
    return grouped_count(keyed, EDGE_KEY, alias="weight")
