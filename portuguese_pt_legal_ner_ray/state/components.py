"""Distributed connected components via min-label propagation.

Used when the distinct-entity graph exceeds driver memory
(stages/linking.py DRIVER_CC_MAX_KEYS). Pure Dataset algebra — each
iteration is ONE streamed plan with two shuffles:

1. bucket-route the union of comp rows ``(node, comp)`` and edge rows
   ``(node=src, dst)`` by ``hash(node) % buckets`` — each bucket emits, with
   ONE vectorized pandas UDF (the ``sessionize`` pattern,
   stages/windows.py), every node's own assignment plus ``(dst, comp)``
   messages to its out-neighbors (an explicit join-free message-passing
   step; never one Python call per node — that costs a call per distinct
   key, ruinous at web-scale key counts);
2. the min-label reduce via the bucketed combiner shuffle
   (``stages/shuffle.grouped_agg`` — per-batch pyarrow pre-min, then one
   64-bucket merge). Ray's native ``groupby(node).aggregate(Min)`` costs
   per-distinct-key work in its sort-based reduce: measured 53 s vs ~2 s
   for the combiner shuffle on a 200k-key graph (scripts/bench_scale_paths).

Convergence = assignment checksum unchanged (a cheap vectorized-hash sum
job per round), bounded by ``max_iters``; components here are shallow
same-as variant clusters, so rounds ≈ component diameter. Component id
converges to the lexicographic-min key of each component — the same
contract as the driver union-find (SURVEY.md §7 "what's hard" #1/#2), so
both paths agree exactly.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
from ray.data import Dataset


def _checksum(comp: Dataset) -> int:
    """Order-free assignment digest: sum (mod 2^64) of the vectorized
    64-bit hash of each "node->comp" row — one kernel pass per batch.

    Each batch's partial wraps in uint64 and the driver adds the partials
    (one row per batch) exactly, so the digest does not depend on how rows
    are split into blocks. ``Dataset.sum`` does depend on it: its reduce
    leaves int64 on overflow, and the number of blocks changes from round
    to round, so an unchanged assignment could look changed."""
    from ..stages.shuffle import hash_strings

    def partial(batch: pa.Table) -> pa.Table:
        joined = pc.binary_join_element_wise(
            pc.cast(batch["node"], pa.string()),
            pc.cast(batch["comp"], pa.string()),
            "->",
        ).combine_chunks()
        s = int(np.sum(hash_strings(joined), dtype=np.uint64))
        return pa.table({"crc": pa.array([s], pa.uint64())})

    parts = comp.map_batches(partial, batch_format="pyarrow").take_all()
    return sum(r["crc"] for r in parts) % 2**64


def _emit_bucket(g: pd.DataFrame) -> pd.DataFrame:
    """One vectorized message-passing step for a whole node bucket: each
    node's current component is forwarded to itself and to every
    out-neighbor recorded in this bucket's edge rows."""
    own = g[g["comp"].notna()]
    # exactly one comp row per node in a well-formed union; min() is the
    # safe reduce if an upstream ever unions duplicate assignments
    comp_map = own.groupby("node", sort=False)["comp"].min()
    msgs = g[g["dst"].notna()]
    node = pd.concat([own["node"], msgs["dst"]], ignore_index=True)
    comp = pd.concat(
        [own["comp"], msgs["node"].map(comp_map)], ignore_index=True
    )
    return pd.DataFrame({"node": node, "comp": comp})


def connected_components_distributed(
    keys_ds: Dataset, pairs_ds: Dataset, max_iters: int = 15
) -> Dataset:
    """keys_ds: (key), pairs_ds: (a, b) -> Dataset of (key, comp)."""
    comp = keys_ds.map_batches(
        lambda t: pa.table({"node": t["key"], "comp": t["key"],
                            "dst": pa.nulls(len(t), pa.string())}),
        batch_format="pyarrow",
    ).materialize()  # small: one row per distinct key

    def edge_rows(batch: pa.Table) -> pa.Table:
        src = pa.chunked_array([batch["a"], batch["b"]]).combine_chunks()
        dst = pa.chunked_array([batch["b"], batch["a"]]).combine_chunks()
        return pa.table({"node": src, "comp": pa.nulls(len(src), pa.string()), "dst": dst})

    edges = pairs_ds.map_batches(edge_rows, batch_format="pyarrow").materialize()
    if edges.count() == 0:
        return comp.map_batches(
            lambda t: pa.table({"key": t["node"], "comp": t["comp"]}),
            batch_format="pyarrow",
        )

    last_crc = _checksum(comp)
    from ..stages.shuffle import exchange, grouped_agg

    # a sort-based groupby emits as many blocks as its input has, so each
    # round's output would carry the edge blocks on into the next round's
    # union, and every round would run more tasks than the one before;
    # repartitioning each round's output to the first comp's block count
    # keeps the rounds the same size
    n_blocks = comp.num_blocks()
    for _ in range(max_iters):
        msgs = exchange([comp, edges], ["node"], _emit_bucket, batch_format="pandas")
        new_comp = (
            grouped_agg(msgs, ["node"], {"comp": ("comp", "min")})
            .map_batches(
                lambda t: pa.table({"node": t["node"], "comp": t["comp"],
                                    "dst": pa.nulls(len(t), pa.string())}),
                batch_format="pyarrow",
            )
            .repartition(n_blocks)
            .materialize()
        )
        crc = _checksum(new_comp)
        comp = new_comp
        if crc == last_crc:
            break
        last_crc = crc
    return comp.map_batches(
        lambda t: pa.table({"key": t["node"], "comp": t["comp"]}),
        batch_format="pyarrow",
    )
