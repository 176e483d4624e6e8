"""Scale-path evidence benches (VERDICT r3 items #1 and #2 done-criteria).

1. ``--link``: ``linking.link`` with banding in the driver vs as Ray tasks
   (the two placements ``DRIVER_CC_MAX_KEYS`` chooses between; the same
   bound places ``graph_stage``'s nodes/edges builds) on the same
   200k (``--keys N``) synthetic linkable keys plus one hot cluster;
   asserts equal maps and equal verified-pair counts, and prints each
   side's wall time.
2. ``--edges-skew``: the edges ``grouped_count`` under adversarial key
   skew (one exact triple / one hub entity at 40% of 5M rows) vs a uniform
   baseline — the combiner + full-composite-key bucket hash should keep
   the delta under 2x (VERDICT r4 #5; see bench_edges_skew docstring).
3. ``--ann-index``: persisted-index query set vs exact brute_force_topk
   on 512k vectors (see bench_ann_index_vs_brute docstring for the
   small-table caveat).
4. ``--graph``: ``graph/nodes`` and ``graph/edges`` built in the driver
   vs as two Ray jobs (the placements ``graph_stage`` chooses between at
   ``DRIVER_CC_MAX_KEYS`` rows) over 200k (``--rows N``) synthetic
   mention partial rows and as many triples; asserts equal tables and
   prints each side's wall time (see bench_graph docstring).

Results are recorded in BASELINE.md. Owns its Ray session (script entry).

    python scripts/bench_scale_paths.py --link --edges-skew [--cpus 32]
    python scripts/bench_scale_paths.py --link --keys 20000 --cpus 4
    python scripts/bench_scale_paths.py --graph --rows 20000 --cpus 4
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

SHM = Path("/dev/shm/kgray_scalebench")


def ensure_vectors(n: int = 512_000, dim: int = 64) -> Path:
    import numpy as np
    import pyarrow as pa
    import pyarrow.parquet as pq

    path = SHM / f"vectors_{n}x{dim}.parquet"
    if path.exists():
        return path
    SHM.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(42)
    mat = rng.normal(size=(n, dim)).astype(np.float32)
    flat = pa.array(mat.ravel(), pa.float32())
    offs = pa.array(np.arange(n + 1, dtype=np.int32) * dim)
    tbl = pa.table({
        "vec_id": pa.array(np.arange(n, dtype=np.int64)),
        "embedding": pa.ListArray.from_arrays(offs, flat),
    })
    pq.write_table(tbl, path)
    return path


def _link_partials(n_keys: int = 200_000, hot: int = 2_000) -> Path:
    """A ``mentions/`` directory (16 Parquet files) of mention partials over
    ``n_keys`` linkable keys: groups of 4 spelling variants of one random
    name (so most groups link), plus one hot cluster of ``hot``
    near-identical variants (one band key far above ``SALT_THRESHOLD``),
    capped at a tenth of ``n_keys`` so a small run links ordinary groups
    too."""
    import shutil

    import numpy as np
    import pyarrow as pa
    import pyarrow.parquet as pq

    hot = min(hot, n_keys // 10)
    rng = np.random.default_rng(11)
    letters = np.array(list("abcdefghijklmnopqrstuvwxyz"))
    labels = ("PER", "ORG", "LOC")
    keys = []
    for g in range((n_keys - hot) // 4):
        base = "".join(rng.choice(letters, 14))
        label = labels[g % 3]
        keys += [f"{label}|{base}{v}" for v in ("", " a", " sa", " filho")]
    keys += [f"ORG|ministerio publico da comarca {i:04d}" for i in range(hot)]
    tbl = pa.table({
        "key": pa.array(keys, pa.string()),
        "label": pa.array([k.split("|", 1)[0] for k in keys], pa.string()),
        "surface": pa.array([k.split("|", 1)[1] for k in keys], pa.string()),
        "n": pa.array(np.ones(len(keys), dtype=np.int64)),
    })
    out = SHM / f"mentions_{n_keys}"
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    step = -(-len(keys) // 16)
    for i in range(16):
        pq.write_table(tbl.slice(i * step, step), out / f"part-{i:02d}.parquet")
    return out


def bench_link(n_keys: int = 200_000) -> dict:
    from portuguese_pt_legal_ner_ray.config import LinkingConfig
    from portuguese_pt_legal_ner_ray.stages import linking

    mentions = _link_partials(n_keys)
    cfg = LinkingConfig()
    out: dict = {}
    maps = {}
    bound = linking.DRIVER_CC_MAX_KEYS
    try:
        for path, limit in (("driver", bound), ("distributed", 0)):
            linking.DRIVER_CC_MAX_KEYS = limit
            t0 = time.time()
            maps[path], stats = linking.link(mentions, cfg)
            assert stats["link_path"] == path
            out[path] = {"sec": round(time.time() - t0, 2), **stats}
    finally:
        linking.DRIVER_CC_MAX_KEYS = bound
    assert maps["driver"] == maps["distributed"], "banding placements disagree"
    assert out["driver"]["link_pairs"] == out["distributed"]["link_pairs"]
    out["components_merged"] = len(set(maps["driver"].values()))
    return out


def _graph_inputs(n_rows: int) -> tuple[Path, dict[str, str]]:
    """A run directory holding ``n_rows`` mention partial rows under
    ``mentions/`` and ``n_rows`` triples under ``graph/triples`` (4
    ``part=<p>`` partitions each), and a non-identity key -> component map
    shaped like ``linking.link``'s. The partials cover ``n_rows // 2``
    entities, each seen in two partitions; entities come in groups of 4
    spelling variants of one random name, each group one component. Each
    triple joins two entities drawn at random, so nearly every triple is
    its own edge and ``canonize`` keys about as many distinct surfaces as
    there are entities: the most per-row work either placement can get."""
    import shutil

    import numpy as np
    import pyarrow as pa
    import pyarrow.parquet as pq

    from portuguese_pt_legal_ner_ray.functions.normalize import entity_key
    from portuguese_pt_legal_ner_ray.stages.extract import (
        MENTIONS_SCHEMA,
        TRIPLES_SCHEMA,
    )

    rng = np.random.default_rng(13)
    letters = np.array(list("abcdefghijklmnopqrstuvwxyz"))
    labels = ("PER", "ORG", "LOC")
    n_ent = max(4, n_rows // 2) // 4 * 4
    surfaces, ent_labels, mapping = [], [], {}
    for g in range(n_ent // 4):
        base = "".join(rng.choice(letters, 14)).title()
        label = labels[g % 3]
        group = [f"{base}{v}" for v in ("", " A", " Sá", " Filho")]
        keys = [entity_key(label, s) for s in group]
        mapping.update((k, min(keys)) for k in keys if k != min(keys))
        surfaces += group
        ent_labels += [label] * 4
    surfaces = np.array(surfaces, dtype=object)
    ent_labels = np.array(ent_labels, dtype=object)
    keys = np.array([entity_key(l, s) for l, s in zip(ent_labels, surfaces)], dtype=object)
    out = SHM / f"graph_{n_rows}"
    shutil.rmtree(out, ignore_errors=True)
    # every entity in two partitions: rows i and i + n_ent of the tiling
    ent = np.resize(np.arange(n_ent), n_rows)
    subj, obj = rng.integers(0, n_ent, n_rows), rng.integers(0, n_ent, n_rows)
    preds = np.array(["cites", "amends", "mentions", "located_in"], dtype=object)
    tables = {
        "mentions": (MENTIONS_SCHEMA, {
            "key": keys[ent], "label": ent_labels[ent], "surface": surfaces[ent],
            "n": rng.integers(1, 5, n_rows)}),
        "graph/triples": (TRIPLES_SCHEMA, {
            "subj": surfaces[subj], "pred": preds[rng.integers(0, 4, n_rows)],
            "obj": surfaces[obj], "subj_label": ent_labels[subj],
            "obj_label": ent_labels[obj],
            "url": np.array([f"https://t/{i // 8}" for i in range(n_rows)], dtype=object),
            "para_idx": (np.arange(n_rows) % 8).astype(np.int32)}),
    }
    step = -(-n_rows // 4)
    for name, (schema, cols) in tables.items():
        for p in range(4):
            d = out / name / f"part={p:05d}"
            d.mkdir(parents=True)
            part = {c: v[p * step:(p + 1) * step] for c, v in cols.items()}
            pq.write_table(pa.table(part, schema=schema), d / "part.parquet")
    return out, mapping


def bench_graph(n_rows: int, reps: int = 2) -> dict:
    """``graph/nodes`` and ``graph/edges`` built in the driver
    (``kg._driver_graph``) vs as two Ray jobs (``kg._ray_graph``): the two
    placements ``graph_stage`` chooses between at
    ``linking.DRIVER_CC_MAX_KEYS`` rows, timed alternately ``reps`` times
    each over the same ``_graph_inputs`` and the same map. Linking is left
    out (``--link`` times it). Asserts both placements write the same
    rows."""
    import shutil

    import pyarrow.parquet as pq

    from portuguese_pt_legal_ner_ray.pipelines import kg

    out, mapping = _graph_inputs(n_rows)
    builders = {"driver": kg._driver_graph, "distributed": kg._ray_graph}
    secs: dict[str, list[float]] = {path: [] for path in builders}
    tables = {}
    for _ in range(reps):
        for path, build in builders.items():
            for name in ("nodes", "edges"):
                shutil.rmtree(out / "graph" / name, ignore_errors=True)
            t0 = time.perf_counter()
            build(out, mapping)
            secs[path].append(round(time.perf_counter() - t0, 2))
            tables[path] = {name: pq.read_table(out / "graph" / name)
                            for name in ("nodes", "edges")}
    for name in ("nodes", "edges"):
        got = [t[name].sort_by([(c, "ascending") for c in t[name].column_names])
               for t in tables.values()]
        assert got[0].equals(got[1]), f"{name}: graph placements disagree"
    shutil.rmtree(out)
    return {"rows": n_rows, "nodes": tables["driver"]["nodes"].num_rows,
            "edges": tables["driver"]["edges"].num_rows,
            **{f"{path}_sec": v for path, v in secs.items()}}


def bench_ann_index_vs_brute(cpus: int) -> dict:
    """Indexed query set vs exact ``brute_force_topk`` (the no-index path
    of ``ann_topk``). 512k x 64 vectors, 1024 queries, nprobe=4 of 64
    cells: brute force scores every vector; ivf_query reads only the 4
    probed cell partitions. At the sf0.1 embeddings table (2,000 vectors,
    one block) the index CANNOT win — file-planning overhead exceeds a
    single-block scan (BASELINE.md) — the crossover needs a corpus larger
    than one block, which this table provides.
    """
    import tempfile

    from portuguese_pt_legal_ner_ray.sources.parquet import sized_read_parquet
    from portuguese_pt_legal_ner_ray.stages.similarity import (
        brute_force_topk,
        ivf_build,
        ivf_query,
        make_query_ref,
    )

    path = ensure_vectors()
    vecs = sized_read_parquet(str(path), columns=["vec_id", "embedding"])
    qref = make_query_ref(vecs, list(range(1024)))
    idx = tempfile.mkdtemp(prefix="ann_cmp512k_")
    t0 = time.time()
    ivf_build(vecs, idx, n_cells=64)
    build = time.time() - t0
    ivf_query(idx, qref, k=10, nprobe=4).count()  # warm the read path
    t0 = time.time()
    ivf_query(idx, qref, k=10, nprobe=4).count()
    t_index = time.time() - t0
    t0 = time.time()
    brute_force_topk(vecs, qref, k=10).count()
    t_brute = time.time() - t0
    return {"vectors": 512_000, "queries": 1024, "nprobe": 4, "n_cells": 64,
            "build_sec": round(build, 2),
            "indexed_query_sec": round(t_index, 2),
            "brute_sec": round(t_brute, 2),
            "speedup": round(t_brute / t_index, 2)}


def bench_edges_skew(n_rows: int = 5_000_000, hot_frac: float = 0.4) -> dict:
    """Skewed-key evidence for the edges grouped_count (VERDICT r4 #5).

    The edges stage is ``grouped_count(triples, [subj_id, pred, obj_id])``.
    Two adversarial skews vs a uniform baseline, same row count:

    * ``hot_dup`` — ONE exact triple occupies ``hot_frac`` of all rows (a
      mega-popular fact). The per-block Arrow combiner collapses it to one
      partial per block, so the exchange carries ~n_blocks rows for that
      key regardless of its multiplicity.
    * ``hot_entity`` — one SUBJECT occupies ``hot_frac`` of rows but with
      distinct objects (a hub node). Groups stay distinct, and the bucket
      hash runs over the FULL composite key, so the hub's groups spread
      across all buckets — no hot bucket forms.

    Neither skew should regress the phase >2x vs uniform; if it ever does,
    salt the combiner key. Results recorded in BASELINE.md.
    """
    import numpy as np
    import pyarrow as pa
    import pyarrow.parquet as pq
    import ray

    from portuguese_pt_legal_ner_ray.sources.parquet import sized_read_parquet
    from portuguese_pt_legal_ner_ray.stages.shuffle import grouped_count

    rng = np.random.default_rng(7)
    n_entities = 100_000
    preds = np.array(["cites", "amends", "mentions", "located_in"])

    def make(variant: str) -> Path:
        path = SHM / f"triples_{variant}_{n_rows}.parquet"
        if path.exists():
            return path
        SHM.mkdir(parents=True, exist_ok=True)
        subj = rng.integers(0, n_entities, n_rows)
        obj = rng.integers(0, n_entities, n_rows)
        pred = preds[rng.integers(0, len(preds), n_rows)]
        n_hot = int(n_rows * hot_frac)
        hot_rows = rng.choice(n_rows, n_hot, replace=False)
        if variant == "hot_dup":
            subj[hot_rows] = 0
            obj[hot_rows] = 1
            pred[hot_rows] = "cites"
        elif variant == "hot_entity":
            subj[hot_rows] = 0  # hub subject, objects stay distinct
        tbl = pa.table({
            "subj_id": pa.array(np.char.add("ORGANIZACAO|e", subj.astype(str))),
            "pred": pa.array(pred),
            "obj_id": pa.array(np.char.add("LEGISLACAO|e", obj.astype(str))),
        })
        pq.write_table(tbl, path)
        return path

    out: dict = {"rows": n_rows, "hot_frac": hot_frac}
    for variant in ("uniform", "hot_dup", "hot_entity"):
        path = make(variant)
        t0 = time.time()
        n_edges = grouped_count(
            sized_read_parquet(str(path)),
            ["subj_id", "pred", "obj_id"], alias="weight",
        ).count()
        out[variant] = {"sec": round(time.time() - t0, 2), "edges": n_edges}
    base = out["uniform"]["sec"]
    for variant in ("hot_dup", "hot_entity"):
        out[variant]["vs_uniform"] = round(out[variant]["sec"] / base, 2)
    return out


def main():
    import json

    import ray

    cpus = 32
    if "--cpus" in sys.argv:
        cpus = int(sys.argv[sys.argv.index("--cpus") + 1])
    ray.init(address="local", num_cpus=cpus, include_dashboard=False,
             ignore_reinit_error=True, logging_level="ERROR")
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False
    out: dict = {"num_cpus": cpus}
    if "--link" in sys.argv:
        keys = 200_000
        if "--keys" in sys.argv:
            keys = int(sys.argv[sys.argv.index("--keys") + 1])
        out[f"link_{keys // 1000}k"] = bench_link(keys)
    if "--graph" in sys.argv:
        rows = 200_000
        if "--rows" in sys.argv:
            rows = int(sys.argv[sys.argv.index("--rows") + 1])
        out[f"graph_{rows // 1000}k"] = bench_graph(rows)
    if "--edges-skew" in sys.argv:
        out["edges_skew_5m"] = bench_edges_skew()
    if "--ann-index" in sys.argv:
        out["ann_index_vs_brute_512k"] = bench_ann_index_vs_brute(cpus)
    print(json.dumps(out))
    ray.shutdown()


if __name__ == "__main__":
    main()
