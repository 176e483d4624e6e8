"""Engine CLI: build | resume | bench | report | export.

Cluster entry point (north rule: launched via ``ray job submit``)::

    ray job submit --working-dir . -- \
        python -m portuguese_pt_legal_ner_ray.cli build s3://crawl/webpages s3://out/kg

In this sandbox (local mode, no job server) invoke the module directly;
``build`` on an existing out_dir resumes from its manifests either way.


Mirrors the reference's subcommand CLI shape (reference src/cli.py:506-549,
``train|pretrain|infer|list|show``) for the engine's lifecycle:

* ``build <input_dir> <out_dir> [--config cfg.yaml]`` — run the KG pipeline
  (checkpointed; rerunning resumes automatically from manifests)
* ``resume`` — alias of build (resume IS the default semantics)
* ``report <out_dir>`` — print per-(stage, partition) manifest records:
  row counts and wall seconds (the engine's ``list``/``show``
  equivalent); ``--confusion-gold
  <spans.parquet>`` additionally renders the confusion-matrix CSV+PNG
  artifact under ``<out_dir>/artifacts/`` (reference src/tracking.py:253-272)
* ``export <out_dir> <jsonl_path>`` — write reference-format prediction
  records (one JSON object per paragraph, reference src/inference.py:160-166)
* ``bench`` — delegate to bench.py's single run
* ``ann <vectors.parquet> <id,id,...> [--index-dir DIR]`` — the DEFAULT
  ANN entry (stages/similarity.ann_topk): index-first — builds/reuses the
  persisted IVF index at ``--index-dir`` and queries it; without
  ``--index-dir`` it answers exactly by brute force (every vector scored)
* ``ann-build <vectors.parquet> <index_dir>`` — persist the
  cell-partitioned IVF index (stages/similarity.ivf_build)
* ``ann-query <vectors.parquet> <index_dir> <id,id,...>`` — top-k from the
  index, reading only the probed cell partitions

Owns a Ray session when run as a script (guarded init per the driver
contract).
"""

from __future__ import annotations

import argparse
import json
import sys


def _ensure_ray():
    import ray

    if not ray.is_initialized():
        ray.init(address="local", include_dashboard=False,
                 ignore_reinit_error=True, logging_level="ERROR")


def cmd_build(args: argparse.Namespace) -> int:
    _ensure_ray()
    from .config import PipelineConfig
    from .config_io import load_config
    from .pipelines.kg import run_kg_pipeline

    cfg = load_config(args.config) if args.config else PipelineConfig()
    manifest = run_kg_pipeline(args.input_dir, args.out_dir, cfg,
                               num_partitions=args.partitions)
    done = manifest.all_records()
    print(f"build complete: {len(done)} manifest records under {args.out_dir}")
    return 0


def cmd_report(args: argparse.Namespace) -> int:
    from .state.manifest import Manifest

    for rec in Manifest(args.out_dir).all_records():
        line = {k: rec[k] for k in ("stage", "partition", "engine_version")}
        line.update({k: v for k, v in rec.items()
                     if k in ("pages", "paragraphs", "link_keys", "link_pairs",
                              "nodes", "edges", "spans", "triples", "errors",
                              "mentions", "mentions_rows", "mentions_bytes",
                              "link_path", "graph_path",
                              "phases", "wall_s", "in_bytes", "blocks")})
        print(json.dumps(line, sort_keys=True))
    if getattr(args, "confusion_gold", None):
        # reference src/tracking.py:253-272 parity: confusion matrix saved
        # as a per-run artifact (CSV + heatmap PNG) next to the manifests
        _ensure_ray()
        from pathlib import Path

        from .sources.parquet import sized_read_parquet
        from .stages.evalx import confusion_matrix, write_confusion_artifact

        pred = sized_read_parquet(str(Path(args.out_dir) / "graph" / "spans"))
        gold = sized_read_parquet(args.confusion_gold)
        cells = confusion_matrix(pred, gold)
        csv_path, png_path = write_confusion_artifact(
            cells, Path(args.out_dir) / "artifacts" / "confusion")
        print(f"confusion artifact: {csv_path} {png_path}")
    return 0


def cmd_export(args: argparse.Namespace) -> int:
    _ensure_ray()
    from .pipelines.kg import export_predictions_jsonl

    n = export_predictions_jsonl(args.out_dir, args.jsonl_dir)
    print(f"wrote {n} prediction records to {args.jsonl_dir}")
    return 0


def cmd_bench(args: argparse.Namespace) -> int:
    import subprocess

    return subprocess.call([sys.executable, "bench.py"])


def cmd_ann(args: argparse.Namespace) -> int:
    """Index-first ANN (stages/similarity.ann_topk): with ``--index-dir``
    the persisted IVF index is built once and reused (queries read only
    probed partitions — the default, recommended path); without it the
    exact brute-force top-k scores every vector."""
    _ensure_ray()
    from .sources.parquet import sized_read_parquet
    from .stages.similarity import ann_topk, make_query_ref

    vecs = sized_read_parquet(args.vectors, columns=[args.id_col, args.emb_col])
    qref = make_query_ref(vecs, [int(q) for q in args.query_ids.split(",")],
                          emb_col=args.emb_col, id_col=args.id_col)
    out = ann_topk(vecs, qref, k=args.k, nprobe=args.nprobe,
                   index_dir=args.index_dir, n_cells=args.n_cells,
                   emb_col=args.emb_col, id_col=args.id_col)
    if args.out:
        out.write_parquet(args.out)
        print(f"wrote top-{args.k} results to {args.out}")
    else:
        for row in out.take_all():  # <= n_queries * k rows by construction
            print(json.dumps(row))
    return 0


def cmd_ann_build(args: argparse.Namespace) -> int:
    """Build the persisted cell-partitioned IVF index from a vector table."""
    _ensure_ray()
    from .sources.parquet import sized_read_parquet
    from .stages.similarity import ivf_build

    vecs = sized_read_parquet(args.vectors, columns=[args.id_col, args.emb_col])
    cents = ivf_build(vecs, args.index_dir, n_cells=args.n_cells,
                      emb_col=args.emb_col, id_col=args.id_col,
                      train_iters=args.train_iters)
    print(f"ivf index built: {args.index_dir} "
          f"({cents.shape[0]} cells, dim {cents.shape[1]})")
    return 0


def cmd_ann_query(args: argparse.Namespace) -> int:
    """Top-k over a persisted IVF index; query vectors come from a vector
    table by id (reads only the probed cell partitions)."""
    _ensure_ray()
    from .sources.parquet import sized_read_parquet
    from .stages.similarity import ivf_query, make_query_ref

    vecs = sized_read_parquet(args.vectors, columns=[args.id_col, args.emb_col])
    qref = make_query_ref(vecs, [int(q) for q in args.query_ids.split(",")],
                          emb_col=args.emb_col, id_col=args.id_col)
    out = ivf_query(args.index_dir, qref, k=args.k, nprobe=args.nprobe,
                    emb_col=args.emb_col, id_col=args.id_col)
    if args.out:
        out.write_parquet(args.out)
        print(f"wrote top-{args.k} results to {args.out}")
    else:
        for row in out.take_all():  # <= n_queries * k rows by construction
            print(json.dumps(row))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="kgray")
    sub = parser.add_subparsers(dest="cmd", required=True)

    for name in ("build", "resume"):
        b = sub.add_parser(name)
        b.add_argument("input_dir")
        b.add_argument("out_dir")
        b.add_argument("--config", default=None)
        b.add_argument("--partitions", type=int, default=8)
        b.set_defaults(fn=cmd_build)

    r = sub.add_parser("report")
    r.add_argument("out_dir")
    r.add_argument("--confusion-gold", default=None,
                   help="gold spans parquet; renders the confusion-matrix "
                        "CSV+PNG artifact under <out_dir>/artifacts/")
    r.set_defaults(fn=cmd_report)

    e = sub.add_parser("export")
    e.add_argument("out_dir")
    e.add_argument("jsonl_dir")
    e.set_defaults(fn=cmd_export)

    be = sub.add_parser("bench")
    be.set_defaults(fn=cmd_bench)

    an = sub.add_parser("ann")
    an.add_argument("vectors")
    an.add_argument("query_ids", help="comma-separated vector ids")
    an.add_argument("--index-dir", default=None,
                    help="persisted IVF index dir (built once, reused; "
                         "RECOMMENDED — without it the top-k is exact "
                         "brute force over every vector, and --nprobe and "
                         "--n-cells are unused)")
    an.add_argument("--k", type=int, default=10)
    an.add_argument("--nprobe", type=int, default=4)
    an.add_argument("--n-cells", type=int, default=128)
    an.add_argument("--emb-col", default="embedding")
    an.add_argument("--id-col", default="vec_id")
    an.add_argument("--out", default=None, help="parquet output dir (default: print)")
    an.set_defaults(fn=cmd_ann)

    ab = sub.add_parser("ann-build")
    ab.add_argument("vectors")
    ab.add_argument("index_dir")
    ab.add_argument("--n-cells", type=int, default=128)
    ab.add_argument("--train-iters", type=int, default=0)
    ab.add_argument("--emb-col", default="embedding")
    ab.add_argument("--id-col", default="vec_id")
    ab.set_defaults(fn=cmd_ann_build)

    aq = sub.add_parser("ann-query")
    aq.add_argument("vectors")
    aq.add_argument("index_dir")
    aq.add_argument("query_ids", help="comma-separated vector ids")
    aq.add_argument("--k", type=int, default=10)
    aq.add_argument("--nprobe", type=int, default=4)
    aq.add_argument("--emb-col", default="embedding")
    aq.add_argument("--id-col", default="vec_id")
    aq.add_argument("--out", default=None, help="parquet output dir (default: print)")
    aq.set_defaults(fn=cmd_ann_query)

    args = parser.parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
