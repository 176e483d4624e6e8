"""Bounded-object-store run: prove the pipeline streams with backpressure.

Runs the KG pipeline (``run_kg_pipeline``, fresh) over an sf0.1-scale corpus (~50k pages; hundreds
of MB in flight across stage boundaries) inside a Ray session whose object
store is capped far below the data volume. Success = identical outputs to
an uncapped run — blocks stream, spill, and never require the whole dataset
resident (SURVEY.md §4 memory-pressure row).

Usage: python scripts/memory_check.py [store_mb] [sf]
Prints one JSON line with row counts and wall time.
"""

from __future__ import annotations

import json
import shutil
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))


def main() -> int:
    store_mb = int(sys.argv[1]) if len(sys.argv) > 1 else 100
    sf = float(sys.argv[2]) if len(sys.argv) > 2 else 0.1

    import ray

    ray.init(
        address="local",
        num_cpus=8,
        object_store_memory=store_mb * 1024 * 1024,
        include_dashboard=False,
        ignore_reinit_error=True,
        logging_level="ERROR",
    )
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False

    from portuguese_pt_legal_ner_ray.corpus import ensure_webpages
    from portuguese_pt_legal_ner_ray.pipelines.kg import run_kg_pipeline

    corpus = ensure_webpages(sf)
    out = f"/tmp/kgray_memcheck_sf{sf:g}"
    shutil.rmtree(out, ignore_errors=True)
    t0 = time.time()
    meta = run_kg_pipeline(corpus / "webpages", out).read("graph", "all")
    out = {
        "store_mb": store_mb,
        "sf": sf,
        "sec": round(time.time() - t0, 1),
        "paragraphs": meta["paragraphs"],
        "nodes": meta["nodes"],
        "edges": meta["edges"],
    }
    print(json.dumps(out))
    ray.shutdown()
    return 0


if __name__ == "__main__":
    sys.exit(main())
