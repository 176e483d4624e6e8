"""Per-layer measurement: benchmark-side spans and a single-thread kernel replay.

Spans are opened in the benchmark process only, around calls into each
module's public functions; ``Tracer.patch`` swaps a module attribute for a
timing wrapper and puts the original back afterwards. Nothing inside the
package changes.

The kernel replay runs the package's own per-batch kernels in-process, one
input file per block, in the order the pipeline runs them, so each layer's
compute time is known without Ray's scheduling around it.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq


class Tracer:
    """In-memory spans: name, start, end, parent; written once at the end."""

    def __init__(self):
        self.spans: list[dict] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str, **attrs):
        rec = {"id": len(self.spans), "name": name,
               "parent": self._open[-1] if self._open else None,
               "start": time.perf_counter(), "end": None, **attrs}
        self.spans.append(rec)
        self._open.append(rec["id"])
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self._open.pop()

    @contextmanager
    def patch(self, module, attr: str, name: str, keep_args=None):
        """Open span ``name`` around every call of ``module.attr``;
        ``keep_args(args, kwargs) -> dict`` adds attributes to the span."""
        orig = getattr(module, attr)

        def wrapper(*args, **kwargs):
            extra = keep_args(args, kwargs) if keep_args else {}
            with self.span(name, **extra):
                return orig(*args, **kwargs)

        setattr(module, attr, wrapper)
        try:
            yield
        finally:
            setattr(module, attr, orig)

    def find(self, name: str, within: dict | None = None,
             prefix: bool = False) -> list[dict]:
        """Spans named ``name`` (or starting with it), optionally only those
        inside the interval of span ``within``."""
        out = [s for s in self.spans
               if (s["name"].startswith(name) if prefix else s["name"] == name)]
        if within is not None:
            out = [s for s in out
                   if s["start"] >= within["start"] and s["end"] <= within["end"]]
        return out

    def total_s(self, name: str, within: dict | None = None) -> float:
        return sum(s["end"] - s["start"] for s in self.find(name, within))

    def dump(self, path: Path) -> None:
        path.write_text(json.dumps(self.spans, indent=0))


def span_cost_s(n: int = 20_000) -> float:
    """Seconds one traced call adds: a call through ``Tracer.patch``'s
    wrapper around a function that does nothing, minus the bare call."""
    import types

    mod = types.SimpleNamespace(f=lambda: None)
    tr = Tracer()
    t0 = time.perf_counter()
    for _ in range(n):
        mod.f()
    bare = time.perf_counter() - t0
    with tr.patch(mod, "f", "noop"):
        t0 = time.perf_counter()
        for _ in range(n):
            mod.f()
        wrapped = time.perf_counter() - t0
    return max(0.0, wrapped - bare) / n


def dir_mb(path: Path) -> float:
    return sum(f.stat().st_size for f in path.rglob("*") if f.is_file()) / 2**20


class _Clock:
    """Accumulating named timers."""

    def __init__(self):
        self.s: dict[str, float] = {}

    @contextmanager
    def __call__(self, name: str):
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self.s[name] = self.s.get(name, 0.0) + time.perf_counter() - t0

    def timed(self, name: str, fn):
        def wrapper(*args, **kwargs):
            with self(name):
                return fn(*args, **kwargs)
        return wrapper


EXTRACT_KERNELS = ("html", "explode", "ner", "flatten")
GRAPH_KERNELS = ("partials", "bands", "pairs", "verify", "cc", "canonize", "bucket_by")


def replay(files: list[str]) -> dict:
    """Run the extract kernels per file, then the linking/graph kernels over
    everything, in this process on one thread.

    Returns ``{"file_s": {file: extract kernel seconds}, "kernel_s":
    {kernel: seconds}, "metrics": {per-layer metric: value}}``. One ``NerTripleStage`` serves every file, as one
    actor would, so its per-text memo works as it does in the pipeline.
    """
    import ray

    from portuguese_pt_legal_ner_ray.config import PipelineConfig
    from portuguese_pt_legal_ner_ray.functions.blocking import pairs_for_block
    from portuguese_pt_legal_ner_ray.functions.minhash import jaccard, shingles
    from portuguese_pt_legal_ner_ray.stages import extract
    from portuguese_pt_legal_ner_ray.stages.graph import make_canonize
    from portuguese_pt_legal_ner_ray.stages.linking import (
        BandStage,
        MentionPartial,
        connected_components_driver,
    )
    from portuguese_pt_legal_ner_ray.stages.shuffle import bucket_by

    cfg = PipelineConfig()
    clock = _Clock()
    stage = extract.NerTripleStage(cfg)
    stage.tagger.tag_paragraph = clock.timed("tag", stage.tagger.tag_paragraph)
    file_s: dict[str, float] = {}
    spans_blocks, triple_blocks = [], []
    n_para = n_pt = n_yield = 0
    orig_triples = extract.extract_triples
    extract.extract_triples = clock.timed("triples", orig_triples)
    try:
        for f in files:
            block = pq.read_table(f, columns=["url", "html", "lang"])
            before = sum(clock.s.get(k, 0.0) for k in EXTRACT_KERNELS)
            with clock("html"):
                text = extract.extract_text_batch(block)
            with clock("explode"):
                paras = extract.explode_batch(text)
            with clock("ner"):
                ext = stage(paras)
            with clock("flatten"):
                spans_blocks.append(extract.flatten_spans(ext))
                triple_blocks.append(extract.flatten_triples(ext))
            file_s[f] = sum(clock.s.get(k, 0.0) for k in EXTRACT_KERNELS) - before
            n_para += ext.num_rows
            langs = ext["lang"].to_pylist()
            n_spans = [len(s) for s in ext["spans"].to_pylist()]
            n_pt += sum(1 for lang in langs if lang == "pt")
            n_yield += sum(1 for k in n_spans if k)
    finally:
        extract.extract_triples = orig_triples

    # linking: per-block mention partials, merged to distinct keys (the
    # merge is the shuffle's job, so it is not a kernel here)
    partial = MentionPartial()
    merged: dict[str, str] = {}
    for sb in spans_blocks:
        with clock("partials"):
            part = partial(sb)
        merged.update(zip(part["key"].to_pylist(), part["label"].to_pylist()))
    mentions = pa.table({"key": pa.array(list(merged), pa.string()),
                         "label": pa.array(list(merged.values()), pa.string())})
    with clock("bands"):
        bands = BandStage(cfg.linking)(mentions)
    with clock("pairs"):
        blocks: dict[tuple[str, str], list[str]] = {}
        for label, bk, norm in zip(bands["label"].to_pylist(),
                                   bands["band_key"].to_pylist(),
                                   bands["norm"].to_pylist()):
            blocks.setdefault((label, bk), []).append(norm)
        cand = {(f"{label}|{a}", f"{label}|{b}")
                for (label, _bk), norms in blocks.items()
                for a, b in pairs_for_block(norms, cfg.linking)}
    with clock("verify"):
        k, thr = cfg.linking.shingle_k, cfg.linking.jaccard_threshold
        verified = [(a, b) for a, b in cand
                    if jaccard(shingles(a.split("|", 1)[1], k),
                               shingles(b.split("|", 1)[1], k)) >= thr]
    with clock("cc"):
        mapping = connected_components_driver(list(merged), verified)
    canonize = make_canonize(ray.put({a: b for a, b in mapping.items() if a != b}))
    buckets = []
    for tb in triple_blocks:
        with clock("canonize"):
            edges = canonize(tb)
        with clock("bucket_by"):
            routed = bucket_by(edges, ["subj_id", "pred", "obj_id"])
        buckets.append(routed["__bucket"].to_numpy())
    per_bucket = np.bincount(np.concatenate(buckets), minlength=64)
    n_spans_all = sum(b.num_rows for b in spans_blocks)
    tag = clock.s.get("tag", 0.0)
    tri = clock.s.get("triples", 0.0)
    return {
        "file_s": file_s,
        "kernel_s": dict(clock.s),
        "metrics": {
            "extract.html_s": clock.s["html"],
            "extract.explode_s": clock.s["explode"],
            "extract.ner_s": clock.s["ner"],
            "extract.ner_assembly_s": clock.s["ner"] - tag - tri,
            "extract.flatten_s": clock.s["flatten"],
            "extract.paragraphs": n_para,
            "extract.spans": n_spans_all,
            "extract.triples": sum(b.num_rows for b in triple_blocks),
            "extract.ner_yield_share": n_yield / max(1, n_pt),
            "tagger.tag_s": tag,
            "triples.extract_s": tri,
            "linking.partials_s": clock.s["partials"],
            "linking.bands_s": clock.s["bands"],
            "linking.pairs_s": clock.s["pairs"],
            "linking.verify_s": clock.s["verify"],
            "linking.cc_s": clock.s["cc"],
            "linking.keys": len(merged),
            "linking.candidate_pairs": len(cand),
            "linking.verified_pairs": len(verified),
            "linking.verify_pass_share": len(verified) / max(1, len(cand)),
            "graph.canonize_s": clock.s["canonize"],
            "shuffle.bucket_by_s": clock.s["bucket_by"],
            "shuffle.bucket_skew": float(per_bucket.max() / max(1e-9, per_bucket.mean())),
        },
    }


def graph_kernel_s(rep: dict) -> float:
    return sum(rep["kernel_s"].get(k, 0.0) for k in GRAPH_KERNELS)
