"""Extraction stages: HTML→text, paragraph explode, NER + triples.

Ray-Data-first shapes (SURVEY.md §7 steps 2-5), all plain Ray tasks:

* ``extract_text_batch`` — stateless ``map_batches`` over zero-copy Arrow;
  pure ``pyarrow.compute`` kernel chain (functions/html.py).
* ``explode_batch`` — stateless vectorized explode (functions/paragraphs.py).
* ``ner_triples_task`` — the NER + triples step. It keeps one
  ``NerTripleStage`` per worker process and per config, so the tagger is
  built once per worker (mirroring the reference's once-per-process model
  load, src/inference.py:65-96) without an actor pool holding CPUs. The
  language gate runs inside the stage: non-pt rows keep their lineage
  (they flow through with empty span/triple lists) per BASELINE.json
  north_star.

Output of the NER stage is ONE nested Arrow table per paragraph row —
``(url, lang, para_idx, para_text, spans: list<struct>, triples:
list<struct>)`` — so a single streamed pass yields every downstream view
(paragraphs / spans / triples are projections or flattens of it), instead of
re-running extraction once per output table.
"""

from __future__ import annotations

from pathlib import Path

import pyarrow as pa

from ..config import PipelineConfig
from ..functions.html import html_to_text_arrow
from ..functions.paragraphs import explode_paragraphs_arrow
from ..functions.tagger import RegexGazetteerTagger
from ..functions.triples import extract_triples
from .shuffle import worker_cached

SPAN_T = pa.struct(
    [
        ("start", pa.int32()),
        ("end", pa.int32()),
        ("label", pa.string()),
        ("score", pa.float32()),
        ("surface", pa.string()),
    ]
)
TRIPLE_T = pa.struct(
    [
        ("subj", pa.string()),
        ("pred", pa.string()),
        ("obj", pa.string()),
        ("subj_label", pa.string()),
        ("obj_label", pa.string()),
    ]
)

EXTRACTION_SCHEMA = pa.schema(
    [
        ("url", pa.string()),
        ("lang", pa.string()),
        ("para_idx", pa.int32()),
        ("para_text", pa.string()),
        ("spans", pa.list_(SPAN_T)),
        ("triples", pa.list_(TRIPLE_T)),
        ("error", pa.string()),  # null = clean row; non-null = quarantined
    ]
)


def extract_text_batch(batch: pa.Table) -> pa.Table:
    """(url, html, lang, ...) -> (url, lang, text). Fully vectorized."""
    return pa.table(
        {
            "url": batch["url"],
            "lang": batch["lang"],
            "text": html_to_text_arrow(batch["html"]),
        }
    )


def explode_batch(batch: pa.Table) -> pa.Table:
    """(url, lang, text) -> one row per kept paragraph (url, lang, para_idx, para_text)."""
    return explode_paragraphs_arrow(batch, text_col="text", keep_cols=("url", "lang"))


class NerTripleStage:
    """Paragraph rows in, nested spans+triples out (see ``ner_triples_task``).

    ``dynamic_batching=True`` routes paragraphs through
    ``length_sorted_batches`` (sort by token length, sub-batch under a token
    budget, restore input order on output) — semantics-neutral here, and the
    exact shape a model-backed ``Tagger`` needs for padded forward passes.
    """

    def __init__(self, cfg: PipelineConfig | None = None,
                 dynamic_batching: bool = False, token_budget: int = 8192):
        cfg = cfg or PipelineConfig()
        if cfg.tagger == "logits":  # real-model wire format (argmax decode)
            from ..functions.tagger import LogitsTagger

            self.tagger = LogitsTagger(confidence_threshold=cfg.confidence_threshold)
        elif cfg.tagger == "hf":  # real checkpoint (S7 artifact, §2.3 A1)
            if not cfg.model_dir:
                raise ValueError("tagger='hf' requires cfg.model_dir")
            from ..functions.tagger import HFTagger

            self.tagger = HFTagger(
                cfg.model_dir, confidence_threshold=cfg.confidence_threshold
            )
        else:
            self.tagger = RegexGazetteerTagger(cfg.confidence_threshold)
        self.dynamic_batching = dynamic_batching
        self.token_budget = token_budget
        # per-worker compiled gate: None when the tagger cannot guarantee the
        # superset property (e.g. a real checkpoint behind LogitsTagger)
        self.gate = getattr(self.tagger, "can_match_pattern", None)
        # bounded per-worker memo: tagging is a pure function of the text and
        # web corpora repeat boilerplate paragraphs heavily, so identical
        # paragraphs are decoded once per worker (cleared at 64k entries)
        self._memo: dict[str, tuple[list, str | None]] = {}

    def _tag_one(self, text: str):
        """-> (spans, error). The reference swallows per-paragraph errors
        into a silent ``[]`` (src/inference.py:214-216) — a bug SURVEY.md §4
        forbids replicating: here failures are quarantined with lineage (the
        row carries the error string and empty spans; the pipeline surfaces
        an errors table) instead of silently dropping entities."""
        hit = self._memo.get(text)
        if hit is not None:
            return hit
        try:
            out = self.tagger.tag_paragraph(text), None
        except Exception as exc:  # noqa: BLE001 - poison-pill quarantine
            out = [], f"{type(exc).__name__}: {exc}"
        if len(self._memo) > 65_536:
            self._memo.clear()
        self._memo[text] = out
        return out

    def _tag_many(self, texts: list[str]) -> list[tuple[list, str | None]]:
        if not self.dynamic_batching:
            return [self._tag_one(t) for t in texts]
        from ..functions.tagger import length_sorted_batches

        tag_batch = getattr(self.tagger, "tag_batch", None)
        out: list = [None] * len(texts)
        for idx_batch in length_sorted_batches(texts, self.token_budget):
            if tag_batch is None:
                for i in idx_batch:
                    out[i] = self._tag_one(texts[i])
                continue
            sub = [texts[i] for i in idx_batch]
            try:
                # ONE padded forward pass per length-sorted sub-batch
                for i, spans in zip(idx_batch, tag_batch(sub)):
                    out[i] = (spans, None)
            except Exception:  # noqa: BLE001 - isolate the poison row
                for i in idx_batch:
                    out[i] = self._tag_one(texts[i])
        return out

    def __call__(self, batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        texts = batch["para_text"].to_pylist()
        langs = batch["lang"].to_pylist()
        # vectorized can-match gate (one Arrow regex over the whole batch):
        # a paragraph the tagger's own gate rejects cannot yield a span, so
        # it skips the per-paragraph tagger entirely (same [] result)
        if self.gate is not None:
            can = pc.match_substring_regex(batch["para_text"], self.gate).to_pylist()
        else:
            can = [True] * len(texts)
        pt_idx = [i for i, l in enumerate(langs) if l == "pt" and can[i]]
        tagged = self._tag_many([texts[i] for i in pt_idx])
        by_row = dict(zip(pt_idx, tagged))
        spans_col: list[list[dict]] = []
        triples_col: list[list[dict]] = []
        errors: list[str | None] = []
        for i, text in enumerate(texts):
            hit = by_row.get(i)
            if hit is None:  # non-pt rows keep lineage with empty lists
                spans_col.append([])
                triples_col.append([])
                errors.append(None)
                continue
            spans, err = hit
            errors.append(err)
            spans_col.append(
                [
                    {
                        "start": s.start,
                        "end": s.end,
                        "label": s.label,
                        "score": s.score,
                        "surface": text[s.start : s.end],
                    }
                    for s in spans
                ]
            )
            triples_col.append(
                [
                    {"subj": su, "pred": p, "obj": o, "subj_label": sl, "obj_label": ol}
                    for su, p, o, sl, ol in extract_triples(text, spans)
                ]
            )
        return pa.table(
            {
                "url": batch["url"],
                "lang": batch["lang"],
                "para_idx": batch["para_idx"],
                "para_text": batch["para_text"],
                "spans": pa.array(spans_col, type=pa.list_(SPAN_T)),
                "triples": pa.array(triples_col, type=pa.list_(TRIPLE_T)),
                "error": pa.array(errors, pa.string()),
            }
        )


_TASK_STAGES: dict[str, NerTripleStage] = {}


def _stage_key(cfg: PipelineConfig) -> str:
    """Identity of the stage ``cfg`` builds. A checkpoint directory adds its
    files' (path, size, mtime_ns), so a model retrained in place is loaded
    again instead of served from a worker's cache."""
    files = sorted(Path(cfg.model_dir).rglob("*")) if cfg.model_dir else []
    return repr((cfg, [(str(f), f.stat().st_size, f.stat().st_mtime_ns)
                       for f in files if f.is_file()]))


def ner_triples_task(batch: pa.Table, cfg: PipelineConfig | None = None) -> pa.Table:
    """Task-mode NER stage: ``map_batches(ner_triples_task, fn_kwargs={"cfg": cfg})``.

    Ray reuses worker processes across tasks, so the stage built for ``cfg``
    is cached per worker, keyed by the config: the tagger is built once per
    worker without an actor pool, and two configs in one Ray session never
    share a tagger.
    """
    cfg = cfg or PipelineConfig()
    stage = worker_cached(_TASK_STAGES, _stage_key(cfg),
                          lambda: NerTripleStage(cfg))
    return stage(batch)


def flatten_spans(batch: pa.Table) -> pa.Table:
    """Extraction rows -> one row per span (url, para_idx, start, end, label, surface)."""
    import pyarrow.compute as pc

    lists = batch["spans"].combine_chunks()
    parent = pc.list_parent_indices(lists)
    flat = pc.list_flatten(lists)
    take = lambda c: pc.take(batch[c], parent)  # noqa: E731
    return pa.table(
        {
            "url": take("url"),
            "para_idx": take("para_idx"),
            "start": flat.field("start"),
            "end": flat.field("end"),
            "label": flat.field("label"),
            "surface": flat.field("surface"),
        }
    )


def flatten_triples(batch: pa.Table) -> pa.Table:
    """Extraction rows -> one row per triple (subj, pred, obj, labels, url, para_idx)."""
    import pyarrow.compute as pc

    lists = batch["triples"].combine_chunks()
    parent = pc.list_parent_indices(lists)
    flat = pc.list_flatten(lists)
    return pa.table(
        {
            "subj": flat.field("subj"),
            "pred": flat.field("pred"),
            "obj": flat.field("obj"),
            "subj_label": flat.field("subj_label"),
            "obj_label": flat.field("obj_label"),
            "url": pc.take(batch["url"], parent),
            "para_idx": pc.take(batch["para_idx"], parent),
        }
    )
