"""Distributed evaluation: span-set P/R/F1 and confusion (G1/G2/G3 parity).

Reference semantics (seqeval micro metrics, reference src/training.py:46-101):
entities are the unit, a hit is an EXACT (position, type) match. Here spans
are identified by (url, para_idx, start, end) and typed by ``label``.

Implementation is the partial+final pattern: per-batch combiners emit
(key, pred_count, gold_count) partials; one bucketed shuffle merges them;
a SECOND distributed reduce collapses the per-span-key rows to per-label
(tp, fp, fn) partials, so the driver collects ~10 label rows — never one
row per distinct span (at corpus scale that would be billions of rows). The confusion
matrix counts (gold_label, pred_label) for spans matching on position, with
a deterministic sorted label axis — deliberately NOT reproducing the
reference's nondeterministic ``set()`` axis order (src/training.py:207;
SURVEY.md §7 "bugs not to replicate").
"""

from __future__ import annotations

import pandas as pd
import pyarrow as pa
from ray.data import Dataset

from .shuffle import grouped_agg

_KEY_COLS = ["url", "para_idx", "start", "end"]


def _tagged(spans: Dataset, col: str) -> Dataset:
    def tag(batch: pa.Table) -> pa.Table:
        n = len(batch)
        return pa.table(
            {
                "url": batch["url"],
                "para_idx": pa.compute.cast(batch["para_idx"], pa.int64()),
                "start": pa.compute.cast(batch["start"], pa.int64()),
                "end": pa.compute.cast(batch["end"], pa.int64()),
                f"{col}_label": batch["label"],
                "pred_n": pa.array([1 if col == "pred" else 0] * n, pa.int64()),
                "gold_n": pa.array([1 if col == "gold" else 0] * n, pa.int64()),
            }
        )

    return spans.map_batches(tag, batch_format="pyarrow")


def _merged_keys(pred_spans: Dataset, gold_spans: Dataset) -> Dataset:
    """One row per distinct span key with (pred_label, gold_label, pred_n,
    gold_n) — the shared first reduce of span_eval / confusion_matrix."""
    pred = _tagged(pred_spans, "pred").map_batches(
        lambda t: t.append_column("gold_label", pa.array([""] * len(t), pa.string())),
        batch_format="pyarrow",
    )
    gold = _tagged(gold_spans, "gold").map_batches(
        lambda t: t.append_column("pred_label", pa.array([""] * len(t), pa.string())),
        batch_format="pyarrow",
    )
    return grouped_agg(
        [pred, gold],
        _KEY_COLS,
        {
            "pred_label": ("pred_label", "max"),  # "" loses to any real label
            "gold_label": ("gold_label", "max"),
            "pred_n": ("pred_n", "sum"),
            "gold_n": ("gold_n", "sum"),
        },
    )


def span_eval(pred_spans: Dataset, gold_spans: Dataset) -> pd.DataFrame:
    """-> per-label + micro rows: (label, tp, fp, fn, precision, recall, f1).

    Inputs: span datasets with columns (url, para_idx, start, end, label).
    """
    import pyarrow.compute as pc

    def contrib(t: pa.Table) -> pa.Table:
        """Span-key rows -> per-row (label, tp, fp, fn) contributions."""
        has_pred = pc.greater(t["pred_n"], 0)
        has_gold = pc.greater(t["gold_n"], 0)
        tp = pc.and_(pc.and_(has_pred, has_gold),
                     pc.equal(t["pred_label"], t["gold_label"]))
        parts = []
        for mask, label_col, vec in (
            (tp, "gold_label", (1, 0, 0)),
            (pc.and_(pc.invert(tp), has_pred), "pred_label", (0, 1, 0)),
            (pc.and_(pc.invert(tp), has_gold), "gold_label", (0, 0, 1)),
        ):
            f = t.filter(mask)
            n = len(f)
            parts.append(pa.table({
                "label": f[label_col],
                "tp": pa.array([vec[0]] * n, pa.int64()),
                "fp": pa.array([vec[1]] * n, pa.int64()),
                "fn": pa.array([vec[2]] * n, pa.int64()),
            }))
        return pa.concat_tables(parts)

    per_label = grouped_agg(
        _merged_keys(pred_spans, gold_spans).map_batches(contrib, batch_format="pyarrow"),
        ["label"],
        {"tp": ("tp", "sum"), "fp": ("fp", "sum"), "fn": ("fn", "sum")},
    ).to_pandas()  # ~one row per entity type

    rows = []
    tot = [0, 0, 0]
    for r in per_label.sort_values("label").itertuples():
        tot = [a + b for a, b in zip(tot, (r.tp, r.fp, r.fn))]
        rows.append(_metric_row(r.label, int(r.tp), int(r.fp), int(r.fn)))
    rows.append(_metric_row("micro", *[int(x) for x in tot]))
    # macro / weighted rows (reference src/training.py:81-99 — its
    # classification_report computes both even though it excludes them from
    # the logged metrics): computed from the SAME per-label partials, zero
    # extra shuffle. tp/fp/fn carry the totals (as in the micro row); the
    # metric columns carry the unweighted / support-weighted means.
    per = rows[:-1]
    if per:
        support = [r["tp"] + r["fn"] for r in per]
        for name, wts in (("macro", [1.0] * len(per)), ("weighted", support)):
            wsum = max(1e-12, float(sum(wts)))
            rows.append({
                "label": name, "tp": tot[0], "fp": tot[1], "fn": tot[2],
                "precision": sum(w * r["precision"] for w, r in zip(wts, per)) / wsum,
                "recall": sum(w * r["recall"] for w, r in zip(wts, per)) / wsum,
                "f1": sum(w * r["f1"] for w, r in zip(wts, per)) / wsum,
            })
    return pd.DataFrame(rows)


def _metric_row(label: str, tp: int, fp: int, fn: int) -> dict:
    p = tp / max(1, tp + fp)
    r = tp / max(1, tp + fn)
    f1 = 2 * p * r / max(1e-12, p + r)
    return {"label": label, "tp": tp, "fp": fp, "fn": fn,
            "precision": p, "recall": r, "f1": f1}


def confusion_matrix(pred_spans: Dataset, gold_spans: Dataset) -> pd.DataFrame:
    """(gold_label, pred_label, n) for position-matched spans, sorted axes.

    The (gold, pred) cell counts are reduced distributively (second
    ``grouped_count`` over the span-key rows); the driver collects only the
    |labels|² cell table.
    """
    import pyarrow.compute as pc

    from .shuffle import grouped_count

    def matched(t: pa.Table) -> pa.Table:
        both = pc.and_(pc.greater(t["pred_n"], 0), pc.greater(t["gold_n"], 0))
        f = t.filter(both)
        return pa.table({"gold_label": f["gold_label"], "pred_label": f["pred_label"]})

    cells = grouped_count(
        _merged_keys(pred_spans, gold_spans).map_batches(matched, batch_format="pyarrow"),
        ["gold_label", "pred_label"],
        alias="n",
    ).to_pandas()
    return cells.sort_values(["gold_label", "pred_label"]).reset_index(drop=True)


def _span_token_tags(spans: Dataset, col: str) -> Dataset:
    """Explode spans into per-token BIO rows: (url, para_idx, tok, tag) with
    ``tok`` = the token's absolute char start. Token offsets come from
    tokenizing the span SURFACE and shifting by span start — valid because
    tagger spans begin and end exactly on token boundaries. The per-span
    Python loop is fine at scale: spans are orders of magnitude fewer than
    corpus tokens."""
    import pyarrow.compute as pc

    from ..functions.tagger import tokenize_with_offsets

    def explode(t: pa.Table) -> pa.Table:
        urls, pidx, toks, tags = [], [], [], []
        for url, pi, start, label, surface in zip(
            t["url"].to_pylist(),
            pc.cast(t["para_idx"], pa.int64()).to_pylist(),
            pc.cast(t["start"], pa.int64()).to_pylist(),
            t["label"].to_pylist(),
            t["surface"].to_pylist(),
        ):
            for k, (s, _e) in enumerate(tokenize_with_offsets(surface)):
                urls.append(url)
                pidx.append(pi)
                toks.append(start + s)
                tags.append(("B-" if k == 0 else "I-") + label)
        return pa.table({
            "url": pa.array(urls, pa.string()),
            "para_idx": pa.array(pidx, pa.int64()),
            "tok": pa.array(toks, pa.int64()),
            f"{col}_tag": pa.array(tags, pa.string()),
        })

    return spans.map_batches(explode, batch_format="pyarrow")


def token_confusion(pred_spans: Dataset, gold_spans: Dataset,
                    paragraphs: Dataset, text_col: str = "para_text") -> pd.DataFrame:
    """Token-level, O-INCLUSIVE confusion matrix (gold_tag, pred_tag, n).

    Reference semantics: src/training.py:196-208 flattens ALL tag sequences
    — including ``O`` positions — before sklearn's confusion_matrix; the
    span-position :func:`confusion_matrix` above deliberately counts typed
    spans only, so a user reproducing reference numbers needs this variant.

    Distributed shape: spans explode to per-token BIO rows; one bucketed
    grouped_agg merges pred/gold tags per (url, para_idx, token) key; a
    second grouped_count collapses to |tags|² cells. A token covered by only
    one side counts against ``O`` on the other. The O/O cell = corpus token
    count (a scalar combiner over paragraphs) minus tokens covered by either
    side — the driver never sees per-token rows. Axes sorted (the
    reference's nondeterministic ``set()`` axis order is a documented bug
    not replicated, SURVEY.md §7).
    """
    from ..functions.tagger import tokenize_with_offsets

    pred = _span_token_tags(pred_spans, "pred").map_batches(
        lambda t: t.append_column("gold_tag", pa.array([""] * len(t), pa.string())),
        batch_format="pyarrow",
    )
    gold = _span_token_tags(gold_spans, "gold").map_batches(
        lambda t: t.append_column("pred_tag", pa.array([""] * len(t), pa.string())),
        batch_format="pyarrow",
    )
    merged = grouped_agg(
        [pred, gold],
        ["url", "para_idx", "tok"],
        {"pred_tag": ("pred_tag", "max"), "gold_tag": ("gold_tag", "max")},
    )

    import pyarrow.compute as pc

    from .shuffle import grouped_count

    def to_cells(t: pa.Table) -> pa.Table:
        o = pa.array(["O"] * len(t), pa.string())
        return pa.table({
            "gold_tag": pc.if_else(pc.equal(t["gold_tag"], ""), o, t["gold_tag"]),
            "pred_tag": pc.if_else(pc.equal(t["pred_tag"], ""), o, t["pred_tag"]),
        })

    cells = grouped_count(
        merged.map_batches(to_cells, batch_format="pyarrow"),
        ["gold_tag", "pred_tag"],
        alias="n",
    ).to_pandas()

    # corpus token count: scalar combiner (one partial row per block)
    def tok_partial(t: pa.Table) -> pa.Table:
        n = sum(len(tokenize_with_offsets(x)) for x in t[text_col].to_pylist())
        return pa.table({"n": pa.array([n], pa.int64())})

    total = int(
        paragraphs.map_batches(tok_partial, batch_format="pyarrow", batch_size=None)
        .to_pandas()["n"].sum()
    )
    covered = int(cells["n"].sum())
    cells = pd.concat(
        [cells, pd.DataFrame([{"gold_tag": "O", "pred_tag": "O",
                               "n": total - covered}])],
        ignore_index=True,
    )
    return cells.sort_values(["gold_tag", "pred_tag"]).reset_index(drop=True)


def _encode_png_gray(img) -> bytes:
    """Minimal 8-bit grayscale PNG encoder (stdlib zlib/struct only — the
    sandbox has no plotting/imaging libs)."""
    import struct
    import zlib

    import numpy as np

    img = np.ascontiguousarray(img, dtype=np.uint8)
    h, w = img.shape

    def chunk(tag: bytes, data: bytes) -> bytes:
        return (struct.pack(">I", len(data)) + tag + data
                + struct.pack(">I", zlib.crc32(tag + data) & 0xFFFFFFFF))

    raw = b"".join(b"\x00" + img[r].tobytes() for r in range(h))
    return b"".join([
        b"\x89PNG\r\n\x1a\n",
        chunk(b"IHDR", struct.pack(">IIBBBBB", w, h, 8, 0, 0, 0, 0)),
        chunk(b"IDAT", zlib.compress(raw, 9)),
        chunk(b"IEND", b""),
    ])


def write_confusion_artifact(cells: pd.DataFrame, prefix,
                             gold_col: str = "gold_label",
                             pred_col: str = "pred_label",
                             n_col: str = "n", cell_px: int = 24):
    """Render a confusion-cell table to ``<prefix>.csv`` + ``<prefix>.png``.

    Reference parity: src/tracking.py:253-272 saves the confusion matrix as
    a matplotlib PNG artifact per experiment. Here the PNG is a hand-encoded
    grayscale heatmap (darker = larger count; no font rendering in this
    sandbox) and the CSV carries the full labeled matrix — axes are the
    SORTED union of gold and pred labels on both dimensions (deterministic,
    unlike the reference's set() ordering).

    Driver-side by design: the input is the already-reduced |labels|² cell
    table (≤ ~19×19), never per-span data.
    """
    from pathlib import Path

    import numpy as np

    labels = sorted(set(cells[gold_col]) | set(cells[pred_col]))
    mat = (
        cells.pivot_table(index=gold_col, columns=pred_col, values=n_col,
                          aggfunc="sum", fill_value=0)
        .reindex(index=labels, columns=labels, fill_value=0)
    )
    mat.index.name = gold_col
    mat.columns.name = pred_col
    csv_path, png_path = Path(f"{prefix}.csv"), Path(f"{prefix}.png")
    csv_path.parent.mkdir(parents=True, exist_ok=True)
    mat.to_csv(csv_path)
    arr = mat.to_numpy(dtype=np.float64)
    scale = arr.max() if arr.size and arr.max() > 0 else 1.0
    shade = (255 - np.round(arr / scale * 255.0)).astype(np.uint8)
    img = np.kron(shade, np.ones((cell_px, cell_px), dtype=np.uint8))
    png_path.write_bytes(_encode_png_gray(img))
    return csv_path, png_path
