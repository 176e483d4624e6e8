"""Multimodal (opaque-binary) columns: synthetic media table + decode stage.

Real image/audio codecs are not available in this container, so the decode
kernels are deterministic fakes: an image payload carries a 12-byte header
``b"KGM1" + uint32_be(width) + uint32_be(height)``, an audio payload
``b"KGA1" + uint32_be(sample_rate) + uint32_be(n_samples)``, each followed
by pseudo-random body bytes. The Ray-side plumbing is real and is the point
(schema with a ``binary`` column + typed metadata, small-batch task-mode
decode via ``map_batches``, output layout). A real codec (PIL, ffmpeg)
would replace ``decode_image_batch`` / ``decode_audio_batch`` and load once
per worker through ``stages.shuffle.worker_cached``, as the NER tagger
does, so no actor pool holds CPUs the read tasks need.

Header fields are pure functions of doc_id (width = 64 + id % 1216,
height = 64 + id % 656; sample_rate = 8000 * (1 + id % 5), n_samples =
1000 + id * 13 % 8000) so a DuckDB oracle can check that the decoders
really read the headers.
"""

from __future__ import annotations

import hashlib
import os
from pathlib import Path

import pyarrow as pa
import pyarrow.parquet as pq
from ray.data import Dataset


MAGIC = b"KGM1"
AUDIO_MAGIC = b"KGA1"
MEDIA_VERSION = "v2"


def _payload(doc_id: int, kind: str = "image") -> bytes:
    body_len = 128 + (doc_id * 37) % 512
    body = hashlib.md5(f"media|{doc_id}".encode()).digest() * (body_len // 16 + 1)
    if kind == "audio":
        rate = 8000 * (1 + doc_id % 5)
        n_samples = 1000 + doc_id * 13 % 8000
        return (AUDIO_MAGIC + rate.to_bytes(4, "big")
                + n_samples.to_bytes(4, "big") + body[:body_len])
    width = 64 + doc_id % 1216
    height = 64 + doc_id % 656
    return MAGIC + width.to_bytes(4, "big") + height.to_bytes(4, "big") + body[:body_len]


def ensure_media_table(n_rows: int, root: str = "/tmp/kgray_media") -> Path:
    """Write (once) a deterministic media parquet: (doc_id, kind, payload)."""
    d = Path(root) / MEDIA_VERSION / f"n{n_rows}"
    out = d / "media.parquet"
    if out.exists():
        return out
    d.mkdir(parents=True, exist_ok=True)
    kinds = ["image", "image", "audio"]
    tbl = pa.table(
        {
            "doc_id": pa.array(range(n_rows), pa.int64()),
            "kind": pa.array([kinds[i % 3] for i in range(n_rows)], pa.string()),
            "payload": pa.array([_payload(i, kinds[i % 3]) for i in range(n_rows)],
                                pa.binary()),
        }
    )
    tmp = d / "media.parquet.tmp"
    pq.write_table(tbl, tmp)
    os.replace(tmp, out)
    return out


def decode_image_batch(batch: pa.Table) -> pa.Table:
    """Image decode kernel: parse the binary header -> typed metadata."""
    widths, heights, n_bytes, ok = [], [], [], []
    for payload in batch["payload"].to_pylist():
        n_bytes.append(len(payload))
        if payload[:4] == MAGIC:
            widths.append(int.from_bytes(payload[4:8], "big"))
            heights.append(int.from_bytes(payload[8:12], "big"))
            ok.append(True)
        else:
            widths.append(0)
            heights.append(0)
            ok.append(False)
    return pa.table(
        {
            "doc_id": batch["doc_id"],
            "width": pa.array(widths, pa.int64()),
            "height": pa.array(heights, pa.int64()),
            "n_bytes": pa.array(n_bytes, pa.int64()),
            "decode_ok": pa.array(ok, pa.bool_()),
        }
    )


def decode_images(media: Dataset) -> Dataset:
    """Image branch: filter kind == 'image', decode headers in Ray tasks.
    Small batches are the operating rule for large binary payloads (a
    batch must fit a worker's heap)."""
    return (
        media.filter(expr="kind == 'image'")
        .map_batches(decode_image_batch, batch_format="pyarrow", batch_size=256)
    )


def resize_metadata(decoded: Dataset, max_side: int = 256) -> Dataset:
    """Resize planning on decoded image metadata (aspect-preserving fit).

    Integer math only (scale = max_side / longer side, floor) so the output
    is deterministic and oracle-checkable; a real implementation would apply
    the same plan to pixel buffers inside the decode task.
    """

    def plan(batch: pa.Table) -> pa.Table:
        w = batch["width"].to_pylist()
        h = batch["height"].to_pylist()
        new_w, new_h = [], []
        for wi, hi in zip(w, h):
            longer = max(wi, hi)
            if longer <= max_side:
                nw, nh = wi, hi
            else:
                nw = wi * max_side // longer
                nh = hi * max_side // longer
            new_w.append(nw)
            new_h.append(nh)
        return pa.table(
            {
                # decode metadata passes through so one downstream check
                # covers the whole decode -> plan chain
                "doc_id": batch["doc_id"],
                "width": batch["width"],
                "height": batch["height"],
                "n_bytes": batch["n_bytes"],
                "decode_ok": batch["decode_ok"],
                "new_width": pa.array(new_w, pa.int64()),
                "new_height": pa.array(new_h, pa.int64()),
            }
        )

    return decoded.map_batches(plan, batch_format="pyarrow")


def decode_audio_batch(batch: pa.Table) -> pa.Table:
    """Audio decode kernel: parse the binary header -> typed metadata
    (sample_rate, n_samples, duration_ms)."""
    rates, samples, durs, n_bytes, ok = [], [], [], [], []
    for payload in batch["payload"].to_pylist():
        n_bytes.append(len(payload))
        if payload[:4] == AUDIO_MAGIC:
            rate = int.from_bytes(payload[4:8], "big")
            n = int.from_bytes(payload[8:12], "big")
            rates.append(rate)
            samples.append(n)
            durs.append(n * 1000 // rate)
            ok.append(True)
        else:
            rates.append(0)
            samples.append(0)
            durs.append(0)
            ok.append(False)
    return pa.table(
        {
            "doc_id": batch["doc_id"],
            "sample_rate": pa.array(rates, pa.int64()),
            "n_samples": pa.array(samples, pa.int64()),
            "duration_ms": pa.array(durs, pa.int64()),
            "n_bytes": pa.array(n_bytes, pa.int64()),
            "decode_ok": pa.array(ok, pa.bool_()),
        }
    )


def decode_audio(media: Dataset) -> Dataset:
    """Audio branch: filter kind == 'audio', decode headers in Ray tasks
    (small batches, as for images)."""
    return (
        media.filter(expr="kind == 'audio'")
        .map_batches(decode_audio_batch, batch_format="pyarrow", batch_size=256)
    )


def resample_plan(decoded: Dataset, target_rate: int = 16000) -> Dataset:
    """Resample planning on decoded audio metadata (integer math only, so
    the output is deterministic and oracle-checkable; a real implementation
    applies the plan to sample buffers inside the decode task)."""

    def plan(batch: pa.Table) -> pa.Table:
        rates = batch["sample_rate"].to_pylist()
        ns = batch["n_samples"].to_pylist()
        out = [n * target_rate // r if r else 0 for r, n in zip(rates, ns)]
        return pa.table(
            {
                # decode metadata passes through so one downstream check
                # covers the whole decode -> plan chain
                "doc_id": batch["doc_id"],
                "sample_rate": batch["sample_rate"],
                "n_samples": batch["n_samples"],
                "duration_ms": batch["duration_ms"],
                "n_bytes": batch["n_bytes"],
                "decode_ok": batch["decode_ok"],
                "target_rate": pa.array([target_rate] * len(out), pa.int64()),
                "out_samples": pa.array(out, pa.int64()),
            }
        )

    return decoded.map_batches(plan, batch_format="pyarrow")
