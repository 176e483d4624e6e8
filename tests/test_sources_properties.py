"""Text/JSONL/CSV sources + property-based contract tests (hypothesis)."""

import json

import pyarrow as pa
from hypothesis import given, settings
from hypothesis import strategies as st

from portuguese_pt_legal_ner_ray.functions.html import html_to_text, render_html
from portuguese_pt_legal_ner_ray.functions.paragraphs import split_paragraphs


# -- property tests: byte-level contracts ------------------------------------

text_strategy = st.text(
    alphabet=st.characters(blacklist_categories=("Cs",), blacklist_characters="\r"),
    max_size=400,
)


@settings(max_examples=200, deadline=None)
@given(text_strategy)
def test_html_roundtrip_property(text):
    assert html_to_text(render_html(text)) == text


@settings(max_examples=200, deadline=None)
@given(text_strategy)
def test_paragraph_contract_property(text):
    # the reference contract, stated independently (src/inference.py:171-183)
    assert split_paragraphs(text) == [p.strip() for p in text.split("\n") if p.strip()]


@settings(max_examples=100, deadline=None)
@given(st.lists(st.text(alphabet="ab ", max_size=10), max_size=8))
def test_explode_arrow_matches_scalar_property(paras):
    from portuguese_pt_legal_ner_ray.functions.paragraphs import explode_paragraphs_arrow

    text = "\n".join(paras)
    tbl = pa.table({"url": ["u"], "text": [text]})
    out = explode_paragraphs_arrow(tbl)
    assert out["para_text"].to_pylist() == split_paragraphs(text)
    assert out["para_idx"].to_pylist() == list(range(len(split_paragraphs(text))))


@settings(max_examples=100, deadline=None)
@given(st.text(max_size=120))
def test_tagger_spans_valid_property(text):
    from portuguese_pt_legal_ner_ray.functions.tagger import RegexGazetteerTagger

    t = RegexGazetteerTagger()
    for sp in t.tag_paragraph(text):
        assert 0 <= sp.start < sp.end <= len(text)
        assert sp.score >= t.threshold


# -- file sources ------------------------------------------------------------

def test_read_text_corpus(ray_session, tmp_path):
    from portuguese_pt_legal_ner_ray.sources.text import read_text_corpus

    (tmp_path / "a.txt").write_text("line one\n\n   \nline two  \n", encoding="utf-8")
    (tmp_path / "b.txt").write_text("três\n", encoding="utf-8")
    ds = read_text_corpus(tmp_path)  # directory -> *.txt glob (reference S3)
    assert sorted(r["text"] for r in ds.take_all()) == ["line one", "line two", "três"]


def test_read_whole_documents(ray_session, tmp_path):
    from portuguese_pt_legal_ner_ray.sources.text import read_whole_documents

    (tmp_path / "doc1.txt").write_text("whole\nfile", encoding="utf-8")
    ds = read_whole_documents([tmp_path / "doc1.txt"])
    rows = ds.take_all()
    assert rows[0]["text"] == "whole\nfile"
    assert rows[0]["url"].startswith("file://")


def test_read_jsonl_and_csv(ray_session, tmp_path):
    from portuguese_pt_legal_ner_ray.sources.text import read_csv_docs, read_jsonl_docs

    jp = tmp_path / "d.jsonl"
    jp.write_text("\n".join(json.dumps({"doc_id": i, "text": f"t{i}"}) for i in range(3)))
    ds = read_jsonl_docs([jp])
    assert ds.count() == 3 and set(ds.schema().names) == {"doc_id", "text"}

    cp = tmp_path / "d.csv"
    cp.write_text("doc_id,text\n1,alpha\n2,beta\n")
    ds = read_csv_docs([cp])
    assert [r["text"] for r in ds.take_all()] == ["alpha", "beta"]


def test_media_resize_and_frame_plan(ray_session, tmp_path):
    import ray

    from portuguese_pt_legal_ner_ray.sources.multimodal import (
        decode_images,
        ensure_media_table,
        frame_sample_plan,
        resize_metadata,
    )

    path = ensure_media_table(30, root=str(tmp_path))
    media = ray.data.read_parquet(str(path))
    resized = resize_metadata(decode_images(media)).to_pandas()
    assert (resized[["new_width", "new_height"]].max(axis=1) <= 256).all()
    frames = frame_sample_plan(media).to_pandas()
    assert (frames["frame_offset"] >= 12).all()
    assert frames.groupby("doc_id").size().min() >= 1


def test_sized_read_parquet_block_budget(ray_session, tmp_path):
    """Block count follows input BYTES (floor min_blocks, cap max_blocks),
    not the CPU-derived default that over-splits small tables."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    from portuguese_pt_legal_ner_ray.sources.parquet import (
        _input_bytes,
        sized_read_parquet,
    )

    p = tmp_path / "t.parquet"
    pq.write_table(pa.table({"x": list(range(10_000))}), p)
    size = p.stat().st_size
    assert _input_bytes(str(p)) == size
    assert _input_bytes([str(p), str(p)]) == 2 * size
    assert _input_bytes(str(tmp_path)) == size  # directory walk
    assert _input_bytes(str(tmp_path / "*.parquet")) == size  # glob

    assert sized_read_parquet(str(p)).count() == 10_000

    # capture the override_num_blocks the helper passes to the real read;
    # the stub returns None (only the captured arg is asserted on), so no
    # redundant distributed reads execute
    import ray as _ray

    seen = {}

    def capture(paths, columns=None, override_num_blocks=None, schema=None):
        seen["n"] = override_num_blocks
        seen["schema"] = schema

    orig = _ray.data.read_parquet
    _ray.data.read_parquet = capture
    try:
        sized_read_parquet(str(p), min_blocks=3)
        assert seen["n"] == 3  # tiny file floors at min_blocks
        sized_read_parquet(str(p))
        assert seen["n"] == 1  # no floor by default: a tiny file is 1 block
        sized_read_parquet(str(p), target_block_bytes=1024, max_blocks=5)
        assert seen["n"] == 5  # byte budget exceeds the cap -> capped
        sized_read_parquet(str(p), target_block_bytes=1024, min_blocks=1)
        assert seen["n"] == -(-size // 1024)  # pure byte budget
    finally:
        _ray.data.read_parquet = orig
