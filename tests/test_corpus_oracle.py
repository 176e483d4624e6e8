"""Corpus synthesizer + oracle invariants (SURVEY.md §5; FIXTURES.md F1)."""

import pyarrow as pa
import pyarrow.compute as pc

from portuguese_pt_legal_ner_ray.corpus import gen_pages_shard, pages_for_sf, shard_plan
from portuguese_pt_legal_ner_ray.functions.html import html_to_text, html_to_text_arrow, render_html
from portuguese_pt_legal_ner_ray.functions.paragraphs import (
    explode_paragraphs_arrow,
    split_paragraphs,
)
from portuguese_pt_legal_ner_ray.oracle import run_oracle


def test_generator_deterministic():
    a = gen_pages_shard(3, 100, 50)
    b = gen_pages_shard(3, 100, 50)
    assert a.equals(b)


def test_schema_matches_input_hint():
    t = gen_pages_shard(0, 0, 5)
    assert t.schema.names == ["url", "warc_ts", "html", "text", "lang"]
    assert t.schema.field("warc_ts").type == pa.timestamp("us")
    assert t.schema.field("html").type == pa.binary()


def test_html_roundtrip_byte_identical():
    t = gen_pages_shard(0, 0, 200)
    for html, text in zip(t["html"].to_pylist(), t["text"].to_pylist()):
        assert html_to_text(html) == text
    arrow = html_to_text_arrow(t["html"])
    assert arrow.to_pylist() == t["text"].to_pylist()


def test_html_roundtrip_edge_cases():
    for text in ["", "a", "a\nb", " a \n\n b ", "x & <y> &amp; z", "\n\n\n"]:
        assert html_to_text(render_html(text)) == text


def test_paragraph_contract():
    # reference src/inference.py:171-183: split('\n'), strip, drop empties
    assert split_paragraphs("a\n \nb\n\n c ") == ["a", "b", "c"]
    assert split_paragraphs("") == []
    assert split_paragraphs("   ") == []


def test_explode_arrow_matches_scalar():
    t = gen_pages_shard(1, 0, 100)
    out = explode_paragraphs_arrow(t, keep_cols=("url", "lang"))
    got = list(zip(out["url"].to_pylist(), out["para_idx"].to_pylist(),
                   out["para_text"].to_pylist()))
    want = []
    for url, text in zip(t["url"].to_pylist(), t["text"].to_pylist()):
        for i, p in enumerate(split_paragraphs(text)):
            want.append((url, i, p))
    assert got == want


def test_pages_for_sf_scaling():
    assert pages_for_sf(0.001) == 500
    assert pages_for_sf(0.01) == 5000
    assert sum(n for _, _, n in shard_plan(5000)) == 5000
    assert len(shard_plan(500)) >= 8


def test_oracle_outputs_consistent():
    pages = gen_pages_shard(0, 0, 150)
    g = run_oracle(pages)
    # extracted text is byte-identical to the ground-truth text column
    assert g["extracted"]["text"].to_pylist() == pages["text"].to_pylist()
    # spans only on pt paragraphs; surfaces slice correctly
    paras = {(u, i): t for u, i, t in zip(g["paragraphs"]["url"].to_pylist(),
                                          g["paragraphs"]["para_idx"].to_pylist(),
                                          g["paragraphs"]["para_text"].to_pylist())}
    for u, i, s, e, surf in zip(g["spans"]["url"].to_pylist(),
                                g["spans"]["para_idx"].to_pylist(),
                                g["spans"]["start"].to_pylist(),
                                g["spans"]["end"].to_pylist(),
                                g["spans"]["surface"].to_pylist()):
        assert paras[(u, i)][s:e] == surf
    # every triple's url is a pt page
    langs = dict(zip(pages["url"].to_pylist(), pages["lang"].to_pylist()))
    assert all(langs[u] == "pt" for u in g["triples"]["url"].to_pylist())
    # edge weights sum to triple count
    assert pc.sum(g["edges"]["weight"]).as_py() == g["triples"].num_rows


def test_oracle_links_org_variants():
    pages = gen_pages_shard(0, 0, 400)
    g = run_oracle(pages)
    ids = set(g["nodes"]["entity_id"].to_pylist())
    # diacritic variants collapse via normalization alone
    assert "ORG|ministerio publico" in ids
    # truncation variant links into the same component as the long form:
    # only the lexicographic-min id survives as a node
    assert "ORG|autoridade tributaria" in ids
    assert "ORG|autoridade tributaria e aduaneira" not in ids


def test_atomic_publish_crash_debris_and_race(tmp_path):
    """A final dir without _DONE (crashed run) is replaced, never served;
    a published final dir (with _DONE) wins and the loser's staging dir is
    discarded."""
    from portuguese_pt_legal_ner_ray.corpus import atomic_publish

    final = tmp_path / "out"
    final.mkdir()
    (final / "partial.parquet").write_text("junk")  # no _DONE: crash debris
    tmp = tmp_path / "stage1"
    tmp.mkdir()
    (tmp / "data.txt").write_text("good")
    (tmp / "_DONE").write_text("ok")
    atomic_publish(tmp, final)
    assert (final / "_DONE").exists()
    assert (final / "data.txt").read_text() == "good"
    assert not (final / "partial.parquet").exists()

    tmp2 = tmp_path / "stage2"
    tmp2.mkdir()
    (tmp2 / "data.txt").write_text("other")
    (tmp2 / "_DONE").write_text("ok")
    atomic_publish(tmp2, final)  # loses the race -> no-op on final
    assert (final / "data.txt").read_text() == "good"
    assert not tmp2.exists()


def test_registry_has_fifty_queries_each_with_oracle_sql(monkeypatch):
    """The driver's correctness window holds exactly 50 queries, and every
    registered query has an oracle SQL (and no oracle is orphaned). The
    golden builders oracle_sql() calls first are stubbed: only the
    registry keys are checked, so nothing is generated."""
    from pathlib import Path

    import portuguese_pt_legal_ner_ray.oracle as oracle
    import portuguese_pt_legal_ner_ray.oracle_mirrors as mirrors
    import portuguese_pt_legal_ner_ray.sources.multimodal as mm

    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1]))
    for mod, name in [(oracle, "ensure_goldens"),
                      (mirrors, "ensure_mirror_goldens"),
                      (mm, "ensure_media_table")]:
        monkeypatch.setattr(mod, name, lambda *_a, **_k: Path("unused"))
    import __ray_entry__

    qs = __ray_entry__.queries()
    assert len(qs) == 50
    assert set(qs) == set(__ray_entry__.oracle_sql())
