"""Skew-path linking (task-side banding, salted blocks) and dynamic batching."""

import pyarrow as pa
import pytest

from portuguese_pt_legal_ner_ray.config import LinkingConfig, PipelineConfig
from portuguese_pt_legal_ner_ray.functions.tagger import (
    HFTagger,
    RegexGazetteerTagger,
    Tagger,
    length_sorted_batches,
)
from portuguese_pt_legal_ner_ray.oracle import link_entities
from portuguese_pt_legal_ner_ray.stages.extract import NerTripleStage


def test_tagger_interface():
    assert isinstance(RegexGazetteerTagger(), Tagger)
    with pytest.raises(NotImplementedError, match="transformers"):
        HFTagger("/some/checkpoint")


def test_length_sorted_batches_cover_and_budget():
    texts = ["word " * n for n in (1, 50, 3, 200, 7, 120)]
    plan = length_sorted_batches(texts, token_budget=256)
    flat = sorted(i for b in plan for i in b)
    assert flat == list(range(len(texts)))  # exact cover, no dupes
    for b in plan:
        max_len = max(len(texts[i].split()) for i in b)
        assert len(b) * max_len <= 256 or len(b) == 1


def test_dynamic_batching_is_semantics_neutral():
    tbl = pa.table(
        {
            "url": ["u"] * 4,
            "lang": ["pt", "en", "pt", "pt"],
            "para_idx": pa.array([0, 1, 2, 3], pa.int32()),
            "para_text": [
                "O réu João Silva foi notificado em Lisboa, em 12/02/1990.",
                "no entities here",
                "A empresa Banco de Portugal está sediada no Porto.",
                "",
            ],
        }
    )
    plain = NerTripleStage(PipelineConfig())(tbl)
    dyn = NerTripleStage(PipelineConfig(), dynamic_batching=True, token_budget=8)(tbl)
    assert plain.equals(dyn)
    # language gate: non-pt row kept with empty lists (lineage preserved)
    assert plain["spans"][1].as_py() == [] and plain["triples"][1].as_py() == []


def test_tagger_error_quarantined_not_silent():
    """Reference bug NOT replicated: a tagging failure must surface in the
    error column with lineage (reference src/inference.py:214-216 silently
    emits [])."""

    class BoobyTrap(RegexGazetteerTagger):
        def tag_paragraph(self, text):
            if "BOOM" in text:
                raise ValueError("model exploded")
            return super().tag_paragraph(text)

    stage = NerTripleStage(PipelineConfig())
    stage.tagger = BoobyTrap()
    tbl = pa.table(
        {
            "url": ["u", "u"],
            "lang": ["pt", "pt"],
            "para_idx": pa.array([0, 1], pa.int32()),
            "para_text": ["João Silva em Lisboa.", "texto BOOM 123 aqui"],
        }
    )
    out = stage(tbl)
    assert out["error"][0].as_py() is None
    assert "ValueError: model exploded" in out["error"][1].as_py()
    assert out["spans"][1].as_py() == []
    assert len(out["spans"][0].as_py()) > 0  # healthy rows unaffected


def test_skewed_hot_cluster_links_fully(ray_session, monkeypatch, tmp_path):
    """One entity with > SALT_THRESHOLD near-identical variants: the salted
    pairing + band redundancy must still produce ONE component, identically
    in the oracle union-find and ``linking.link`` with banding as tasks."""
    import pyarrow.parquet as pq

    from portuguese_pt_legal_ner_ray.functions.blocking import SALT_THRESHOLD
    from portuguese_pt_legal_ner_ray.stages import linking

    cfg = LinkingConfig()
    n = SALT_THRESHOLD + 40
    surfaces = [f"ministerio publico da comarca {i:03d}" for i in range(n)]
    mentions = {f"ORG|{s}": ("ORG", s.title(), 5) for s in surfaces}
    oracle_map = link_entities(mentions, cfg)
    n_comps_oracle = len(set(oracle_map.values()))

    (tmp_path / "mentions").mkdir()
    pq.write_table(pa.table({
        "key": pa.array(list(mentions), pa.string()),
        "label": pa.array(["ORG"] * n, pa.string()),
        "surface": pa.array([v[1] for v in mentions.values()], pa.string()),
        "n": pa.array([5] * n, pa.int64()),
    }), tmp_path / "mentions" / "part.parquet")
    monkeypatch.setattr(linking, "DRIVER_CC_MAX_KEYS", 10)
    mapping, stats = linking.link(tmp_path / "mentions", cfg)
    assert stats["link_path"] == "distributed" and stats["link_keys"] == n
    got = {k: mapping.get(k, k) for k in mentions}
    assert got == oracle_map
    # the hot cluster collapses into very few components (fully connected
    # in the oracle; the task side must agree exactly regardless)
    assert n_comps_oracle < n // 10


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_link_verify_shingles_each_key_once(monkeypatch, seed):
    """Driver-side verification on random keys (groups of spelling
    variants, so keys sit in many candidate pairs) keeps exactly the pairs
    a per-pair Jaccard check keeps, and shingles each distinct key of the
    candidate pairs once."""
    import random

    from portuguese_pt_legal_ner_ray.functions.minhash import jaccard, shingles
    from portuguese_pt_legal_ner_ray.stages import linking

    cfg = LinkingConfig()
    rng = random.Random(seed)
    keys = set()
    for g in range(60):
        base = "".join(rng.choices("abcdefghij", k=rng.randint(6, 14)))
        label = ("PER", "ORG", "LOC")[g % 3]
        for _ in range(rng.randint(2, 6)):
            cut = rng.randint(0, len(base))
            keys.add(f"{label}|{base[:cut]}{rng.choice(['', ' a', 'x', ' filho'])}"
                     f"{base[cut:]}")
    keys = sorted(keys)
    bands = linking.BandStage(cfg)(pa.table({
        "key": pa.array(keys, pa.string()),
        "label": pa.array([k.split("|", 1)[0] for k in keys], pa.string()),
    }))
    cand = linking.block_pairs(bands, cfg)
    k = cfg.shingle_k
    want = {(a, b) for a, b in cand
            if jaccard(shingles(a.split("|", 1)[1], k),
                       shingles(b.split("|", 1)[1], k)) >= cfg.jaccard_threshold}
    assert len(cand) > len({x for p in cand for x in p})  # keys repeat
    assert 0 < len(want) < len(cand)

    calls = []

    def counted(text, k=3):
        calls.append(text)
        return shingles(text, k)

    monkeypatch.setattr(linking, "shingles", counted)
    got = linking._driver_pairs(keys, cfg)
    assert sorted(got) == sorted(want) and len(got) == len(set(got))
    ends = {x.split("|", 1)[1] for p in cand for x in p}
    assert sorted(calls) == sorted(ends)


def test_logits_tagger_pipeline_stage_parity(ray_session):
    """The pipeline's extract task, run as Ray tasks with the logits decode
    path (the real HF wire format), produces span-identical output to the
    gazetteer path."""
    import ray

    from portuguese_pt_legal_ner_ray.config import PipelineConfig
    from portuguese_pt_legal_ner_ray.corpus import gen_pages_shard
    from portuguese_pt_legal_ner_ray.pipelines.kg import ner_map_batches_kwargs
    from portuguese_pt_legal_ner_ray.stages.extract import (
        extract_pages_task,
        extraction_rows,
        flatten_spans,
    )

    pages = ray.data.from_arrow(gen_pages_shard(2, 0, 80)).repartition(4)

    def spans_with(cfg):
        ds = (
            pages.map_batches(extract_pages_task, **ner_map_batches_kwargs(cfg))
            .map_batches(lambda b: flatten_spans(extraction_rows(b)),
                         batch_format="pyarrow")
        )
        cols = ["url", "para_idx", "start", "end", "label"]
        return ds.to_pandas().sort_values(cols).reset_index(drop=True)[cols]

    a = spans_with(PipelineConfig(tagger="logits"))
    b = spans_with(PipelineConfig())
    assert len(a) > 100
    assert a.equals(b)


def test_logits_batched_forward_semantics_neutral(ray_session):
    """Dynamic batching through the padded forward_batch path (one tensor
    per length-sorted sub-batch) yields identical spans to per-paragraph
    forward passes."""
    import pyarrow as pa

    from portuguese_pt_legal_ner_ray.config import PipelineConfig
    from portuguese_pt_legal_ner_ray.corpus import gen_pages_shard
    from portuguese_pt_legal_ner_ray.stages.extract import NerTripleStage

    pages = gen_pages_shard(5, 0, 40)
    paras, langs = [], []
    for text, lang in zip(pages["text"].to_pylist(), pages["lang"].to_pylist()):
        for p in (x.strip() for x in text.split("\n") if x.strip()):
            paras.append(p)
            langs.append(lang)
    batch = pa.table({
        "url": pa.array([f"u{i}" for i in range(len(paras))], pa.string()),
        "lang": pa.array(langs, pa.string()),
        "para_idx": pa.array([0] * len(paras), pa.int32()),
        "para_text": pa.array(paras, pa.string()),
    })
    cfg = PipelineConfig(tagger="logits")
    batched = NerTripleStage(cfg=cfg, dynamic_batching=True, token_budget=64)(batch)
    plain = NerTripleStage(cfg=cfg)(batch)
    assert batched.equals(plain)
