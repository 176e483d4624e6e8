"""Skew-path linking (distributed, salted blocks) and dynamic batching."""

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


def test_distributed_cc_random_graph_matches_union_find(ray_session):
    """Randomized (seeded) graph: label propagation == union-find exactly."""
    import numpy as np
    import ray

    from portuguese_pt_legal_ner_ray.oracle import _UnionFind
    from portuguese_pt_legal_ner_ray.state.components import (
        connected_components_distributed,
    )

    rng = np.random.default_rng(99)
    nodes = [f"n{i:04d}" for i in range(300)]
    edges = [(nodes[int(a)], nodes[int(b)])
             for a, b in rng.integers(0, 300, size=(180, 2)) if a != b]
    uf = _UnionFind()
    for n in nodes:
        uf.find(n)
    for a, b in edges:
        uf.union(a, b)
    want = {n: uf.find(n) for n in nodes}

    keys_ds = ray.data.from_arrow(pa.table({"key": pa.array(nodes, pa.string())}))
    pairs_ds = ray.data.from_arrow(pa.table({
        "a": pa.array([a for a, _ in edges], pa.string()),
        "b": pa.array([b for _, b in edges], pa.string()),
    })).repartition(4)
    comp = connected_components_distributed(keys_ds, pairs_ds)
    got = {r["key"]: r["comp"] for r in comp.take_all()}
    assert got == want


def test_cc_checksum_independent_of_blocks(ray_session):
    """The distributed CC stops when its assignment checksum repeats, and
    each round splits rows into a different number of blocks. The checksum
    must therefore be the same for the same rows however they are split,
    or an unchanged assignment reads as changed and the loop runs on."""
    import ray

    from portuguese_pt_legal_ner_ray.state.components import _checksum

    n = 5000
    rows = pa.table({"node": pa.array([f"n{i}" for i in range(n)], pa.string()),
                     "comp": pa.array([f"c{i % 97}" for i in range(n)], pa.string())})
    sums = {_checksum(ray.data.from_arrow(rows).repartition(k)) for k in (1, 3, 16)}
    assert len(sums) == 1


def test_cc_rounds_keep_block_count(ray_session, monkeypatch):
    """Each label-propagation round unions the current assignment with the
    edge rows. Its output must not carry the edge blocks on into the next
    round, or every round runs more tasks than the one before: the
    assignment checked after each round keeps the first one's block count."""
    import ray

    from portuguese_pt_legal_ner_ray.state import components

    # 8 chains of 6 nodes: the min label needs 5 rounds to cross a chain
    chains = [[f"c{c}_{j}" for j in range(6)] for c in range(8)]
    pairs = [p for ch in chains for p in zip(ch, ch[1:])]
    keys_ds = ray.data.from_arrow(pa.table(
        {"key": [n for ch in chains for n in ch]})).repartition(3)
    pairs_ds = ray.data.from_arrow(pa.table(
        {"a": [a for a, _ in pairs], "b": [b for _, b in pairs]}))
    blocks = []
    real = components._checksum

    def counting(ds):
        blocks.append(ds.num_blocks())
        return real(ds)

    monkeypatch.setattr(components, "_checksum", counting)
    comp = components.connected_components_distributed(keys_ds, pairs_ds)
    got = {r["key"]: r["comp"] for r in comp.take_all()}
    assert got == {n: ch[0] for ch in chains for n in ch}
    assert len(blocks) >= 6
    assert set(blocks) == {3}


def test_skewed_hot_cluster_links_fully(ray_session):
    """One entity with > SALT_THRESHOLD near-identical variants: the salted
    pairing + band redundancy must still produce ONE component, identically
    in the oracle union-find and the distributed label-propagation path."""
    import ray

    from portuguese_pt_legal_ner_ray.functions.blocking import SALT_THRESHOLD
    from portuguese_pt_legal_ner_ray.stages.linking import (
        BandStage,
        candidate_pairs,
        canonicalize,
    )

    cfg = LinkingConfig()
    n = SALT_THRESHOLD + 40
    surfaces = [f"ministerio publico da comarca {i:03d}" for i in range(n)]
    mentions = {f"ORG|{s}": ("ORG", s.title(), 5) for s in surfaces}
    oracle_map = link_entities(mentions, cfg)
    n_comps_oracle = len(set(oracle_map.values()))

    mentions_ds = ray.data.from_arrow(pa.table({
        "key": pa.array(list(mentions), pa.string()),
        "label": pa.array(["ORG"] * n, pa.string()),
        "surface": pa.array([v[1] for v in mentions.values()], pa.string()),
        "n": pa.array([5] * n, pa.int64()),
    }))
    bands = mentions_ds.map_batches(
        BandStage, batch_format="pyarrow",
        fn_constructor_kwargs=dict(cfg=cfg), concurrency=(1, 2),
    )
    pairs = candidate_pairs(bands, cfg)
    comp_ds = canonicalize(mentions_ds, pairs)
    got = {r["key"]: r["comp"] for r in comp_ds.take_all()}
    assert got == oracle_map
    # the hot cluster collapses into very few components (fully connected
    # in the oracle; distributed path must agree exactly regardless)
    assert n_comps_oracle < n // 10


def test_logits_tagger_pipeline_stage_parity(ray_session):
    """The actor-pool NER stage driven by the logits decode path (the real
    HF wire format) produces span-identical output to the gazetteer path."""
    import ray

    from portuguese_pt_legal_ner_ray.config import PipelineConfig
    from portuguese_pt_legal_ner_ray.corpus import gen_pages_shard
    from portuguese_pt_legal_ner_ray.stages.extract import (
        NerTripleStage,
        explode_batch,
        extract_text_batch,
        flatten_spans,
    )

    pages = ray.data.from_arrow(gen_pages_shard(2, 0, 80))

    def spans_with(cfg):
        ds = (
            pages.map_batches(extract_text_batch, batch_format="pyarrow")
            .map_batches(explode_batch, batch_format="pyarrow")
            .map_batches(NerTripleStage, batch_format="pyarrow",
                         concurrency=2, fn_constructor_kwargs=dict(cfg=cfg))
            .map_batches(flatten_spans, batch_format="pyarrow")
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
