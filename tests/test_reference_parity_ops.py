"""Reference-parity operators: CoNLL source (S1/S6), label alignment (M4/M6),
eval metrics (G1/G2/G3), YAML config (S8), prediction export (S4), CLI."""

import json

import pyarrow as pa
import pytest

from portuguese_pt_legal_ner_ray.config import ID_TO_LABEL, LABEL_TO_ID, PipelineConfig
from portuguese_pt_legal_ner_ray.config_io import load_config, save_config
from portuguese_pt_legal_ner_ray.functions.align import (
    IGNORE_ID,
    chunk_subwords,
    strip_masked,
    tokenize_and_align_labels,
)
from portuguese_pt_legal_ner_ray.sources.conll import (
    conll_to_table,
    read_conll_file,
    write_sample_conll,
)


# -- CoNLL reader (reference src/data.py:53-95) ------------------------------

def test_conll_roundtrip(tmp_path):
    p = write_sample_conll(tmp_path / "train.conll")
    sents, labels = read_conll_file(p)
    assert len(sents) == 3 and all(len(s) == 6 for s in sents)
    assert labels[0][3] == "B-IDP" and labels[1][0] == "B-PER"


def test_conll_edge_cases(tmp_path):
    p = tmp_path / "edge.conll"
    p.write_text("a\tO\nmalformed_line\nb\tB-PER\n\n\nc\tO", encoding="utf-8")
    sents, labels = read_conll_file(p)
    # malformed line silently skipped; trailing sentence without blank kept
    assert sents == [["a", "b"], ["c"]]
    assert labels == [["O", "B-PER"], ["O"]]


def test_conll_missing_file():
    assert read_conll_file("/nonexistent/x.conll") == ([], [])


def test_conll_to_arrow(tmp_path):
    p = write_sample_conll(tmp_path / "t.conll")
    t = conll_to_table(p)
    assert t.schema.field("tokens").type == pa.list_(pa.string())
    assert t.num_rows == 3


# -- tokenize + align (reference src/data.py:156-206) ------------------------

def test_align_first_subword_gets_label():
    out = tokenize_and_align_labels(["processo", "de", "João"],
                                    ["B-IDP", "O", "B-PER"])
    assert out["tokens"][0] == "[CLS]" and out["tokens"][-1] == "[SEP]"
    assert out["label_ids"][0] == IGNORE_ID and out["label_ids"][-1] == IGNORE_ID
    # 'processo' -> proc ##esso: first gets B-IDP id, continuation masked
    assert out["label_ids"][1] == LABEL_TO_ID["B-IDP"]
    assert out["label_ids"][2] == IGNORE_ID
    assert out["tokens"][2] == "##esso"


def test_align_truncation():
    out = tokenize_and_align_labels(["word"] * 600, ["O"] * 600, max_length=64)
    assert len(out["tokens"]) == 64 and out["tokens"][-1] == "[SEP]"
    assert out["label_ids"][-1] == IGNORE_ID


def test_strip_masked():
    gold = [IGNORE_ID, LABEL_TO_ID["B-PER"], IGNORE_ID, LABEL_TO_ID["O"]]
    pred = [LABEL_TO_ID["O"], LABEL_TO_ID["B-PER"], LABEL_TO_ID["O"], LABEL_TO_ID["B-LOC"]]
    g, p = strip_masked(gold, pred, ID_TO_LABEL)
    assert g == ["B-PER", "O"] and p == ["B-PER", "B-LOC"]


def test_chunk_subwords():
    assert chunk_subwords("abc") == ["abc"]
    assert chunk_subwords("abcdefghij") == ["abcd", "##efgh", "##ij"]


# -- span eval (G1/G2) + confusion (G3) --------------------------------------

@pytest.fixture()
def eval_spans(ray_session):
    import ray

    gold = ray.data.from_arrow(pa.table({
        "url": ["u1", "u1", "u2", "u2"],
        "para_idx": [0, 0, 1, 1],
        "start": [0, 10, 5, 20],
        "end": [4, 16, 9, 26],
        "label": ["PER", "LOC", "ORG", "DAT"],
    }))
    pred = ray.data.from_arrow(pa.table({
        "url": ["u1", "u1", "u2", "u2"],
        "para_idx": [0, 0, 1, 1],
        "start": [0, 10, 5, 30],       # DAT span missed; spurious span at 30
        "end": [4, 16, 9, 33],
        "label": ["PER", "ORG", "ORG", "PER"],   # LOC mislabelled as ORG
    }))
    return pred, gold


def test_span_eval_counts(eval_spans):
    from portuguese_pt_legal_ner_ray.stages.evalx import span_eval

    df = span_eval(*eval_spans).set_index("label")
    assert df.loc["PER"].tp == 1 and df.loc["PER"].fp == 1  # spurious PER
    assert df.loc["ORG"].tp == 1 and df.loc["ORG"].fp == 1  # mislabelled LOC->ORG
    assert df.loc["LOC"].fn == 1 and df.loc["DAT"].fn == 1
    micro = df.loc["micro"]
    assert micro.tp == 2 and micro.fp == 2 and micro.fn == 2
    assert abs(micro.precision - 0.5) < 1e-9 and abs(micro.f1 - 0.5) < 1e-9


def test_confusion_matrix_sorted(eval_spans):
    from portuguese_pt_legal_ner_ray.stages.evalx import confusion_matrix

    cm = confusion_matrix(*eval_spans)
    rows = list(cm.itertuples(index=False))
    assert ("LOC", "ORG", 1) in [(r.gold_label, r.pred_label, r.n) for r in rows]
    # deterministic sorted axis (not the reference's set() order bug)
    assert list(cm["gold_label"]) == sorted(cm["gold_label"])


def test_span_eval_macro_weighted_rows(eval_spans):
    """Macro/weighted averages (reference src/training.py:81-99 computes
    them in classification_report) from the same per-label partials."""
    from portuguese_pt_legal_ner_ray.stages.evalx import span_eval

    df = span_eval(*eval_spans).set_index("label")
    # per-label (tp,fp,fn): PER(1,1,0) ORG(1,1,0) LOC(0,0,1) DAT(0,0,1)
    m = df.loc["macro"]
    assert abs(m.precision - (0.5 + 0.5 + 0 + 0) / 4) < 1e-9
    assert abs(m.recall - (1.0 + 1.0 + 0 + 0) / 4) < 1e-9
    assert abs(m.f1 - (2 / 3 + 2 / 3) / 4) < 1e-9
    w = df.loc["weighted"]  # support (tp+fn): PER=1 ORG=1 LOC=1 DAT=1
    assert abs(w.precision - (0.5 + 0.5) / 4) < 1e-9
    assert abs(w.recall - (1.0 + 1.0) / 4) < 1e-9
    assert abs(w.f1 - (2 / 3 + 2 / 3) / 4) < 1e-9
    assert m.tp == df.loc["micro"].tp and w.fn == df.loc["micro"].fn

    # skewed support separates weighted from macro: PER support 2 (both
    # matched), LOC support 1 (missed)
    import ray

    gold = ray.data.from_arrow(pa.table({
        "url": ["u", "u", "u"], "para_idx": [0, 0, 0],
        "start": [0, 10, 20], "end": [4, 14, 24],
        "label": ["PER", "PER", "LOC"],
    }))
    pred = ray.data.from_arrow(pa.table({
        "url": ["u", "u"], "para_idx": [0, 0],
        "start": [0, 10], "end": [4, 14], "label": ["PER", "PER"],
    }))
    from portuguese_pt_legal_ner_ray.stages.evalx import span_eval as se

    df2 = se(pred, gold).set_index("label")
    assert abs(df2.loc["macro"].f1 - 0.5) < 1e-9        # (1 + 0) / 2
    assert abs(df2.loc["weighted"].f1 - 2 / 3) < 1e-9   # (1*2 + 0*1) / 3


def test_token_confusion_o_inclusive(ray_session):
    """Token-level confusion flattens ALL positions including O (reference
    src/training.py:196-208): mislabels land off-diagonal, one-sided spans
    count against O, uncovered tokens land in the O/O cell."""
    import ray

    from portuguese_pt_legal_ner_ray.stages.evalx import token_confusion

    text = "Ana Maria mora em Lisboa hoje."
    paras = ray.data.from_arrow(pa.table({"para_text": [text]}))
    gold = ray.data.from_arrow(pa.table({
        "url": ["u1", "u1"], "para_idx": [0, 0],
        "start": [0, 18], "end": [9, 24],
        "label": ["PER", "LOC"], "surface": ["Ana Maria", "Lisboa"],
    }))
    pred = ray.data.from_arrow(pa.table({
        "url": ["u1", "u1", "u1"], "para_idx": [0, 0, 0],
        "start": [0, 18, 25], "end": [9, 24, 29],
        "label": ["PER", "ORG", "DAT"],
        "surface": ["Ana Maria", "Lisboa", "hoje"],
    }))
    cm = token_confusion(pred, gold, paras)
    cells = {(r.gold_tag, r.pred_tag): r.n for r in cm.itertuples(index=False)}
    assert cells == {
        ("B-PER", "B-PER"): 1, ("I-PER", "I-PER"): 1,
        ("B-LOC", "B-ORG"): 1, ("O", "B-DAT"): 1,
        ("O", "O"): 3,  # "mora", "em", "." -- 7 tokens total, 4 covered
    }
    assert list(cm["gold_tag"]) == sorted(cm["gold_tag"])  # deterministic axes


# -- YAML config round-trip (S8) ---------------------------------------------

def test_config_yaml_roundtrip(tmp_path):
    cfg = PipelineConfig(confidence_threshold=0.6, ner_batch_size=512,
                         ner_concurrency=(2, 4))
    p = save_config(cfg, tmp_path / "cfg.yaml")
    loaded = load_config(p)
    assert loaded == cfg


def test_config_yaml_partial(tmp_path):
    (tmp_path / "c.yaml").write_text("confidence_threshold: 0.7\nlinking:\n  num_bands: 4\n")
    cfg = load_config(tmp_path / "c.yaml")
    assert cfg.confidence_threshold == 0.7
    assert cfg.linking.num_bands == 4
    assert cfg.ner_batch_size == 1024  # defaults preserved


# -- prediction export (S4) + CLI --------------------------------------------

def test_export_predictions_jsonl(mini_run, tmp_path):
    from portuguese_pt_legal_ner_ray.pipelines.kg import export_predictions_jsonl

    out = tmp_path / "preds"
    n = export_predictions_jsonl(mini_run["out"], out)
    records = []
    for f in sorted(out.glob("*.json")):
        for line in f.read_text().splitlines():
            records.append(json.loads(line))
    assert len(records) == n > 0
    golden = mini_run["golden"]
    want = {}
    for u, i, s, e, l in zip(golden["spans"]["url"].to_pylist(),
                             golden["spans"]["para_idx"].to_pylist(),
                             golden["spans"]["start"].to_pylist(),
                             golden["spans"]["end"].to_pylist(),
                             golden["spans"]["label"].to_pylist()):
        want.setdefault((u, i), []).append([s, e, l])
    paras = {(u, i): t for u, i, t in zip(golden["paragraphs"]["url"].to_pylist(),
                                          golden["paragraphs"]["para_idx"].to_pylist(),
                                          golden["paragraphs"]["para_text"].to_pylist())}
    by_text: dict[str, list] = {}
    for key, text in paras.items():
        by_text.setdefault(text, []).append(sorted(want.get(key, [])))
    for rec in records[:200]:
        assert sorted(rec["labels"]) in by_text[rec["text"]]


def test_cli_report_and_build(mini_run, capsys, tmp_path):
    from portuguese_pt_legal_ner_ray.cli import main

    assert main(["report", str(mini_run["out"])]) == 0
    lines = [json.loads(l) for l in capsys.readouterr().out.strip().splitlines()]
    stages = {l["stage"] for l in lines}
    assert stages == {"extract", "graph"}
    graph = next(l for l in lines if l["stage"] == "graph")
    assert graph["link_path"] == "driver" and graph["link_pairs"] > 0
    # every row prints the bytes and block count its read was sized to
    assert all(l["in_bytes"] > 0 and l["blocks"] >= 1 for l in lines)
    # each extract row prints its tables' row counts, and the graph row the
    # mention partials the link read, which the extract rows add up to
    parts = [l for l in lines if l["stage"] == "extract"]
    assert all({"spans", "triples", "errors", "mentions"} <= set(l) for l in parts)
    assert graph["mentions_rows"] == sum(l["mentions"] for l in parts) > 0
    assert graph["mentions_bytes"] > 0
    assert graph["spans"] == sum(l["spans"] for l in parts) > 0
    # and where nodes/edges were built
    assert graph["graph_path"] == "driver"
    # build on an already-complete out_dir resumes instantly via manifests
    assert main(["build", str(mini_run["input"]), str(mini_run["out"])]) == 0


def test_cli_report_confusion_artifact(mini_run, capsys):
    """report --confusion-gold renders the CSV+PNG confusion artifact
    (reference src/tracking.py:253-272 parity; VERDICT r3 item #8)."""
    import pyarrow.parquet as pq

    from portuguese_pt_legal_ner_ray.cli import main

    gold_path = mini_run["root"] / "gold_spans.parquet"
    if not gold_path.exists():
        pq.write_table(mini_run["golden"]["spans"], gold_path)
    assert main(["report", str(mini_run["out"]),
                 "--confusion-gold", str(gold_path)]) == 0
    capsys.readouterr()
    art = mini_run["out"] / "artifacts"
    csv_path, png_path = art / "confusion.csv", art / "confusion.png"
    assert csv_path.exists() and png_path.exists()
    # CSV: square sorted label axes; pipeline == oracle spans here, so the
    # matrix is diagonal with per-label span counts
    import numpy as np
    import pandas as pd

    mat = pd.read_csv(csv_path, index_col=0)
    assert list(mat.index) == sorted(mat.index) and list(mat.columns) == list(mat.index)
    off_diag = mat.to_numpy().sum() - np.diag(mat.to_numpy()).sum()
    assert off_diag == 0
    # PNG: valid signature and dimensions = |labels| * cell_px
    head = png_path.read_bytes()[:24]
    assert head[:8] == b"\x89PNG\r\n\x1a\n"
    import struct

    w, h = struct.unpack(">II", head[16:24])
    assert w == h == len(mat.index) * 24


def test_mlm_mask_batch_collator_semantics():
    """M5 + MLM collator parity (reference src/data.py:336-345,
    src/models.py:170-172): ~15% of tokens selected; of those 80% [MASK],
    10% random, 10% unchanged; labels hold original ids only at selected
    positions; deterministic; padded to batch max with attention 0."""
    import pyarrow as pa

    from portuguese_pt_legal_ner_ray.corpus import gen_pages_shard
    from portuguese_pt_legal_ner_ray.functions.align import (
        IGNORE_ID,
        MASK_ID,
        mlm_mask_batch,
    )

    t = pa.table({"text": gen_pages_shard(0, 0, 300)["text"]})
    out = mlm_mask_batch(t)
    assert out.num_rows == t.num_rows
    ii = out["input_ids"].to_pylist()
    am = out["attention_mask"].to_pylist()
    lb = out["labels"].to_pylist()
    assert len({len(r) for r in ii}) == 1  # padded to batch max
    n_tok = sum(sum(a) for a in am)
    sel = [(i, l) for irow, lrow in zip(ii, lb)
           for i, l in zip(irow, lrow) if l != IGNORE_ID]
    frac = len(sel) / n_tok
    assert 0.12 < frac < 0.18
    n_mask = sum(1 for i, _ in sel if i == MASK_ID)
    n_same = sum(1 for i, l in sel if i == l)
    assert 0.72 < n_mask / len(sel) < 0.88
    assert 0.05 < n_same / len(sel) < 0.15
    # padding positions carry no label and no attention
    for irow, arow, lrow in zip(ii, am, lb):
        for a, l in zip(arow, lrow):
            if a == 0:
                assert l == IGNORE_ID
    assert out.equals(mlm_mask_batch(t))  # pure function of (text, pos, seed)
    # truncation at max_length
    long = pa.table({"text": pa.array([" ".join(["w"] * 700)], pa.string())})
    assert sum(mlm_mask_batch(long, max_length=512)["attention_mask"][0].as_py()) == 512


def test_cli_ann_build_and_query(ray_session, tmp_path, capsys):
    """ann-build persists the IVF index; ann-query at full probe answers
    exactly like brute force from the CLI surface."""
    import numpy as np
    import pyarrow as pa
    import pyarrow.parquet as pq
    import ray

    from portuguese_pt_legal_ner_ray.cli import main
    from portuguese_pt_legal_ner_ray.stages.similarity import (
        brute_force_topk,
        make_query_ref,
    )

    rng = np.random.default_rng(5)
    mat = rng.normal(size=(120, 6))
    vec_path = tmp_path / "vectors.parquet"
    pq.write_table(pa.table({
        "vec_id": pa.array(range(120), pa.int64()),
        "embedding": pa.array([list(map(float, r)) for r in mat],
                              pa.list_(pa.float32())),
    }), vec_path)
    index = tmp_path / "ivf"

    assert main(["ann-build", str(vec_path), str(index), "--n-cells", "4"]) == 0
    assert (index / "centroids.npy").exists()
    capsys.readouterr()

    out = tmp_path / "topk"
    assert main(["ann-query", str(vec_path), str(index), "2,7",
                 "--k", "5", "--nprobe", "4", "--out", str(out)]) == 0
    got = ray.data.read_parquet(str(out)).to_pandas()
    vecs = ray.data.read_parquet(str(vec_path))
    exact = brute_force_topk(vecs, make_query_ref(vecs, [2, 7]), k=5).to_pandas()
    key = ["query_id", "vec_id"]
    assert got.sort_values(key).reset_index(drop=True).equals(
        exact.sort_values(key).reset_index(drop=True))


def test_cli_ann_index_first_dispatch(ray_session, tmp_path, capsys):
    """The `ann` command (the default ANN entry from the CLI): with
    --index-dir it builds the persisted index on first use, REUSES it on
    the second call, and at full probe answers exactly like brute force;
    without --index-dir it is brute force."""
    import numpy as np
    import pyarrow as pa
    import pyarrow.parquet as pq
    import ray

    from portuguese_pt_legal_ner_ray.cli import main
    from portuguese_pt_legal_ner_ray.stages.similarity import (
        brute_force_topk,
        make_query_ref,
    )

    rng = np.random.default_rng(6)
    mat = rng.normal(size=(90, 5))
    vec_path = tmp_path / "vectors.parquet"
    pq.write_table(pa.table({
        "vec_id": pa.array(range(90), pa.int64()),
        "embedding": pa.array([list(map(float, r)) for r in mat],
                              pa.list_(pa.float32())),
    }), vec_path)
    index = tmp_path / "idx"
    out = tmp_path / "topk1"

    assert main(["ann", str(vec_path), "3,11", "--index-dir", str(index),
                 "--n-cells", "4", "--nprobe", "4", "--k", "5",
                 "--out", str(out)]) == 0
    assert (index / "centroids.npy").exists()  # index-first path built it
    capsys.readouterr()
    vecs = ray.data.read_parquet(str(vec_path))
    exact = brute_force_topk(vecs, make_query_ref(vecs, [3, 11]), k=5).to_pandas()
    key = ["query_id", "vec_id"]
    got = ray.data.read_parquet(str(out)).to_pandas()
    assert got.sort_values(key).reset_index(drop=True).equals(
        exact.sort_values(key).reset_index(drop=True))

    # second call reuses the index (marker mtime unchanged)
    sig = (index / "centroids.npy").stat().st_mtime_ns
    out2 = tmp_path / "topk2"
    assert main(["ann", str(vec_path), "3,11", "--index-dir", str(index),
                 "--n-cells", "4", "--nprobe", "4", "--k", "5",
                 "--out", str(out2)]) == 0
    assert (index / "centroids.npy").stat().st_mtime_ns == sig
    capsys.readouterr()

    # no index: the printed rows are brute force's, at a partial --nprobe
    assert main(["ann", str(vec_path), "3", "--n-cells", "4", "--nprobe", "1",
                 "--k", "3"]) == 0
    printed = [json.loads(line)
               for line in capsys.readouterr().out.strip().splitlines()]
    want = brute_force_topk(vecs, make_query_ref(vecs, [3]), k=3).to_pandas()
    assert sorted((r["query_id"], r["vec_id"]) for r in printed) == sorted(
        zip(want["query_id"].tolist(), want["vec_id"].tolist()))
