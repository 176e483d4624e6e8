"""End-to-end parity: Ray pipeline output == single-process oracle output
(SURVEY.md §5 test 1 — the core acceptance test). Expected equality is exact
(P/R = 1.0) because pipeline and oracle share the deterministic tagger."""

import dataclasses
import shutil
from pathlib import Path

import pyarrow.dataset as pads
import pyarrow.parquet as pq
import pytest

from portuguese_pt_legal_ner_ray.corpus import gen_pages_shard
from portuguese_pt_legal_ner_ray.oracle import run_oracle
from portuguese_pt_legal_ner_ray.pipelines.kg import graph_stage, run_kg_pipeline
from portuguese_pt_legal_ner_ray.config import PipelineConfig

TABLE_COLS = {
    "spans": ["url", "para_idx", "start", "end", "label", "surface"],
    "triples": ["subj", "pred", "obj", "subj_label", "obj_label", "url", "para_idx"],
    "nodes": ["entity_id", "canonical_surface", "label", "n_mentions"],
    "edges": ["subj_id", "pred", "obj_id", "weight"],
}


def _sorted(t, cols):
    t = t.select(cols)
    return t.sort_by([(c, "ascending") for c in cols])


def _assert_table_equal(out_dir, golden, name):
    got = _sorted(pads.dataset(Path(out_dir) / "graph" / name).to_table(), TABLE_COLS[name])
    want = _sorted(golden[name], TABLE_COLS[name])
    assert got.num_rows == want.num_rows, name
    assert got.equals(want.cast(got.schema)), f"{name} table mismatch"




def test_extracted_text_byte_identity(mini_run):
    got = pads.dataset(mini_run["out"] / "extracted").to_table()
    by_url = dict(zip(got["url"].to_pylist(), got["text"].to_pylist()))
    pages = mini_run["pages"]
    for url, text in zip(pages["url"].to_pylist(), pages["text"].to_pylist()):
        assert by_url[url] == text  # byte-identical per url (input_hint invariant)


def test_paragraphs_match_oracle(mini_run):
    got = pads.dataset(mini_run["out"] / "extraction").to_table()
    got = _sorted(got, ["url", "para_idx", "para_text"])
    want = _sorted(mini_run["golden"]["paragraphs"], ["url", "para_idx", "para_text"])
    assert got.equals(want.cast(got.schema))


@pytest.mark.parametrize("name", list(TABLE_COLS))
def test_graph_tables_match_oracle(mini_run, name):
    _assert_table_equal(mini_run["out"], mini_run["golden"], name)


def test_empty_errors_table_reads_as_zero_rows(mini_run):
    """No paragraph of the 200-page run fails, and ``graph/errors`` is still
    there: zero rows with the table's columns, readable by the pipeline's
    own reader too."""
    from portuguese_pt_legal_ner_ray.sources.parquet import sized_read_parquet

    errors = mini_run["out"] / "graph" / "errors"
    t = pads.dataset(errors).to_table()
    assert t.num_rows == 0
    assert t.column_names == ["url", "para_idx", "error"]
    assert sized_read_parquet(str(errors)).count() == 0


def test_graph_spans_read_without_partition_column(mini_run):
    """``graph/spans`` is written per partition (``part=<p>/``), and the
    pipeline's own reader (used by ``cli report`` and the span-eval
    queries) reports exactly the six span columns: the directory names add
    no hive ``part`` column."""
    from portuguese_pt_legal_ner_ray.sources.parquet import sized_read_parquet

    spans = mini_run["out"] / "graph" / "spans"
    assert sorted(d.name for d in spans.iterdir()) == [
        f"part={p:05d}" for p in range(4)]
    import ray

    # the blocks, not ds.schema(): the read reports the schema it was given
    blocks = ray.get(sized_read_parquet(str(spans)).to_arrow_refs())
    assert {tuple(b.column_names) for b in blocks} == {tuple(TABLE_COLS["spans"])}
    assert sum(b.num_rows for b in blocks) == mini_run["golden"]["spans"].num_rows


def test_partition_tables_equal_flattens_of_extraction(mini_run):
    """Each partition's job writes, next to ``extraction/part=<p>/``,
    ``graph/{spans,triples,errors}/part=<p>/`` and ``mentions/part=<p>/``:
    equal to ``flatten_spans``, ``flatten_triples`` and ``error_rows`` of
    the partition's ``extraction/`` rows, and mention partials that merge
    to ``MentionPartial`` over all its spans. Every file has its table's
    static schema, and each extract manifest row holds its tables' row
    counts."""
    from portuguese_pt_legal_ner_ray.pipelines.kg import NER_TABLES
    from portuguese_pt_legal_ner_ray.stages.extract import (
        error_rows,
        flatten_spans,
        flatten_triples,
    )
    from portuguese_pt_legal_ner_ray.stages.linking import MentionPartial
    from portuguese_pt_legal_ner_ray.state.manifest import Manifest

    out = mini_run["out"]
    rows = {r["partition"]: r for r in Manifest(out).all_records()
            if r["stage"] == "extract"}
    assert len(rows) == 4
    for part, row in rows.items():
        def read(name):
            d = out / name / f"part={part}"
            for f in d.glob("*.parquet"):
                assert pq.read_schema(f).remove_metadata() == NER_TABLES[name], f
            return pads.dataset(d).to_table()

        ext = read("extraction")
        assert row["paragraphs"] == ext.num_rows
        for name, flatten in (("spans", flatten_spans), ("triples", flatten_triples),
                              ("errors", error_rows)):
            got, want = read(f"graph/{name}"), flatten(ext)
            cols = got.column_names
            assert cols == want.column_names, name
            assert _sorted(got, cols).equals(_sorted(want, cols)), name
            assert row[name] == got.num_rows, name
        mentions = read("mentions")
        assert row["mentions"] == mentions.num_rows > 0
        merged = mentions.group_by(["key", "label"]).aggregate(
            [("surface", "min"), ("n", "sum")]).rename_columns(
            ["key", "label", "surface", "n"])
        want = MentionPartial()(flatten_spans(ext))
        cols = ["key", "label", "surface", "n"]
        assert _sorted(merged, cols).equals(_sorted(want, cols))


def test_empty_tables_written_without_schema_probe(mini_run, tmp_path, monkeypatch):
    """No paragraph of a clean partition is quarantined, and its
    ``graph/errors/part=<p>/`` still holds one zero-row file with the
    columns ``url``, ``para_idx``, ``error``: the sink writes it from the
    static schema, so the run asks no Dataset for its schema and runs no
    ``limit(1)`` execution to find one."""
    import ray.data

    calls: list[str] = []
    for name in ("schema", "limit"):
        orig = getattr(ray.data.Dataset, name)

        def spy(self, *args, _name=name, _orig=orig, **kwargs):
            calls.append(_name)
            return _orig(self, *args, **kwargs)

        monkeypatch.setattr(ray.data.Dataset, name, spy)
    out = tmp_path / "out"
    run_kg_pipeline(mini_run["input"], out, num_partitions=1)
    assert calls == []
    errors = out / "graph" / "errors" / "part=00000"
    assert [f.name for f in errors.iterdir()] == ["empty.parquet"]
    t = pq.read_table(errors / "empty.parquet")
    assert t.num_rows == 0 and t.column_names == ["url", "para_idx", "error"]


def test_append_leaves_old_partition_tables_untouched(mini_run, tmp_path):
    """An ``append`` (one new input file, one file per partition) extracts
    only the new partition: the old partitions' ``graph/{spans,triples,
    errors}`` files keep their ``mtime_ns``, the new partition's appear,
    and the tables equal a fresh run over all five files."""
    inp = tmp_path / "in"
    shutil.copytree(mini_run["input"], inp)
    out = tmp_path / "out"
    run_kg_pipeline(inp, out, num_partitions=8)
    flat = ("graph/spans", "graph/triples", "graph/errors")

    def stamps() -> dict[Path, int]:
        return {f: f.stat().st_mtime_ns for name in flat
                for f in (out / name).glob("part=*/*.parquet")}

    before = stamps()
    assert len({f.parent for f in before}) == 3 * 4
    pq.write_table(gen_pages_shard(4, 200, 50), inp / "part-00004.parquet")
    run_kg_pipeline(inp, out, num_partitions=8)
    after = stamps()
    assert {f: after[f] for f in before} == before
    assert {f.parent.name for f in set(after) - set(before)} == {"part=00004"}
    fresh = tmp_path / "fresh"
    run_kg_pipeline(inp, fresh, num_partitions=8)
    for name in ("spans", "triples", "nodes", "edges"):
        cols = TABLE_COLS[name]
        got = _sorted(pads.dataset(out / "graph" / name).to_table(), cols)
        want = _sorted(pads.dataset(fresh / "graph" / name).to_table(), cols)
        assert got.equals(want), name


def test_triple_set_precision_recall(mini_run):
    """The north-rule metric: (subj, pred, obj) set P/R >= 0.95 (here 1.0)."""
    got_t = pads.dataset(mini_run["out"] / "graph" / "triples").to_table()
    got = set(zip(got_t["subj"].to_pylist(), got_t["pred"].to_pylist(), got_t["obj"].to_pylist()))
    g = mini_run["golden"]["triples"]
    want = set(zip(g["subj"].to_pylist(), g["pred"].to_pylist(), g["obj"].to_pylist()))
    tp = len(got & want)
    precision = tp / max(1, len(got))
    recall = tp / max(1, len(want))
    assert precision >= 0.95 and recall >= 0.95
    assert precision == 1.0 and recall == 1.0  # deterministic shared tagger


def test_distributed_cc_matches_driver(mini_run, monkeypatch):
    """The fixture's run is below ``DRIVER_CC_MAX_KEYS``, so linking, nodes
    and edges all ran in the driver. With the bound forced to 10, banding
    runs as Ray tasks and nodes/edges as two Ray jobs, and the graph row
    says so. Both placements find the same verified pairs, and both give
    the oracle's nodes/edges."""
    from portuguese_pt_legal_ner_ray.stages import linking
    from portuguese_pt_legal_ner_ray.state.manifest import Manifest

    alt = mini_run["root"] / "out_distcc"
    if not alt.exists():
        shutil.copytree(mini_run["out"], alt)
    monkeypatch.setattr(linking, "DRIVER_CC_MAX_KEYS", 10)
    row = graph_stage(alt, PipelineConfig())
    driver_row = Manifest(mini_run["out"]).read("graph", "all")
    assert (row["link_path"], driver_row["link_path"]) == ("distributed", "driver")
    assert (row["graph_path"], driver_row["graph_path"]) == ("distributed", "driver")
    assert row["link_pairs"] == driver_row["link_pairs"] > 0
    assert row["link_keys"] == driver_row["link_keys"]
    assert row["triples"] == driver_row["triples"] > 10
    for out in (alt, mini_run["out"]):
        for name in ("nodes", "edges"):
            _assert_table_equal(out, mini_run["golden"], name)


def test_graph_without_pt_spans_on_both_placements(ray_session, tmp_path, monkeypatch):
    """A corpus with no pt spans (empty, blank and en pages only) has no
    mention partials and no triples. Built in the driver (the default
    bound) and as Ray jobs (a bound of -1, so no row count is below it),
    ``nodes`` and ``edges`` are one zero-row file each in their schemas,
    which pyarrow reads with no Ray execution; the driver placement runs
    none at all."""
    import pyarrow as pa
    from ray.data._internal.execution.streaming_executor import StreamingExecutor

    from portuguese_pt_legal_ner_ray.functions.html import render_html
    from portuguese_pt_legal_ner_ray.stages import linking
    from portuguese_pt_legal_ner_ray.stages.graph import EDGES_SCHEMA, NODES_SCHEMA

    shard = gen_pages_shard(5, 0, 20)
    texts = [t for t in shard["text"].to_pylist() if t.strip()][:10]
    pages = pa.table({
        "url": pa.array([f"https://nopt.test/{i}" for i in range(len(texts) + 2)]),
        "html": pa.array([render_html(t) for t in ["", " \n\n ", *texts]], pa.binary()),
        "lang": pa.array(["pt", "pt", *["en"] * len(texts)]),
    })
    golden = run_oracle(pages)
    assert golden["nodes"].num_rows == golden["edges"].num_rows == 0
    inp, out = tmp_path / "in", tmp_path / "out"
    inp.mkdir()
    pq.write_table(pages, inp / "part-00000.parquet")
    run_kg_pipeline(inp, out, num_partitions=1)

    calls = []
    real = StreamingExecutor.execute

    def counted(self, *args, **kwargs):
        calls.append(1)
        return real(self, *args, **kwargs)

    monkeypatch.setattr(StreamingExecutor, "execute", counted)
    for bound, path in ((linking.DRIVER_CC_MAX_KEYS, "driver"), (-1, "distributed")):
        monkeypatch.setattr(linking, "DRIVER_CC_MAX_KEYS", bound)
        calls.clear()
        row = graph_stage(out, PipelineConfig())
        assert (row["link_path"], row["graph_path"]) == (path, path)
        assert row["mentions_rows"] == row["triples"] == 0
        assert (calls == []) == (path == "driver")
        calls.clear()
        for name, schema in (("nodes", NODES_SCHEMA), ("edges", EDGES_SCHEMA)):
            files = list((out / "graph" / name).glob("*.parquet"))
            assert len(files) == 1, (path, name)
            got = pq.read_table(files[0])
            assert got.num_rows == 0 and got.schema.equals(schema), (path, name)
        assert calls == []


def test_bench_pipeline_matches_oracle(mini_run):
    """run_kg_pipeline as bench.py times it (a fresh output dir, here one
    partition) == oracle on nodes/edges."""
    out = mini_run["root"] / "out_bench"
    run_kg_pipeline(mini_run["input"], out, num_partitions=1)
    for name in ("nodes", "edges"):
        _assert_table_equal(out, mini_run["golden"], name)


def test_resume_after_injected_failure(ray_session, mini_run, tmp_path):
    out = tmp_path / "out_resume"
    with pytest.raises(RuntimeError, match="injected failure"):
        run_kg_pipeline(mini_run["input"], out, num_partitions=4, fail_after_partitions=2)
    from portuguese_pt_legal_ner_ray.state.manifest import Manifest

    m = Manifest(out)
    done_before = {r["partition"] for r in m.all_records() if r["stage"] == "extract"}
    assert len(done_before) == 2
    # mark completion times, resume, verify completed partitions were skipped
    times_before = {
        r["partition"]: r["completed_at"] for r in m.all_records() if r["stage"] == "extract"
    }
    run_kg_pipeline(mini_run["input"], out, num_partitions=4)
    times_after = {
        r["partition"]: r["completed_at"]
        for r in Manifest(out).all_records()
        if r["stage"] == "extract"
    }
    for p in done_before:
        assert times_after[p] == times_before[p], "completed partition was recomputed"
    for name in TABLE_COLS:
        _assert_table_equal(out, mini_run["golden"], name)

def test_bench_distributed_link_matches_oracle(mini_run, monkeypatch):
    """run_kg_pipeline with the driver-collect cap forced tiny must take the
    stage-based distributed link path (no driver collect of mentions), say
    so in the graph manifest row, and still produce byte-identical
    nodes/edges (VERDICT r3 item #3)."""
    from portuguese_pt_legal_ner_ray.stages import linking as linking_mod
    from portuguese_pt_legal_ner_ray.state.manifest import Manifest

    monkeypatch.setattr(linking_mod, "DRIVER_CC_MAX_KEYS", 10)
    out = mini_run["root"] / "out_bench_dist"
    run_kg_pipeline(mini_run["input"], out, num_partitions=4)
    assert Manifest(out).read("graph", "all")["link_path"] == "distributed"
    for name in ("nodes", "edges"):
        _assert_table_equal(out, mini_run["golden"], name)


def _tagger_slices(cfg, pages, monkeypatch) -> list[int]:
    """The paragraph count of each NER stage call ``extract_pages_task``
    makes over ``pages`` with ``cfg``, in this process."""
    from portuguese_pt_legal_ner_ray.stages import extract

    sizes: list[int] = []

    class Recording(extract.NerTripleStage):
        def __call__(self, batch):
            sizes.append(batch.num_rows)
            return super().__call__(batch)

    monkeypatch.setitem(extract._TASK_STAGES, extract._stage_key(cfg), Recording(cfg))
    extract.extract_pages_task(pages.select(["url", "html", "lang"]), cfg)
    return sizes


def _slices_of(n: int, step: int) -> list[int]:
    return [step] * (n // step) + ([n % step] if n % step else [])


def test_ner_remote_args_reach_map_batches(mini_run, tmp_path, monkeypatch):
    """cfg.ner_ray_remote_args must be splatted into the extract
    map_batches call (SURVEY.md §2.3 A1 num_gpus mapping; VERDICT r3 item
    #4). The map takes whole blocks; the task tags them in slices of
    ``cfg.ner_batch_size`` paragraphs."""
    import ray.data

    from portuguese_pt_legal_ner_ray.pipelines.kg import (
        extract_partition,
        ner_map_batches_kwargs,
    )
    from portuguese_pt_legal_ner_ray.stages.extract import extract_pages_task

    # pure-unit: a GPU claim lands in the kwargs (never actually scheduled
    # here — this sandbox has no GPU)
    kw = ner_map_batches_kwargs(PipelineConfig(ner_ray_remote_args={"num_gpus": 0.25}))
    assert kw["num_gpus"] == 0.25 and kw["batch_size"] is None

    # wiring: the kwargs reach the actual Dataset.map_batches call for the
    # NER stage (spy on the method, run one real partition with a
    # satisfiable claim)
    recorded: dict = {}
    orig = ray.data.Dataset.map_batches

    def spy(self, fn, **kwargs):
        if fn is extract_pages_task:
            recorded.update(kwargs)
        return orig(self, fn, **kwargs)

    monkeypatch.setattr(ray.data.Dataset, "map_batches", spy)
    files = sorted(str(p) for p in Path(mini_run["input"]).glob("*.parquet"))[:1]
    cfg = PipelineConfig(ner_ray_remote_args={"num_cpus": 1})
    extract_partition(files, tmp_path / "out_remote_args", "00000", cfg)
    assert recorded.get("num_cpus") == 1
    assert recorded.get("batch_size") is None and recorded["fn_kwargs"]["cfg"] == cfg
    n = mini_run["golden"]["paragraphs"].num_rows
    cfg = dataclasses.replace(cfg, ner_batch_size=64)
    assert _tagger_slices(cfg, mini_run["pages"], monkeypatch) == _slices_of(n, 64)


def test_ner_remote_args_reject_reserved_keys():
    """ner_ray_remote_args is placement-only (excluded from the resume
    fingerprint): output-affecting keys must be rejected, or a silent
    override would resume past stale partitions (ADVICE r4 #3)."""
    import pytest

    from portuguese_pt_legal_ner_ray.pipelines.kg import ner_map_batches_kwargs

    for bad in ("batch_format", "batch_size", "concurrency",
                "fn_constructor_kwargs"):
        with pytest.raises(ValueError, match="reserved"):
            ner_map_batches_kwargs(
                PipelineConfig(ner_ray_remote_args={bad: 1}))
    # placement keys still pass through (ner_concurrency pinned so the
    # check stays a pure unit test — no ray.cluster_resources() needed)
    kw = ner_map_batches_kwargs(
        PipelineConfig(ner_ray_remote_args={"num_cpus": 2}, ner_concurrency=4))
    assert kw["num_cpus"] == 2


def test_remote_args_excluded_from_resume_fingerprint(mini_run, tmp_path):
    """Changing ner_ray_remote_args (a pure placement knob) must NOT
    invalidate finished partitions on resume. The wall seconds the manifest
    rows record (each extract row's ``wall_s``, each graph write's phase),
    the bytes and block count each row's read was sized to (``in_bytes``,
    ``blocks``) and the graph row's link counters sit outside the
    fingerprint too: the rerun leaves every row as it was."""
    from portuguese_pt_legal_ner_ray.state.manifest import Manifest, parquet_row_count

    out = tmp_path / "out_fp"
    run_kg_pipeline(mini_run["input"], out, num_partitions=2)
    rows = Manifest(out).all_records()
    before = {
        r["partition"]: r["completed_at"]
        for r in rows
        if r["stage"] == "extract"
    }
    assert all(r["wall_s"] > 0 for r in rows if r["stage"] == "extract")
    assert all(r["in_bytes"] > 0 and r["blocks"] >= 1 for r in rows)
    graph_before = Manifest(out).read("graph", "all")
    assert set(graph_before["phases"]) == {"extract", "link", "nodes", "edges",
                                           "writes"}
    assert {"link_path", "link_keys", "link_pairs", "mentions_rows",
            "mentions_bytes", "graph_path"} <= set(graph_before)
    assert graph_before["link_pairs"] > 0
    assert graph_before["graph_path"] == "driver"
    assert graph_before["triples"] == parquet_row_count(out / "graph" / "triples") > 0
    run_kg_pipeline(
        mini_run["input"], out,
        cfg=PipelineConfig(ner_ray_remote_args={"num_cpus": 1}),
        num_partitions=2,
    )
    after = {
        r["partition"]: r["completed_at"]
        for r in Manifest(out).all_records()
        if r["stage"] == "extract"
    }
    assert after == before, "placement-only config change recomputed partitions"
    assert Manifest(out).read("graph", "all") == graph_before
    assert Manifest(out).all_records() == rows


def test_gpu_claim_sizes_actor_pool_to_gpu_budget():
    """A GPU claim in ner_ray_remote_args reaches the NER tasks' placement
    kwargs next to the config, whose batch size the tasks tag by (the map
    takes whole blocks); a task whose claim cannot be
    met waits in Ray's scheduler. ner_concurrency caps the concurrent NER
    tasks: an int directly, a (min, max) tuple by its upper bound, and None
    leaves the cap to Ray (VERDICT r4 #8)."""
    from portuguese_pt_legal_ner_ray.pipelines.kg import ner_map_batches_kwargs

    for g in (1, 0.25):
        cfg = PipelineConfig(ner_ray_remote_args={"num_gpus": g})
        kw = ner_map_batches_kwargs(cfg)
        assert kw["num_gpus"] == g and kw["batch_size"] is None
        assert kw["fn_kwargs"]["cfg"].ner_batch_size == PipelineConfig().ner_batch_size
        assert "concurrency" not in kw
    kw = ner_map_batches_kwargs(
        PipelineConfig(ner_ray_remote_args={"num_gpus": 1}, ner_concurrency=2))
    assert kw["concurrency"] == 2 and kw["num_gpus"] == 1
    assert ner_map_batches_kwargs(
        PipelineConfig(ner_concurrency=(1, 3)))["concurrency"] == 3


def test_task_mode_ner_honours_cfg(mini_run, tmp_path):
    """NER runs as Ray tasks that cache one tagger per worker. The cache is
    keyed by the config: in one Ray session, a non-default
    confidence_threshold and then the default each give exactly what an
    in-process NerTripleStage(cfg) gives over the same paragraphs."""
    from portuguese_pt_legal_ner_ray.pipelines.kg import extract_partition
    from portuguese_pt_legal_ner_ray.stages.extract import NerTripleStage

    files = sorted(str(p) for p in Path(mini_run["input"]).glob("*.parquet"))[:2]
    cols = ["url", "para_idx"]
    outs = []
    for cfg in (PipelineConfig(confidence_threshold=0.8), PipelineConfig()):
        out = tmp_path / f"thr{cfg.confidence_threshold}"
        extract_partition(files, out, "00000", cfg)
        got = pads.dataset(out / "extraction").to_table()
        got = got.sort_by([(c, "ascending") for c in cols])
        want = NerTripleStage(cfg)(got.select(["url", "lang", "para_idx", "para_text"]))
        assert got.equals(want.cast(got.schema))
        outs.append(got)
    # the threshold matters on this input, so a shared tagger would show
    assert not outs[0]["spans"].equals(outs[1]["spans"])


def test_extract_task_edge_cases_match_oracle(ray_session, tmp_path, monkeypatch):
    """One input file that mixes empty and blank pages, non-pt pages and a
    page with more paragraphs than ``ner_batch_size``, run at a
    ``ner_batch_size`` of 7, which does not divide the file's paragraph
    count (the lone partition reads as 4 blocks): ``extracted/``,
    ``extraction/``, ``graph/{spans,triples}``, ``nodes`` and ``edges`` equal
    the oracle's. In process, the extract task tags slices of 7 paragraphs,
    and a paragraph whose tagger call raises still lands in
    ``graph/errors`` with its url and para_idx."""
    import pyarrow as pa

    from portuguese_pt_legal_ner_ray.functions.html import render_html
    from portuguese_pt_legal_ner_ray.functions.tagger import RegexGazetteerTagger
    from portuguese_pt_legal_ner_ray.pipelines.kg import PARTITION_DIRS, partition_tables
    from portuguese_pt_legal_ner_ray.stages import extract

    shard = gen_pages_shard(9, 0, 40)
    base = shard.select(["url", "html", "lang"])
    pt_texts = [t for t, lang in zip(shard["text"].to_pylist(),
                                     shard["lang"].to_pylist()) if lang == "pt"]
    long_text = "\n".join(pt_texts[:6])
    extra = {
        "https://edge.pt/empty": ("", "pt"),
        "https://edge.pt/blank": ("  \n\n \n", "pt"),
        "https://edge.pt/long": (long_text, "pt"),
        "https://edge.pt/long-en": (long_text, "en"),
        "https://edge.pt/boom": ("João Silva em Lisboa.\n\ntexto BOOM 123 aqui", "pt"),
    }
    pages = pa.concat_tables([base, pa.table({
        "url": pa.array(list(extra), pa.string()),
        "html": pa.array([render_html(t) for t, _ in extra.values()], pa.binary()),
        "lang": pa.array([lang for _, lang in extra.values()], pa.string()),
    })])
    inp = tmp_path / "in"
    inp.mkdir()
    pq.write_table(pages, inp / "part-00000.parquet")
    golden = run_oracle(pages)
    assert len(long_text.split("\n")) > 7
    cfg = PipelineConfig(ner_batch_size=7)
    out = tmp_path / "out"
    run_kg_pipeline(inp, out, cfg=cfg, num_partitions=1)

    got = pads.dataset(out / "extracted").to_table()
    assert _sorted(got, ["url", "text"]).equals(_sorted(golden["extracted"], ["url", "text"]))
    para_cols = ["url", "lang", "para_idx", "para_text"]
    got = _sorted(pads.dataset(out / "extraction").to_table(), para_cols)
    want = _sorted(golden["paragraphs"], para_cols)
    assert got.num_rows == want.num_rows and got.equals(want.cast(got.schema))
    assert got.num_rows % 7
    for name in TABLE_COLS:
        _assert_table_equal(out, golden, name)

    class BoobyTrap(RegexGazetteerTagger):
        def tag_paragraph(self, text):
            if "BOOM" in text:
                raise ValueError("model exploded")
            return super().tag_paragraph(text)

    monkeypatch.setattr(extract, "RegexGazetteerTagger", BoobyTrap)
    n = golden["paragraphs"].num_rows
    assert _tagger_slices(cfg, pages, monkeypatch) == _slices_of(n, 7)
    rows = extract.extract_pages_task(pages, cfg)
    tables = dict(zip(PARTITION_DIRS, partition_tables(rows)))
    assert tables["graph/errors"].to_pylist() == [
        {"url": "https://edge.pt/boom", "para_idx": 1,
         "error": "ValueError: model exploded"}]
    assert tables["extraction"].num_rows == n
