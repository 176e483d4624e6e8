"""Hard kill-and-resume: SIGKILL the pipeline process mid-extraction, then
resume in a fresh process; output must equal the oracle exactly and
completed partitions must not be recomputed (SURVEY.md §5 test 3, the
strong form of the injected-failure test)."""

import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pyarrow as pa
import pyarrow.dataset as pads
import pyarrow.parquet as pq

REPO = Path(__file__).resolve().parent.parent

RUNNER = """
import sys, ray
sys.path.insert(0, {repo!r})
ray.init(address="local", num_cpus=4, include_dashboard=False,
         ignore_reinit_error=True, logging_level="ERROR")
from ray.data import DataContext
DataContext.get_current().enable_progress_bars = False
from portuguese_pt_legal_ner_ray.pipelines.kg import run_kg_pipeline
run_kg_pipeline({inp!r}, {out!r}, num_partitions=4)
ray.shutdown()
"""


def test_sigkill_mid_run_then_resume(tmp_path):
    from portuguese_pt_legal_ner_ray.corpus import gen_pages_shard
    from portuguese_pt_legal_ner_ray.oracle import run_oracle

    inp = tmp_path / "webpages"
    inp.mkdir()
    tables = [gen_pages_shard(s, s * 40, 40) for s in range(4)]
    for s, t in enumerate(tables):
        pq.write_table(t, inp / f"part-{s:05d}.parquet")
    golden = run_oracle(pa.concat_tables(tables))
    out = tmp_path / "out"

    code = RUNNER.format(repo=str(REPO), inp=str(inp), out=str(out))
    proc = subprocess.Popen([sys.executable, "-c", code],
                            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    manifest_dir = out / "_manifest"
    deadline = time.time() + 120
    while time.time() < deadline:
        if manifest_dir.exists() and any(manifest_dir.glob("extract__*.json")):
            break
        if proc.poll() is not None:
            break
        time.sleep(0.2)
    assert proc.poll() is None, "pipeline finished before we could kill it"
    os.kill(proc.pid, signal.SIGKILL)  # hard kill: no cleanup, no atexit
    proc.wait()

    done_before = {p.name: p.stat().st_mtime for p in manifest_dir.glob("extract__*.json")}
    assert done_before, "no partition completed before the kill"

    subprocess.run([sys.executable, "-c", code], check=True, timeout=300,
                   stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)

    # completed partitions untouched by the resume
    for name, mtime in done_before.items():
        assert (manifest_dir / name).stat().st_mtime == mtime

    got = pads.dataset(out / "graph" / "spans").to_table()
    cols = ["url", "para_idx", "start", "end", "label", "surface"]
    got = got.select(cols).sort_by([(c, "ascending") for c in cols])
    want = golden["spans"].select(cols).sort_by([(c, "ascending") for c in cols])
    assert got.equals(want.cast(got.schema))


ONE_CPU_RUNNER = """
import sys, ray
sys.path.insert(0, {repo!r})
ray.init(address="local", num_cpus=1, object_store_memory=128 * 2**20,
         include_dashboard=False, logging_level="ERROR")
from ray.data import DataContext
DataContext.get_current().enable_progress_bars = False
from portuguese_pt_legal_ner_ray.pipelines.kg import run_kg_pipeline
run_kg_pipeline({inp!r}, {out!r}, num_partitions=4)
ray.shutdown()
"""


def test_one_cpu_ray_pipeline_finishes(tmp_path):
    """With one Ray CPU the pipeline must make progress: no stage may hold
    the only CPU while read tasks wait for it. 200 pages finish well under
    120 s (~11 s on a 4-core host) with nodes/edges equal to the oracle."""
    from portuguese_pt_legal_ner_ray.corpus import gen_pages_shard
    from portuguese_pt_legal_ner_ray.oracle import run_oracle

    inp = tmp_path / "webpages"
    inp.mkdir()
    tables = [gen_pages_shard(s, s * 50, 50) for s in range(4)]
    for s, t in enumerate(tables):
        pq.write_table(t, inp / f"part-{s:05d}.parquet")
    golden = run_oracle(pa.concat_tables(tables))
    out = tmp_path / "out"
    code = ONE_CPU_RUNNER.format(repo=str(REPO), inp=str(inp), out=str(out))
    # own session, so a run that hangs is killed with every Ray process it
    # started
    proc = subprocess.Popen([sys.executable, "-c", code], start_new_session=True,
                            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    try:
        assert proc.wait(timeout=120) == 0
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise AssertionError("run_kg_pipeline at num_cpus=1 did not finish in 120 s")
    for name, cols in (("nodes", ["entity_id", "canonical_surface", "label", "n_mentions"]),
                       ("edges", ["subj_id", "pred", "obj_id", "weight"])):
        got = pads.dataset(out / "graph" / name).to_table().select(cols)
        got = got.sort_by([(c, "ascending") for c in cols])
        want = golden[name].select(cols).sort_by([(c, "ascending") for c in cols])
        assert got.equals(want.cast(got.schema)), name


# the eleven registry queries the ``ops`` benchmark workload runs
OPS_QUERIES = (
    "rel_returned_lineitems_by_order_line", "rel_customers_without_orders",
    "rel_orders_per_nation", "events_sessionize", "events_asof_purchase",
    "events_running_total", "orders_quantiles_per_priority",
    "orders_price_quantiles", "ann_cosine_topk", "near_dup_ngram",
    "dedup_exact_docs",
)
SF001 = "/root/testdata/sf0.01"  # the driver's correctness tables (TESTDATA.md)

ONE_CPU_OPS_RUNNER = """
import json, sys, ray
sys.path[:0] = [{repo!r}, {scripts!r}]
ray.init(address="local", num_cpus=1, object_store_memory=128 * 2**20,
         include_dashboard=False, logging_level="ERROR", _temp_dir={ray_tmp!r})
from ray.data import DataContext
DataContext.get_current().enable_progress_bars = False
import __ray_entry__
from driver_sim import canon, to_arrow
qs = __ray_entry__.queries()
got = {{q: list(canon(to_arrow(qs[q]({sf!r})))) for q in {names!r}}}
ray.shutdown()
with open({out!r}, "w") as f:
    json.dump(got, f)
"""


def _one_cpu_queries_match_duckdb(tmp_path, monkeypatch, names, stubs):
    """Run the registry queries ``names`` in one fresh ``num_cpus=1`` Ray
    session (a subprocess killed after 120 s), then check each against its
    DuckDB ``oracle_sql()`` result. ``stubs`` are the (module, name)
    golden-table functions that ``oracle_sql()`` calls and whose tables
    these queries do not read; they are replaced by no-ops."""
    import json
    import shutil
    import tempfile

    import duckdb

    out = tmp_path / "got.json"
    # own short temp dir: the session's socket paths must stay under the
    # unix-socket length limit, and a killed session leaves nothing behind
    # that a later ray.init could trip over
    ray_tmp = tempfile.mkdtemp(prefix="ray1cpu")
    code = ONE_CPU_OPS_RUNNER.format(
        repo=str(REPO), scripts=str(REPO / "scripts"), ray_tmp=ray_tmp,
        sf=SF001, names=names, out=str(out))
    proc = subprocess.Popen([sys.executable, "-c", code], cwd=REPO,
                            start_new_session=True, stdout=subprocess.DEVNULL,
                            stderr=subprocess.DEVNULL)
    try:
        assert proc.wait(timeout=120) == 0
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise AssertionError(f"{names} at num_cpus=1 did not finish in 120 s")
    finally:
        shutil.rmtree(ray_tmp, ignore_errors=True)
    got = json.loads(out.read_text())

    for mod, name in stubs:
        monkeypatch.setattr(mod, name, lambda *_a, **_k: Path("unused"))
    monkeypatch.syspath_prepend(str(REPO / "scripts"))
    monkeypatch.syspath_prepend(str(REPO))
    import __ray_entry__
    from driver_sim import canon

    sqls = __ray_entry__.oracle_sql()
    con = duckdb.connect()
    for t in ("customer", "orders", "lineitem", "supplier", "nation", "events",
              "documents", "embeddings"):
        con.execute(f"CREATE VIEW {t} AS SELECT * FROM read_parquet('{SF001}/{t}.parquet')")
    for q in names:
        assert got[q] == list(canon(con.execute(sqls[q]).arrow())), q


def test_one_cpu_ray_ops_queries_finish(tmp_path, monkeypatch):
    """Every ``ops`` query makes progress with one Ray CPU and equals its
    DuckDB ``oracle_sql()`` result. ~10 s on a 4-core host; with the former
    8-block read floor ``rel_orders_per_nation`` never finished."""
    import portuguese_pt_legal_ner_ray.oracle as oracle
    import portuguese_pt_legal_ner_ray.oracle_mirrors as mirrors
    import portuguese_pt_legal_ner_ray.sources.multimodal as mm

    # oracle_sql() builds KG goldens first; these queries read none of them
    _one_cpu_queries_match_duckdb(
        tmp_path, monkeypatch, OPS_QUERIES,
        [(oracle, "ensure_goldens"), (mirrors, "ensure_mirror_goldens"),
         (mm, "ensure_media_table")])


# registry queries whose stateful batch step once ran in an actor pool
TASK_MODE_QUERIES = (
    "rel_lineitems_per_supplier_nation", "media_resize", "media_audio_resample",
    "near_dup_embedding_ivf", "ann_ivf_index_topk",
)


def test_one_cpu_ray_task_mode_queries_finish(tmp_path, monkeypatch):
    """The queries behind the broadcast lookup, the media decoders, the IVF
    cell assignment and the IVF index scan finish with one Ray CPU and
    equal their DuckDB / mirror / media goldens. While those steps ran in
    actor pools, the pool held the only CPU that its own read tasks waited
    for, and the first three never finished."""
    import portuguese_pt_legal_ner_ray.oracle as oracle

    _one_cpu_queries_match_duckdb(tmp_path, monkeypatch, TASK_MODE_QUERIES,
                                  [(oracle, "ensure_goldens")])


def test_every_map_batches_runs_as_a_task():
    """No ``map_batches`` in the package or ``__ray_entry__.py`` starts an
    actor pool: none passes a class, ``fn_constructor_kwargs`` or
    ``concurrency=`` (the NER stage's task cap comes only through
    ``**ner_map_batches_kwargs(cfg)``), and ``shuffle.pool_size`` is gone.
    A stateful kernel runs in a task through ``shuffle.worker_cached``."""
    import ast

    from portuguese_pt_legal_ner_ray.stages import shuffle

    files = [*sorted((REPO / "portuguese_pt_legal_ner_ray").rglob("*.py")),
             REPO / "__ray_entry__.py"]
    trees = {p.relative_to(REPO): ast.parse(p.read_text()) for p in files}
    classes = {n.name for t in trees.values() for n in ast.walk(t)
               if isinstance(n, ast.ClassDef)}
    calls, bad = 0, []
    for path, tree in trees.items():
        for node in ast.walk(tree):
            if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                    and node.func.attr == "map_batches"):
                continue
            calls += 1
            where = f"{path}:{node.lineno}"
            fn = node.args[0] if node.args else next(
                (k.value for k in node.keywords if k.arg == "fn"), None)
            name = getattr(fn, "id", getattr(fn, "attr", ""))
            if name in classes or name[:1].isupper():
                bad.append(f"{where}: class {name}")
            for k in node.keywords:
                if k.arg in ("fn_constructor_kwargs", "concurrency"):
                    bad.append(f"{where}: {k.arg}=")
                elif k.arg is None and getattr(getattr(k.value, "func", None), "id",
                                               None) != "ner_map_batches_kwargs":
                    bad.append(f"{where}: **{ast.unparse(k.value)}")
    assert calls > 20 and bad == [], bad
    assert not hasattr(shuffle, "pool_size")


def test_resume_invalidates_on_changed_inputs(ray_session, tmp_path):
    """Rerunning against a changed input set / partition count must NOT
    serve stale extract or graph outputs (manifest rows are validated
    against the current plan, not just for existence)."""
    from portuguese_pt_legal_ner_ray.corpus import gen_pages_shard
    from portuguese_pt_legal_ner_ray.oracle import run_oracle
    from portuguese_pt_legal_ner_ray.pipelines.kg import run_kg_pipeline

    inp = tmp_path / "webpages"
    inp.mkdir()
    tables = [gen_pages_shard(s, s * 30, 30) for s in range(4)]
    for s, t in enumerate(tables):
        pq.write_table(t, inp / f"part-{s:05d}.parquet")
    out = tmp_path / "out"
    run_kg_pipeline(inp, out, num_partitions=4)

    # change the input set: drop one shard, regenerate a different one
    (inp / "part-00003.parquet").unlink()
    pq.write_table(gen_pages_shard(9, 900, 30), inp / "part-00001.parquet")
    kept = [tables[0], gen_pages_shard(9, 900, 30), tables[2]]
    golden = run_oracle(pa.concat_tables(kept))

    # fewer partitions than before: stale part=0000x dirs must be dropped too
    run_kg_pipeline(inp, out, num_partitions=2)

    got = pads.dataset(out / "graph" / "spans").to_table()
    cols = ["url", "para_idx", "start", "end", "label", "surface"]
    got = got.select(cols).sort_by([(c, "ascending") for c in cols])
    want = golden["spans"].select(cols).sort_by([(c, "ascending") for c in cols])
    assert got.equals(want.cast(got.schema))


def test_orphan_partition_dir_removed(ray_session, tmp_path):
    """A partition dir with NO manifest row (crashed mid-write under a wider
    plan) must still be swept when the plan shrinks below its index, in
    every one of the six per-partition directories."""
    from portuguese_pt_legal_ner_ray.corpus import gen_pages_shard
    from portuguese_pt_legal_ner_ray.pipelines.kg import PARTITION_DIRS, run_kg_pipeline

    inp = tmp_path / "webpages"
    inp.mkdir()
    for s in range(2):
        pq.write_table(gen_pages_shard(s, s * 20, 20), inp / f"part-{s:05d}.parquet")
    out = tmp_path / "out"
    orphan = out / "extraction" / "part=00007"
    orphan.mkdir(parents=True)
    pq.write_table(gen_pages_shard(9, 0, 5), orphan / "junk.parquet")
    # a crash that left only a flatten or the partials behind
    others = [out / name / "part=00006" for name in PARTITION_DIRS]
    for d in others:
        d.mkdir(parents=True)
        pq.write_table(pa.table({"x": [1]}), d / "junk.parquet")

    run_kg_pipeline(inp, out, num_partitions=2)
    assert not orphan.exists()
    assert not any(d.exists() for d in others)


def test_model_artifact_recorded_and_invalidates_resume(ray_session, tmp_path):
    """S7 contract (reference src/models.py:176-211): when cfg.model_dir
    points at a saved checkpoint, every extract manifest row records the
    artifact's path + file signature + declared version, an unchanged
    checkpoint resumes (no partition recomputed), and rewriting any
    artifact file in place invalidates the finished partitions."""
    import json
    import time as _time

    from portuguese_pt_legal_ner_ray.config import PipelineConfig
    from portuguese_pt_legal_ner_ray.corpus import gen_pages_shard
    from portuguese_pt_legal_ner_ray.pipelines.kg import run_kg_pipeline

    inp = tmp_path / "webpages"
    inp.mkdir()
    for s in range(2):
        pq.write_table(gen_pages_shard(s, s * 20, 20), inp / f"part-{s:05d}.parquet")

    ckpt = tmp_path / "checkpoint" / "ner-v1"
    ckpt.mkdir(parents=True)
    (ckpt / "config.json").write_text(json.dumps(
        {"model_version": "v1", "_name_or_path": "stub-pt-ner"}))
    (ckpt / "model.safetensors").write_bytes(b"\x00" * 64)

    out = tmp_path / "out"
    cfg = PipelineConfig(model_dir=str(ckpt))
    man = run_kg_pipeline(inp, out, cfg=cfg, num_partitions=2)

    recs = [r for r in man.all_records() if r["stage"] == "extract"]
    assert len(recs) == 2
    for r in recs:
        assert r["model"]["path"] == str(ckpt)
        assert r["model"]["version"] == "v1"
        assert r["model"]["n_files"] == 2
        assert len(r["model"]["sig"]) == 32
    first_done = {r["partition"]: r["completed_at"] for r in recs}

    # unchanged checkpoint -> full resume, nothing recomputed
    run_kg_pipeline(inp, out, cfg=cfg, num_partitions=2)
    recs2 = [r for r in man.all_records() if r["stage"] == "extract"]
    assert {r["partition"]: r["completed_at"] for r in recs2} == first_done

    # retrain IN PLACE (same path, new bytes) -> partitions must re-run
    _time.sleep(0.01)  # ensure a distinct mtime_ns even on coarse clocks
    (ckpt / "model.safetensors").write_bytes(b"\x01" * 64)
    run_kg_pipeline(inp, out, cfg=cfg, num_partitions=2)
    recs3 = [r for r in man.all_records() if r["stage"] == "extract"]
    assert all(
        r["completed_at"] > first_done[r["partition"]] for r in recs3
    )


def test_hf_tagger_stage_loads_from_model_dir(monkeypatch, tmp_path):
    """tagger='hf' routes cfg.model_dir into HFTagger.from_pretrained (and
    refuses to construct without a model_dir)."""
    import sys
    import types

    import pytest as _pytest

    from portuguese_pt_legal_ner_ray.config import PipelineConfig
    from portuguese_pt_legal_ner_ray.stages.extract import NerTripleStage

    with _pytest.raises(ValueError, match="model_dir"):
        NerTripleStage(PipelineConfig(tagger="hf"))

    seen: dict = {}

    class StubAuto:
        config = types.SimpleNamespace(id2label=None)

        @classmethod
        def from_pretrained(cls, path):
            seen.setdefault("paths", []).append(path)
            return cls()

        def eval(self):
            return self

    stub = types.ModuleType("transformers")
    stub.AutoTokenizer = StubAuto
    stub.AutoModelForTokenClassification = StubAuto
    monkeypatch.setitem(sys.modules, "transformers", stub)

    stage = NerTripleStage(PipelineConfig(tagger="hf", model_dir=str(tmp_path)))
    assert seen["paths"] == [str(tmp_path)] * 2
    # a real checkpoint defeats the vectorized can-match gate
    assert stage.gate is None


def test_incremental_append_resumes_only_new_partitions(ray_session, tmp_path):
    """The trillion-doc operating mode (VERDICT r4 #4): a completed run
    over N input fragments, then two FRESH fragments arrive (shard names
    sorting after the existing ones, one-fragment-per-partition plan).
    Resume must (a) leave every original extract manifest untouched and
    add exactly the two new partitions, and (b) produce final graph tables
    identical to a from-scratch run over the union."""
    import pyarrow as pa
    import pyarrow.dataset as pads
    import pyarrow.parquet as pq

    from portuguese_pt_legal_ner_ray.corpus import gen_pages_shard
    from portuguese_pt_legal_ner_ray.pipelines.kg import run_kg_pipeline
    from portuguese_pt_legal_ner_ray.state.manifest import Manifest

    inp = tmp_path / "webpages"
    inp.mkdir()
    old_shards = [gen_pages_shard(s, s * 40, 40) for s in range(4)]
    for s, t in enumerate(old_shards):
        pq.write_table(t, inp / f"part-{s:05d}.parquet")

    # num_partitions >= final fragment count -> one fragment per partition,
    # so appended fragments extend the plan instead of re-striping it
    out = tmp_path / "out_incr"
    run_kg_pipeline(inp, out, num_partitions=64)
    before = {r["partition"]: r["completed_at"]
              for r in Manifest(out).all_records() if r["stage"] == "extract"}
    assert len(before) == 4

    # two fresh fragments arrive (names sort AFTER the existing ones)
    new_shards = [gen_pages_shard(s, s * 40, 40) for s in (4, 5)]
    for s, t in zip((4, 5), new_shards):
        pq.write_table(t, inp / f"part-{s:05d}.parquet")

    run_kg_pipeline(inp, out, num_partitions=64)
    after = {r["partition"]: r["completed_at"]
             for r in Manifest(out).all_records() if r["stage"] == "extract"}
    assert len(after) == 6
    for part, ts in before.items():
        assert after[part] == ts, f"completed partition {part} was recomputed"
    assert set(after) - set(before) == {"00004", "00005"}

    # final tables equal a from-scratch run over the union
    scratch = tmp_path / "out_scratch"
    run_kg_pipeline(inp, scratch, num_partitions=64)
    for name in ("spans", "triples", "nodes", "edges"):
        got = pads.dataset(out / "graph" / name).to_table()
        want = pads.dataset(scratch / "graph" / name).to_table()
        cols = got.column_names
        got = got.sort_by([(c, "ascending") for c in cols])
        want = want.select(cols).sort_by([(c, "ascending") for c in cols])
        assert got.equals(want.cast(got.schema)), name


def test_old_layout_run_dir_resumes_to_fresh_tables(ray_session, tmp_path):
    """A run directory in the layout before ``mentions/`` and the
    per-partition ``graph/`` flattens: flat ``graph/{spans,triples,errors}
    /*.parquet`` files, no ``mentions/``, and extract rows fingerprinted
    without the layout version. Resuming it re-extracts every partition
    instead of failing on the missing ``mentions/``, removes the flat
    files, and gives ``nodes``/``edges``/``spans`` equal to a fresh run."""
    import dataclasses
    import hashlib
    import json
    import shutil

    from portuguese_pt_legal_ner_ray.config import PipelineConfig
    from portuguese_pt_legal_ner_ray.corpus import gen_pages_shard
    from portuguese_pt_legal_ner_ray.pipelines.kg import run_kg_pipeline

    inp = tmp_path / "webpages"
    inp.mkdir()
    for s in range(4):
        pq.write_table(gen_pages_shard(s, s * 30, 30), inp / f"part-{s:05d}.parquet")
    out = tmp_path / "out"
    run_kg_pipeline(inp, out, num_partitions=2)

    # rewrite the run directory into the old layout
    for name in ("spans", "triples", "errors"):
        d = out / "graph" / name
        t = pads.dataset(d).to_table()
        shutil.rmtree(d)
        d.mkdir()
        pq.write_table(t, d / ("empty.parquet" if t.num_rows == 0 else "old_000000.parquet"))
    shutil.rmtree(out / "mentions")
    old_fp = hashlib.md5(repr(dataclasses.replace(
        PipelineConfig(), ner_batch_size=0, ner_concurrency=None,
        ner_ray_remote_args=None)).encode()).hexdigest()
    rows = {}
    for f in sorted((out / "_manifest").glob("extract__*.json")):
        rec = json.loads(f.read_text())
        rec["cfg_fp"] = old_fp
        for key in ("spans", "triples", "errors", "mentions"):
            del rec[key]
        f.write_text(json.dumps(rec))
        rows[rec["partition"]] = rec
    graph = out / "_manifest" / "graph__all.json"
    rec = json.loads(graph.read_text())
    rec["plan_fp"] = hashlib.md5(json.dumps(
        [[rows[p]["input_sig"] for p in sorted(rows)], old_fp]).encode()).hexdigest()
    graph.write_text(json.dumps(rec))

    run_kg_pipeline(inp, out, num_partitions=2)
    after = {r["partition"]: r for r in (json.loads(f.read_text()) for f in
             (out / "_manifest").glob("extract__*.json"))}
    assert all(after[p]["completed_at"] > rows[p]["completed_at"] for p in rows)
    for name in ("spans", "triples", "errors"):
        assert list((out / "graph" / name).glob("*.parquet")) == [], name
    fresh = tmp_path / "fresh"
    run_kg_pipeline(inp, fresh, num_partitions=2)
    for name, cols in (("nodes", ["entity_id", "canonical_surface", "label", "n_mentions"]),
                       ("edges", ["subj_id", "pred", "obj_id", "weight"]),
                       ("spans", ["url", "para_idx", "start", "end", "label", "surface"])):
        got, want = (pads.dataset(d / "graph" / name).to_table().select(cols)
                     .sort_by([(c, "ascending") for c in cols]) for d in (out, fresh))
        assert got.num_rows > 0 and got.equals(want), name
