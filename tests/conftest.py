"""Session-scoped Ray fixture — one Ray session for the whole pytest run."""

from __future__ import annotations

import pytest


@pytest.fixture(scope="session")
def ray_session():
    import ray

    ray.init(
        address="local",
        num_cpus=4,
        include_dashboard=False,
        ignore_reinit_error=True,
        logging_level="ERROR",
    )
    from ray.data import DataContext

    ctx = DataContext.get_current()
    ctx.enable_progress_bars = False
    yield ray
    ray.shutdown()


def spy_reads(mp: pytest.MonkeyPatch) -> dict:
    """Record the pipeline's Parquet reads: every ``kg.sized_read_parquet``
    call (paths and ``min_blocks``) under ``"sized"``, and the number of
    ``ray.data.read_parquet`` calls under ``"ray"``, sized or bare."""
    import ray.data

    from portuguese_pt_legal_ner_ray.pipelines import kg
    from portuguese_pt_legal_ner_ray.sources.parquet import sized_read_parquet as sized

    seen: dict = {"sized": [], "ray": 0}
    bare = ray.data.read_parquet

    def sized_spy(paths, *args, **kwargs):
        seen["sized"].append({"paths": paths, "min_blocks": kwargs.get("min_blocks", 1)})
        return sized(paths, *args, **kwargs)

    def bare_spy(*args, **kwargs):
        seen["ray"] += 1
        return bare(*args, **kwargs)

    # raising=False: a pipeline that never imports it still runs, and the
    # two counts then disagree
    mp.setattr(kg, "sized_read_parquet", sized_spy, raising=False)
    mp.setattr(ray.data, "read_parquet", bare_spy)
    return seen


@pytest.fixture
def kg_reads(monkeypatch) -> dict:
    """``spy_reads`` for one test."""
    return spy_reads(monkeypatch)


@pytest.fixture(scope="session")
def mini_run(ray_session, tmp_path_factory):
    """200-page corpus (4 shards) -> pipeline run + oracle goldens. The
    run's Parquet reads are recorded under ``"reads"`` (``spy_reads``)."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    from portuguese_pt_legal_ner_ray.corpus import gen_pages_shard
    from portuguese_pt_legal_ner_ray.oracle import run_oracle
    from portuguese_pt_legal_ner_ray.pipelines.kg import run_kg_pipeline

    root = tmp_path_factory.mktemp("mini")
    inp = root / "webpages"
    inp.mkdir()
    tables = [gen_pages_shard(s, s * 50, 50) for s in range(4)]
    for s, t in enumerate(tables):
        pq.write_table(t, inp / f"part-{s:05d}.parquet")
    pages = pa.concat_tables(tables)
    golden = run_oracle(pages)
    out = root / "out"
    with pytest.MonkeyPatch.context() as mp:
        reads = spy_reads(mp)
        run_kg_pipeline(inp, out, num_partitions=4)
    return {"input": inp, "out": out, "golden": golden, "pages": pages, "root": root,
            "reads": reads}


@pytest.fixture(scope="session")
def small_corpus():
    """sf0.001 synthetic web-pages corpus + oracle goldens (cached in /tmp)."""
    from portuguese_pt_legal_ner_ray.oracle import ensure_goldens
    from portuguese_pt_legal_ner_ray.corpus import corpus_dir

    ensure_goldens(0.001)
    return corpus_dir(0.001)
