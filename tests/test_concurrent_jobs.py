"""run_kg_pipeline runs its independent Ray Data write jobs at the same time,
from driver threads, up to one job per cluster CPU: the one job of every
pending extract partition, then, above ``linking.DRIVER_CC_MAX_KEYS`` rows,
the nodes and edges writes (below it the driver builds both, with no Ray
execution). These tests pin that contract, the number of Ray executions it
takes, and the two things it must not break: Ray's path handling under
concurrent threads, and the NER concurrency cap."""

import threading
import time
from pathlib import Path

import pytest

from portuguese_pt_legal_ner_ray.config import PipelineConfig
from portuguese_pt_legal_ner_ray.pipelines import kg
from portuguese_pt_legal_ner_ray.stages import linking


def test_http_filesystem_check_survives_concurrent_threads():
    """Ray's ``_is_http_filesystem`` runs on every read/write_parquet call
    and imports ``fsspec.implementations.http``, which fails without
    aiohttp. Threads racing on that failing import got a plain ImportError
    (a few in 8 x 500 calls) until the failure is recorded once."""
    import pyarrow.fs as pafs
    from ray.data.datasource.path_util import _is_http_filesystem

    kg._settle_http_fs_import()
    fs = pafs.LocalFileSystem()
    errors: list[BaseException] = []
    start = threading.Barrier(8)

    def hammer():
        start.wait()
        for _ in range(500):
            try:
                _is_http_filesystem(fs)
            except ImportError as exc:
                errors.append(exc)

    threads = [threading.Thread(target=hammer) for _ in range(8)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert errors == []


def _spy_writes(monkeypatch) -> dict[str, tuple[float, float]]:
    """Record the (start, end) of every Dataset.write_datasink, by the
    directory of the sink's first table."""
    import ray.data

    spans: dict[str, tuple[float, float]] = {}
    orig = ray.data.Dataset.write_datasink

    def spy(self, sink, *args, **kwargs):
        t = time.perf_counter()
        orig(self, sink, *args, **kwargs)
        spans[str(sink.dirs[0])] = (t, time.perf_counter())

    monkeypatch.setattr(ray.data.Dataset, "write_datasink", spy)
    return spans


def _overlap(a: tuple[float, float], b: tuple[float, float]) -> bool:
    return a[0] < b[1] and b[0] < a[1]


@pytest.mark.parametrize("cpus", [4, 1])
def test_pending_partitions_write_together(mini_run, tmp_path, monkeypatch, cpus):
    """At 4 Ray CPUs the write jobs of two pending partitions overlap in
    time; at 1 CPU they do not. The 1-CPU case reports one CPU to the
    pipeline from the 4-CPU session. Each partition writes one job (all six
    of its tables, keyed by the first, ``extracted/``); the graph stage
    builds ``nodes`` and ``edges`` in the driver, with no Ray write
    (``test_ray_graph_path_runs_two_executions`` covers its Ray jobs)."""
    import ray

    if cpus == 1:
        monkeypatch.setattr(ray, "cluster_resources", lambda: {"CPU": 1.0})
    spans = _spy_writes(monkeypatch)
    out = tmp_path / "out"
    kg.run_kg_pipeline(mini_run["input"], out, num_partitions=2)
    ner = [spans[str(out / "extracted" / f"part={p}")] for p in ("00000", "00001")]
    assert len(spans) == 2
    if cpus > 1:
        assert _overlap(*ner)
    else:
        assert not _overlap(*ner)


def test_ner_concurrency_caps_tasks_across_partitions(mini_run, tmp_path, monkeypatch):
    """``cfg.ner_concurrency`` caps the concurrent NER tasks of the whole
    run, as ``ner_map_batches_kwargs`` promises, not of each partition:
    with a cap of 1, no two NER calls of four pending partitions overlap.
    Each call appends its wall-clock interval to a file, since the calls run
    in Ray worker processes; a sleep stretches each call, so calls of
    partitions run together would overlap."""
    log = tmp_path / "ner_calls.txt"
    real = kg.extract_pages_task

    def timed_ner(batch, cfg):
        t = time.time()
        out = real(batch, cfg=cfg)
        time.sleep(0.3)
        with open(log, "a") as f:
            f.write(f"{t} {time.time()}\n")
        return out

    monkeypatch.setattr(kg, "extract_pages_task", timed_ner)
    kg.run_kg_pipeline(mini_run["input"], tmp_path / "out", num_partitions=4,
                       cfg=PipelineConfig(ner_concurrency=1))
    calls = sorted(tuple(map(float, line.split())) for line in
                   Path(log).read_text().splitlines())
    assert len(calls) >= 4
    assert all(a[1] <= b[0] for a, b in zip(calls, calls[1:]))


def test_kg_reads_are_byte_sized(mini_run):
    """Every read of the fixture's run goes through ``sized_read_parquet``:
    the four extract reads (one job per partition) with a floor of
    ceil(4 CPUs / 4 pending partitions) = 1 block. The graph stage is below
    ``linking.DRIVER_CC_MAX_KEYS`` rows, so linking, nodes and edges read
    ``mentions/`` and ``graph/triples`` with pyarrow in the driver, with
    no Ray read; it never reads ``extraction/``. Each partition reads as
    one block, so each of its tables is one Parquet file; ``errors`` is
    empty here, and is one zero-row file per partition. ``nodes`` and
    ``edges`` are one file each."""
    reads, out = mini_run["reads"], mini_run["out"]
    assert reads["ray"] == len(reads["sized"]) == 4
    assert all(isinstance(r["paths"], list) and r["min_blocks"] == 1
               for r in reads["sized"])
    for table in ("extracted", "extraction", "mentions", "graph/spans",
                  "graph/triples", "graph/errors"):
        files = list((out / table).glob("*/*.parquet"))
        assert len(files) == 4 and len({f.parent for f in files}) == 4, table
    for table in ("nodes", "edges"):
        assert len(list((out / "graph" / table).glob("*.parquet"))) == 1, table


@pytest.mark.parametrize("cpus", [4, 1])
def test_extract_read_floor_spans_cpus(mini_run, tmp_path, monkeypatch, kg_reads, cpus):
    """The extract reads' block floor is ceil(cluster CPUs / partitions
    written together): with 2 pending partitions it is 2 blocks at 4 CPUs
    and 1 at 1 CPU; a lone re-extracted partition (its input file touched,
    as on ``append``) reads as one block per CPU. Each partition reads its
    files once, and its manifest row records the bytes and blocks that read
    was sized to. A resumed run with nothing pending reads nothing."""
    import os
    import shutil

    import ray

    from portuguese_pt_legal_ner_ray.state.manifest import Manifest

    if cpus == 1:
        monkeypatch.setattr(ray, "cluster_resources", lambda: {"CPU": 1.0})
    inp = tmp_path / "in"
    shutil.copytree(mini_run["input"], inp)
    out = tmp_path / "out"

    def extract_floors() -> list[int]:
        floors = [r["min_blocks"] for r in kg_reads["sized"]
                  if isinstance(r["paths"], list)]
        kg_reads["sized"].clear()
        return floors

    kg.run_kg_pipeline(inp, out, num_partitions=2)
    assert extract_floors() == [-(-cpus // 2)] * 2
    rows = [r for r in Manifest(out).all_records() if r["stage"] == "extract"]
    assert [r["blocks"] for r in rows] == [-(-cpus // 2)] * 2
    assert all(r["in_bytes"] == sum(Path(f).stat().st_size for f in r["input_files"])
               for r in rows)

    touched = sorted(inp.glob("*.parquet"))[0]
    st = touched.stat()
    os.utime(touched, ns=(st.st_atime_ns, st.st_mtime_ns + 1_000_000))
    kg.run_kg_pipeline(inp, out, num_partitions=2)
    assert extract_floors() == [cpus]

    # a resumed run with nothing pending reads nothing; the graph stage
    # reads in the driver, without Ray
    kg.run_kg_pipeline(inp, out, num_partitions=2)
    assert kg_reads["sized"] == [] and kg_reads["ray"] == 2 + 1


def _count_executions(monkeypatch) -> list:
    """Append one item per ``StreamingExecutor.execute`` call in the driver."""
    from ray.data._internal.execution.streaming_executor import StreamingExecutor

    calls = []
    real = StreamingExecutor.execute

    def counted(self, *args, **kwargs):
        calls.append(1)
        return real(self, *args, **kwargs)

    monkeypatch.setattr(StreamingExecutor, "execute", counted)
    return calls


def _crawl_append_resume(inp: Path, out: Path, calls: list) -> list[int]:
    """Ray executions of a 4-partition crawl, of an append that re-extracts
    one partition (its input file touched), and of a resume."""
    import os

    counts = []
    for step in ("crawl", "append", "resume"):
        if step == "append":
            touched = sorted(inp.glob("*.parquet"))[0]
            st = touched.stat()
            os.utime(touched, ns=(st.st_atime_ns, st.st_mtime_ns + 1_000_000))
        calls.clear()
        kg.run_kg_pipeline(inp, out, num_partitions=4)
        counts.append(len(calls))
    return counts


def test_crawl_runs_one_execution_per_partition(mini_run, tmp_path, monkeypatch):
    """Each pending partition is one Ray execution (read, extract and all
    six tables' writes in one job), and below ``linking.DRIVER_CC_MAX_KEYS``
    rows the graph stage runs none: a 4-partition crawl of the fixture's
    corpus takes 4 ``StreamingExecutor.execute`` calls in the driver, an
    append that re-extracts one partition 1, and a resume with nothing
    pending none."""
    import shutil

    calls = _count_executions(monkeypatch)
    inp, out = tmp_path / "in", tmp_path / "out"
    shutil.copytree(mini_run["input"], inp)
    assert _crawl_append_resume(inp, out, calls) == [4, 1, 0]


@pytest.mark.parametrize("cpus", [4, 1])
def test_ray_graph_path_runs_two_executions(mini_run, tmp_path, monkeypatch, kg_reads,
                                            cpus):
    """Above the bound (forced to 10 rows) the graph stage runs ``nodes``
    and ``edges`` as two Ray jobs. Banding then runs as Ray tasks too;
    counting the executions inside ``linking.link`` apart, a crawl takes
    4 + 2, an append 1 + 2 and a resume none. Each graph stage reads
    ``mentions/`` and ``graph/triples`` through ``sized_read_parquet`` with
    no block floor, so ``nodes`` and ``edges`` come out of one block as one
    Parquet file each. At 4 Ray CPUs the two writes overlap in time; at 1
    CPU (reported to the pipeline from the 4-CPU session) no two writes
    overlap."""
    import shutil

    import ray

    if cpus == 1:
        monkeypatch.setattr(ray, "cluster_resources", lambda: {"CPU": 1.0})
    monkeypatch.setattr(linking, "DRIVER_CC_MAX_KEYS", 10)
    spans = _spy_writes(monkeypatch)
    calls = _count_executions(monkeypatch)
    in_link: list[int] = []
    real_link = linking.link

    def counted_link(*args, **kwargs):
        before = len(calls)
        got = real_link(*args, **kwargs)
        in_link.append(len(calls) - before)
        return got

    monkeypatch.setattr(linking, "link", counted_link)
    inp, out = tmp_path / "in", tmp_path / "out"
    shutil.copytree(mini_run["input"], inp)
    counts = _crawl_append_resume(inp, out, calls)
    assert len(in_link) == 2 and all(n > 0 for n in in_link)
    assert counts == [4 + 2 + in_link[0], 1 + 2 + in_link[1], 0]
    graph_reads = [r for r in kg_reads["sized"] if not isinstance(r["paths"], list)]
    assert graph_reads == [{"paths": str(out / "mentions"), "min_blocks": 1},
                           {"paths": str(out / "graph" / "triples"), "min_blocks": 1}] * 2
    for table in ("nodes", "edges"):
        assert len(list((out / "graph" / table).glob("*.parquet"))) == 1, table
    graph = [spans[str(out / "graph" / t)] for t in ("nodes", "edges")]
    if cpus > 1:
        assert _overlap(*graph)
    else:
        ordered = sorted(spans.values())
        assert all(a[1] <= b[0] for a, b in zip(ordered, ordered[1:]))
