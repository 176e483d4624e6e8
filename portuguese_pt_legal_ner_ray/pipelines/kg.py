"""End-to-end KG construction pipeline (the flagship; SURVEY.md §3 EP1
generalized per BASELINE.json north_star).

Layout under ``out_dir``::

    extracted/part=<p>/       url, lang, text                 (stage "extract")
    extraction/part=<p>/      paragraph rows, nested NER      (stage "extract")
    graph/spans/part=<p>/     flattens of the partition's     (stage "extract")
    graph/triples/part=<p>/     extraction rows, and its
    graph/errors/part=<p>/      quarantined rows
    mentions/part=<p>/        mention partials, internal      (stage "extract")
    graph/{nodes,edges}/      the linked graph                (stage "graph")
    _manifest/                per-(stage, partition) checkpoint rows

Partitioning: input parquet fragments are grouped into ``num_partitions``
groups; each group is extracted by one Ray Data write job and checkpoints
independently — a failed run resumes by skipping partitions whose manifest
row exists (kill-and-resume test in tests/test_kill_resume.py). At 100 TB
the partition is the unit of retry (~TB-scale file groups), while Ray's
streaming executor parallelizes freely *within* each group.

A partition's job is ``read → extract_pages_task → TablesSink``: one
task-mode ``map_batches`` turns each block of pages into page rows that
nest their NER'd paragraphs, and one multi-table sink writes, per write
task, one file per table for the blocks it gets (``partition_tables``) —
the page text to ``extracted/``, the paragraph rows to ``extraction/``,
their span and triple flattens and quarantined rows to
``graph/{spans,triples,errors}/``, and their mention partials to
``mentions/``. Every page is read and its HTML parsed once. The tables are
row-wise functions of the page rows, so writing them where the rows
already are saves the graph stage a re-read of ``extraction/``; an
``append`` leaves the old partitions' files as they are.

Independent write jobs run at the same time, from driver threads, up to one
per cluster CPU (``_run_writes``): the jobs of every pending partition, and,
above ``linking.DRIVER_CC_MAX_KEYS`` rows, the ``nodes`` and ``edges``
writes after linking. A crawl of P pending partitions is P Ray executions
below that bound and P + 2 above it. A small job
keeps only one or two of the cluster's CPUs busy, so run one after another
they leave most CPUs idle. Every Dataset is built in the calling thread
first; only the executions fan out.

Every Ray read is byte-sized (``sources/parquet.sized_read_parquet``: one
block per 32 MB). Concurrent jobs compete for the same CPUs, so the tasks each one
schedules set the wall time, not its bytes: Ray's default read splits an
80 KB page file into 8 blocks. The graph stage's Ray jobs and the JSONL
export read with no block floor. The extract reads take a derived floor,
``ceil(cluster CPUs / partitions written together)`` (``_read_floor``): one
block per partition in a full crawl, every CPU for a lone re-extracted
partition, whose NER a real model would otherwise run on one core.

The wide section (linking + graph) runs once over all partitions' mention
partials and triples — its inputs (distinct entities, triples) are orders
of magnitude smaller than the corpus. While ``mentions/`` and
``graph/triples`` each hold at most ``linking.DRIVER_CC_MAX_KEYS`` rows, it
runs in the driver with no Ray execution: linking, ``nodes`` and ``edges``
read with pyarrow and one Parquet file per table is written. Above the
bound, banding runs as Ray tasks and ``nodes`` and ``edges`` as two Ray
jobs; both placements call the same ``stages/graph`` kernels.

Every stage runs on Ray task workers; there is no actor pool, so no stage
holds CPUs that read tasks wait for (the pipeline progresses on a
one-CPU Ray). Stateful steps (the NER tagger, the mention-key memo) keep
their state per worker process instead. Of the tables the pipeline writes,
only ``mentions/`` and ``graph/triples`` are read back, by the graph stage:
``extracted/``, ``extraction/`` and ``graph/{spans,errors}`` are outputs
for queries and users. A table with no rows is one zero-row file in its
static schema (``empty.parquet``), so every table the pipeline lists can
be read without a Ray execution to find its columns.
"""

from __future__ import annotations

import dataclasses
import hashlib
import importlib
import json
import re
import shutil
import sys
import time
import uuid
from collections.abc import Callable, Iterable, Iterator
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pyarrow as pa
import pyarrow.parquet as pq
import ray
from ray.data import Dataset
from ray.data.block import BlockAccessor
from ray.data.datasource import Datasink

from ..config import PipelineConfig
from ..sources.parquet import read_plan, sized_read_parquet
from ..stages import linking
from ..stages.extract import (
    ERRORS_SCHEMA,
    EXTRACTED_SCHEMA,
    EXTRACTION_SCHEMA,
    MENTIONS_SCHEMA,
    SPANS_SCHEMA,
    TRIPLES_SCHEMA,
    error_rows,
    extract_pages_task,
    extraction_rows,
    flatten_spans,
    flatten_triples,
)
from ..stages.graph import (
    EDGES_SCHEMA,
    NODES_SCHEMA,
    build_edges,
    build_nodes,
    edges_table,
    nodes_table,
)
from ..state.manifest import Manifest, parquet_row_count

# The on-disk layout of a run directory, part of the extract fingerprint. A
# run directory written in an older layout (before ``mentions/`` and the
# per-partition ``graph/`` flattens) re-extracts every partition instead of
# failing on a table it does not have.
LAYOUT_VERSION = 2
# the tables a partition's job writes from its paragraph rows, each under
# ``<table>/part=<p>/``; ``extracted/`` comes from the page rows
NER_TABLES = {
    "extraction": EXTRACTION_SCHEMA,
    "graph/spans": SPANS_SCHEMA,
    "graph/triples": TRIPLES_SCHEMA,
    "graph/errors": ERRORS_SCHEMA,
    "mentions": MENTIONS_SCHEMA,
}
# every per-partition directory, in the order ``partition_tables`` returns
# them: a pending partition's clean slate and the orphan-partition sweep
# cover all six
PARTITION_DIRS = ("extracted", *NER_TABLES)


def partition_tables(pages: pa.Table) -> list[pa.Table]:
    """A write task's page rows (``extract_pages_task``) -> its rows of
    each ``PARTITION_DIRS`` table, in that order."""
    rows = extraction_rows(pages)
    spans = flatten_spans(rows)
    return [pages.select(["url", "lang", "text"]), rows, spans,
            flatten_triples(rows), error_rows(rows),
            linking.mention_partial_task(spans)]


def _whole(rows: pa.Table) -> list[pa.Table]:
    return [rows]


def _empty_file(d: Path, schema: pa.Schema) -> None:
    """One zero-row file in ``schema`` (``empty.parquet``) into directory
    ``d`` if it holds no Parquet file, so its table can be read and no Ray
    execution has to find its columns."""
    if not any(d.glob("*.parquet")):
        pq.write_table(schema.empty_table(), d / "empty.parquet")


class TablesSink(Datasink[None]):
    """A Ray Data sink that writes each write task's rows as one Parquet
    file per table.

    ``tables`` lists each table's directory and schema; ``split`` turns the
    rows of all the blocks a task gets (one Arrow table) into each table's
    rows, in that order (by default the one table is the rows). A task
    writes only its tables with rows. Once the job has finished,
    ``on_write_complete`` calls ``_empty_file`` on every directory.
    """

    def __init__(self, tables: list[tuple[Path, pa.Schema]],
                 split: Callable[[pa.Table], list[pa.Table]] = _whole):
        self.dirs = [d for d, _ in tables]
        self.schemas = [schema for _, schema in tables]
        self.split = split
        self.uuid = uuid.uuid4().hex

    def on_write_start(self) -> None:
        for d in self.dirs:
            d.mkdir(parents=True, exist_ok=True)

    def write(self, blocks: Iterable, ctx) -> None:
        got = [t for t in (BlockAccessor.for_block(b).to_arrow() for b in blocks)
               if t.num_rows]
        if not got:
            return
        name = f"{self.uuid}_{ctx.task_idx:06d}.parquet"
        for d, rows in zip(self.dirs, self.split(pa.concat_tables(got))):
            if rows.num_rows:
                pq.write_table(rows, d / name)

    def on_write_complete(self, write_result) -> None:
        for d, schema in zip(self.dirs, self.schemas):
            _empty_file(d, schema)


def ner_map_batches_kwargs(cfg: PipelineConfig) -> dict:
    """The full ``map_batches`` kwargs for the task-mode extract step.

    ``cfg`` reaches ``extract_pages_task`` through ``fn_kwargs``. The map
    takes whole blocks; the task tags them in slices of
    ``cfg.ner_batch_size`` paragraphs.
    ``cfg.ner_concurrency`` caps the concurrent NER tasks: an int, or the
    upper bound of a ``(min, max)`` tuple (Ray takes only an int for a
    function); None leaves it to Ray. ``cfg.ner_ray_remote_args`` (e.g.
    ``{"num_gpus": 0.25}``) is splatted last so accelerator/CPU claims reach
    Ray's scheduler — SURVEY.md §2.3 A1's ``num_gpus=g`` mapping. It is a
    placement-only knob (excluded from the resume fingerprint), so keys that
    would change outputs or batching are rejected."""
    reserved = {"batch_format", "batch_size", "concurrency", "fn_kwargs",
                "fn_constructor_kwargs"}
    bad = reserved & set(cfg.ner_ray_remote_args or {})
    if bad:
        raise ValueError(
            f"ner_ray_remote_args may only carry Ray placement kwargs "
            f"(num_gpus/num_cpus/resources/...); reserved keys {sorted(bad)} "
            f"would change outputs without invalidating resume — set them "
            f"via the dedicated PipelineConfig fields instead."
        )
    kwargs: dict = dict(
        batch_format="pyarrow",
        batch_size=None,
        zero_copy_batch=True,
        fn_kwargs=dict(cfg=cfg),
    )
    cap = cfg.ner_concurrency
    if cap is not None:
        kwargs["concurrency"] = cap[1] if isinstance(cap, tuple) else cap
    kwargs.update(cfg.ner_ray_remote_args or {})
    return kwargs


def _partition_files(input_dir: str | Path, num_partitions: int) -> list[list[str]]:
    files = sorted(str(p) for p in Path(input_dir).glob("*.parquet"))
    if not files:
        raise FileNotFoundError(f"no parquet files under {input_dir}")
    n = min(num_partitions, len(files))
    return [files[i::n] for i in range(n)]


def _files_sig(files: list[str]) -> list[list]:
    """Cheap per-file identity: (path, size, mtime_ns). Resume validation
    compares this, not just paths, so an in-place rewritten input file
    invalidates the partition that consumed it."""
    return [[f, (st := Path(f).stat()).st_size, st.st_mtime_ns] for f in files]


def _settle_http_fs_import() -> None:
    """Record once that ``fsspec.implementations.http`` cannot be imported.

    Ray's ``ray.data.datasource.path_util._is_http_filesystem`` runs on
    every ``read_parquet`` and ``write_parquet`` call. It imports that
    module each time and catches only ``ModuleNotFoundError``. Without
    ``aiohttp`` the import fails, so it is tried again on every call, and a
    thread that imports while another thread's attempt is still running can
    get a plain ``ImportError`` from the half-initialised module. A ``None``
    entry in ``sys.modules`` makes every later import raise
    ``ModuleNotFoundError`` at once, so no thread runs the import again.
    Call it before any second thread starts a Ray Data job.
    """
    name = "fsspec.implementations.http"
    if name in sys.modules:
        return
    try:
        importlib.import_module(name)
    except ImportError:
        sys.modules[name] = None


def _run_writes(jobs: list[tuple[Dataset, TablesSink]]) -> Iterator[tuple[float, float]]:
    """Write each ``(dataset, sink)`` job from driver threads, up to
    ``min(jobs, cluster CPUs)`` jobs at a time.

    A one-CPU Ray therefore runs them one at a time. Yields each job's
    ``(start, end)`` ``perf_counter`` seconds in job order, as soon as the
    job and every job before it have finished. The Datasets must already
    be built: only their executions run in the threads. If a job raises,
    jobs not yet started are cancelled, running ones are waited for, and
    the error is raised to the caller.
    """
    width = max(1, min(len(jobs), int(ray.cluster_resources().get("CPU", 1))))
    _settle_http_fs_import()

    def write(ds: Dataset, sink: TablesSink) -> tuple[float, float]:
        start = time.perf_counter()
        ds.write_datasink(sink)
        return start, time.perf_counter()

    pool = ThreadPoolExecutor(max_workers=width, thread_name_prefix="kg-write")
    try:
        futures = [pool.submit(write, ds, sink) for ds, sink in jobs]
        for f in futures:
            yield f.result()
    finally:
        pool.shutdown(wait=True, cancel_futures=True)


def _read_floor(partitions: int) -> int:
    """Block floor for the input reads of ``partitions`` partitions written
    together: ``ceil(cluster CPUs / partitions)``, so their reads together
    span every CPU."""
    return -(-int(ray.cluster_resources().get("CPU", 1)) // partitions)


def _extract_job(files: list[str], out_dir: Path, part: str,
                 cfg: PipelineConfig, min_blocks: int = 1,
                 ) -> tuple[tuple[Dataset, TablesSink], dict]:
    """One partition's write job, built but not run, and the
    ``in_bytes``/``blocks`` its input reads as.

    The job streams over the input files once: ``extract_pages_task`` turns
    each block of pages into page rows, and one ``TablesSink`` writes all
    six ``PARTITION_DIRS`` tables from them (``partition_tables``), so
    every page is read and its HTML parsed once.

    It reads its files with ``sized_read_parquet``: one block per 32 MB,
    and at least ``min_blocks``. Callers pass ``_read_floor`` of the
    partitions written together, so a full crawl on as many CPUs as
    partitions reads one block per partition, while a lone re-extracted
    partition (``append``, or ``ner_concurrency`` set) still spreads its
    NER over every CPU.
    """
    dirs = {name: out_dir / name / f"part={part}" for name in PARTITION_DIRS}
    # a partition whose manifest row is missing may hold partial output from
    # a killed run — idempotent rewrite requires a clean slate
    for d in dirs.values():
        if d.exists():
            shutil.rmtree(d)
    # columns pruned at the read: url, html, lang only
    ds = sized_read_parquet(files, columns=["url", "html", "lang"],
                            min_blocks=min_blocks).map_batches(
        extract_pages_task, **ner_map_batches_kwargs(cfg))
    sink = TablesSink([(dirs["extracted"], EXTRACTED_SCHEMA),
                       *((dirs[name], schema) for name, schema in NER_TABLES.items())],
                      split=partition_tables)
    in_bytes, blocks = read_plan(files, min_blocks=min_blocks)
    return (ds, sink), {"in_bytes": in_bytes, "blocks": blocks}


def _partition_row(files: list[str], out_dir: Path, part: str,
                   input_sig: list[list]) -> dict:
    """A partition's manifest row: its inputs and, from the Parquet
    footers, the row count of each table it wrote."""
    def rows(name: str) -> int:
        return parquet_row_count(out_dir / name / f"part={part}")

    return {
        "input_files": files,
        "input_sig": input_sig,
        "pages": rows("extracted"),
        "paragraphs": rows("extraction"),
        **{name.rsplit("/", 1)[-1]: rows(name) for name in NER_TABLES
           if name != "extraction"},
    }


def extract_partition(files: list[str], out_dir: Path, part: str,
                      cfg: PipelineConfig,
                      input_sig: list[list] | None = None) -> dict:
    """One partition's linear section: read → text → explode → NER → write,
    as the one write job of ``_extract_job``. A lone partition, so its read
    takes one block per cluster CPU at least; the returned row carries its
    ``in_bytes`` and ``blocks``.

    ``input_sig`` is the (path, size, mtime_ns) signature captured BEFORE any
    file is read (run_kg_pipeline passes its plan-time sigs). Signing after
    processing would record a mid-run in-place rewrite's NEW identity against
    outputs derived from the OLD content, so a later resume would validate
    the stale partition as current.
    """
    if input_sig is None:
        input_sig = _files_sig(files)
    job, reads = _extract_job(files, out_dir, part, cfg, min_blocks=_read_floor(1))
    for _ in _run_writes([job]):
        pass
    return {**_partition_row(files, out_dir, part, input_sig), **reads}


# each graph table: its input directory under out_dir (an ``NER_TABLES``
# table), the columns it reads and its schema; both placements read these
_GRAPH_INPUTS = {
    "nodes": ("mentions", ["key", "surface", "n"], NODES_SCHEMA),
    "edges": ("graph/triples", ["subj", "pred", "obj", "subj_label", "obj_label"],
              EDGES_SCHEMA),
}


def _driver_graph(out_dir: Path, mapping: dict[str, str]) -> dict[str, float]:
    """``graph/nodes`` and ``graph/edges`` built in this process, one
    Parquet file each (``_empty_file`` when it has no rows); -> each
    table's wall seconds."""
    phases = {}
    for name, build in (("nodes", nodes_table), ("edges", edges_table)):
        start = time.perf_counter()
        src, cols, schema = _GRAPH_INPUTS[name]
        rows = build(linking.driver_read(out_dir / src, NER_TABLES[src], cols), mapping)
        d = out_dir / "graph" / name
        d.mkdir(parents=True)
        if rows.num_rows:
            pq.write_table(rows.cast(schema), d / "part-00000.parquet")
        _empty_file(d, schema)
        phases[name] = time.perf_counter() - start
    return phases


def _ray_graph(out_dir: Path, mapping: dict[str, str]) -> dict[str, float]:
    """``graph/nodes`` and ``graph/edges`` as two Ray jobs run at the same
    time (``_run_writes``); -> each job's wall seconds."""
    # broadcast only non-identity entries: dicts are not zero-copy in the
    # object store; lookups default to identity
    mapping_ref = ray.put(mapping)
    jobs = []
    for name, build in (("nodes", build_nodes), ("edges", build_edges)):
        src, cols, schema = _GRAPH_INPUTS[name]
        rows = build(sized_read_parquet(str(out_dir / src), columns=cols), mapping_ref)
        jobs.append((rows, TablesSink([(out_dir / "graph" / name, schema)])))
    return {name: end - start
            for name, (start, end) in zip(_GRAPH_INPUTS, _run_writes(jobs))}


def graph_stage(out_dir: Path, cfg: PipelineConfig) -> dict:
    """The wide section: mention partials → linking → nodes/edges.

    It never reads ``extraction/``: the extract jobs wrote its flattens
    and mention partials per partition. ``linking.link`` turns
    ``mentions/`` into one non-identity key -> component map (banding in
    the driver over the keys pyarrow reads, or as Ray tasks above
    ``linking.DRIVER_CC_MAX_KEYS`` partial rows; union-find in the driver
    either way). ``nodes`` (``mentions/`` → canonical ids → ``NODE_AGG``)
    and ``edges`` (``graph/triples`` → canonical ids → count) are then
    built where their inputs fit: while ``mentions/`` and ``graph/triples``
    each hold at most ``linking.DRIVER_CC_MAX_KEYS`` rows (Parquet
    footers), in the driver (``_driver_graph``: pyarrow reads, the map
    applied in-process, one file per table), so a small run's graph stage
    runs no Ray execution; above it, as two Ray jobs that read byte-sized
    with no block floor (``_ray_graph``). Both call the same
    ``stages/graph`` kernels. Only those two tables are deleted before the
    stage runs.
    Returns the graph manifest row: row counts, the link counters
    (``link_path``, ``link_keys``, ``link_pairs``, and the rows and bytes
    of ``mentions/`` it read), ``graph_path`` (``"driver"`` or
    ``"distributed"``), the ``in_bytes`` of the two inputs and the
    ``blocks`` they were read as (one table each in the driver), and
    per-phase wall seconds: ``link``, ``nodes``, ``edges`` and ``writes``
    for both.
    """
    graph = out_dir / "graph"
    for name in _GRAPH_INPUTS:
        if (graph / name).exists():
            shutil.rmtree(graph / name)
    t0 = time.perf_counter()
    mapping, link_stats = linking.link(out_dir / "mentions", cfg.linking)
    phases = {"link": time.perf_counter() - t0}
    triples = parquet_row_count(graph / "triples")
    plans = [read_plan(str(out_dir / src)) for src, _, _ in _GRAPH_INPUTS.values()]
    in_driver = max(link_stats["mentions_rows"], triples) <= linking.DRIVER_CC_MAX_KEYS
    t = time.perf_counter()
    phases.update((_driver_graph if in_driver else _ray_graph)(out_dir, mapping))
    phases["writes"] = time.perf_counter() - t
    return {
        **link_stats,
        "graph_path": "driver" if in_driver else "distributed",
        "in_bytes": sum(b for b, _ in plans),
        "blocks": len(plans) if in_driver else sum(n for _, n in plans),
        "phases": {k: round(v, 3) for k, v in phases.items()},
        "triples": triples,
        **{name: parquet_row_count(graph / name)
           for name in ("nodes", "edges", "spans", "errors")},
    }


def run_kg_pipeline(
    input_dir: str | Path,
    out_dir: str | Path,
    cfg: PipelineConfig | None = None,
    num_partitions: int = 8,
    fail_after_partitions: int | None = None,
) -> Manifest:
    """Full pipeline with per-partition checkpoint/resume.

    Resume validates, not just checks existence: an extract partition is
    skipped only when its manifest row records the SAME input file list the
    current plan assigns it, and the graph stage is skipped only when its
    recorded plan fingerprint matches AND no extract partition re-ran —
    rerunning against a changed input set or partition count can never
    silently serve stale outputs. Stale partitions beyond the current plan
    (a shrunk ``num_partitions``) are deleted from all six per-partition
    directories (``PARTITION_DIRS``) before the graph stage reads
    ``mentions/`` and ``graph/triples``. The extract fingerprint carries
    ``LAYOUT_VERSION``, so a run directory of an older layout re-extracts
    every partition; its flat ``graph/{spans,triples,errors}/*.parquet``
    files are deleted first.

    Each pending partition is one Ray job (``_extract_job``), and the graph
    stage none below ``linking.DRIVER_CC_MAX_KEYS`` rows (two above it), so
    a run with P pending partitions is P Ray executions (P + 2 above the
    bound).
    The jobs of all pending partitions run at the same time
    (``_run_writes``), unless ``cfg.ner_concurrency`` is set: then one
    partition runs at a time, so the cap holds for the whole run. Each
    partition's manifest row is written in plan order once its job
    finished, with its wall seconds (``wall_s``), the input bytes and block
    count its read was sized to (``in_bytes``, ``blocks``) and the row
    counts of its tables (``pages``, ``paragraphs``, ``spans``,
    ``triples``, ``errors``, ``mentions``) outside the fingerprint. The
    read's block floor is derived, not configured:
    ``ceil(cluster CPUs / partitions written together)`` (``_read_floor``).
    An empty batch (a resumed run with nothing pending) builds no jobs.

    The graph row's link counters (``link_path``, ``link_keys``,
    ``link_pairs``, ``mentions_rows``, ``mentions_bytes``), where the graph
    tables were built (``graph_path``), its reads' ``in_bytes`` and
    ``blocks``, and per-phase ``phases`` sit next to ``plan_fp``, outside
    it. Tests force the Ray side of linking and of the
    graph tables by monkeypatching ``linking.DRIVER_CC_MAX_KEYS``.

    ``fail_after_partitions`` injects a crash after N extract partitions —
    used by the kill-and-resume test only.
    """
    cfg = cfg or PipelineConfig()
    out_dir = Path(out_dir)
    manifest = Manifest(out_dir)
    plan = _partition_files(input_dir, num_partitions)
    plan_sigs = [_files_sig(files) for files in plan]
    # fingerprint the config BY EXCLUSION: normalize away the named perf
    # knobs (batch size, concurrency, placement — identical outputs by
    # construction)
    # and hash everything else, so any future output-affecting knob
    # invalidates finished partitions by default; the layout version too
    cfg_fp = hashlib.md5(
        repr((LAYOUT_VERSION,
              dataclasses.replace(cfg, ner_batch_size=0, ner_concurrency=None,
                                  ner_ray_remote_args=None))).encode()
    ).hexdigest()
    # S7 model-artifact contract: when a checkpoint dir is configured, pin
    # its byte-level identity into the resume fingerprint (retraining the
    # model IN PLACE must invalidate finished partitions, not resume past
    # them) and record path/sig/version in every extract manifest row.
    model_art = None
    if cfg.model_dir:
        from ..state.manifest import model_artifact_sig

        model_art = model_artifact_sig(cfg.model_dir)
        cfg_fp = hashlib.md5((cfg_fp + model_art["sig"]).encode()).hexdigest()
    plan_fp = hashlib.md5(json.dumps([plan_sigs, cfg_fp]).encode()).hexdigest()
    pending = [i for i, sig in enumerate(plan_sigs)
               if not ((rec := manifest.read("extract", f"{i:05d}")) is not None
                       and rec.get("input_sig") == sig
                       and rec.get("cfg_fp") == cfg_fp)]
    ran_any = bool(pending)
    crash = fail_after_partitions is not None and len(pending) > fail_after_partitions
    if crash:
        pending = pending[:fail_after_partitions]
    # ner_concurrency caps one Dataset's NER tasks; concurrent partitions
    # would add their caps up, so with a cap set they run one at a time
    if cfg.ner_concurrency is None:
        batches = [pending] if pending else []
    else:
        batches = [[i] for i in pending]
    # flat files of the layout before per-partition flattens: never valid
    # next to part=<p>/ dirs, and their partitions re-extract
    for name in ("graph/spans", "graph/triples", "graph/errors"):
        for f in (out_dir / name).glob("*.parquet"):
            f.unlink()
    t_extract = time.perf_counter()
    for batch in batches:
        floor = _read_floor(len(batch))
        built = [_extract_job(plan[i], out_dir, f"{i:05d}", cfg, min_blocks=floor)
                 for i in batch]
        timings = _run_writes([job for job, _ in built])
        # rows in plan order, each once its partition's job finished
        for i, (_, reads), (start, end) in zip(batch, built, timings):
            part = f"{i:05d}"
            meta = _partition_row(plan[i], out_dir, part, plan_sigs[i])
            meta["wall_s"] = round(end - start, 3)
            meta.update(reads)
            if model_art is not None:
                meta["model"] = model_art
            manifest.mark_done("extract", part, cfg_fp=cfg_fp, **meta)
    if crash:
        raise RuntimeError("injected failure for resume test")
    # drop partitions a previous (wider) plan produced that this plan no
    # longer owns — graph_stage reads all of mentions/ and graph/triples.
    # Scan the actual output dirs, not just manifest rows: a crashed run can
    # leave an orphan part dir whose manifest row was never written. Only the exact
    # written name format is ours (a re-padded parse would miss e.g. a
    # foreign 'part=7'); anything else is left alone entirely.
    names = [p.stem for p in manifest.dir.glob("extract__*.json")] + [
        d.name for sub in PARTITION_DIRS for d in (out_dir / sub).glob("part=*")]
    owned = {int(m.group(1)) for n in names
             if (m := re.fullmatch(r"(?:extract__|part=)(\d{5})", n))}
    for idx in sorted(i for i in owned if i >= len(plan)):
        (manifest.dir / f"extract__{idx:05d}.json").unlink(missing_ok=True)
        for sub in PARTITION_DIRS:
            stale = out_dir / sub / f"part={idx:05d}"
            if stale.exists():
                shutil.rmtree(stale)
        ran_any = True
    extract_s = time.perf_counter() - t_extract
    grec = manifest.read("graph", "all")
    if ran_any or grec is None or grec.get("plan_fp") != plan_fp:
        meta = graph_stage(out_dir, cfg)
        # per-phase wall seconds sit next to plan_fp, outside it: resume
        # compares only the fingerprint
        meta["phases"] = {"extract": round(extract_s, 3), **meta["phases"]}
        meta["paragraphs"] = parquet_row_count(out_dir / "extraction")
        manifest.mark_done("graph", "all", plan_fp=plan_fp, **meta)
    return manifest


def export_predictions_jsonl(out_dir: str | Path, jsonl_dir: str | Path) -> int:
    """Reference-format prediction records from a pipeline run.

    One JSON object per non-empty paragraph — ``{"text": paragraph,
    "labels": [[start, end, label], ...]}`` — paragraphs with zero entities
    included, scores dropped on output (reference src/inference.py:119-128,
    160-166; format doc INFERENCE_README.md:74-86). Written via
    ``ds.write_json`` as a directory of JSONL part files (never one giant
    file).
    """

    def to_records(batch: pa.Table):
        import pandas as pd

        lists = batch["spans"].combine_chunks()
        # offset-based slicing below assumes dense lists: a NULL list row
        # whose offsets aren't degenerate would mis-slice its neighbors
        # (flatten() drops null rows' values). The pipeline never writes
        # null span lists, so enforce rather than silently fill — as a real
        # raise, not an assert, which `python -O` would strip.
        if lists.null_count != 0:
            raise ValueError("null spans list in extraction output")
        flat = lists.flatten()
        # columnar pulls + one zip: [start, end, "LABEL"] triplets in flat
        # span order, then sliced back to rows via the list offsets
        trips = [list(t) for t in zip(flat.field("start").to_pylist(),
                                      flat.field("end").to_pylist(),
                                      flat.field("label").to_pylist())]
        offs = lists.offsets.to_numpy(zero_copy_only=False)
        offs = offs - offs[0]  # flatten() re-bases a sliced array's values
        per_row = [trips[offs[i]:offs[i + 1]] for i in range(len(batch))]
        return pd.DataFrame({"text": batch["para_text"].to_pylist(),
                             "labels": per_row})

    out_dir = Path(out_dir)
    ds = sized_read_parquet(str(out_dir / "extraction"),
                            columns=["para_text", "spans"])
    ds = ds.map_batches(to_records, batch_format="pyarrow")
    ds.write_json(str(jsonl_dir))
    return parquet_row_count(out_dir / "extraction")
