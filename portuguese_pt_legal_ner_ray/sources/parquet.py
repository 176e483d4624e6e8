"""Size-aware parquet reads.

Ray Data's default read parallelism targets ~2 blocks per CPU regardless of
input size, so a 2 MB table on a 32-CPU session is split into 64 KB-sized
blocks — and every downstream all-to-all round (groupby/sort/join) then
schedules one map + one reduce task per block, paying ~CPU-count task
overheads to move kilobytes. Measured on the gate-scale near-dup pipeline
(5k docs, 3 shuffle rounds): 19 s wall at 64 blocks vs 6.7 s at 8.

``sized_read_parquet`` budgets the block count by BYTES instead: one block
per ``target_block_bytes`` (32 MB) of input, capped at ``max_blocks``. There
is no block floor by default: a sub-32 MB table is one block, so every
all-to-all round over it runs as few tasks as the data needs. A floor of 8
blocks made the ``ops`` benchmark's query list ~1.5x slower (17.9 s vs
12.1 s per cold pass at 4 CPUs) and 35 registry queries on the sf0.1 tables
~1.45x slower (48.5 s vs 33.0 s, BASELINE.md): the cost of a small shuffle
is its task count, not its bytes. Dropping that floor changed every input of
up to 224 MB (7 x 32 MB, file bytes), which now reads as 1-7 blocks instead
of 8; larger inputs read as before, and at 100 TB the same rule produces
thousands of blocks. When the per-row downstream compute is heavy enough to
want one block per core on small inputs, pass a floor. The callers that do:

- ``_docs(wide=True)`` and ``near_dup_embedding`` in ``__ray_entry__.py``
  (the O(n^2) embedding near-dup scan, simhash): the CPU count, at
  least 8;
- ``pipelines/kg._extract_job`` (each partition's one read, whose blocks
  go through html→text, explode and NER): ``ceil(cluster CPUs /
  partitions written together)``, so a lone re-extracted partition spans
  every CPU and a full crawl reads one block per partition;
- ``scripts/bench_scale_paths.py`` and ``scripts/ivf_scaling.py``
  (brute-force scans): the CPU count.

Every other Parquet read in the repo takes the default; a guard test keeps
``ray.data.read_parquet`` to this module. ``read_plan`` returns the input
bytes and block count a read is sized to, for manifests to record.
"""

from __future__ import annotations

from pathlib import Path


def _input_bytes(paths: str | list[str]) -> int:
    if isinstance(paths, (str, Path)):
        paths = [str(paths)]
    total = 0
    for p in paths:
        pp = Path(p)
        if pp.is_dir():
            total += sum(f.stat().st_size for f in pp.glob("**/*.parquet"))
        elif pp.exists():
            total += pp.stat().st_size
        else:  # glob pattern
            total += sum(f.stat().st_size for f in pp.parent.glob(pp.name))
    return total


def _first_file(paths: str | list[str]) -> Path | None:
    if isinstance(paths, (str, Path)):
        paths = [str(paths)]
    for p in paths:
        pp = Path(p)
        if pp.is_dir():
            for f in sorted(pp.glob("**/*.parquet")):
                return f
        elif pp.exists():
            return pp
        else:
            for f in sorted(pp.parent.glob(pp.name)):
                return f
    return None


def _clean_schema(paths, columns):
    """Metadata-free read schema (one local footer read). Parquet written via
    pandas carries a ``b'pandas'`` schema-metadata dict, which is unhashable
    on this pyarrow and makes every Ray operator holding such blocks log a
    'Failed to hash the schemas' warning; passing an explicit stripped
    schema to ``read_parquet`` silences it at the source. Inputs here are
    homogeneous by construction, so one footer speaks for the set."""
    f = _first_file(paths)
    if f is None:
        return None
    import pyarrow.parquet as pq

    schema = pq.read_schema(str(f)).remove_metadata()
    if columns is not None:
        schema = schema.empty_table().select(columns).schema
    return schema


def read_plan(
    paths: str | list[str],
    target_block_bytes: int = 32 << 20,
    min_blocks: int = 1,
    max_blocks: int | None = None,
) -> tuple[int, int]:
    """``(input bytes, block count)`` that ``sized_read_parquet`` reads
    ``paths`` as, with the same sizing arguments."""
    in_bytes = _input_bytes(paths)
    n = max(min_blocks, -(-in_bytes // target_block_bytes))
    if max_blocks is not None:
        n = min(n, max_blocks)
    return in_bytes, n


def sized_read_parquet(
    paths: str | list[str],
    columns: list[str] | None = None,
    target_block_bytes: int = 32 << 20,
    min_blocks: int = 1,
    max_blocks: int | None = None,
):
    """``ray.data.read_parquet`` with a byte-budgeted ``override_num_blocks``
    (``read_plan``) and a metadata-free schema. A ``part=<p>`` directory
    is a storage layout, not a column: the read adds no hive partition
    columns, so a table written per partition reads with its own columns
    only."""
    import ray

    _, n = read_plan(paths, target_block_bytes, min_blocks, max_blocks)
    # a column list adds no partition column it does not name, and Ray 2.49
    # raises on ``partitioning=None`` with one
    layout = {"partitioning": None} if columns is None else {}
    return ray.data.read_parquet(paths, columns=columns, override_num_blocks=n,
                                 schema=_clean_schema(paths, columns), **layout)
