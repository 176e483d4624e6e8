"""Windowed / sessionized aggregates over the events table.

The reference is batch-only (SURVEY.md §2.7); these are the streaming-shaped
operators a training-data pipeline needs, expressed as Dataset compositions:

* ``tumbling_window`` — truncate-to-window inside ``map_batches`` (vectorized
  Arrow kernel), then one bucketed combiner shuffle (``shuffle.grouped_agg``)
  on (window_start, event_type). Aggregates are order-free (count/min/max)
  so results are identical at any parallelism, and each merge is one Arrow
  ``group_by`` rather than Ray's native aggregate, which took 3-4 s on one
  block of 100k events where this takes 0.3 s (BASELINE.md).
* ``sessionize``, ``asof_last_event``, ``cumulative_window``, ``lag_window``
  — per-user ordered scans: one ``shuffle.exchange`` on the partition key,
  then one sort and vectorized scans per sorted block of whole buckets.
  Partitions follow SQL ``PARTITION BY`` (a null key is one partition).
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
from ray.data import Dataset


def tumbling_window(events: Dataset, every: str = "hour") -> Dataset:
    """(window_start, event_type, n_events, min_value, max_value)."""

    from .shuffle import grouped_agg

    def add_window(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "window_start": pc.cast(
                    pc.floor_temporal(batch["ts"], unit=every), pa.timestamp("us")
                ),
                "event_type": batch["event_type"],
                "value": batch["value"],
                "one": pa.array(np.ones(len(batch), dtype=np.int64)),
            }
        )

    return grouped_agg(
        events.select_columns(["ts", "event_type", "value"])
        .map_batches(add_window, batch_format="pyarrow"),
        ["window_start", "event_type"],
        {
            "n_events": ("one", "sum"),
            "min_value": ("value", "min"),
            "max_value": ("value", "max"),
        },
    )


def sliding_window(events: Dataset, size_minutes: int = 60,
                   slide_minutes: int = 15) -> Dataset:
    """Overlapping windows: each event lands in ``size/slide`` windows.

    Expansion is vectorized (one Arrow concat per window offset), the count
    is the bucketed combiner shuffle — the all-to-all moves one partial row
    per (window, type, batch), not one per event copy.
    -> (window_start, event_type, n_events)
    """
    assert size_minutes % slide_minutes == 0
    k = size_minutes // slide_minutes

    def expand(batch: pa.Table) -> pa.Table:
        base = pc.floor_temporal(batch["ts"], multiple=slide_minutes, unit="minute")
        base = pc.cast(base, pa.timestamp("us"))
        parts = []
        for j in range(k):
            off = pa.scalar(j * slide_minutes * 60_000_000, pa.duration("us"))
            parts.append(pa.table({
                "window_start": pc.subtract(base, off),
                "event_type": batch["event_type"],
            }))
        return pa.concat_tables(parts)

    from .shuffle import grouped_count

    out = grouped_count(
        events.select_columns(["ts", "event_type"]).map_batches(expand, batch_format="pyarrow"),
        ["window_start", "event_type"],
        alias="n_events",
    )

    def recast(batch: pa.Table) -> pa.Table:
        i = batch.schema.get_field_index("window_start")
        return batch.set_column(
            i, "window_start", pc.cast(batch["window_start"], pa.timestamp("us"))
        )

    return out.map_batches(recast, batch_format="pyarrow")


def _partitions(g: pa.Table, key_col: str, order_cols) -> tuple[pa.Table, np.ndarray]:
    """A bucket in SQL ``PARTITION BY key_col ORDER BY order_cols`` order,
    with each row's partition-start row index.

    Partitions are Arrow dictionary codes of the key, so a null key is one
    partition of its own (SQL), NaN is apart from null, and int64 keys
    above 2^53 stay distinct. A pandas ``groupby`` on the key column drops
    null keys by default, merges NaN with null, and turns a nullable int64
    key into float64, merging 2^53 with 2^53 + 1."""
    part = pc.dictionary_encode(g[key_col].combine_chunks(),
                                null_encoding="encode").indices
    g = g.append_column("__part", part).sort_by(
        [("__part", "ascending"), *((c, "ascending") for c in order_cols)])
    p = g["__part"].to_numpy()
    rows = np.arange(len(p))
    new = np.ones(len(p), dtype=bool)
    new[1:] = p[1:] != p[:-1]
    return g.drop_columns(["__part"]), np.maximum.accumulate(np.where(new, rows, 0))


def sessionize(events: Dataset, gap_minutes: int = 30) -> Dataset:
    """Gap-based sessions: (user_id, session_idx, n_events, session_start,
    session_end). A new session starts when the time since the previous
    event of the same user exceeds ``gap_minutes``.

    The shuffle routes users by ``hash(user_id) % buckets`` and each UDF
    call sessionizes ALL users of the whole buckets it holds with one sort
    and vectorized numpy scans — one call per sorted block, never one per
    user (a per-user ``map_groups`` costs a Python call per user id,
    ruinous at web-scale user counts).
    """
    from .shuffle import exchange

    gap = np.timedelta64(gap_minutes, "m")

    def per_bucket(g: pa.Table) -> pa.Table:
        g, start = _partitions(g, "user_id", ["ts", "event_id"])
        rows = np.arange(len(g))
        first = start == rows
        new_sess = first.copy()
        new_sess[1:] |= np.diff(g["ts"].to_numpy()) > gap
        heads = np.flatnonzero(new_sess)
        ends = np.append(heads[1:], len(g)) - 1
        # session_idx restarts per user: sessions minus the user's first
        sess = np.arange(len(heads))
        user_first = np.maximum.accumulate(np.where(first[heads], sess, 0))
        return pa.table({
            "user_id": g["user_id"].take(heads),
            "session_idx": pa.array(sess - user_first, pa.int64()),
            "n_events": pa.array(ends - heads + 1, pa.int64()),
            "session_start": g["ts"].take(heads),
            "session_end": g["ts"].take(ends),
        })

    return exchange(events.select_columns(["user_id", "event_id", "ts"]),
                    ["user_id"], per_bucket)


def asof_last_event(events: Dataset, match_type: str = "click",
                    of_type: str = "purchase") -> Dataset:
    """As-of join (self-join form): each ``match_type`` event is paired with
    the most recent ``of_type`` event of the SAME user at-or-before its
    timestamp -> (event_id, user_id, ts, asof_ts nullable).

    Ray Data has no native as-of join; the composition is the partitioned
    sorted-merge pattern: route users by hash (same exchange as
    ``sessionize``), sort each block once by (user, ts, event_id), carry
    the last ``of_type`` row forward with a running max of row indices,
    and emit the ``match_type`` rows. One UDF call per sorted block; the
    partitioning assumption is one user's events fit a worker (salt users
    if a single user's history outgrows that).
    """
    from .shuffle import exchange

    def per_bucket(g: pa.Table) -> pa.Table:
        g, start = _partitions(g, "user_id", ["ts", "event_id"])
        kind = g["event_type"]
        is_of = np.asarray(pc.fill_null(pc.equal(kind, of_type), False))
        last = np.maximum.accumulate(np.where(is_of, np.arange(len(g)), -1))
        match = pc.fill_null(pc.equal(kind, match_type), False)
        asof = g["ts"].take(pa.array(last, mask=last < start))
        return (g.select(["event_id", "user_id", "ts"])
                .append_column("asof_ts", asof).filter(match))

    return exchange(events.select_columns(["event_id", "user_id", "ts", "event_type"]),
                    ["user_id"], per_bucket)


def cumulative_window(events: Dataset, key_col: str = "user_id",
                      order_cols: tuple[str, str] = ("ts", "event_id"),
                      value_col: str = "value",
                      alias: str = "running_sum") -> Dataset:
    """Ordered analytic window: per-key running sum, SQL
    ``SUM(value) OVER (PARTITION BY key ORDER BY ts, event_id
    ROWS UNBOUNDED PRECEDING)``.

    Same exchange as :func:`sessionize`: keys route by ``hash(key) %
    buckets`` so each key's full history co-locates, then one vectorized UDF
    per sorted block (sort + per-partition ``cumsum``) computes every key it
    holds — never one task per key. The tie-break column in ``order_cols``
    makes the prefix order (and therefore every running value) deterministic
    at any parallelism. Output: one row per input event with the running
    aggregate attached.
    """
    from .shuffle import exchange

    cols = [key_col, *order_cols, value_col]

    def per_bucket(g: pa.Table) -> pa.Table:
        g, start = _partitions(g, key_col, order_cols)
        # SQL SUM skips nulls: a null value's row carries the sum so far,
        # and only rows before a partition's first value are null
        value = g[value_col]
        run = (pd.Series(pc.fill_null(value, 0).to_numpy())
               .groupby(start, sort=False).cumsum().to_numpy())
        seen = np.cumsum(np.asarray(pc.is_valid(value)))
        seen -= np.concatenate([[0], seen])[start]
        return g.append_column(alias, pa.array(run, mask=seen == 0))

    return exchange(events.select_columns(cols), [key_col], per_bucket)


def lag_window(events: Dataset, key_col: str = "user_id",
               order_cols: tuple[str, str] = ("ts", "event_id"),
               value_col: str = "value", offset: int = 1,
               alias: str = "lag_value") -> Dataset:
    """Ordered analytic window: per-key LAG/LEAD, SQL ``LAG(value, offset)
    OVER (PARTITION BY key ORDER BY ts, event_id)`` (negative ``offset``
    gives LEAD). First/last rows of each key get nulls, as in SQL.

    Same exchange as :func:`cumulative_window`: keys route by ``hash(key) %
    buckets`` so each key's full history co-locates, then one vectorized UDF
    per sorted block (sort + per-partition ``shift``) serves every key it
    holds — never one task per key. Deterministic at any parallelism via the
    tie-break column in ``order_cols``.
    """
    from .shuffle import exchange

    cols = [key_col, *order_cols, value_col]

    def per_bucket(g: pa.Table) -> pa.Table:
        g, start = _partitions(g, key_col, order_cols)
        # gather by row index, so the value column keeps its type and nulls
        # (a pandas shift turns int64 with nulls into float64)
        src = np.arange(len(g)) - offset
        inside = np.clip(src, 0, max(len(g) - 1, 0))
        same = (src == inside) & (start[inside] == start)
        return g.append_column(alias, g[value_col].take(pa.array(src, mask=~same)))

    return exchange(events.select_columns(cols), [key_col], per_bucket)
