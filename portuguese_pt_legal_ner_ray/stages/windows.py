"""Windowed / sessionized aggregates over the events table.

The reference is batch-only (SURVEY.md §2.7); these are the streaming-shaped
operators a training-data pipeline needs, expressed as Dataset compositions:

* ``tumbling_window`` — truncate-to-window inside ``map_batches`` (vectorized
  Arrow kernel), then one bucketed combiner shuffle (``shuffle.grouped_agg``)
  on (window_start, event_type). Aggregates are order-free (count/min/max)
  so results are identical at any parallelism, and each merge is one Arrow
  ``group_by`` rather than Ray's native aggregate, which took 3-4 s on one
  block of 100k events where this takes 0.3 s (BASELINE.md).
* ``sessionize`` — gap-based sessions per user: ``groupby(user_id)`` then a
  per-group sorted cumulative-gap scan (pandas, per group — groups are small;
  the shuffle is the user_id hash partition).
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


def sessionize(events: Dataset, gap_minutes: int = 30) -> Dataset:
    """Gap-based sessions: (user_id, session_idx, n_events, session_start,
    session_end). A new session starts when the time since the previous
    event of the same user exceeds ``gap_minutes``.

    The shuffle routes users by ``hash(user_id) % buckets`` and each bucket
    sessionizes ALL its users with vectorized pandas (one sort + per-user
    diff + cumsum + one grouped agg) — one UDF call per bucket, never one
    per user (a per-user ``map_groups`` costs a Python call per user id,
    ruinous at web-scale user counts).
    """
    from .shuffle import bucket_by

    gap = pd.Timedelta(minutes=gap_minutes)

    def add_bucket(t: pa.Table) -> pa.Table:
        return bucket_by(t, ["user_id"])

    def per_bucket(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["user_id", "ts", "event_id"], kind="stable")
        new_user = g["user_id"].ne(g["user_id"].shift())
        new_sess = (g["ts"].diff() > gap) | new_user
        sess_id = new_sess.cumsum()  # strictly increasing across users
        out = (
            g.groupby(sess_id, sort=False)
            .agg(
                user_id=("user_id", "first"),
                n_events=("event_id", "size"),
                session_start=("ts", "min"),
                session_end=("ts", "max"),
            )
            .reset_index(drop=True)
        )
        # session_idx restarts per user; groups are already in time order
        out["session_idx"] = out.groupby("user_id", sort=False).cumcount()
        return out[["user_id", "session_idx", "n_events", "session_start", "session_end"]]

    return (
        events.select_columns(["user_id", "event_id", "ts"])
        .map_batches(add_bucket, batch_format="pyarrow")
        .groupby("__bucket")
        .map_groups(per_bucket, batch_format="pandas")
    )


def asof_last_event(events: Dataset, match_type: str = "click",
                    of_type: str = "purchase") -> Dataset:
    """As-of join (self-join form): each ``match_type`` event is paired with
    the most recent ``of_type`` event of the SAME user at-or-before its
    timestamp -> (event_id, user_id, ts, asof_ts nullable).

    Ray Data has no native as-of join; the composition is the partitioned
    sorted-merge pattern: route users by hash (same bucketing as
    ``sessionize``), sort each bucket once by (user, ts, event_id), compute
    the running last-``of_type`` timestamp with a vectorized forward fill,
    and emit the ``match_type`` rows. One UDF call per bucket; the
    partitioning assumption is one user's events fit a worker (salt users
    if a single user's history outgrows that).
    """
    from .shuffle import bucket_by

    def add_bucket(t: pa.Table) -> pa.Table:
        return bucket_by(t, ["user_id"])

    def per_bucket(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["user_id", "ts", "event_id"], kind="stable")
        of_ts = g["ts"].where(g["event_type"] == of_type)
        # forward-fill within each user: the as-of candidate timestamp
        asof = of_ts.groupby(g["user_id"], sort=False).ffill()
        out = g.loc[g["event_type"] == match_type,
                    ["event_id", "user_id", "ts"]].copy()
        out["asof_ts"] = asof[g["event_type"] == match_type]
        return out

    return (
        events.select_columns(["event_id", "user_id", "ts", "event_type"])
        .map_batches(add_bucket, batch_format="pyarrow")
        .groupby("__bucket")
        .map_groups(per_bucket, batch_format="pandas")
    )


def cumulative_window(events: Dataset, key_col: str = "user_id",
                      order_cols: tuple[str, str] = ("ts", "event_id"),
                      value_col: str = "value",
                      alias: str = "running_sum") -> Dataset:
    """Ordered analytic window: per-key running sum, SQL
    ``SUM(value) OVER (PARTITION BY key ORDER BY ts, event_id
    ROWS UNBOUNDED PRECEDING)``.

    Same exchange as :func:`sessionize`: keys route by
    ``hash(key) % buckets`` so each key's full history co-locates, then one
    vectorized pandas UDF per bucket (sort + per-key ``cumsum``) computes
    every key it holds — never one task per key. The tie-break column in
    ``order_cols`` makes the prefix order (and therefore every running
    value) deterministic at any parallelism. Output: one row per input
    event with the running aggregate attached.
    """
    from .shuffle import bucket_by

    cols = [key_col, *order_cols, value_col]

    def add_bucket(t: pa.Table) -> pa.Table:
        return bucket_by(t, [key_col])

    def per_bucket(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values([key_col, *order_cols], kind="stable")
        g[alias] = g.groupby(key_col, sort=False)[value_col].cumsum()
        return g[[*cols, alias]]

    return (
        events.select_columns(cols)
        .map_batches(add_bucket, batch_format="pyarrow")
        .groupby("__bucket")
        .map_groups(per_bucket, batch_format="pandas")
    )


def lag_window(events: Dataset, key_col: str = "user_id",
               order_cols: tuple[str, str] = ("ts", "event_id"),
               value_col: str = "value", offset: int = 1,
               alias: str = "lag_value") -> Dataset:
    """Ordered analytic window: per-key LAG/LEAD, SQL ``LAG(value, offset)
    OVER (PARTITION BY key ORDER BY ts, event_id)`` (negative ``offset``
    gives LEAD). First/last rows of each key get nulls, as in SQL.

    Same exchange as :func:`cumulative_window`: keys route by
    ``hash(key) % buckets`` so each key's full history co-locates, then one
    vectorized pandas UDF per bucket (sort + per-key ``shift``) serves
    every key it holds — never one task per key. Deterministic at any
    parallelism via the tie-break column in ``order_cols``.
    """
    from .shuffle import bucket_by

    cols = [key_col, *order_cols, value_col]

    def add_bucket(t: pa.Table) -> pa.Table:
        return bucket_by(t, [key_col])

    def per_bucket(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values([key_col, *order_cols], kind="stable")
        g[alias] = g.groupby(key_col, sort=False)[value_col].shift(offset)
        return g[[*cols, alias]]

    return (
        events.select_columns(cols)
        .map_batches(add_bucket, batch_format="pyarrow")
        .groupby("__bucket")
        .map_groups(per_bucket, batch_format="pandas")
    )
