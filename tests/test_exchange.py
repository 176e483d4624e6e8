"""``shuffle.exchange`` — the one bucketed shuffle behind every grouped,
join and window operator: its contract, a guard that it stays the only
one, and property tests of the operators on it against DuckDB over the
key types where engines disagree (nulls, ±0.0, NaN, ints above 2^53)."""

from __future__ import annotations

import math
import re
import uuid
from pathlib import Path

import pyarrow as pa
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

PKG = Path(__file__).resolve().parents[1] / "portuguese_pt_legal_ner_ray"


def _rows(out, cols: list[str]) -> list[tuple]:
    """A Dataset's rows as tuples of exact Python values (Arrow, no pandas
    hop: it would float-promote int64 next to nulls)."""
    return [tuple(r[c] for c in cols)
            for t in out.iter_batches(batch_format="pyarrow")
            for r in t.to_pylist()]


def _canon(rows) -> list[tuple]:
    """Order-free form of a result in which, as in SQL, the two zeros are
    one value and every NaN is one value."""
    def norm(x):
        if isinstance(x, float):
            return "NaN" if math.isnan(x) else x + 0.0
        return x

    return sorted((tuple(norm(v) for v in r) for r in rows), key=repr)


def _blocks(t: pa.Table, cut: int):
    """``t`` as a two-block Dataset split at ``cut`` (both combiner inputs
    and the exchange see rows of one key arrive from different blocks)."""
    import ray

    cut = min(cut, len(t))
    return ray.data.from_arrow([t.slice(0, cut), t.slice(cut)])


def test_exchange_unions_inputs_and_hides_bucket(ray_session, monkeypatch):
    """Two inputs are unioned; ``per_bucket`` never sees ``__bucket`` in
    either batch format; every key's rows reach exactly one call; and the
    bucket count set in the driver is the one the workers route by."""
    import pandas as pd
    import ray

    from portuguese_pt_legal_ner_ray.stages import shuffle

    a = pa.table({"k": [f"k{i % 30}" for i in range(60)], "src": ["a"] * 60})
    b = pa.table({"k": [f"k{i}" for i in range(0, 80, 2)], "src": ["b"] * 40})
    want = {}
    for k in a["k"].to_pylist() + b["k"].to_pylist():
        want[k] = want.get(k, 0) + 1

    for fmt, kind in (("pyarrow", pa.Table), ("pandas", pd.DataFrame)):
        for nb in (1, 8):
            monkeypatch.setattr(shuffle, "NUM_BUCKETS", nb)

            def per_bucket(g):
                assert isinstance(g, kind)
                assert list(g.columns if fmt == "pandas" else g.column_names) == ["k", "src"]
                keys = list(g["k"])
                if fmt == "pyarrow":
                    keys = [k.as_py() for k in keys]
                call = uuid.uuid4().hex
                return pa.table({"k": sorted(set(keys)),
                                 "n": [keys.count(k) for k in sorted(set(keys))],
                                 "call": [call] * len(set(keys))})

            out = shuffle.exchange(
                [ray.data.from_arrow(a).repartition(3),
                 ray.data.from_arrow(b).repartition(2)],
                ["k"], per_bucket, batch_format=fmt)
            rows = _rows(out, ["k", "n", "call"])
            # one output row per key: no key was split over two calls
            assert sorted(r[0] for r in rows) == sorted(want), (fmt, nb)
            assert {r[0]: r[1] for r in rows} == want, (fmt, nb)
            calls = {r[2] for r in rows}
            assert len(calls) <= nb, (fmt, nb, len(calls))


def test_exchange_calls_per_bucket_once_per_sorted_block(ray_session, monkeypatch):
    """A one-block input over 64 buckets makes ONE ``per_bucket`` call,
    not one per bucket, and that call holds every row of every key."""
    import ray

    from portuguese_pt_legal_ner_ray.stages import shuffle

    monkeypatch.setattr(shuffle, "NUM_BUCKETS", 64)
    t = pa.table({"k": [f"k{i % 200}" for i in range(1000)]})
    buckets = shuffle.bucket_by(t, ["k"], 64)["__bucket"].to_pylist()
    assert len(set(buckets)) > 32  # the block really spans many buckets

    def per_bucket(g: pa.Table) -> pa.Table:
        keys = g["k"].to_pylist()
        distinct = sorted(set(keys))
        return pa.table({"k": distinct, "n": [keys.count(k) for k in distinct],
                         "call": [uuid.uuid4().hex] * len(distinct)})

    rows = _rows(shuffle.exchange(ray.data.from_arrow(t), ["k"], per_bucket),
                 ["k", "n", "call"])
    assert sorted((k, n) for k, n, _ in rows) == [(f"k{i}", 5) for i in sorted(
        range(200), key=lambda i: f"k{i}")]
    assert len({c for *_, c in rows}) == 1


def test_package_has_one_bucket_exchange():
    """Every bucketed shuffle goes through ``shuffle.exchange``: the package
    holds exactly one ``sort("__bucket")``, in ``stages/shuffle.py``, and no
    ``groupby("__bucket")``; and no public function but the routing kernel
    ``bucket_by`` takes a bucket count."""
    import importlib
    import inspect

    def hits(pattern: str) -> list[tuple[str, int]]:
        return [(p.relative_to(PKG).as_posix(), n)
                for p in sorted(PKG.rglob("*.py"))
                for n, line in enumerate(p.read_text().splitlines(), 1)
                if re.search(pattern, line)]

    sorts = hits(r"""sort\(\s*\[?\s*["']__bucket""")
    assert len(sorts) == 1 and sorts[0][0] == "stages/shuffle.py", sorts
    assert hits(r"""groupby\(\s*\[?\s*["']__bucket""") == []

    takers = []
    for p in sorted(PKG.rglob("*.py")):
        mod = importlib.import_module(
            "portuguese_pt_legal_ner_ray." + p.relative_to(PKG).with_suffix("")
            .as_posix().replace("/", ".").removesuffix(".__init__"))
        for name, fn in vars(mod).items():
            if (inspect.isfunction(fn) and fn.__module__ == mod.__name__
                    and "num_buckets" in inspect.signature(fn).parameters):
                takers.append(f"{mod.__name__}.{name}")
    assert takers == ["portuguese_pt_legal_ner_ray.stages.shuffle.bucket_by"], takers


def test_signed_zero_float_keys_match_duckdb(ray_session):
    """``-0.0`` and ``0.0`` are one key, as in DuckDB: a grouped count
    over [0.0, -0.0, 1.0] has 2 groups, and both zeros of a join's left
    side match the right side's 0.0 (the zeros sit in different blocks,
    so each reaches the exchange from its own combiner)."""
    import duckdb

    from portuguese_pt_legal_ner_ray.stages.joins import hash_join
    from portuguese_pt_legal_ner_ray.stages.shuffle import grouped_count

    t = pa.table({"k": pa.array([0.0, -0.0, 1.0])})
    left = pa.table({"k": pa.array([0.0, -0.0]), "p": pa.array([1, 2])})
    right = pa.table({"k": pa.array([0.0]), "w": pa.array([9])})
    con = duckdb.connect()
    con.register("t", t)
    con.register("l", left)
    con.register("r", right)

    got = _rows(grouped_count(_blocks(t, 1), ["k"], alias="n"), ["k", "n"])
    want = con.sql("SELECT k, count(*) FROM t GROUP BY k").fetchall()
    assert _canon(got) == _canon(want) == [(0.0, 2), (1.0, 1)]

    got = _rows(hash_join(_blocks(left, 1), _blocks(right, 1), key="k"),
                ["k", "p", "w"])
    want = con.sql("SELECT l.k, l.p, r.w FROM l JOIN r ON l.k = r.k").fetchall()
    assert _canon(got) == _canon(want) == [(0.0, 1, 9), (0.0, 2, 9)]


def test_windows_null_partition_matches_duckdb(ray_session):
    """A null partition key is one partition, as in SQL ``PARTITION BY``:
    two null-``user_id`` events (values 1, 2) get running sums 1, 3 and a
    LAG of 1, and sessionize / the as-of join treat them as one user's
    history. Each operator is checked against its oracle SQL."""
    import datetime as dt

    import duckdb

    from portuguese_pt_legal_ner_ray.stages.windows import (
        asof_last_event,
        cumulative_window,
        lag_window,
        sessionize,
    )

    t0 = dt.datetime(2024, 1, 1, 10, 0)
    events = pa.table({
        "event_id": pa.array([1, 2, 3, 4, 5, 6], pa.int64()),
        "user_id": pa.array([None, None, 7, 7, None, 8], pa.int64()),
        "ts": pa.array([t0, t0 + dt.timedelta(minutes=10), t0,
                        t0 + dt.timedelta(minutes=50), t0 + dt.timedelta(minutes=20),
                        t0], pa.timestamp("us")),
        "event_type": ["purchase", "click", "click", "click", "click", "purchase"],
        "value": pa.array([1.0, 2.0, 5.0, 6.0, 4.0, 3.0]),
    })
    con = duckdb.connect()
    con.register("events", events)
    over = "OVER (PARTITION BY user_id ORDER BY ts, event_id"
    cases = {
        "running": (
            cumulative_window,
            ["user_id", "ts", "event_id", "value", "running_sum"],
            f"SELECT user_id, ts, event_id, value, SUM(value) {over} "
            "ROWS UNBOUNDED PRECEDING) FROM events"),
        "lag": (
            lag_window,
            ["user_id", "ts", "event_id", "value", "lag_value"],
            f"SELECT user_id, ts, event_id, value, LAG(value) {over}) FROM events"),
        "sessions": (
            sessionize,
            ["user_id", "session_idx", "n_events", "session_start", "session_end"],
            f"""WITH flag AS (
                  SELECT user_id, event_id, ts,
                         CASE WHEN ts - lag(ts) {over}) > INTERVAL 30 MINUTE
                              THEN 1 ELSE 0 END AS new_s FROM events),
                sess AS (SELECT *, sum(new_s) {over} ROWS UNBOUNDED PRECEDING)
                                  AS session_idx FROM flag)
                SELECT user_id, CAST(session_idx AS BIGINT), count(*),
                       min(ts), max(ts)
                FROM sess GROUP BY user_id, session_idx"""),
        "asof": (
            asof_last_event,
            ["event_id", "user_id", "ts", "asof_ts"],
            f"""SELECT event_id, user_id, ts, asof_ts FROM (
                  SELECT *, max(CASE WHEN event_type = 'purchase' THEN ts END)
                            {over} ROWS BETWEEN UNBOUNDED PRECEDING
                                   AND CURRENT ROW) AS asof_ts
                  FROM events) WHERE event_type = 'click'"""),
    }
    for name, (op, cols, sql) in cases.items():
        got = _rows(op(_blocks(events, 3)), cols)
        assert _canon(got) == _canon(con.sql(sql).fetchall()), name
    nulls = sorted(r[4] for r in _rows(cumulative_window(_blocks(events, 3)),
                                       ["user_id", "ts", "event_id", "value",
                                        "running_sum"]) if r[0] is None)
    assert nulls == [1.0, 3.0, 7.0]


def test_windows_null_values_match_duckdb(ray_session):
    """A null value is skipped by SQL ``SUM``: its row carries the running
    sum so far, and rows before a partition's first value stay null. LAG
    passes a null value through and keeps the int64 type."""
    import duckdb

    from portuguese_pt_legal_ner_ray.stages.windows import cumulative_window, lag_window

    events = pa.table({
        "event_id": pa.array(range(7), pa.int64()),
        "user_id": pa.array([1, 1, 1, 2, 2, 2, 2], pa.int64()),
        "ts": pa.array(range(7), pa.int64()).cast(pa.timestamp("s")),
        "value": pa.array([1, None, 2, None, None, 2**53 + 1, 5], pa.int64()),
    })
    con = duckdb.connect()
    con.register("events", events)
    over = "OVER (PARTITION BY user_id ORDER BY ts, event_id"
    cols = ["user_id", "ts", "event_id", "value"]
    got = {}
    for op, alias, sql in (
            (cumulative_window, "running_sum",
             f"SUM(value) {over} ROWS UNBOUNDED PRECEDING)"),
            (lag_window, "lag_value", f"LAG(value) {over})")):
        out = op(_blocks(events, 2))
        got[alias] = _rows(out, [*cols, alias])
        want = con.sql(f"SELECT {', '.join(cols)}, {sql} FROM events").fetchall()
        assert _canon(got[alias]) == _canon(want), alias
        assert out.take_batch(7, batch_format="pyarrow")[alias].type == pa.int64()
    running = [r[4] for r in sorted(got["running_sum"], key=lambda r: r[2])]
    assert running == [1, 1, 3, None, None, 2**53 + 1, 2**53 + 6]


def test_join_on_projected_side_with_empty_first_block(ray_session):
    """``select_columns`` over blocks whose first holds no rows: the join
    reads the side's columns from a block with rows, not the reported
    schema, which still names the dropped ``ts`` (materialized or not)."""
    import ray

    from portuguese_pt_legal_ner_ray.stages.joins import hash_join, hash_left_join

    t = pa.table({"k": ["a", "b", "c"], "v": [1, 2, 3], "ts": [7, 8, 9]})
    left = ray.data.from_arrow([t.slice(0, 0), t]).select_columns(["k", "v"])
    right = pa.table({"k": ["a", "c", "d"], "w": [10, 30, 40]})
    for side in (left, left.materialize()):
        for op, want in ((hash_join, [("a", 1, 10), ("c", 3, 30)]),
                         (hash_left_join,
                          [("a", 1, 10), ("b", 2, None), ("c", 3, 30)])):
            out = op(side, ray.data.from_arrow(right), key="k")
            assert sorted(_rows(out, ["k", "v", "w"])) == want, op.__name__
            cols = out.take_batch(10, batch_format="pyarrow").column_names
            assert set(cols) == {"k", "v", "w"}


# --- property tests against DuckDB -----------------------------------------

_BIG = 2**53
# each key type with a small pool of colliding values (so groups and join
# matches happen) plus its full range; "\x00" is left out of strings only
# because DuckDB strings cannot hold it
KEY_TYPES = {
    "string": (pa.string(), st.sampled_from(["", "a", "b", "a\x1fb", "ç"])
               | st.text(st.characters(blacklist_characters="\x00"), max_size=3)),
    "int64": (pa.int64(), st.sampled_from([_BIG, _BIG + 1, _BIG + 2, -_BIG - 1,
                                           2**62 + 1, 0, -1])
              | st.integers(-2**63, 2**63 - 1)),
    "bool": (pa.bool_(), st.booleans()),
    "float": (pa.float64(), st.sampled_from([0.0, -0.0, math.nan, 1.5, -1.5, math.inf])
              | st.floats(allow_nan=True)),
}


@st.composite
def _tables(draw, key_type: str):
    typ, values = KEY_TYPES[key_type]
    key = st.none() | values
    n = draw(st.integers(0, 12))
    left = pa.table({
        "k": pa.array(draw(st.lists(key, min_size=n, max_size=n)), typ),
        "ts": pa.array(draw(st.lists(st.integers(0, 90), min_size=n, max_size=n)),
                       pa.int64()).cast(pa.timestamp("s")).cast(pa.timestamp("us")),
        "event_id": pa.array(range(n), pa.int64()),
        "value": pa.array(draw(st.lists(st.none() | st.integers(-5, 5),
                                        min_size=n, max_size=n)), pa.int64()),
    })
    m = draw(st.integers(0, 8))
    right = pa.table({
        "k": pa.array(draw(st.lists(key, min_size=m, max_size=m)), typ),
        "w": pa.array(draw(st.lists(st.integers(-5, 5), min_size=m, max_size=m)),
                      pa.int64()),
    })
    return left, right, draw(st.integers(0, n)), draw(st.integers(0, m))


def _ops():
    from portuguese_pt_legal_ner_ray.stages.joins import (
        hash_anti_join,
        hash_join,
        hash_left_join,
    )
    from portuguese_pt_legal_ner_ray.stages.shuffle import grouped_agg, grouped_count
    from portuguese_pt_legal_ner_ray.stages.windows import cumulative_window, lag_window

    on = "l.k = r.k"
    return {
        "grouped_count": (
            lambda d: grouped_count(d["l"], ["k"], alias="n"), ["k", "n"],
            "SELECT k, count(*) FROM l GROUP BY k"),
        "grouped_agg": (
            lambda d: grouped_agg(d["l"], ["k"], {"mn": ("value", "min"),
                                                  "mx": ("value", "max"),
                                                  "tot": ("value", "sum")}),
            ["k", "mn", "mx", "tot"],
            "SELECT k, min(value), max(value), sum(value) FROM l GROUP BY k"),
        "inner_join": (
            lambda d: hash_join(d["kv"], d["r"], key="k"),
            ["k", "value", "w"],
            f"SELECT l.k, l.value, r.w FROM l JOIN r ON {on}"),
        "left_join": (
            lambda d: hash_left_join(d["kv"], d["r"], key="k"),
            ["k", "value", "w"],
            f"SELECT l.k, l.value, r.w FROM l LEFT JOIN r ON {on}"),
        "anti_join": (
            lambda d: hash_anti_join(d["kv"], d["r"], key="k"),
            ["k", "value"],
            f"SELECT k, value FROM l WHERE NOT EXISTS (SELECT 1 FROM r WHERE {on})"),
        "cumulative_window": (
            lambda d: cumulative_window(d["l"], key_col="k"),
            ["k", "ts", "event_id", "value", "running_sum"],
            "SELECT k, ts, event_id, value, SUM(value) OVER (PARTITION BY k "
            "ORDER BY ts, event_id ROWS UNBOUNDED PRECEDING) FROM l"),
        "lag_window": (
            lambda d: lag_window(d["l"], key_col="k"),
            ["k", "ts", "event_id", "value", "lag_value"],
            "SELECT k, ts, event_id, value, LAG(value) OVER (PARTITION BY k "
            "ORDER BY ts, event_id) FROM l"),
    }


@pytest.mark.parametrize("key_type", sorted(KEY_TYPES))
def test_exchange_operators_match_duckdb(ray_session, key_type):
    """grouped_count, grouped_agg, the inner/left/anti joins and the
    cumulative and lag windows equal DuckDB on random tables keyed by
    ``key_type`` (with null keys and null values), at 1 bucket (every key,
    null and NaN in one bucket) and at 64. The joins' left side is
    projected after the split, so its first block may be an empty one."""
    import duckdb

    from portuguese_pt_legal_ner_ray.stages import shuffle

    ops = _ops()

    @settings(max_examples=6, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(data=_tables(key_type))
    def check(data):
        left, right, cut_l, cut_r = data
        con = duckdb.connect()
        con.register("l", left)
        con.register("r", right)
        for nb in (1, 64):
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(shuffle, "NUM_BUCKETS", nb)
                for name, (op, cols, sql) in ops.items():
                    got = _rows(op({"l": _blocks(left, cut_l),
                                    "kv": _blocks(left, cut_l).select_columns(
                                        ["k", "value"]),
                                    "r": _blocks(right, cut_r)}), cols)
                    want = con.sql(sql).fetchall()
                    assert _canon(got) == _canon(want), (name, nb)

    check()
