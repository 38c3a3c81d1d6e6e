"""Property-based tests for core analytics invariants."""

import functools
import json
from collections import Counter

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.cassdb import Consistency
from repro.cassdb.row import columns_of
from repro.core import (
    LogAnalyticsFramework,
    binned_series,
    detect_hotspots,
    transfer_entropy,
)
from repro.core.analytics import group_key
from repro.core.context import Context
from repro.core.correlation import context_series, cross_correlation
from repro.core.frontend import render_event_type_map
from repro.core.mining import apriori, association_rules, window_baskets
from repro.core.textmining import tokenize
from repro.core.server import _jsonable
from repro.genlog.jobs import ApplicationRun
from repro.titan import TitanTopology

from tests.oracle import analytics as oracle

series = arrays(np.int64, st.integers(5, 200),
                elements=st.integers(0, 3))


class TestTransferEntropyProperties:
    @settings(max_examples=60, deadline=None)
    @given(x=series, y=series)
    def test_nonnegative(self, x, y):
        n = min(x.size, y.size)
        assert transfer_entropy(x[:n], y[:n]) >= 0.0

    @settings(max_examples=60, deadline=None)
    @given(x=series)
    def test_constant_target_zero(self, x):
        y = np.zeros_like(x)
        assert transfer_entropy(x, y) == 0.0

    @settings(max_examples=60, deadline=None)
    @given(x=series)
    def test_self_copy_no_extra_info(self, x):
        """TE(X → X) is 0: X's own history already tells everything a
        second copy of that history could."""
        assert transfer_entropy(x, x) < 1e-9


class TestBinnedSeriesProperties:
    events = st.lists(
        st.tuples(st.floats(0, 99.9, allow_nan=False), st.integers(1, 5)),
        max_size=50,
    )

    @settings(max_examples=60, deadline=None)
    @given(evs=events, width=st.floats(0.5, 50.0))
    def test_total_preserved(self, evs, width):
        rows = [{"ts": ts, "amount": a} for ts, a in evs]
        s = binned_series(rows, 0.0, 100.0, width)
        assert s.sum() == sum(a for _ts, a in evs)

    @settings(max_examples=60, deadline=None)
    @given(evs=events)
    def test_refinement_consistency(self, evs):
        """Halving the bin width must let pairs of bins sum to the
        coarse bins."""
        rows = [{"ts": ts, "amount": a} for ts, a in evs]
        coarse = binned_series(rows, 0.0, 100.0, 10.0)
        fine = binned_series(rows, 0.0, 100.0, 5.0)
        assert np.array_equal(coarse, fine.reshape(-1, 2).sum(axis=1))


class TestHotspotProperties:
    counts = st.dictionaries(
        st.text(min_size=1, max_size=6), st.integers(0, 50), max_size=30
    )

    @settings(max_examples=60, deadline=None)
    @given(counts=counts)
    def test_flagged_subset_of_input(self, counts):
        spots = detect_hotspots(counts, max(len(counts), 1) + 10)
        assert {h.component for h in spots} <= set(counts)

    @settings(max_examples=60, deadline=None)
    @given(counts=counts, extra=st.integers(500, 5000))
    def test_adding_a_spike_flags_it(self, counts, extra):
        counts = dict(counts)
        counts["__spike__"] = extra
        spots = detect_hotspots(counts, len(counts) + 10)
        assert any(h.component == "__spike__" for h in spots)

    @settings(max_examples=60, deadline=None)
    @given(counts=counts)
    def test_zscores_sorted(self, counts):
        spots = detect_hotspots(counts, max(len(counts), 1) + 5)
        zs = [h.z_score for h in spots]
        assert zs == sorted(zs, reverse=True)


class TestTokenizeProperties:
    @settings(max_examples=80, deadline=None)
    @given(text=st.text(max_size=200))
    def test_never_crashes_and_lowercase(self, text):
        tokens = tokenize(text)
        assert all(t == t.lower() for t in tokens)
        assert all(t for t in tokens)

    @settings(max_examples=80, deadline=None)
    @given(text=st.text(max_size=100))
    def test_idempotent_under_rejoin(self, text):
        tokens = tokenize(text)
        again = tokenize(" ".join(tokens))
        assert again == tokens


class TestAprioriProperties:
    transactions = st.lists(
        st.frozensets(st.sampled_from("ABCDE"), max_size=4), max_size=25
    )

    @settings(max_examples=60, deadline=None)
    @given(tx=transactions, sup=st.floats(0.05, 1.0))
    def test_supports_correct(self, tx, sup):
        frequent = apriori(tx, sup)
        for itemset, support in frequent.items():
            true_support = sum(
                1 for basket in tx if itemset <= basket
            ) / len(tx)
            assert support == true_support
            assert support >= sup

    @settings(max_examples=60, deadline=None)
    @given(tx=transactions, sup=st.floats(0.05, 1.0))
    def test_downward_closure(self, tx, sup):
        frequent = apriori(tx, sup)
        from itertools import combinations

        for itemset in frequent:
            for r in range(1, len(itemset)):
                for sub in combinations(itemset, r):
                    assert frozenset(sub) in frequent


# -- the column-reading folds against the row loops they replaced -----------

NODES = [f"c0-0c0s{blade}n{node}" for blade in (0, 1) for node in (0, 1, 2)]
TYPES = ["MCE", "OOM", "GPU_XID"]
QUARTER = 900.0
RUNS = [
    ApplicationRun(1, "appA", "u1", 1000.0, 5000.0, tuple(NODES[0:2]), "OK"),
    ApplicationRun(2, "appB", "u2", 3000.0, 9000.0, tuple(NODES[1:4]), "OK"),
    ApplicationRun(3, "appA", "u2", 7200.0, 8000.0, tuple(NODES[4:5]), "OK"),
]

# (ts, type, source, amount or None = no such cell); timestamps on the
# quarter-hour grid tie and sit on hour edges.
event_tuples = st.lists(st.tuples(
    st.one_of(st.integers(0, 12).map(lambda q: q * QUARTER),
              st.floats(0.0, 3 * 3600.0 - 1.0)),
    st.sampled_from(TYPES), st.sampled_from(NODES),
    st.one_of(st.none(), st.integers(1, 5)),
), max_size=40)


@st.composite
def contexts(draw):
    """Windows on the quarter-hour grid (a quarter of them start or end
    on an hour edge, some lie past the data) x every narrowing."""
    a = draw(st.integers(0, 14))
    b = draw(st.integers(a + 1, 16))
    subset = lambda pool: st.one_of(st.none(), st.lists(  # noqa: E731
        st.sampled_from(pool), min_size=1, max_size=3, unique=True
    ).map(tuple))
    return Context(
        a * QUARTER, b * QUARTER,
        event_types=draw(subset(TYPES + ["DRAM_UE"])),
        sources=draw(subset(NODES)),
        app=draw(st.sampled_from([None, None, "appA", "appB"])),
        user=draw(st.sampled_from([None, None, "u1", "u2"])),
    )


def _loaded_framework(tuples, layout):
    """The events written straight into both views, so that a row may
    lack its ``amount`` cell, laid out one of four ways."""
    fw = LogAnalyticsFramework(
        TitanTopology(rows=1, cols=1), db_nodes=3, replication_factor=2,
    ).setup(load_nodeinfos=False)
    cluster = fw.cluster
    fw.ingest_applications(RUNS)
    rows = []
    for seq, (ts, etype, source, amount) in enumerate(tuples):
        row = {"hour": int(ts // 3600), "type": etype, "source": source,
               "ts": ts, "seq": seq, "msg": f"{etype} on {source} #{seq}"}
        if amount is not None:
            row["amount"] = amount
        rows.append(row)
    views = ("event_by_time", "event_by_location")
    half = len(rows) // 2 if layout in ("half-flushed", "quorum") else 0
    for table in views:
        cluster.write_batch(table, columns_of(rows[:half]))
    if half:
        cluster.flush_all()
    for table in views:
        cluster.write_batch(table, columns_of(rows[half:]))
    if layout == "flushed":
        cluster.flush_all()
    if layout == "quorum":
        for read in ("select_partition", "aggregate_partitions"):
            setattr(cluster, read, functools.partial(
                getattr(cluster, read), consistency=Consistency.QUORUM))
    return fw, rows


def _in_context(rows, ctx, model):
    """The events *ctx* selects, by a plain filter over what was
    written (run resolution is not what is under test)."""
    t0, t1, sources = ctx.t0, ctx.t1, ctx.sources
    if ctx.app is not None or ctx.user is not None:
        runs = ctx.runs(model)
        nodes = {n for run in runs for n in model.run_nodes(run)}
        sources = nodes & set(sources) if sources else nodes
        t0 = max(t0, min((r["start"] for r in runs), default=t1))
        t1 = min(t1, max((r["end"] for r in runs), default=t0))
    return [r for r in rows
            if t0 <= r["ts"] < t1
            and (ctx.event_types is None or r["type"] in ctx.event_types)
            and (sources is None or r["source"] in sources)]


class TestFoldsMatchTheRowLoops:
    @settings(max_examples=50, deadline=None)
    @given(tuples=event_tuples, ctx=contexts(),
           layout=st.sampled_from(
               ["unflushed", "flushed", "half-flushed", "quorum"]),
           bins=st.integers(1, 7))
    def test_every_fold_equals_its_oracle(self, tuples, ctx, layout, bins):
        fw, written = _loaded_framework(tuples, layout)
        with fw:
            model = fw.model
            rows = ctx.events(model)
            # The row read itself: the right events, in contract order.
            cells = ("ts", "seq", "type", "source", "amount", "msg")
            canon = lambda rs: sorted(  # noqa: E731
                ([r.get(c) for c in cells] for r in rs),
                key=lambda r: r[:2])
            assert canon(rows) == canon(_in_context(written, ctx, model))
            order = [(r["ts"], r["type"], r["source"]) for r in rows]
            assert order == sorted(order)

            for granularity in ("node", "blade", "cabinet"):
                want = oracle.heatmap(
                    rows, lambda s, g=granularity: group_key(s, g))
                assert fw.heatmap(ctx, granularity) == want
                assert fw.distribution(ctx, granularity) == sorted(
                    want.items(), key=lambda kv: (-kv[1], kv[0]))
            # (equal z-scores rank in heat-map key order, which is not
            # part of either contract)
            ranked = lambda spots: sorted(  # noqa: E731
                spots, key=lambda h: (-h.z_score, h.component))
            assert ranked(fw.hotspots(ctx, z_threshold=0.5)) == ranked(
                detect_hotspots(oracle.heatmap(rows),
                                fw.topology.num_nodes, 0.5))

            edges, counts = fw.time_histogram(ctx, bins)
            want = oracle.time_histogram(rows, ctx.t0, ctx.t1, bins)
            assert counts.dtype == want.dtype
            assert np.array_equal(counts, want)
            assert len(edges) == bins + 1

            assert fw.distribution_by_application(ctx) == \
                oracle.distribution_by_application(rows, [
                    (r["start"], r["end"], r["app"], model.run_nodes(r))
                    for r in model.runs_in_interval(ctx.t0, ctx.t1)])

            series = context_series(model, ctx, 300.0)
            want = oracle.binned_series(rows, ctx.t0, ctx.t1, 300.0)
            assert series.dtype == want.dtype
            assert np.array_equal(series, want)
            sa, sb = (oracle.binned_series(
                ctx.with_event_types(t).events(model), ctx.t0, ctx.t1, 300.0)
                for t in ("MCE", "OOM"))
            assert np.allclose(
                fw.cross_correlation(ctx, "MCE", "OOM", bin_seconds=300.0,
                                     max_lag=1),
                cross_correlation(sa, sb, 1), rtol=0, atol=1e-12)
            te = fw.transfer_entropy(ctx, "MCE", "OOM", bin_seconds=300.0,
                                     n_shuffles=3)
            assert abs(te.te_forward - transfer_entropy(sa, sb)) <= 1e-12
            assert abs(te.te_reverse - transfer_entropy(sb, sa)) <= 1e-12

            assert sorted(fw.raw_messages(ctx)) == sorted(
                r["msg"] for r in rows)

            want_rules = association_rules(apriori(window_baskets(
                [r["ts"] for r in rows], [r["source"] for r in rows],
                [r["type"] for r in rows], ctx.t0, ctx.t1, 600.0), 0.05), 0.3)
            got_rules = fw.association_rules(
                ctx, window_seconds=600.0, min_support=0.05)
            as_map = lambda rules: {  # noqa: E731
                (r.antecedent, r.consequent):
                    (r.support, r.confidence, r.lift) for r in rules}
            assert as_map(got_rules) == as_map(want_rules)

            full = Context(ctx.t0, ctx.t1, sources=ctx.sources,
                           app=ctx.app, user=ctx.user)
            type_counts = Counter()
            for r in full.events(model):
                type_counts[r["type"]] += int(r.get("amount", 1))
            assert fw.render_event_type_map(ctx) == render_event_type_map(
                model.event_types(), type_counts)


# -- the server's JSON shaping -----------------------------------------------

def _jsonable_reference(value):
    """The cell-by-cell walk ``_jsonable`` was before it learned to hand
    plain containers back untouched."""
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, (np.floating,)):
        return float(value)
    if isinstance(value, dict):
        return {str(k): _jsonable_reference(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable_reference(v) for v in value]
    if isinstance(value, frozenset):
        return sorted(value)
    return value


plain_scalars = st.one_of(
    st.none(), st.booleans(), st.integers(-5, 5), st.text(max_size=3),
    st.floats(allow_nan=False, allow_infinity=False, width=32))
numpy_values = st.one_of(
    st.integers(-5, 5).map(np.int64),
    st.floats(-5, 5).map(np.float64),    # a float subclass
    st.floats(-5, 5, width=32).map(np.float32),
    st.lists(st.integers(-5, 5), max_size=4).map(np.array),
    st.lists(st.floats(-5, 5), max_size=4).map(
        lambda xs: np.array(xs, dtype=float)),
)
keys = st.one_of(st.text(max_size=3), st.integers(0, 3))


def _nest(children):
    return st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=3).map(tuple),
        st.dictionaries(keys, children, max_size=4),
        st.dictionaries(st.text(max_size=3), children, max_size=4),
        st.frozensets(st.text(max_size=3), max_size=3),
    )


class TestJsonableProperties:
    @settings(max_examples=300, deadline=None)
    @given(st.recursive(st.one_of(plain_scalars, numpy_values), _nest,
                        max_leaves=12))
    def test_same_json_as_the_cell_walk(self, value):
        assert json.dumps(_jsonable(value)) == json.dumps(
            _jsonable_reference(value))

    @settings(max_examples=100, deadline=None)
    @given(st.recursive(
        plain_scalars,
        lambda kids: st.one_of(
            st.lists(kids, max_size=4),
            st.dictionaries(st.text(max_size=3), kids, max_size=4)),
        max_leaves=12))
    def test_plain_values_come_back_as_themselves(self, value):
        assert _jsonable(value) is value

    def test_row_dicts_are_not_copied(self):
        rows = [{"ts": 1.5, "seq": i, "type": "MCE", "msg": None,
                 "ok": True} for i in range(200)]
        assert _jsonable(rows) is rows
        rows[117]["amount"] = np.int64(3)       # one numpy cell anywhere
        shaped = _jsonable(rows)
        assert shaped is not rows and type(shaped[117]["amount"]) is int
        assert shaped == rows

    def test_float_subclasses_are_still_converted(self):
        shaped = _jsonable({"score": np.float64(0.5), "n": True})
        assert type(shaped["score"]) is float and shaped["n"] is True
