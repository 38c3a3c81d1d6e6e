"""A run is one block: an SSTable stores every partition's rows in one
:class:`ColumnBlock`, next to each other in partition-key order, and
finds a partition through ``offsets``."""

import gc

from hypothesis import given, settings
from hypothesis import strategies as st

from repro import obs
from repro.cassdb.memtable import Batch, Memtable
from repro.cassdb.row import ClusteringBound, Row, slice_bounds_keys
from repro.cassdb.sstable import SSTable, merge_sstables
from repro.cassdb.vector import (
    BlockView,
    ColumnBlock,
    column_lists,
    fold_view,
    merge_views,
)
from repro.cassdb.schema import TableSchema
from repro.core import LogAnalyticsFramework
from repro.genlog import JobGenerator, LogGenerator
from repro.titan import TitanTopology

from tests.oracle import run as run_oracle

from .test_memtable_sstable import flushed

_ABSENT = object()  # a cell the row does not have (None is a stored null)
_KEYS = [f"p{i}" for i in range(8)]
_SCHEMA = TableSchema("t", partition_key=("p",), clustering_key=("ts", "seq"))
_COLUMNS = ["kind", "msg", "amount"]
_WIDE_ROWS = 300  # > DICT_MAX_CARDINALITY distinct messages


def _partition(rnd, wide: bool) -> list[Row]:
    """One partition's sorted rows.  A row's ``kind`` is absent, null
    or one of three strings, its ``amount`` absent, null or an int, and
    its ``msg``
    absent or text — one of two words, or (*wide*) its own line, so
    the run's ``msg`` column has too many distinct values to encode."""
    if wide:
        keys = [(ts, 0) for ts in range(_WIDE_ROWS)]
    else:
        keys = sorted(rnd.sample([(ts, seq) for ts in range(12)
                                  for seq in range(2)], rnd.randint(1, 12)))
    rows = []
    for ts, seq in keys:
        cells = {
            "kind": rnd.choice([_ABSENT, None, "a", "b", "c"]),
            "amount": rnd.choice([_ABSENT, None, 0, 3, 5]),
            "msg": (f"line {ts}" if wide
                    else rnd.choice([_ABSENT, "ok", "fail"])),
        }
        values = {k: v for k, v in cells.items() if v is not _ABSENT}
        write_ts = rnd.randint(2, 9)
        mixed = "kind" in values and rnd.random() < 0.5
        rows.append(Row((ts, seq), values, write_ts,
                        cell_ts={"kind": write_ts - 1} if mixed else None))
    return rows


@st.composite
def memtables(draw):
    """``partition key -> sorted rows`` for 1–6 partitions; sometimes
    one of them is wide."""
    rnd = draw(st.randoms(use_true_random=False))
    pks = draw(st.lists(st.sampled_from(_KEYS), min_size=1, max_size=6,
                        unique=True))
    wide = draw(st.booleans())
    return {pk: _partition(rnd, wide and i == 0) for i, pk in enumerate(pks)}


@st.composite
def reads(draw, rows):
    """Random (prefix) bounds over a partition's keys, reverse, limit."""
    top = rows[-1].clustering[0] + 1

    def bound():
        key = draw(st.one_of(
            st.tuples(st.integers(-1, top)),
            st.tuples(st.integers(-1, top), st.integers(0, 1))))
        return draw(st.one_of(st.none(), st.builds(
            ClusteringBound, st.just(key), st.booleans())))

    return (bound(), bound(), draw(st.booleans()),
            draw(st.one_of(st.none(), st.integers(0, 8))))


def _oracle_bound(bound):
    return None if bound is None else (bound.key, bound.inclusive)


class TestARunAnswersLikeItsPartitions:
    """The run's slice of a partition is the slice of a block built from
    that partition's rows alone, and the reference's."""

    @settings(max_examples=60, deadline=None)
    @given(partitions=memtables(), data=st.data())
    def test_every_partition_reads_as_its_own_block(self, partitions, data):
        run = flushed(partitions)
        assert list(run.offsets) == sorted(partitions)
        assert run.block.n == sum(map(len, partitions.values()))
        for pk, rows in partitions.items():
            lower, upper, reverse, limit = data.draw(reads(rows))
            view, pruned = run.slice_partition_view(pk, lower, upper)
            alone = ColumnBlock.from_rows(rows)
            lo, hi = slice_bounds_keys(alone.clustering, lower, upper)
            mine = BlockView(alone, range(lo, hi))
            want, want_pruned = run_oracle.slice_partition(
                rows, _oracle_bound(lower), _oracle_bound(upper))
            assert view.to_rows() == mine.to_rows() == want
            assert pruned == len(rows) - (hi - lo) == want_pruned
            served = view.ordered(reverse, limit)
            assert served.to_rows() == run_oracle.read_partition(
                rows, _oracle_bound(lower), _oracle_bound(upper),
                reverse, limit)
            # The kernels read the run's columns (coded or plain for the
            # whole run) as the partition's own.
            alone_served = mine.ordered(reverse, limit)
            assert (column_lists(served, _SCHEMA, {"p": pk}, _COLUMNS)
                    == column_lists(alone_served, _SCHEMA, {"p": pk},
                                    _COLUMNS))
            for column in ("kind", "msg"):
                assert (fold_view(served, [("cell", column)], [None],
                                  ["count"], {"p": pk})
                        == fold_view(alone_served, [("cell", column)], [None],
                                     ["count"], {"p": pk}))

    @settings(max_examples=40, deadline=None)
    @given(runs=st.lists(memtables(), min_size=2, max_size=3))
    def test_compaction_is_merge_views_per_partition(self, runs):
        tables = [flushed(partitions) for partitions in runs]
        merged = merge_sstables(tables)
        keys = sorted(set().union(*runs))
        end = 0
        for pk in keys:
            want = merge_views([BlockView(t.block, range(*t.offsets[pk]))
                                for t in tables if pk in t.offsets])
            span = merged.offsets.get(pk)
            assert (span is None) == (not want)
            if span is not None:
                # Partitions sit next to each other in key order.
                assert span[0] == end
                end = span[1]
                assert BlockView(merged.block, range(*span)).to_rows() == want
        assert end == merged.block.n == len(merged)

    @settings(max_examples=30, deadline=None)
    @given(partitions=memtables(), data=st.data())
    def test_a_popped_offset_reads_as_absent(self, partitions, data):
        run = flushed(partitions)
        lost = data.draw(st.sampled_from(sorted(partitions)))
        run.offsets.pop(lost)
        assert run.slice_partition_view(lost) is None
        for pk, rows in partitions.items():
            if pk != lost:
                view, pruned = run.slice_partition_view(pk)
                assert (view.to_rows(), pruned) == (rows, 0)


def _block_builds() -> int:
    return obs.get_registry().counter("cassdb.vector.block_builds").value


def _memtable(k: int, rows: int = 10) -> Memtable:
    memtable = Memtable()
    for p in range(k):
        for ts in range(rows):
            memtable.append(Batch.of_rows([(f"pk{p}", Row((float(ts), 0),
                                                 {"v": ts, "kind": "x"}, 1))]))
    return memtable


def _quick_deploy() -> LogAnalyticsFramework:
    """A seeded small deployment, set up as the end-to-end benchmark's
    is: six hours of a two-cabinet machine's logs and jobs ingested,
    flushed everywhere, the synopsis refreshed."""
    topo = TitanTopology(rows=1, cols=2)
    events = LogGenerator(topo, seed=36, rate_multiplier=40,
                          storms_per_day=4).generate(6)
    runs = JobGenerator(topo, seed=36).generate(6)
    fw = LogAnalyticsFramework(topo, db_nodes=4,
                               replication_factor=2).setup()
    fw.ingest_events(events)
    fw.ingest_applications(runs)
    fw.cluster.flush_all()
    fw.refresh_synopsis()
    return fw


def _runs(fw) -> list[SSTable]:
    return [run for node in fw.cluster.nodes.values()
            for store in node.tables.values() for run in store.sstables]


def _eager_blocks() -> list[ColumnBlock]:
    """Every encoded (not row-backed) block alive in the heap."""
    return [o for o in gc.get_objects()
            if isinstance(o, ColumnBlock) and not o.row_backed]


# GC-tracked objects the quick deploy adds, measured on CPython 3.11:
# 1 438 with one block per run (52 416 with one block per partition).
# The bound leaves ~2x slack for interpreter versions.
DEPLOY_TRACKED_OBJECTS_MAX = 3_000


class TestARunIsOneBlock:
    def test_a_flush_builds_one_block(self):
        for k in (1, 4, 9):
            before = _block_builds()
            run = SSTable.from_memtable(_memtable(k))
            assert _block_builds() - before == 1
            assert len(run.offsets) == k and len(run) == 10 * k

    def test_compacting_three_runs_builds_one_block(self):
        runs = [SSTable.from_memtable(_memtable(k)) for k in (2, 5, 3)]
        before = _block_builds()
        merged = merge_sstables(runs)
        assert _block_builds() - before == 1
        assert len(merged.offsets) == 5

    def test_a_deploy_holds_one_block_per_run(self):
        gc.collect()
        kept = _eager_blocks()  # held, so no id is reused by a new block
        before = {id(b) for b in kept}
        fw = _quick_deploy()
        try:
            gc.collect()
            runs = _runs(fw)
            assert runs
            added = [b for b in _eager_blocks() if id(b) not in before]
            assert len(added) == len(runs)
            assert {id(b) for b in added} == {id(run.block) for run in runs}
        finally:
            fw.stop()

    def test_a_deploy_adds_few_tracked_objects(self):
        gc.collect()
        before = len(gc.get_objects())
        fw = _quick_deploy()
        try:
            gc.collect()
            added = len(gc.get_objects()) - before
            assert added <= DEPLOY_TRACKED_OBJECTS_MAX, added
        finally:
            fw.stop()
