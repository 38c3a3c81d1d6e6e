"""``TableSchema(clustering_order="desc")`` is the scan's default direction.

The declared order was parsed, validated and stored, then ignored: a
``desc`` table answered ascending and ``LIMIT 1`` the oldest row.  Every
form is checked against ``tests/oracle/select.py`` on an ``asc`` and a
``desc`` table, with the partition in a memtable and in a run.
"""

import pytest

from repro.cassdb import Cluster, Session, TableSchema
from tests.oracle import eval_select

ROWS = [{"k": k, "ts": float(ts), "v": ts} for k in "ab" for ts in range(3)]

# (statement tail, reversed on an asc table, reversed on a desc table, limit)
FORMS = [
    ("", False, True, None),
    (" ORDER BY ts ASC", False, False, None),
    (" ORDER BY ts DESC", True, True, None),
    (" LIMIT 1", False, True, 1),
    (" ORDER BY ts ASC LIMIT 2", False, False, 2),
    (" ORDER BY ts DESC LIMIT 2", True, True, 2),
]


@pytest.fixture(params=["asc", "desc"])
def order(request):
    return request.param


@pytest.fixture(params=[False, True], ids=["memtable", "flushed"])
def session(request, order):
    cluster = Cluster(2, replication_factor=1)
    cluster.create_table(TableSchema(
        "t", partition_key=("k",), clustering_key=("ts",),
        clustering_order=order))
    s = Session(cluster)
    cluster.insert_many("t", ROWS)
    if request.param:
        cluster.flush_all()
    yield s
    cluster.close()


class TestDeclaredClusteringOrder:
    @pytest.mark.parametrize("tail,asc_reverse,desc_reverse,limit", FORMS,
                             ids=[f[0].strip() or "default" for f in FORMS])
    def test_select_follows_the_declared_order(
            self, session, order, tail, asc_reverse, desc_reverse, limit):
        reverse = desc_reverse if order == "desc" else asc_reverse
        query = "SELECT ts FROM t WHERE k = 'a'" + tail
        assert session.execute(query) == eval_select(
            ROWS, [("k", "=", "a")], columns=["ts"], reverse=reverse,
            limit=limit)
        assert _scan(session.explain(query)["plan"])["reverse"] is reverse

    def test_the_reproduction(self, session, order):
        got = [r["ts"] for r in
               session.execute("SELECT ts FROM t WHERE k='a'")]
        newest = session.execute("SELECT ts FROM t WHERE k='a' LIMIT 1")
        if order == "desc":
            assert got == [2.0, 1.0, 0.0]
            assert newest == [{"ts": 2.0}]
        else:
            assert got == [0.0, 1.0, 2.0]
            assert newest == [{"ts": 0.0}]
        assert [r["ts"] for r in session.execute(
            "SELECT ts FROM t WHERE k='a' ORDER BY ts ASC")] == [0.0, 1.0, 2.0]

    def test_residual_predicate_keeps_the_order(self, session, order):
        assert session.execute(
            "SELECT ts FROM t WHERE k = 'a' AND v >= 1"
        ) == eval_select(ROWS, [("k", "=", "a"), ("v", ">=", 1)],
                         columns=["ts"], reverse=order == "desc")

    def test_aggregates_do_not_depend_on_it(self, session):
        assert session.execute(
            "SELECT count(*), min(ts), max(ts) FROM t WHERE k = 'b'"
        ) == eval_select(ROWS, [("k", "=", "b")],
                         aggregates=[("count", None), ("min", "ts"),
                                     ("max", "ts")])


def _scan(node):
    while node["op"] != "PartitionScan":
        (node,) = node["children"]
    return node
