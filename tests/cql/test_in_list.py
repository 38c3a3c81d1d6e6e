"""``IN`` is set membership: a key written twice names its partition once.

A duplicate in an ``IN`` list read its partition twice — ``count(*)``
answered double, ``SELECT`` every row twice — so a frontend writing
``hour IN (⌊t0/3600⌋, ⌊t1/3600⌋)`` for a window inside one hour
double-counted its heat map.  Every form is checked against
``tests/oracle/select.py``, with duplicates written as literals and
bound as parameters, the partitions in a memtable and in a run.
"""

import pytest

from repro.cassdb import Cluster, Session, TableSchema
from tests.oracle import eval_select

from .test_clustering_order import _scan

ROWS = [{"a": a, "b": b, "ts": float(ts), "v": ts + a}
        for a in (1, 2) for b in "xy" for ts in range(3)]

# (a values, b values) as written; partitions are read in the order the
# distinct (a, b) pairs first occur in the cartesian product.
IN_LISTS = [
    ((1, 1), ("x",)),
    ((1, 1, 2), ("x",)),
    ((2, 1, 2, 1), ("y", "y")),
    ((1, 2), ("y", "x", "y")),
    ((2, 2, 2), ("x", "x")),
]

# (select list, tail, oracle keywords)
FORMS = [
    ("a, b, ts, v", "", {"columns": ["a", "b", "ts", "v"]}),
    ("ts", " LIMIT 4", {"columns": ["ts"], "limit": 4}),
    ("count(*), sum(v)", "",
     {"aggregates": [("count", None), ("sum", "v")]}),
    ("a, b, count(*), max(v)", " GROUP BY a, b",
     {"group_by": ["a", "b"],
      "aggregates": [("count", None), ("max", "v")]}),
]


@pytest.fixture(params=[False, True], ids=["memtable", "flushed"])
def session(request):
    cluster = Cluster(3, replication_factor=1)
    cluster.create_table(TableSchema(
        "t", partition_key=("a", "b"), clustering_key=("ts",),
        key_codecs=(("a", int),)))
    s = Session(cluster)
    cluster.insert_many("t", ROWS)
    if request.param:
        cluster.flush_all()
    yield s
    cluster.close()


def _in_order(a_values, b_values):
    """ROWS as a SELECT over the two IN lists answers them."""
    pairs = dict.fromkeys((a, b) for a in a_values for b in b_values)
    return [r for pair in pairs for r in ROWS if (r["a"], r["b"]) == pair]


class TestInIsASet:
    @pytest.mark.parametrize("bound", [False, True],
                             ids=["literal", "bound"])
    @pytest.mark.parametrize("select, tail, oracle", FORMS,
                             ids=["rows", "limit", "count", "group_by"])
    @pytest.mark.parametrize("a_values, b_values", IN_LISTS)
    def test_duplicates_match_the_oracle(
            self, session, a_values, b_values, select, tail, oracle, bound):
        if bound:
            a_list = ", ".join("?" * len(a_values))
            b_list = ", ".join("?" * len(b_values))
            params = (*a_values, *b_values)
        else:
            a_list = ", ".join(map(str, a_values))
            b_list = ", ".join(f"'{b}'" for b in b_values)
            params = ()
        query = (f"SELECT {select} FROM t WHERE a IN ({a_list})"
                 f" AND b IN ({b_list}){tail}")
        assert session.execute(query, params) == eval_select(
            _in_order(a_values, b_values), **oracle)

    def test_the_reproduction(self, session):
        cluster = session.cluster
        cluster.create_table(TableSchema(
            "u", partition_key=("k",), clustering_key=("ts",),
            key_codecs=(("k", int),)))
        cluster.insert_many(
            "u", [{"k": 1, "ts": float(ts), "v": ts} for ts in range(3)])
        assert session.execute(
            "SELECT count(*) FROM u WHERE k IN (?, ?)", (1, 1)
        ) == [{"count": 3}]
        assert session.execute("SELECT ts FROM u WHERE k IN (1, 1)") == [
            {"ts": 0.0}, {"ts": 1.0}, {"ts": 2.0}]
        cluster.insert("u", {"k": 2, "ts": 0.0, "v": 0})
        assert session.execute(
            "SELECT count(*), sum(v) FROM u WHERE k IN (1, 1, 2)"
        ) == [{"count": 4, "sum_v": 3}]

    def test_explain_renders_the_list_as_written(self, session):
        plan = session.explain("SELECT ts FROM t WHERE a IN (1, 1)"
                               " AND b = 'x'")["plan"]
        assert _scan(plan)["partition_key"] == ["a IN (1, 1)", "b = 'x'"]
