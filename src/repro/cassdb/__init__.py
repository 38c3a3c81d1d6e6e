"""cassdb — a Cassandra-model distributed NoSQL store (in-process).

Implements the backend of the paper's framework: a masterless
consistent-hash ring of storage nodes, each running an LSM engine
(memtable → SSTables indexed by partition offsets → compaction), with
replication, tunable consistency, hinted handoff, read repair, and a
CQL-subset query layer.

Quick use::

    from repro.cassdb import Cluster, Session, TableSchema

    cluster = Cluster(4, replication_factor=2)
    cluster.create_table(TableSchema(
        "event_by_time",
        partition_key=("hour", "type"),
        clustering_key=("ts", "seq"),
    ))
    cluster.insert("event_by_time",
                   {"hour": 1, "type": "MCE", "ts": 3600.5, "seq": 0,
                    "source": "c0-0c0s0n1", "amount": 2})
    rows = cluster.select_partition("event_by_time", (1, "MCE"))
"""

from .cluster import Cluster, Consistency
from .errors import CassDBError
from .query import Session
from .resilience import RetryPolicy
from .row import ClusteringBound
from .schema import TableSchema

__all__ = [
    "CassDBError",
    "Cluster",
    "ClusteringBound",
    "Consistency",
    "RetryPolicy",
    "Session",
    "TableSchema",
]
