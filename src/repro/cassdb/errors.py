"""Exception hierarchy for the Cassandra-model store.

The real Cassandra driver distinguishes coordinator-side failures
(``Unavailable``: not enough live replicas to even attempt the operation)
from request-time failures (``WriteTimeout`` / ``ReadTimeout``: the
operation was attempted but too few replicas responded).  We keep the same
taxonomy because the cluster tests and the S1 scalability bench exercise
both paths.
"""

from __future__ import annotations


class CassDBError(Exception):
    """Base class for all cassdb errors."""


class SchemaError(CassDBError):
    """Table/keyspace definition is invalid or violated by a statement."""


class InvalidQueryError(CassDBError):
    """A CQL statement could not be parsed or planned, or holds a value
    that does not compare with the stored ones.  ``source`` is then the
    filtered ``(kind, ref)`` column source when a filter raised it, None
    for a clustering bound."""

    source: tuple | None = None


class UnavailableError(CassDBError):
    """Not enough live replicas to satisfy the requested consistency level.

    Raised by the coordinator *before* performing any replica operation,
    mirroring Cassandra's ``UnavailableException``.
    """

    def __init__(self, required: int, alive: int):
        super().__init__(
            f"cannot achieve consistency: {required} replicas required, "
            f"{alive} alive"
        )
        self.required = required
        self.alive = alive


class WriteTimeoutError(CassDBError):
    """Fewer than the required number of replicas acknowledged a write."""

    def __init__(self, required: int, received: int):
        super().__init__(
            f"write timeout: required {required} acks, received {received}"
        )
        self.required = required
        self.received = received


class ReadTimeoutError(CassDBError):
    """Fewer than the required number of replicas answered a read."""

    def __init__(self, required: int, received: int):
        super().__init__(
            f"read timeout: required {required} responses, received {received}"
        )
        self.required = required
        self.received = received


class NodeDownError(CassDBError):
    """An operation was sent directly to a node that is marked down."""

    def __init__(self, node_id: str):
        super().__init__(f"node {node_id} is down")
        self.node_id = node_id


class BatchGroupFailure:
    """Mixin carrying which replica-set group of a ``write_batch`` failed.

    ``write_batch`` routes rows by replica set; when a group cannot meet
    its consistency level the error must say *which* group (its replica
    set, its row count) and how many rows of the batch did commit — a
    partial batch is not a silent drop.  ``applied_rows`` counts the
    rows of the groups that met their level: always 0 for an
    unavailable batch (availability is checked for every group before
    anything is applied) unless a retry follows a partly committed
    attempt.
    """

    table: str
    group: tuple[str, ...]
    group_rows: int
    applied_rows: int

    def _group_context(self, table: str, group: tuple[str, ...],
                       group_rows: int, applied_rows: int) -> str:
        self.table = table
        self.group = group
        self.group_rows = group_rows
        self.applied_rows = applied_rows
        return (f" [batch on {table!r}: group {list(group)} "
                f"({group_rows} rows) failed; {applied_rows} rows of "
                f"other groups committed]")


class BatchUnavailableError(BatchGroupFailure, UnavailableError):
    """A ``write_batch`` group had too few live replicas to attempt."""

    def __init__(self, required: int, alive: int, *, table: str,
                 group: tuple[str, ...], group_rows: int, applied_rows: int):
        UnavailableError.__init__(self, required, alive)
        self.args = (self.args[0] + self._group_context(
            table, group, group_rows, applied_rows),)


class BatchWriteTimeoutError(BatchGroupFailure, WriteTimeoutError):
    """A ``write_batch`` group got fewer acks than its consistency needs."""

    def __init__(self, required: int, received: int, *, table: str,
                 group: tuple[str, ...], group_rows: int, applied_rows: int):
        WriteTimeoutError.__init__(self, required, received)
        self.args = (self.args[0] + self._group_context(
            table, group, group_rows, applied_rows),)
