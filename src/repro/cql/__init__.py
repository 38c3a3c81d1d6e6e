"""repro.cql — the CQL query engine.

The paper's analytics server "translates data query requests received
from the frontend and relays them to the backend database server in the
form of Cassandra Query Language (CQL) queries" (§III), routing simple
queries straight to the database and complex ones to the big-data
engine.  This package is that translation layer grown into a real
engine, modeled on the Opteryx pipeline:

    statement text
        │  tokenize                 (lexer.py — positions survive)
        ▼
    token stream
        │  recursive-descent parse  (parser.py)
        ▼
    typed AST                       (ast.py — SELECT/EXPLAIN)
        │  lower against schema
        ▼
    logical plan                    (logical.py)
        │  rule passes              (optimizer.py — predicate/projection/
        ▼                            limit pushdown, partition routing,
    optimized logical plan           partial-aggregate pushdown)
        │  compile                  (physical.py)
        ▼
    physical operator DAG — executes against cassdb directly, or as a
    sparklet job for full-table aggregations (engine.py)

``EXPLAIN <stmt>`` returns the optimized plan as a stable JSON tree;
:func:`render_plan_text` pretty-prints it for the CLI.

CQL is a read language here, as in the paper: the server turns frontend
queries into reads, and ingest writes straight to the store.  Tables are
declared as :class:`~repro.cassdb.schema.TableSchema` values and written
through the :class:`~repro.cassdb.cluster.Cluster` API.
"""

# Load the storage layer first: repro.cassdb.query imports this
# package's submodules, so cassdb (and with it those submodules) must
# finish initializing before the re-exports below resolve — regardless
# of whether the application imported repro.cql or repro.cassdb first.
import repro.cassdb  # noqa: F401  (import-order anchor, see above)

from .engine import render_plan_text
from .errors import CQLError
from .lexer import normalize_cql

__all__ = [
    "CQLError",
    "normalize_cql",
    "render_plan_text",
]
