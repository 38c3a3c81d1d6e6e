"""sparklet — a Spark-model in-memory DAG engine (in-process).

Implements the paper's "big data processing unit": lazy RDDs with
MapReduce-style transformations, a DAG scheduler that splits jobs into
stages at shuffle boundaries, locality-aware task placement against the
cassdb replica map, accumulators, and micro-batch stream processing
(``repro.sparklet.streaming``).

Quick use::

    from repro.sparklet import SparkletContext

    sc = SparkletContext(4)
    counts = (
        sc.parallelize(open_lines)
          .flatMap(str.split)
          .map(lambda w: (w, 1))
          .reduceByKey(lambda a, b: a + b)
          .collect()
    )
"""

from .context import SparkletContext

__all__ = [
    "SparkletContext",
]
