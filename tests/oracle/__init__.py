"""Tiny executable reference models the engine tests compare against.

Plain Python over lists and dicts — nothing here imports ``repro``, so a
bug in the store, the query engine or the DAG engine cannot hide in the
reference too.
"""

from .rdd import ListRDD
from .select import eval_select

__all__ = ["ListRDD", "eval_select"]
