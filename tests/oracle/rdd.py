"""Reference evaluation of the RDD transformations the engine keeps."""


class ListRDD:
    """The RDD API over one plain list (no partitions, no laziness, no
    shuffle).  For a lineage of per-record transformations
    ``build(ListRDD(data)).collect()`` is what
    ``build(ctx.parallelize(data, n)).collect()`` must return; once a
    keyed operator is in the lineage the engine's record order (and the
    order inside a ``groupByKey`` list) depends on partitioning, so the
    two agree as multisets."""

    def __init__(self, data):
        self.data = list(data)

    def map(self, f):
        return ListRDD(f(x) for x in self.data)

    def filter(self, f):
        return ListRDD(x for x in self.data if f(x))

    def flatMap(self, f):
        return ListRDD(y for x in self.data for y in f(x))

    def keyBy(self, f):
        return ListRDD((f(x), x) for x in self.data)

    def keys(self):
        return ListRDD(k for k, _v in self.data)

    def values(self):
        return ListRDD(v for _k, v in self.data)

    def mapValues(self, f):
        return ListRDD((k, f(v)) for k, v in self.data)

    def flatMapValues(self, f):
        return ListRDD((k, w) for k, v in self.data for w in f(v))

    def union(self, other):
        return ListRDD(self.data + other.data)

    def groupByKey(self):
        groups = {}
        for k, v in self.data:
            groups.setdefault(k, []).append(v)
        return ListRDD(groups.items())

    def reduceByKey(self, f):
        merged = {}
        for k, v in self.data:
            merged[k] = f(merged[k], v) if k in merged else v
        return ListRDD(merged.items())

    def distinct(self):
        return ListRDD(dict.fromkeys(self.data))

    def join(self, other):
        return ListRDD((k, (v, w)) for k, v in self.data
                       for k2, w in other.data if k == k2)

    def collect(self):
        return self.data

    def count(self):
        return len(self.data)

    def take(self, n):
        return self.data[:max(n, 0)]
