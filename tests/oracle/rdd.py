"""Reference evaluation of the per-record RDD transformations."""


class ListRDD:
    """The narrow RDD API over one plain list (no partitions, no
    laziness): ``build(ListRDD(data)).collect()`` is what
    ``build(ctx.parallelize(data, n)).collect()`` must return."""

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

    def collect(self):
        return self.data
