"""bus — a Kafka-model message bus (in-process).

Topics with partitioned offset logs, each retained from the slowest
subscribed group's committed offset; keyed publishing; consumer groups
with rebalancing and committed offsets.  Offsets are absolute, and a
group that arrives after a truncation starts at the log start.  Stands
in for the OLCF's Kafka/OpenShift deployment in the paper's
streaming-ingest path (§III-D).
"""

from .broker import MessageBus
from .consumer import ConsumerGroup
from .producer import Producer

__all__ = [
    "ConsumerGroup",
    "MessageBus",
    "Producer",
]
