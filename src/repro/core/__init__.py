"""core — the paper's contribution: the HPC log analytics framework.

The eight-table data model (§II-B), the context/query layer (§III-B),
the analytics (heat maps, distributions, hot spots, transfer entropy,
text mining, association rules — §III-B/C), the frontend renderers,
the async analytics server (Fig 3), and the facade that wires it all to
the cassdb backend and the sparklet engine.
"""

from .analytics import detect_hotspots, heatmap_engine
from .composite import GPU_RETIREMENT, NODE_DEATH_SEQUENCE, detect_composites
from .correlation import binned_series, te_matrix, transfer_entropy
from .framework import LogAnalyticsFramework
from .server import AnalyticsServer
from .textmining import storm_keywords

__all__ = [
    "AnalyticsServer",
    "GPU_RETIREMENT",
    "LogAnalyticsFramework",
    "NODE_DEATH_SEQUENCE",
    "binned_series",
    "detect_composites",
    "detect_hotspots",
    "heatmap_engine",
    "storm_keywords",
    "te_matrix",
    "transfer_entropy",
]
