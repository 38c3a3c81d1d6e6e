"""titan — the machine model: physical topology and event catalogue.

Provides the Titan coordinate system (cabinets in a 25×8 grid, cages,
blades, node pairs on Gemini routers; Cray cnames) and the registry of
monitored event types, both per paper §II-B.
"""

from .events import LogSource
from .topology import TOTAL_NODES, NodeLocation, TitanTopology

__all__ = [
    "LogSource",
    "NodeLocation",
    "TOTAL_NODES",
    "TitanTopology",
]
