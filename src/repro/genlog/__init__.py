"""genlog — synthetic Titan log and workload generation.

Substitutes for the proprietary Titan console/netwatch/application
logs (see DESIGN.md §2): seeded spatio-temporal event generation with
hot components, Lustre storms and causal cascades, raw-line rendering
through realistic templates, and a synthetic job history.
"""

from .generator import GeneratedEvent, GroundTruth, LogGenerator, StormInfo
from .jobs import ApplicationRun, JobGenerator
from .processes import hotspot_weights, poisson_arrivals, weibull_arrivals
from .templates import EPOCH, iso_ts, render_line

__all__ = [
    "ApplicationRun",
    "EPOCH",
    "GeneratedEvent",
    "GroundTruth",
    "JobGenerator",
    "LogGenerator",
    "StormInfo",
    "hotspot_weights",
    "iso_ts",
    "poisson_arrivals",
    "render_line",
    "weibull_arrivals",
]
