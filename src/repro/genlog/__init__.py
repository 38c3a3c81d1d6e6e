"""genlog — synthetic Titan log and workload generation.

Substitutes for the proprietary Titan console/netwatch/application
logs (see DESIGN.md §2): seeded spatio-temporal event generation with
hot components, Lustre storms and causal cascades, raw-line rendering
through realistic templates, and a synthetic job history.
"""

from .generator import LogGenerator
from .jobs import JobGenerator
from .templates import render_line

__all__ = [
    "JobGenerator",
    "LogGenerator",
    "render_line",
]
