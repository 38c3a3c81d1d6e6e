"""core — the paper's contribution: the HPC log analytics framework.

The eight-table data model (§II-B), the context/query layer (§III-B),
the analytics (heat maps, distributions, hot spots, transfer entropy,
text mining, association rules — §III-B/C), the frontend renderers,
the async analytics server (Fig 3), and the facade that wires it all to
the cassdb backend and the sparklet engine.
"""

from .analytics import (
    Hotspot,
    detect_hotspots,
    distribution_by,
    distribution_by_application,
    group_key,
    heatmap,
    heatmap_engine,
    time_histogram,
)
from .composite import (
    GPU_RETIREMENT,
    NODE_DEATH_SEQUENCE,
    CompositeEventDef,
    CompositeMatch,
    detect_composites,
    materialize_composites,
)
from .context import Context
from .correlation import (
    TransferEntropyResult,
    binned_series,
    cross_correlation,
    te_matrix,
    te_pair,
    te_significance,
    transfer_entropy,
)
from .framework import LogAnalyticsFramework
from .frontend import (
    PhysicalSystemMap,
    render_event_type_map,
    render_histogram,
    render_table,
    render_word_bubbles,
)
from .mining import Rule, apriori, association_rules
from .model import TABLE_SCHEMAS, LogDataModel
from .prediction import (
    PrecursorPredictor,
    PrecursorRule,
    PredictionScore,
    evaluate_predictor,
    mine_precursors,
)
from .profiles import (
    ApplicationProfile,
    RunAnomaly,
    build_profiles,
    score_run,
)
from .result_cache import ResultCache
from .server import AnalyticsServer
from .textmining import storm_keywords, tokenize, top_terms

__all__ = [
    "AnalyticsServer",
    "ResultCache",
    "ApplicationProfile",
    "CompositeEventDef",
    "CompositeMatch",
    "Context",
    "GPU_RETIREMENT",
    "NODE_DEATH_SEQUENCE",
    "PrecursorPredictor",
    "PrecursorRule",
    "PredictionScore",
    "RunAnomaly",
    "Hotspot",
    "LogAnalyticsFramework",
    "LogDataModel",
    "PhysicalSystemMap",
    "Rule",
    "TABLE_SCHEMAS",
    "TransferEntropyResult",
    "apriori",
    "association_rules",
    "binned_series",
    "build_profiles",
    "cross_correlation",
    "detect_composites",
    "detect_hotspots",
    "evaluate_predictor",
    "materialize_composites",
    "mine_precursors",
    "score_run",
    "distribution_by",
    "distribution_by_application",
    "group_key",
    "heatmap",
    "heatmap_engine",
    "render_event_type_map",
    "render_histogram",
    "render_table",
    "render_word_bubbles",
    "storm_keywords",
    "te_matrix",
    "te_pair",
    "te_significance",
    "time_histogram",
    "tokenize",
    "top_terms",
    "transfer_entropy",
]
