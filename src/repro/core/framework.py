"""LogAnalyticsFramework — the facade wiring the whole system together.

One object owns the paper's deployment (Fig 3): a cassdb cluster with
the eight-table model, a co-located sparklet context (one worker per DB
node), ingestion in both batch and streaming modes, the context/query
layer, the analytics, and the frontend renderers.  The analytics
server (``repro.core.server``) exposes the same capabilities over a
JSON request interface.

Typical use::

    from repro.core import LogAnalyticsFramework
    from repro.titan import TitanTopology

    fw = LogAnalyticsFramework(TitanTopology(rows=2, cols=2), db_nodes=8)
    fw.setup()
    fw.ingest_events(events)           # from genlog, or batch/stream ETL
    ctx = fw.context(0, 24 * 3600, event_types=("MCE",))
    print(fw.render_heatmap(ctx))
"""

from __future__ import annotations

import functools
from typing import Any, Iterable, Sequence

import numpy as np

from repro import obs
from repro.cassdb import Cluster, Session
from repro.genlog.jobs import ApplicationRun
from repro.ingest import IngestStats, StreamingIngestor, batch_ingest
from repro.sparklet import SparkletContext
from repro.titan.events import default_registry
from repro.titan.topology import TitanTopology

from . import analytics, correlation, mining, prediction, profiles, textmining
from .composite import CompositeEventDef, CompositeMatch, materialize_composites
from .context import Context
from .frontend import (
    PhysicalSystemMap,
    render_event_type_map,
    render_histogram,
    render_table,
    render_word_bubbles,
)
from .model import LogDataModel, event_amounts

__all__ = ["LogAnalyticsFramework"]


def _traced(fn):
    """Wrap a facade method in a ``framework.<name>`` span.

    A no-op unless a trace is active (the server starts one per
    request), so direct library use pays one ContextVar read.
    """
    span_name = f"framework.{fn.__name__}"

    @functools.wraps(fn)
    def wrapper(self, *args, **kwargs):
        with obs.get_tracer().span(span_name):
            return fn(self, *args, **kwargs)

    return wrapper


class LogAnalyticsFramework:
    """The deployed system: backend DB + engine + analytics + frontend.

    Parameters
    ----------
    topology:
        Machine being monitored (defaults to a 2×2-cabinet slice of
        Titan — full scale works but loading 19 200 nodeinfos takes a
        while in-process).
    db_nodes:
        Cassandra-model cluster size (the paper's CADES deployment used
        32 VMs).
    replication_factor:
        Replicas per row (capped at *db_nodes*).

    Reads run at consistency ONE, and sparklet places tasks by
    locality: the paper's co-located layout.
    """

    def __init__(
        self,
        topology: TitanTopology | None = None,
        *,
        db_nodes: int = 4,
        replication_factor: int = 2,
    ):
        self.topology = topology or TitanTopology(rows=2, cols=2)
        self.registry = default_registry()
        self.cluster = Cluster(
            db_nodes, replication_factor=min(replication_factor, db_nodes))
        self.model = LogDataModel(self.cluster)
        self.sc = SparkletContext(cluster=self.cluster)
        # The session gets the sparklet context so unrouted aggregate
        # queries compile to DAG jobs (the paper's query split: simple
        # queries to the store, complex ones to the big-data engine).
        self.session = Session(self.cluster, sparklet=self.sc)
        self.system_map = PhysicalSystemMap(self.topology)
        self._ready = False

    # -- lifecycle -----------------------------------------------------------

    def setup(self, load_nodeinfos: bool = True) -> "LogAnalyticsFramework":
        """Create the eight tables and load reference data."""
        self.model.create_tables()
        self.model.load_eventtypes(self.registry)
        if load_nodeinfos:
            self.model.load_nodeinfos(self.topology)
        self._ready = True
        return self

    def _check_ready(self) -> None:
        if not self._ready:
            raise RuntimeError("call setup() before using the framework")

    def stop(self) -> None:
        self.sc.stop()
        self.cluster.close()

    def __enter__(self) -> "LogAnalyticsFramework":
        return self

    def __exit__(self, *exc) -> None:
        self.stop()

    # -- ingestion ------------------------------------------------------------

    def ingest_events(self, events: Iterable) -> int:
        """Load structured events (generator output or parsed events)."""
        self._check_ready()
        return self.model.write_events(events)

    def ingest_applications(self, runs: Iterable[ApplicationRun]) -> int:
        self._check_ready()
        return self.model.write_applications(runs)

    @_traced
    def ingest_batch(self, paths: Sequence[str],
                     coalesce_seconds: float | None = 1.0) -> IngestStats:
        """Batch ETL from raw log files through the engine (§III-D)."""
        self._check_ready()
        return batch_ingest(self.sc, paths, self.model,
                            coalesce_seconds=coalesce_seconds)

    def streaming_ingestor(self, bus, topic: str) -> StreamingIngestor:
        """Attach a streaming ingest pipeline (1 s micro-batches) to a
        message bus topic."""
        self._check_ready()
        return StreamingIngestor(bus, topic, self.model, self.sc)

    def telemetry_pipeline(self, bus, *, interval_s: float = 1.0,
                           group_id: str = "telemetry-ingest",
                           profiler=None):
        """Attach the self-ingestion loop: this framework's own metrics,
        spans — and, when a :class:`~repro.obs.profile.SamplingProfiler`
        is passed, flame-table sample deltas — exported to *bus* and
        streamed back into its cluster (``metrics_by_time`` /
        ``spans_by_time`` / ``profiles_by_time``)."""
        from repro.obs.export import TelemetryPipeline

        self._check_ready()
        return TelemetryPipeline(
            bus, self.cluster, self.sc,
            interval_s=interval_s, group_id=group_id, profiler=profiler,
        )

    def attach_detection(self, ingestor: StreamingIngestor, bus):
        """Attach the anomaly-detection workload (``repro.detect``) to a
        streaming ingestor: a :class:`~repro.detect.DetectionEngine`
        subscribing to its coalesced micro-batches, publishing alerts to
        *bus*, and an alert ingestor landing them in this cluster's
        ``alerts_by_time`` table.  Returns the composed
        :class:`~repro.detect.DetectionPipeline`."""
        from repro.detect import DetectionEngine, DetectionPipeline

        self._check_ready()
        engine = DetectionEngine(
            self.topology, bus, interval=ingestor.ssc.batch_interval,
        ).attach(ingestor)
        return DetectionPipeline(engine, bus, self.cluster, self.sc)

    @_traced
    def refresh_synopsis(self) -> int:
        self._check_ready()
        return self.model.refresh_synopsis(self.session)

    # -- contexts ----------------------------------------------------------------

    def context(self, t0: float, t1: float, *,
                event_types: Sequence[str] | None = None,
                sources: Sequence[str] | None = None,
                app: str | None = None, user: str | None = None) -> Context:
        """Create the frontend's unit of interaction (§III-B)."""
        return Context(
            t0=t0, t1=t1,
            event_types=tuple(event_types) if event_types else None,
            sources=tuple(sources) if sources else None,
            app=app, user=user,
        )

    @_traced
    def events(self, context: Context) -> list[dict[str, Any]]:
        self._check_ready()
        return context.events(self.model)

    @_traced
    def runs(self, context: Context) -> list[dict[str, Any]]:
        self._check_ready()
        return context.runs(self.model)

    def raw_messages(self, context: Context) -> list[str]:
        """The retained raw messages of a context (text-mining corpus)."""
        self._check_ready()
        (messages,) = context.columns(self.model, "msg")
        return [msg for msg in messages if msg]

    # -- analytics ------------------------------------------------------------------

    @_traced
    def heatmap(self, context: Context, granularity: str = "node"
                ) -> dict[str, int]:
        self._check_ready()
        return analytics.heatmap(self.model, context, granularity)

    @_traced
    def distribution(self, context: Context, granularity: str = "cabinet"
                     ) -> list[tuple[str, int]]:
        self._check_ready()
        return analytics.distribution_by(self.model, context, granularity)

    @_traced
    def distribution_by_application(self, context: Context
                                    ) -> list[tuple[str, int]]:
        self._check_ready()
        return analytics.distribution_by_application(self.model, context)

    @_traced
    def time_histogram(self, context: Context, num_bins: int = 48):
        self._check_ready()
        return analytics.time_histogram(self.model, context, num_bins)

    @_traced
    def hotspots(self, context: Context, granularity: str = "node",
                 z_threshold: float = 4.0) -> list[analytics.Hotspot]:
        """Components with abnormally high occurrence counts (Fig 5).

        The population is the machine's components at *granularity*;
        sources outside it (Gemini routers at node granularity, any
        non-node source) take no part in the z-score."""
        self._check_ready()
        counts = self.heatmap(context, granularity)
        population = self.topology.components(granularity)
        return analytics.detect_hotspots(
            {c: n for c, n in counts.items() if c in population},
            len(population), z_threshold)

    @_traced
    def transfer_entropy(self, context: Context, source_type: str,
                         target_type: str, *, bin_seconds: float = 60.0,
                         n_shuffles: int = 200
                         ) -> correlation.TransferEntropyResult:
        """Fig 7 (top): directed coupling between two event types."""
        self._check_ready()
        return correlation.te_pair(
            self.model, context, source_type, target_type,
            bin_seconds=bin_seconds, n_shuffles=n_shuffles,
        )

    @_traced
    def cross_correlation(self, context: Context, type_a: str, type_b: str,
                          *, bin_seconds: float = 60.0, max_lag: int = 10
                          ) -> np.ndarray:
        self._check_ready()
        sa = correlation.context_series(
            self.model, context.with_event_types(type_a), bin_seconds)
        sb = correlation.context_series(
            self.model, context.with_event_types(type_b), bin_seconds)
        return correlation.cross_correlation(sa, sb, max_lag)

    @_traced
    def keywords(self, context: Context, n: int = 10,
                 use_tf_idf: bool = True) -> list[tuple[str, float]]:
        """Fig 7 (bottom): word bubbles for the context's raw messages."""
        self._check_ready()
        return textmining.storm_keywords(
            self.sc, self.raw_messages(context), n, use_tf_idf
        )

    @_traced
    def association_rules(self, context: Context, *,
                          window_seconds: float = 120.0,
                          min_support: float = 0.001,
                          min_confidence: float = 0.3
                          ) -> list[mining.Rule]:
        """Event co-occurrence rules within the context (§II-A, §V)."""
        self._check_ready()
        transactions = mining.window_baskets(
            *context.columns(self.model, "ts", "source", "type"),
            context.t0, context.t1, window_seconds)
        frequent = mining.apriori(transactions, min_support)
        return mining.association_rules(frequent, min_confidence)

    # -- §V extensions: prediction, composites, profiles -------------------------------

    @_traced
    def mine_precursors(self, context: Context, **kw
                        ) -> list[prediction.PrecursorRule]:
        """Mine (non-fatal → fatal) precursor rules from history (§IV/§V)."""
        self._check_ready()
        return prediction.mine_precursors(self.model, context, **kw)

    def build_predictor(self, training: Context, **kw
                        ) -> prediction.PrecursorPredictor:
        """Train an online failure predictor on a historical context."""
        return prediction.PrecursorPredictor(
            self.mine_precursors(training, **kw)
        )

    def evaluate_predictor(self, predictor: prediction.PrecursorPredictor,
                           evaluation: Context
                           ) -> prediction.PredictionScore:
        """Score a predictor by replaying an evaluation context."""
        self._check_ready()
        return prediction.evaluate_predictor(
            predictor, self.events(evaluation)
        )

    @_traced
    def materialize_composites(
        self, context: Context,
        definitions: Sequence[CompositeEventDef],
    ) -> list[CompositeMatch]:
        """Detect composite event sequences and write them back as
        first-class events (§V future work 1)."""
        self._check_ready()
        return materialize_composites(self.model, context, definitions,
                                      registry=self.registry)

    @_traced
    def application_profiles(self, context: Context
                             ) -> dict[str, profiles.ApplicationProfile]:
        """Per-application event-exposure profiles (§V future work 2)."""
        self._check_ready()
        return profiles.build_profiles(self.model, context)

    def score_run_against_profile(
        self, run: dict, profile: profiles.ApplicationProfile, **kw
    ) -> list[profiles.RunAnomaly]:
        self._check_ready()
        return profiles.score_run(self.model, run, profile, **kw)

    # -- frontend views ---------------------------------------------------------------

    def render_heatmap(self, context: Context, title: str = "") -> str:
        return self.system_map.render(self.heatmap(context, "node"), title)

    def render_cabinet(self, context: Context, cabinet: str) -> str:
        return self.system_map.render_cabinet(
            cabinet, self.heatmap(context, "node")
        )

    def render_placement(self, ts: float) -> str:
        """Fig 6 (bottom): the application placement snapshot at *ts*."""
        self._check_ready()
        allocations = {
            f"{r['app']} ({r['apid']})": self.model.run_nodes(r)
            for r in self.model.runs_running_at(ts)
        }
        return self.system_map.render_placement(allocations)

    def render_temporal_map(self, context: Context, num_bins: int = 24,
                            title: str = "") -> str:
        edges, counts = self.time_histogram(context, num_bins)
        return render_histogram(edges, counts, title=title)

    def render_word_bubbles(self, context: Context, n: int = 10) -> str:
        return render_word_bubbles(self.keywords(context, n))

    def render_raw_log_table(self, context: Context, max_rows: int = 20
                             ) -> str:
        rows = self.events(context)
        return render_table(rows, ["ts", "type", "source", "msg"], max_rows)

    def render_event_type_map(self, context: Context) -> str:
        """The §III-B event-types map: the catalogue with per-type
        occurrence counts over the context's interval."""
        self._check_ready()
        from collections import Counter

        # Drop any type narrowing: the map shows the whole catalogue.
        full = Context(context.t0, context.t1, sources=context.sources,
                       app=context.app, user=context.user)
        types, amounts = full.columns(self.model, "type", "amount")
        counts: Counter[str] = Counter()
        for etype, amount in zip(types, event_amounts(amounts)):
            counts[etype] += amount
        return render_event_type_map(self.model.event_types(), counts)

    # -- raw CQL escape hatch -------------------------------------------------------------

    @_traced
    def cql(self, statement: str, params: Sequence[Any] = ()
            ) -> list[dict[str, Any]]:
        """Run one CQL statement against the backend (power users)."""
        return self.session.execute(statement, params)

    def explain(self, statement: str) -> dict[str, Any]:
        """The optimized query plan as a stable JSON tree (EXPLAIN)."""
        return self.session.explain(statement)
