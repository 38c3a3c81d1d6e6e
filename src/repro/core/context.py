"""Contexts: the frontend's unit of interaction (paper §III-B).

"Users interact with the framework by creating a context.  A context is
selected on the basis of event type, application, location, user, time
period, or a combination of these, over which the system status is
defined and examined."

A :class:`Context` is a declarative filter.  It is resolved against a
:class:`~repro.core.model.LogDataModel` once — the cheapest access
path the data model offers (type-partitioned or location-partitioned
read), the clustering window, and the rest as a predicate the store
evaluates — exactly what the paper's query engine does when
translating frontend JSON into CQL.  The resolution is read in one of
two shapes: :meth:`Context.events`, whole events in time order, and
:meth:`Context.columns`, only the named columns, for the folds that
look at two of them and do not care about order.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from operator import itemgetter
from typing import Any, TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover
    from .model import LogDataModel

__all__ = ["Context"]


@dataclass(frozen=True)
class Context:
    """A spatio-temporal selection of system state.

    ``t0``/``t1`` bound the time period (seconds); the remaining fields
    narrow by event type(s), component(s), application or user.  All
    narrowing fields are optional; ``None`` means "any".
    """

    t0: float
    t1: float
    event_types: tuple[str, ...] | None = None
    sources: tuple[str, ...] | None = None
    app: str | None = None
    user: str | None = None

    def __post_init__(self):
        if self.t1 <= self.t0:
            raise ValueError("context requires t1 > t0")

    # -- refinement (the frontend's repeated sub-interval selection) -------

    def narrow_time(self, t0: float, t1: float) -> "Context":
        """Zoom into a sub-interval (must lie within this context)."""
        if t0 < self.t0 or t1 > self.t1:
            raise ValueError("narrowed interval must nest inside the context")
        return replace(self, t0=t0, t1=t1)

    def with_event_types(self, *types: str) -> "Context":
        return replace(self, event_types=tuple(types) or None)

    def with_sources(self, *sources: str) -> "Context":
        return replace(self, sources=tuple(sources) or None)

    def with_app(self, app: str) -> "Context":
        return replace(self, app=app)

    def with_user(self, user: str) -> "Context":
        return replace(self, user=user)

    @property
    def duration(self) -> float:
        return self.t1 - self.t0

    def to_json(self) -> dict[str, Any]:
        """The wire form the frontend sends (JSON-serializable)."""
        return {
            "t0": self.t0,
            "t1": self.t1,
            "event_types": list(self.event_types) if self.event_types else None,
            "sources": list(self.sources) if self.sources else None,
            "app": self.app,
            "user": self.user,
        }

    @classmethod
    def from_json(cls, payload: dict[str, Any]) -> "Context":
        """``t0``/``t1`` are numbers; ``event_types``/``sources`` are
        lists of strings (``[]``/null: "any"); ``app``/``user`` are
        strings or null.  Anything else is a typed error — a bare string
        is not one name per character, and a list or an object is not a
        name."""
        bounds = {}
        for field in ("t0", "t1"):
            value = payload.get(field)
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                raise ValueError(f"context requires a numeric '{field}'")
            bounds[field] = float(value)
        names = {}
        for field in ("event_types", "sources"):
            value = payload.get(field)
            if value is not None and type(value) is not list:
                raise ValueError(f"context '{field}' must be a list")
            if value and not all(isinstance(v, str) for v in value):
                raise ValueError(
                    f"context '{field}' must be a list of strings")
            names[field] = tuple(value) if value else None
        for field in ("app", "user"):
            value = payload.get(field)
            if value is not None and not isinstance(value, str):
                raise ValueError(f"context '{field}' must be a string")
            names[field] = value
        return cls(**bounds, **names)

    # -- resolution against the data model --------------------------------------

    def _resolve(self, model: "LogDataModel"
                 ) -> tuple[str, tuple[str, ...], float, float,
                            list[tuple[str, str, Any]] | None] | None:
        """How the data model answers this context, decided once for
        both read shapes: ``(view, keys, t0, t1, where)`` — the event
        view to read, the partitions of it (its key after the hour),
        the clustering window, and the dimension the partitioning does
        not cover as a store predicate.  ``None`` when an app/user
        scope leaves nothing to read.

        * few sources, any types  → ``event_by_location`` partitions;
        * few types               → ``event_by_time`` partitions;
        * app/user set            → restrict to the app's nodes & window;
        * unconstrained           → every type in the catalogue.
        """
        app_nodes, app_window = self._application_scope(model)
        sources = self.sources
        if app_nodes is not None:
            sources = tuple(sorted(
                set(sources) & app_nodes if sources else app_nodes
            ))
        t0, t1 = self.t0, self.t1
        if app_window is not None:
            t0, t1 = max(t0, app_window[0]), min(t1, app_window[1])
            if t1 <= t0:
                return None
        types = self.event_types
        if sources is not None and (
            types is None or len(sources) <= len(types)
        ):
            where = (None if types is None
                     else [("type", "in", frozenset(types))])
            return "event_by_location", sources, t0, t1, where
        if types is None:
            types = tuple(t["name"] for t in model.event_types())
        where = (None if sources is None
                 else [("source", "in", frozenset(sources))])
        return "event_by_time", types, t0, t1, where

    def events(self, model: "LogDataModel") -> list[dict[str, Any]]:
        """Materialize the context's events (every column), sorted by
        ``(ts, type, source)``."""
        plan = self._resolve(model)
        if plan is None:
            return []
        view, keys, t0, t1, where = plan
        read = (model.events_at_location if view == "event_by_location"
                else model.events_of_type)
        rows: list[dict[str, Any]] = []
        for key in keys:
            rows.extend(read(key, t0, t1, where))
        rows.sort(key=itemgetter("ts", "type", "source"))
        return rows

    def columns(self, model: "LogDataModel", *names: str) -> list[list]:
        """The named columns of the context's events, for folds that do
        not depend on event order: one value list per name, aligned
        with each other (``None`` where an event lacks the cell), in
        store order — partition after partition, not time order.  No
        row is built."""
        out: list[list] = [[] for _ in names]
        plan = self._resolve(model)
        if plan is not None:
            view, keys, t0, t1, where = plan
            for key in keys:
                for chunk in model.event_columns(view, key, t0, t1, names,
                                                 where):
                    for column, part in zip(out, chunk):
                        column += part
        return out

    def runs(self, model: "LogDataModel") -> list[dict[str, Any]]:
        """Materialize the context's application runs."""
        if self.user is not None:
            rows = model.runs_of_user(self.user)
            rows = [r for r in rows if r["start"] < self.t1
                    and r["end"] > self.t0]
        else:
            rows = model.runs_in_interval(self.t0, self.t1)
        if self.app is not None:
            rows = [r for r in rows if r["app"] == self.app]
        if self.user is not None:
            rows = [r for r in rows if r["user"] == self.user]
        if self.sources is not None:
            wanted = set(self.sources)
            rows = [
                r for r in rows
                if wanted & set(model.run_nodes(r))
            ]
        rows.sort(key=lambda r: (r["start"], r["apid"]))
        return rows

    # -- internals ------------------------------------------------------------------

    def _application_scope(self, model: "LogDataModel"
                           ) -> tuple[set[str] | None,
                                      tuple[float, float] | None]:
        """If the context names an app or user, the union of node sets
        and the tight time envelope of the matching runs."""
        if self.app is None and self.user is None:
            return None, None
        runs = self.runs(model)
        if not runs:
            return set(), (self.t0, self.t0)  # empty scope
        nodes: set[str] = set()
        lo, hi = float("inf"), float("-inf")
        for run in runs:
            nodes.update(model.run_nodes(run))
            lo, hi = min(lo, run["start"]), max(hi, run["end"])
        return nodes, (lo, hi)
