"""Property-based tests for ETL invariants."""

from datetime import datetime, timezone

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.genlog.templates import EPOCH
from repro.ingest import LineParser, ParsedEvent, coalesce_events
from repro.titan import LogSource

event_lists = st.lists(
    st.builds(
        ParsedEvent,
        ts=st.floats(min_value=0.0, max_value=1000.0, allow_nan=False),
        type=st.sampled_from(["MCE", "OOM", "LUSTRE_ERR"]),
        component=st.sampled_from(["n0", "n1", "n2"]),
        source=st.just(LogSource.CONSOLE),
        amount=st.integers(1, 5),
    ),
    max_size=60,
)


class TestCoalesceProperties:
    @settings(max_examples=80, deadline=None)
    @given(events=event_lists,
           window=st.floats(min_value=0.1, max_value=100.0))
    def test_total_amount_preserved(self, events, window):
        merged = coalesce_events(events, window)
        assert sum(e.amount for e in merged) == sum(
            e.amount for e in events
        )

    @settings(max_examples=80, deadline=None)
    @given(events=event_lists,
           window=st.floats(min_value=0.1, max_value=100.0))
    def test_idempotent(self, events, window):
        once = coalesce_events(events, window)
        twice = coalesce_events(once, window)
        key = lambda e: (e.ts, e.type, e.component, e.amount)
        assert sorted(map(key, once)) == sorted(map(key, twice))

    @settings(max_examples=80, deadline=None)
    @given(events=event_lists,
           window=st.floats(min_value=0.1, max_value=100.0))
    def test_output_sorted_and_no_duplicates(self, events, window):
        merged = coalesce_events(events, window)
        keys = [(e.ts, e.type, e.component) for e in merged]
        assert keys == sorted(keys)
        group_keys = [
            (e.type, e.component, int(e.ts // window)) for e in merged
        ]
        assert len(group_keys) == len(set(group_keys))

    @settings(max_examples=80, deadline=None)
    @given(events=event_lists,
           window=st.floats(min_value=0.1, max_value=100.0))
    def test_merged_keeps_earliest_timestamp(self, events, window):
        merged = coalesce_events(events, window)
        for out in merged:
            group = [
                e for e in events
                if e.type == out.type and e.component == out.component
                and int(e.ts // window) == int(out.ts // window)
            ]
            assert out.ts == min(e.ts for e in group)

    @settings(max_examples=50, deadline=None)
    @given(events=event_lists)
    def test_order_insensitive(self, events):
        key = lambda e: (e.ts, e.type, e.component, e.amount)
        fwd = coalesce_events(events, 1.0)
        rev = coalesce_events(list(reversed(events)), 1.0)
        assert sorted(map(key, fwd)) == sorted(map(key, rev))

    @settings(max_examples=50, deadline=None)
    @given(events=event_lists)
    def test_never_grows(self, events):
        assert len(coalesce_events(events, 1.0)) <= len(events)


class TestParseTimestamp:
    @staticmethod
    def _strptime(stamp):
        """The expression parse_timestamp used before fromisoformat."""
        dt = datetime.strptime(stamp, "%Y-%m-%dT%H:%M:%S.%f").replace(
            tzinfo=timezone.utc)
        return dt.timestamp() - EPOCH

    @settings(max_examples=300, deadline=None)
    @given(when=st.datetimes(min_value=datetime(1970, 1, 1),
                             max_value=datetime(9999, 12, 31, 23, 59, 59)),
           millis=st.integers(0, 999))
    def test_bit_identical_to_strptime(self, when, millis):
        stamp = when.strftime("%Y-%m-%dT%H:%M:%S") + f".{millis:03d}"
        assert LineParser.parse_timestamp(stamp) == self._strptime(stamp)

    @pytest.mark.parametrize("stamp", [
        "2017-13-45T00:00:00.000",   # digit-valid, no such month/day
        "2017-02-30T00:00:00.000",
        "2017-03-01T00:61:00.000",
    ])
    def test_impossible_date_still_raises(self, stamp):
        with pytest.raises(ValueError):
            LineParser.parse_timestamp(stamp)
        with pytest.raises(ValueError):
            self._strptime(stamp)
