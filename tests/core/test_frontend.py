"""Tests for the ASCII/JSON frontend renderers."""

import numpy as np
import pytest

from repro.core.frontend import (
    PhysicalSystemMap,
    render_histogram,
    render_table,
    render_word_bubbles,
)
from repro.titan import TitanTopology

from .conftest import HORIZON


@pytest.fixture(scope="module")
def system_map():
    return PhysicalSystemMap(TitanTopology(rows=2, cols=3))


class TestCabinetGrid:
    def test_rollup_from_nodes(self, system_map):
        counts = {"c0-0c0s0n0": 3, "c0-0c1s2n1": 2, "c2-1c0s0n0": 7}
        grid = system_map.cabinet_grid(counts)
        assert grid.shape == (2, 3)
        assert grid[0, 0] == 5
        assert grid[1, 2] == 7

    def test_out_of_topology_ignored(self, system_map):
        grid = system_map.cabinet_grid({"c7-24c0s0n0": 99})
        assert grid.sum() == 0

    def test_unknown_components_ignored(self, system_map):
        grid = system_map.cabinet_grid({"dvs01": 5})
        assert grid.sum() == 0

    def test_gemini_components_roll_up(self, system_map):
        grid = system_map.cabinet_grid({"c1-0c0s0g0": 4})
        assert grid[0, 1] == 4


class TestRendering:
    def test_render_shape(self, system_map):
        out = system_map.render({"c0-0c0s0n0": 10}, title="MCE heat map")
        lines = out.splitlines()
        assert lines[0] == "MCE heat map"
        assert sum(1 for l in lines if l.startswith("r0")) >= 1
        assert len([l for l in lines if l.startswith("r")]) == 2

    def test_render_empty(self, system_map):
        out = system_map.render({})
        assert "scale" in out

    def test_render_cabinet_drilldown(self, system_map):
        out = system_map.render_cabinet("c0-0", {"c0-0c1s3n2": 5})
        lines = out.splitlines()
        assert len([l for l in lines if l.startswith("cage")]) == 3
        assert "@" in lines[2]  # cage1 row shows the hot node

    def test_render_placement(self, system_map):
        out = system_map.render_placement({
            "LAMMPS (1)": ["c0-0c0s0n0", "c0-0c0s0n1"],
            "NAMD (2)": ["c1-0c0s0n0"],
        })
        assert "legend" in out
        assert "A=LAMMPS (1)" in out

    def test_placement_contention_star(self, system_map):
        out = system_map.render_placement({
            "A1": ["c0-0c0s0n0"],
            "B2": ["c0-0c0s0n1"],
        })
        first_row = [l for l in out.splitlines() if l.startswith("r00")][0]
        assert "*" in first_row

    def test_to_json(self, system_map):
        payload = system_map.to_json({"c0-0c0s0n0": 2})
        assert payload["rows"] == 2
        assert payload["cols"] == 3
        assert payload["grid"][0][0] == 2
        assert payload["max"] == 2.0
        import json

        json.dumps(payload)  # must be serializable


class TestHistogramRendering:
    def test_bars_scale(self):
        edges = np.array([0.0, 1.0, 2.0])
        counts = np.array([10, 5])
        out = render_histogram(edges, counts, width=10)
        lines = out.splitlines()
        assert lines[0].count("#") == 10
        assert lines[1].count("#") == 5

    def test_empty(self):
        assert render_histogram(np.array([0.0]), np.array([])) == "(no data)"

    def test_title(self):
        out = render_histogram(np.array([0.0, 1.0]), np.array([1]),
                               title="events over time")
        assert out.splitlines()[0] == "events over time"


class TestWordBubbles:
    def test_scaled_bubbles(self):
        out = render_word_bubbles([("ost0042", 100.0), ("minor", 5.0)])
        lines = out.splitlines()
        assert "ost0042" in lines[1]
        assert lines[1].count("o") > lines[2].count("o")

    def test_empty(self):
        assert render_word_bubbles([]) == "(no terms)"


class TestTable:
    def test_render_rows(self):
        rows = [{"ts": 1.0, "type": "MCE"}, {"ts": 2.0, "type": "OOM"}]
        out = render_table(rows, ["ts", "type"])
        lines = out.splitlines()
        assert "ts" in lines[0] and "type" in lines[0]
        assert len(lines) == 4  # header + sep + 2 rows

    def test_truncation_note(self):
        rows = [{"a": i} for i in range(30)]
        out = render_table(rows, ["a"], max_rows=10)
        assert "(20 more)" in out

    def test_missing_column_blank(self):
        out = render_table([{"a": 1}], ["a", "b"])
        assert out  # no KeyError

    def test_empty(self):
        assert render_table([], ["a"]) == "(no rows)"


class TestEventTypeMap:
    def test_full_catalogue_listed(self, fw):
        ctx = fw.context(0, HORIZON)
        out = fw.render_event_type_map(ctx)
        lines = out.splitlines()
        # Every catalogue entry appears, even zero-count types.
        assert len(lines) - 1 == len(fw.model.event_types())
        assert "MCE" in out and "LUSTRE_ERR" in out

    def test_sorted_busiest_first(self, fw):
        ctx = fw.context(0, HORIZON)
        out = fw.render_event_type_map(ctx)
        counts = []
        for line in out.splitlines()[1:]:
            counts.append(int(line.rsplit(" ", 1)[-1]))
        assert counts == sorted(counts, reverse=True)

    def test_ignores_type_narrowing(self, fw):
        wide = fw.context(0, HORIZON)
        narrow = wide.with_event_types("MCE")
        assert fw.render_event_type_map(narrow) == \
            fw.render_event_type_map(wide)


class TestFrameworkViews:
    def test_render_heatmap_runs(self, fw):
        ctx = fw.context(0, HORIZON, event_types=("MCE",))
        out = fw.render_heatmap(ctx, title="MCE")
        assert out.splitlines()[0] == "MCE"

    def test_render_temporal_map(self, fw):
        ctx = fw.context(0, HORIZON, event_types=("MCE",))
        out = fw.render_temporal_map(ctx, num_bins=6)
        assert out.count("\n") >= 5

    def test_render_placement_snapshot(self, fw):
        out = fw.render_placement(6 * 3600.0)
        assert "legend" in out

    def test_render_raw_log_table(self, fw):
        out = fw.render_raw_log_table(fw.context(0, 300.0), max_rows=5)
        assert "ts" in out.splitlines()[0]

    def test_render_cabinet_view(self, fw):
        ctx = fw.context(0, HORIZON, event_types=("MCE",))
        out = fw.render_cabinet(ctx, "c0-0")
        assert out.splitlines()[0].startswith("cabinet")
