"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import main


@pytest.fixture(scope="module")
def log_dir(tmp_path_factory):
    directory = tmp_path_factory.mktemp("clilogs")
    rc = main([
        "generate", "--rows", "1", "--cols", "1", "--hours", "4",
        "--rate-multiplier", "50", "--seed", "5", "--jobs",
        "--out", str(directory),
    ])
    assert rc == 0
    return directory


class TestGenerate:
    def test_files_written(self, log_dir):
        names = {p.name for p in log_dir.iterdir()}
        assert {"console.log", "netwatch.log", "apps.log",
                "ground_truth.json", "jobs.json"} <= names

    def test_ground_truth_valid_json(self, log_dir):
        truth = json.loads((log_dir / "ground_truth.json").read_text())
        assert "hot_nodes" in truth
        assert "MCE" in truth["hot_nodes"]

    def test_jobs_valid_json(self, log_dir):
        jobs = json.loads((log_dir / "jobs.json").read_text())
        assert jobs
        assert {"apid", "app", "user", "start", "end",
                "nodes", "exit_status"} <= set(jobs[0])

    def test_deterministic(self, tmp_path):
        for sub in ("a", "b"):
            main(["generate", "--rows", "1", "--cols", "1", "--hours", "2",
                  "--seed", "9", "--out", str(tmp_path / sub)])
        a = (tmp_path / "a" / "console.log").read_text()
        b = (tmp_path / "b" / "console.log").read_text()
        assert a == b


class TestIngest:
    def test_ingest_reports_health(self, log_dir, capsys):
        rc = main([
            "ingest", "--rows", "1", "--cols", "1",
            str(log_dir / "*.log"),
        ])
        out = capsys.readouterr().out
        assert rc == 0
        assert "unparsed:  0" in out
        lines = int(out.split("lines:")[1].split()[0])
        assert lines > 0

    def test_ingest_flags_garbage(self, tmp_path, capsys):
        bad = tmp_path / "bad.log"
        bad.write_text("this is not a log line\n")
        rc = main(["ingest", "--rows", "1", "--cols", "1", str(bad)])
        assert rc == 1


class TestMissingLogFile:
    """A log name that matches no file is one line on stderr and exit
    status 2, before anything is deployed — not a traceback."""

    @pytest.mark.parametrize("command", [
        ["ingest"], ["analyze", "--view", "heatmap"], ["metrics"]])
    def test_one_line_and_exit_2(self, log_dir, tmp_path, capsys, command):
        missing = str(tmp_path / "nope" / "x.log")
        rc = main([*command, "--rows", "1", "--cols", "1",
                   str(log_dir / "console.log"), missing])
        captured = capsys.readouterr()
        assert rc == 2
        assert captured.out == ""
        assert captured.err == f"{missing}: no such log file\n"

    def test_a_glob_matching_nothing(self, tmp_path, capsys):
        pattern = str(tmp_path / "*.log")
        rc = main(["ingest", "--rows", "1", "--cols", "1", pattern])
        assert rc == 2
        assert capsys.readouterr().err == f"{pattern}: no such log file\n"


class TestAnalyze:
    def test_heatmap_text(self, log_dir, capsys):
        rc = main([
            "analyze", "--rows", "1", "--cols", "1",
            "--view", "heatmap", "--event-type", "MCE",
            str(log_dir / "*.log"),
        ])
        out = capsys.readouterr().out
        assert rc == 0
        assert "MCE heat map" in out

    def test_hotspots_json_matches_ground_truth(self, log_dir, capsys):
        rc = main([
            "analyze", "--rows", "1", "--cols", "1",
            "--view", "hotspots", "--event-type", "MCE", "--json",
            str(log_dir / "*.log"),
        ])
        out = capsys.readouterr().out
        assert rc == 0
        spots = json.loads(out)
        truth = json.loads((log_dir / "ground_truth.json").read_text())
        flagged = {s["component"] for s in spots}
        assert set(truth["hot_nodes"]["MCE"]) <= flagged

    def test_temporal_json(self, log_dir, capsys):
        rc = main([
            "analyze", "--rows", "1", "--cols", "1",
            "--view", "temporal", "--event-type", "LUSTRE_ERR", "--json",
            str(log_dir / "*.log"),
        ])
        payload = json.loads(capsys.readouterr().out)
        assert rc == 0
        assert len(payload["counts"]) == 24

    def test_synopsis(self, log_dir, capsys):
        rc = main([
            "analyze", "--rows", "1", "--cols", "1",
            "--view", "synopsis", "--json",
            str(log_dir / "*.log"),
        ])
        rows = json.loads(capsys.readouterr().out)
        assert rc == 0
        assert rows
        assert {"hour", "type", "occurrences"} <= set(rows[0])


class TestMetrics:
    def test_metrics_emits_telemetry_json(self, log_dir, capsys):
        rc = main([
            "metrics", "--rows", "1", "--cols", "1",
            "--op", "heatmap", "--repeat", "2", "--slow-ms", "0",
            str(log_dir / "*.log"),
        ])
        payload = json.loads(capsys.readouterr().out)
        assert rc == 0
        assert payload["op"] == "heatmap"
        # registry snapshot reaches down to the storage nodes
        assert payload["metrics"]["cassdb.node.reads"]["value"] > 0
        assert payload["metrics"]["server.requests"]["value"] >= 2
        # span tree of the last heatmap request, threshold-0 slow log
        assert payload["trace"]["attrs"]["op"] == "heatmap"
        assert payload["trace"]["children"]
        assert any(e["op"] == "heatmap" for e in payload["slow_queries"])


    def test_every_op_choice_is_an_op_of_one_context(self):
        # metrics sends {"op": <choice>, "context": …} and nothing else.
        import argparse

        from repro.cli import build_parser
        from repro.core.server import _OPS

        sub = next(a for a in build_parser()._actions
                   if isinstance(a, argparse._SubParsersAction))
        choices = next(a.choices for a in sub.choices["metrics"]._actions
                       if a.dest == "op")
        assert choices
        for op in choices:
            fields = _OPS[op][2]
            assert [f for f, (_kind, required) in fields.items()
                    if required] == ["context"], op


class TestExplain:
    STATEMENT = "SELECT name FROM eventtypes WHERE name = 'MCE'"

    def test_renders_plan_tree(self, capsys):
        rc = main(["explain", self.STATEMENT])
        out = capsys.readouterr().out
        assert rc == 0
        assert "PartitionScan" in out
        assert "partition_key_routing" in out

    def test_json_payload(self, capsys):
        rc = main(["explain", "--json", self.STATEMENT])
        assert rc == 0
        plan = json.loads(capsys.readouterr().out)
        assert plan["kind"] == "select"
        assert plan["statement"] == self.STATEMENT

    def test_syntax_error_exits_2_with_payload(self, capsys):
        rc = main(["explain", "SELECT FROM WHERE"])
        captured = capsys.readouterr()
        assert rc == 2
        detail = json.loads(captured.err)
        assert detail["type"] == "CQLSyntaxError"
        assert detail["line"] == 1

    def test_unknown_table_exits_2_with_payload(self, capsys):
        rc = main(["explain", "SELECT * FROM nosuch"])
        captured = capsys.readouterr()
        assert rc == 2
        assert captured.out == ""
        detail = json.loads(captured.err)
        assert detail["type"] == "CQLPlanningError"
        assert detail["token"] == "nosuch"


class TestTopology:
    def test_cname_query(self, capsys):
        rc = main(["topology", "c3-17c1s5n2"])
        info = json.loads(capsys.readouterr().out)
        assert rc == 0
        assert info["cabinet"] == "c3-17"
        assert info["router_peer"] == "c3-17c1s5n3"

    def test_index_query(self, capsys):
        rc = main(["topology", "0"])
        info = json.loads(capsys.readouterr().out)
        assert rc == 0
        assert info["cname"] == "c0-0c0s0n0"

    def test_invalid(self, capsys):
        for query, message in [
                ("not-a-node", "not a valid node cname: 'not-a-node'"),
                ("c99-0c0s0n0", "col out of range: 99"),
                ("999999", "node index out of range: 999999")]:
            rc = main(["topology", query])
            captured = capsys.readouterr()
            assert rc == 2
            assert captured.out == ""
            assert captured.err.strip() == message


class TestTop:
    def test_once_json_frame(self, capsys):
        rc = main(["top", "--once", "--json", "--hours", "0.2",
                   "--rows", "1", "--cols", "1", "--seed", "5"])
        assert rc == 0
        frame = json.loads(capsys.readouterr().out.strip())
        # Every number on the dashboard made the full loop: export →
        # bus → streaming ingest → cassdb → read back.
        assert frame["telemetry"]["metrics_rows"] > 0
        assert frame["telemetry"]["spans_rows"] > 0
        assert frame["telemetry"]["metrics_table_rows"] > 0
        assert frame["health"]["status"] == "ok"
        assert "server.requests" in {m["name"] for m in frame["metrics"]}
        assert frame["slowest"]
        assert frame["slowest"][0]["spans"] >= 2

    def test_once_text_dashboard(self, capsys):
        rc = main(["top", "--once", "--hours", "0.2",
                   "--rows", "1", "--cols", "1", "--seed", "5"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "repro top" in out
        assert "SLOWEST TRACES" in out
        assert "server.requests" in out


class TestSlowJson:
    def test_stable_dump_diffs_clean(self, log_dir, tmp_path, capsys):
        paths = [tmp_path / "a.json", tmp_path / "b.json"]
        for path in paths:
            rc = main(["metrics", str(log_dir / "console.log"),
                       "--repeat", "2", "--slow-json", str(path)])
            assert rc == 0
            capsys.readouterr()
        assert paths[0].read_text() == paths[1].read_text()
        entries = json.loads(paths[0].read_text())
        assert entries
        for entry in entries:
            assert "wall_time" not in entry
            assert "elapsed_ms" not in entry


class TestAlerts:
    ARGS = ["alerts", "--hours", "0.5", "--rows", "1", "--cols", "2",
            "--seed", "2017"]

    def test_json_round_trip(self, capsys):
        rc = main(self.ARGS + ["--json"])
        assert rc == 0
        result = json.loads(capsys.readouterr().out.strip())
        assert result["total"] >= 1
        severities = {a["severity"] for a in result["alerts"]}
        assert "critical" in severities  # the injected storm was found
        detectors = {a["detector"] for a in result["alerts"]}
        assert "lustre_storm" in detectors

    def test_text_tail(self, capsys):
        rc = main(self.ARGS)
        assert rc == 0
        out = capsys.readouterr().out
        assert "ALERTS" in out
        assert "CRITICAL" in out
        assert "lustre_storm" in out
        assert "storms injected" in out

    def test_severity_filter(self, capsys):
        rc = main(self.ARGS + ["--json", "--severity", "critical"])
        assert rc == 0
        result = json.loads(capsys.readouterr().out.strip())
        assert result["alerts"]
        assert all(a["severity"] == "critical" for a in result["alerts"])

    def test_deterministic(self, capsys):
        outs = []
        for _ in range(2):
            assert main(self.ARGS + ["--json"]) == 0
            outs.append(capsys.readouterr().out)
        assert outs[0] == outs[1]


class TestGenerateLabels:
    def test_labels_sidecar_written(self, tmp_path, capsys):
        rc = main([
            "generate", "--rows", "1", "--cols", "2", "--hours", "1",
            "--rate-multiplier", "10", "--seed", "2017",
            "--storms-per-day", "48", "--out", str(tmp_path),
        ])
        assert rc == 0
        labels = json.loads((tmp_path / "labels.json").read_text())
        assert labels
        for entry in labels:
            assert set(entry) == {"event_index", "burst_id", "kind"}
            assert entry["kind"] in ("storm", "cabinet_burst")


class TestTopDetection:
    def test_frame_has_ingest_and_alerts(self, capsys):
        rc = main(["top", "--once", "--json", "--hours", "0.5",
                   "--rows", "1", "--cols", "2", "--seed", "2017",
                   "--storms-per-day", "48",
                   "--storm-events-per-node", "20"])
        assert rc == 0
        frame = json.loads(capsys.readouterr().out.strip())
        assert frame["ingest"]["lag"] == 0
        assert frame["ingest"]["written"] > 0
        assert frame["alerts"]["by_severity"].get("critical", 0) >= 1
        names = {m["name"] for m in frame["metrics"]}
        assert "detect.windows" in names
        assert "ingest.stream.lag" in names


class TestProfile:
    def test_once_json_finds_planted_hot_frame(self, capsys):
        rc = main(["profile", "--once", "--json", "--seconds", "0.4",
                   "--rows", "1", "--cols", "1", "--seed", "5"])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out.strip())
        # Samples made the full loop: sampler → flame tables → bus →
        # profiles_by_time → profile_flame read-back.
        assert payload["samples"] > 0
        assert payload["folded"]
        assert all(line.rsplit(" ", 1)[1].isdigit()
                   for line in payload["folded"])
        assert any("_burn_cpu" in h["function"] for h in payload["hot"])

    def test_text_output_is_folded_plus_table(self, capsys):
        rc = main(["profile", "--seconds", "0.3", "--component", "server",
                   "--rows", "1", "--cols", "1", "--seed", "5"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "HOT FUNCTION" in out
        flame_lines = [l for l in out.splitlines()
                       if l.startswith("server;")]
        assert flame_lines  # flamegraph.pl-compatible "stack count"
        assert flame_lines == sorted(flame_lines)

    def test_stable_json_diffs_clean(self, tmp_path, capsys):
        paths = [tmp_path / "a.json", tmp_path / "b.json"]
        for path in paths:
            rc = main(["profile", "--seconds", "0.3",
                       "--stable-json", str(path),
                       "--rows", "1", "--cols", "1", "--seed", "5"])
            assert rc == 0
            capsys.readouterr()
        assert paths[0].read_text() == paths[1].read_text()
        stable = json.loads(paths[0].read_text())
        assert stable["planted_found"] is True
        assert stable["hot_function"].endswith("_burn_cpu")


class TestMetricsServe:
    def test_serve_exposes_prometheus_endpoint(self, log_dir, capsys):
        import re
        import threading
        import urllib.request

        bodies = {}

        def run():
            bodies["rc"] = main([
                "metrics", str(log_dir / "console.log"),
                "--serve", "0", "--serve-seconds", "4",
            ])

        t = threading.Thread(target=run)
        with capsys.disabled():  # reader thread races the capture
            pass
        t.start()
        try:
            # Poll the announced port out of the captured stdout.
            import time as _time
            url = None
            for _ in range(100):
                _time.sleep(0.1)
                out = capsys.readouterr().out
                m = re.search(r"http://127\.0\.0\.1:(\d+)/metrics", out)
                if m:
                    url = m.group(0)
                    break
            assert url, "serve endpoint never announced"
            body = urllib.request.urlopen(url).read().decode("utf-8")
            assert "server_requests_total" in body
            assert "# TYPE" in body
        finally:
            t.join(timeout=30)
        assert bodies["rc"] == 0


class TestTopProfileLine:
    def test_frame_carries_profile_hotspots(self, capsys):
        rc = main(["top", "--once", "--json", "--hours", "0.2",
                   "--rows", "1", "--cols", "1", "--seed", "5"])
        assert rc == 0
        frame = json.loads(capsys.readouterr().out.strip())
        assert "profile" in frame
        assert frame["profile"]["samples"] >= 0
        assert frame["telemetry"]["profiles_rows"] >= 0
