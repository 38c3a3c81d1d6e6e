"""Tests for the regex line parsers, including template round-trips."""

import pytest

from repro.genlog import LogGenerator, render_line
from repro.genlog.generator import GeneratedEvent
from repro.ingest import LineParser, default_parser
from repro.titan import LogSource, TitanTopology


def _line(type_, component="c0-0c0s0n0", ts=12.5, amount=1, **attrs):
    return render_line(GeneratedEvent(
        ts=ts, type=type_, component=component,
        source=LogSource.CONSOLE, amount=amount, attrs=attrs,
    ))


class TestHeaderParsing:
    def test_timestamp_roundtrip(self):
        parser = default_parser()
        event = parser.parse_line(_line("MCE", ts=3723.456))
        assert event is not None
        assert abs(event.ts - 3723.456) < 0.002
        assert event.hour == 1

    def test_component_extracted(self):
        parser = default_parser()
        event = parser.parse_line(_line("MCE", component="c7-24c2s7n3"))
        assert event.component == "c7-24c2s7n3"

    def test_malformed_header_counted(self):
        parser = default_parser()
        assert parser.parse_line("totally not a log line") is None
        assert parser.parse_line("") is None
        assert parser.unparsed == 2

    def test_unknown_payload_counted(self):
        parser = default_parser()
        line = "2017-03-01T00:00:00.000 c0-0c0s0n0 console: mystery text"
        assert parser.parse_line(line) is None
        assert parser.unparsed == 1
        assert parser.parsed == 0


class TestPerTypePatterns:
    @pytest.mark.parametrize("type_,attrs", [
        ("MCE", {"cpu": 3, "bank": 4, "status": 0x1234ABCD}),
        ("DRAM_UE", {"mc": 1, "addr": 0xDEAD00}),
        ("GPU_OFF_BUS", {}),
        ("LBUG", {}),
        ("DVS_ERR", {"server": "dvs03"}),
        ("NET_THROTTLE", {"watermark": 92}),
        ("KERNEL_PANIC", {"rip": 0xFFFF0000DEAD}),
        ("OOM", {"pid": 4242, "proc": "xhpl", "score": 800}),
        ("APP_ABORT", {"apid": 5123456, "exit_code": 137}),
        ("HEARTBEAT_FAULT", {"alert": 0x3E8}),
    ])
    def test_type_detected(self, type_, attrs):
        event = default_parser().parse_line(_line(type_, **attrs))
        assert event is not None
        assert event.type == type_

    def test_dram_ce_amount(self):
        event = default_parser().parse_line(
            _line("DRAM_CE", amount=7, mc=2, addr=0xAB, row=3, channel=1)
        )
        assert event.type == "DRAM_CE"
        assert event.amount == 7
        assert event.attrs["addr"] == 0xAB
        assert event.attrs["channel"] == 1

    def test_gpu_dbe_not_confused_with_xid(self):
        dbe = default_parser().parse_line(_line("GPU_DBE", addr=0xBAD))
        assert dbe.type == "GPU_DBE"
        xid = default_parser().parse_line(_line("GPU_XID", xid=31, gpc=2))
        assert xid.type == "GPU_XID"
        assert xid.attrs["xid"] == 31

    def test_gpu_sbe_count_becomes_amount(self):
        event = default_parser().parse_line(
            _line("GPU_SBE", amount=5, addr=0xC0FFEE)
        )
        assert event.amount == 5

    def test_lbug_not_confused_with_lustre_err(self):
        err = default_parser().parse_line(
            _line("LUSTRE_ERR", ost="atlas-OST0042", rc=-110, pid=99)
        )
        assert err.type == "LUSTRE_ERR"
        assert err.attrs["ost"] == "atlas-OST0042"
        assert err.attrs["rc"] == -110

    def test_network_patterns(self):
        lane = default_parser().parse_line(render_line(GeneratedEvent(
            ts=1.0, type="NET_LANE_DEGRADE", component="c0-0c0s0g0",
            source=LogSource.NETWORK,
            attrs={"gemini": "c0-0c0s0g0", "ber": "3.1e-7"},
        )))
        assert lane.type == "NET_LANE_DEGRADE"
        assert lane.attrs["gemini"] == "c0-0c0s0g0"
        fail = default_parser().parse_line(render_line(GeneratedEvent(
            ts=1.0, type="NET_LINK_FAIL", component="c0-0c0s0g1",
            source=LogSource.NETWORK,
            attrs={"gemini": "c0-0c0s0g1", "lcb": "017"},
        )))
        assert fail.type == "NET_LINK_FAIL"

    def test_segfault(self):
        event = default_parser().parse_line(
            _line("SEGFAULT", proc="a.out", pid=1, addr=0x10, ip=0x400,
                  sp=0x7FFF)
        )
        assert event.type == "SEGFAULT"
        assert event.attrs["ip"] == 0x400


class TestFullRoundTrip:
    def test_generated_corpus_fully_parsed(self):
        topo = TitanTopology(rows=1, cols=1)
        gen = LogGenerator(topo, seed=21, rate_multiplier=40)
        events = gen.generate(4)
        parser = default_parser()
        for original in events:
            parsed = parser.parse_line(render_line(original))
            assert parsed is not None, render_line(original)
            assert parsed.type == original.type
            assert parsed.component == original.component
            assert parsed.amount == original.amount
            assert abs(parsed.ts - original.ts) < 0.002
        assert parser.unparsed == 0

    def test_lustre_ost_attribute_survives(self):
        topo = TitanTopology(rows=1, cols=1)
        gen = LogGenerator(topo, seed=21, rate_multiplier=40)
        events = [e for e in gen.generate(4) if e.type == "LUSTRE_ERR"]
        parser = default_parser()
        for original in events[:100]:
            parsed = parser.parse_line(render_line(original))
            assert parsed.attrs["ost"] == original.attrs["ost"]
