"""Regex parsers: raw log lines → structured events.

The batch import path "pars[es] the data in search for known patterns
for each event type (typically defined as regular expressions)"
(paper §III-D).  Each event type gets one compiled pattern over the
line payload with named groups for the attributes the analytics need
(OST names, XID codes, exit codes, addresses…).  Lines that match no
pattern are counted, not dropped silently — the unparsed count is an
ETL health metric.

These parsers exactly invert ``repro.genlog.templates`` for the
synthetic corpus, which the round-trip tests pin down; against real
logs they are the part you would extend per site.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from datetime import datetime, timezone
from typing import Any, Callable, Iterable, Iterator

from repro.genlog.templates import EPOCH
from repro.titan.events import LogSource

__all__ = ["ParsedEvent", "LineParser", "default_parser"]

_HEADER_RE = re.compile(
    r"^(?P<ts>\d{4}-\d{2}-\d{2}T\d{2}:\d{2}:\d{2}\.\d{3})\s+"
    r"(?P<component>\S+)\s+(?P<source>console|network|application):\s+"
    r"(?P<payload>.*)$"
)


@dataclass(frozen=True, slots=True)
class ParsedEvent:
    """Structured result of parsing one raw line."""

    ts: float              # seconds since simulation start
    type: str
    component: str
    source: LogSource
    amount: int = 1
    attrs: dict = field(default_factory=dict)
    raw: str | None = None  # original payload, retained semi-structured

    @property
    def hour(self) -> int:
        return int(self.ts // 3600)


def _hex(value: str) -> int:
    return int(value, 16)


@dataclass(frozen=True)
class _Pattern:
    event_type: str
    regex: re.Pattern
    converters: tuple[tuple[str, Callable[[str], Any]], ...] = ()
    amount_group: str | None = None


_PATTERNS: list[_Pattern] = [
    _Pattern("MCE",
             re.compile(r"Machine Check Exception: CPU (?P<cpu>\d+) "
                        r"Bank (?P<bank>\d+): (?P<status>0x[0-9a-f]+)"),
             (("cpu", int), ("bank", int), ("status", _hex))),
    _Pattern("DRAM_UE",
             re.compile(r"EDAC amd64 MC(?P<mc>\d+): UE ERROR_ADDRESS= "
                        r"(?P<addr>0x[0-9a-f]+)"),
             (("mc", int), ("addr", _hex))),
    _Pattern("DRAM_CE",
             re.compile(r"EDAC amd64 MC(?P<mc>\d+): CE ERROR_ADDRESS= "
                        r"(?P<addr>0x[0-9a-f]+) row (?P<row>\d+) "
                        r"channel (?P<channel>\d+).*errors:(?P<count>\d+)"),
             (("mc", int), ("addr", _hex), ("row", int), ("channel", int)),
             amount_group="count"),
    # GPU_DBE before GPU_XID: a DBE line is also an Xid line (Xid 48).
    _Pattern("GPU_DBE",
             re.compile(r"NVRM: Xid .*: 48, Double Bit ECC Error "
                        r"addr (?P<addr>0x[0-9a-f]+)"),
             (("addr", _hex),)),
    _Pattern("GPU_XID",
             re.compile(r"NVRM: Xid \(PCI:[0-9a-f:]+\): (?P<xid>\d+),"),
             (("xid", int),)),
    _Pattern("GPU_SBE",
             re.compile(r"NVRM: GPU ECC SBE corrected addr "
                        r"(?P<addr>0x[0-9a-f]+) count (?P<count>\d+)"),
             (("addr", _hex),), amount_group="count"),
    _Pattern("GPU_OFF_BUS",
             re.compile(r"NVRM: GPU has fallen off the bus")),
    # LBUG before LUSTRE_ERR: both start with "LustreError:".
    _Pattern("LBUG", re.compile(r"LustreError: .*ASSERTION.*LBUG")),
    _Pattern("LUSTRE_ERR",
             re.compile(r"LustreError: (?P<pid>\d+):.* "
                        r"o400->(?P<ost>\S+?)@[\d.]+@o2ib: rc (?P<rc>-?\d+)"),
             (("pid", int), ("rc", int))),
    _Pattern("DVS_ERR",
             re.compile(r"DVS: file_node_down: removing (?P<server>\S+)")),
    _Pattern("NET_LINK_FAIL",
             re.compile(r"Gemini LCB lcb(?P<lcb>\d+) link failed on "
                        r"(?P<gemini>\S+);")),
    _Pattern("NET_LANE_DEGRADE",
             re.compile(r"netwatch: lane degrade on (?P<gemini>\S+) "
                        r"lanes .*BER (?P<ber>\S+)")),
    _Pattern("NET_THROTTLE",
             re.compile(r"netwatch: congestion throttle engaged.*watermark "
                        r"(?P<watermark>\d+)%"),
             (("watermark", int),)),
    _Pattern("KERNEL_PANIC",
             re.compile(r"Kernel panic - not syncing.*RIP "
                        r"(?P<rip>0x[0-9a-f]+)"),
             (("rip", _hex),)),
    _Pattern("OOM",
             re.compile(r"Out of memory: Kill process (?P<pid>\d+) "
                        r"\((?P<proc>\S+)\) score (?P<score>\d+)"),
             (("pid", int), ("score", int))),
    _Pattern("SEGFAULT",
             re.compile(r"(?P<proc>\S+)\[(?P<pid>\d+)\]: segfault at "
                        r"(?P<addr>0x[0-9a-f]+) ip (?P<ip>0x[0-9a-f]+)"),
             (("pid", int), ("addr", _hex), ("ip", _hex))),
    _Pattern("APP_ABORT",
             re.compile(r"aprun: Apid (?P<apid>\d+):.*exit code "
                        r"(?P<exit_code>\d+)"),
             (("apid", int), ("exit_code", int))),
    _Pattern("HEARTBEAT_FAULT",
             re.compile(r"ec_node_failed: heartbeat fault for "
                        r"(?P<node>\S+), marking node down "
                        r"\(alert (?P<alert>0x[0-9a-f]+)\)"),
             (("alert", _hex),)),
]

_SOURCES = {
    "console": LogSource.CONSOLE,
    "network": LogSource.NETWORK,
    "application": LogSource.APPLICATION,
}


class LineParser:
    """Stateless line parser with extensible patterns and ETL counters.

    New event types are added by registering an extra pattern —
    flexibility requirement §II-A ("add new event types … without
    schema migration").
    """

    def __init__(self, patterns: Iterable[_Pattern] = _PATTERNS):
        self.patterns = list(patterns)
        self.parsed = 0
        self.unparsed = 0

    @staticmethod
    def parse_timestamp(stamp: str) -> float:
        """Seconds since simulation start of a ``YYYY-MM-DDTHH:MM:SS.mmm``
        stamp (the shape ``_HEADER_RE`` pins), read as UTC."""
        dt = datetime.fromisoformat(stamp).replace(tzinfo=timezone.utc)
        return dt.timestamp() - EPOCH

    def parse_line(self, line: str) -> ParsedEvent | None:
        """Parse one raw line; None (and a counter bump) if unknown."""
        header = _HEADER_RE.match(line)
        if not header:
            self.unparsed += 1
            return None
        payload = header["payload"]
        for pattern in self.patterns:
            m = pattern.regex.search(payload)
            if not m:
                continue
            attrs = m.groupdict()
            amount = 1
            if pattern.amount_group:
                amount = int(attrs.pop(pattern.amount_group))
            for name, conv in pattern.converters:
                if name in attrs and attrs[name] is not None:
                    attrs[name] = conv(attrs[name])
            self.parsed += 1
            return ParsedEvent(
                ts=self.parse_timestamp(header["ts"]),
                type=pattern.event_type,
                component=header["component"],
                source=_SOURCES[header["source"]],
                amount=amount,
                attrs=attrs,
                raw=payload,
            )
        self.unparsed += 1
        return None

    def parse_lines(self, lines: Iterable[str]) -> Iterator[ParsedEvent]:
        for line in lines:
            event = self.parse_line(line)
            if event is not None:
                yield event


def default_parser() -> LineParser:
    """A parser loaded with the full Titan pattern set."""
    return LineParser()
