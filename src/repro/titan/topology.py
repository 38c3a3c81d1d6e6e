"""Physical topology of the Titan supercomputer (paper §II-B).

"Each blade/slot Titan supercomputer consists of four nodes.  Each cage
has eight such blades and a cabinet contains three such cages.  The
complete system consists of 200 cabinets that are organized in a grid
of 25 rows and 8 columns."  Each node pairs a 16-core AMD Opteron 6274
(32 GB DDR3) with an NVIDIA K20X (6 GB GDDR5); Cray Gemini routers are
shared between node pairs.

This module provides the coordinate system everything spatial in the
framework rests on: Cray cnames (``c{col}-{row}c{cage}s{slot}n{node}``),
the bijection between cnames and flat node indices, Gemini router
sharing, and the ``nodeinfos`` table content.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Iterator

__all__ = [
    "ROWS", "COLS", "CAGES_PER_CABINET", "SLOTS_PER_CAGE", "NODES_PER_SLOT",
    "NODES_PER_CABINET", "TOTAL_CABINETS", "TOTAL_NODES",
    "NodeLocation", "TitanTopology",
]

ROWS = 25                 # cabinet rows
COLS = 8                  # cabinet columns
CAGES_PER_CABINET = 3
SLOTS_PER_CAGE = 8        # blades per cage
NODES_PER_SLOT = 4
NODES_PER_CABINET = CAGES_PER_CABINET * SLOTS_PER_CAGE * NODES_PER_SLOT  # 96
TOTAL_CABINETS = ROWS * COLS                                             # 200
TOTAL_NODES = TOTAL_CABINETS * NODES_PER_CABINET                         # 19200

_CNAME_RE = re.compile(
    r"^c(?P<col>\d+)-(?P<row>\d+)c(?P<cage>\d+)s(?P<slot>\d+)n(?P<node>\d+)$"
)

_CPU_MODEL = "AMD Opteron 6274 (16 cores, 32 GB DDR3)"
_GPU_MODEL = "NVIDIA Tesla K20X (Kepler, 6 GB GDDR5)"


@dataclass(frozen=True, slots=True)
class NodeLocation:
    """Physical coordinates of one compute node."""

    col: int   # cabinet column, 0..7
    row: int   # cabinet row, 0..24
    cage: int  # 0..2
    slot: int  # blade, 0..7
    node: int  # 0..3

    def __post_init__(self):
        if not (0 <= self.col < COLS):
            raise ValueError(f"col out of range: {self.col}")
        if not (0 <= self.row < ROWS):
            raise ValueError(f"row out of range: {self.row}")
        if not (0 <= self.cage < CAGES_PER_CABINET):
            raise ValueError(f"cage out of range: {self.cage}")
        if not (0 <= self.slot < SLOTS_PER_CAGE):
            raise ValueError(f"slot out of range: {self.slot}")
        if not (0 <= self.node < NODES_PER_SLOT):
            raise ValueError(f"node out of range: {self.node}")

    # -- identifiers ---------------------------------------------------------

    @property
    def cname(self) -> str:
        """The Cray component name, e.g. ``c3-17c1s5n2``."""
        return f"c{self.col}-{self.row}c{self.cage}s{self.slot}n{self.node}"

    @property
    def cabinet(self) -> str:
        """Cabinet identifier, e.g. ``c3-17``."""
        return f"c{self.col}-{self.row}"

    @property
    def blade(self) -> str:
        """Blade identifier, e.g. ``c3-17c1s5``."""
        return f"c{self.col}-{self.row}c{self.cage}s{self.slot}"

    @property
    def cabinet_index(self) -> int:
        """Flat cabinet index in row-major (row, col) order, 0..199."""
        return self.row * COLS + self.col

    @property
    def index(self) -> int:
        """Flat node index, 0..19199 (cabinet-major)."""
        within = (
            self.cage * SLOTS_PER_CAGE * NODES_PER_SLOT
            + self.slot * NODES_PER_SLOT
            + self.node
        )
        return self.cabinet_index * NODES_PER_CABINET + within

    @property
    def gemini_id(self) -> str:
        """The Gemini router this node shares with its pair neighbour.

        Routers are shared between node pairs (n0, n1) and (n2, n3) of a
        blade (paper §II-B).
        """
        return f"{self.blade}g{self.node // 2}"

    def router_peer(self) -> "NodeLocation":
        """The other node on this node's Gemini router."""
        return NodeLocation(self.col, self.row, self.cage, self.slot,
                            self.node ^ 1)

    # -- constructors ----------------------------------------------------------

    @classmethod
    def from_cname(cls, cname: str) -> "NodeLocation":
        m = _CNAME_RE.match(cname)
        if not m:
            raise ValueError(f"not a valid node cname: {cname!r}")
        return cls(int(m["col"]), int(m["row"]), int(m["cage"]),
                   int(m["slot"]), int(m["node"]))

    @classmethod
    def from_index(cls, index: int) -> "NodeLocation":
        if not (0 <= index < TOTAL_NODES):
            raise ValueError(f"node index out of range: {index}")
        cabinet_index, within = divmod(index, NODES_PER_CABINET)
        row, col = divmod(cabinet_index, COLS)
        cage, rest = divmod(within, SLOTS_PER_CAGE * NODES_PER_SLOT)
        slot, node = divmod(rest, NODES_PER_SLOT)
        return cls(col, row, cage, slot, node)


class TitanTopology:
    """Queryable model of the full machine.

    A topology can be built smaller than Titan (fewer rows/columns) for
    cheap tests and experiments; defaults are the full 200-cabinet
    system.
    """

    def __init__(self, rows: int = ROWS, cols: int = COLS):
        if not (1 <= rows <= ROWS):
            raise ValueError(f"rows must be in 1..{ROWS}")
        if not (1 <= cols <= COLS):
            raise ValueError(f"cols must be in 1..{COLS}")
        self.rows = rows
        self.cols = cols
        self._components: dict[str, frozenset[str]] = {}

    @property
    def num_cabinets(self) -> int:
        return self.rows * self.cols

    @property
    def num_nodes(self) -> int:
        return self.num_cabinets * NODES_PER_CABINET

    def __contains__(self, loc: NodeLocation) -> bool:
        return loc.row < self.rows and loc.col < self.cols

    # -- enumeration ------------------------------------------------------------

    def cabinets(self) -> Iterator[str]:
        for row in range(self.rows):
            for col in range(self.cols):
                yield f"c{col}-{row}"

    def nodes(self) -> Iterator[NodeLocation]:
        for row in range(self.rows):
            for col in range(self.cols):
                for cage in range(CAGES_PER_CABINET):
                    for slot in range(SLOTS_PER_CAGE):
                        for node in range(NODES_PER_SLOT):
                            yield NodeLocation(col, row, cage, slot, node)

    def cnames(self) -> Iterator[str]:
        return (loc.cname for loc in self.nodes())

    def components(self, granularity: str) -> frozenset[str]:
        """Id of every ``"node"``, ``"blade"`` or ``"cabinet"`` of this
        machine (enumerated once per granularity)."""
        found = self._components.get(granularity)
        if found is None:
            attr = "cname" if granularity == "node" else granularity
            found = self._components[granularity] = frozenset(
                getattr(loc, attr) for loc in self.nodes())
        return found

    @staticmethod
    def parse_cabinet(cabinet: str) -> tuple[int, int]:
        m = re.match(r"^c(\d+)-(\d+)$", cabinet)
        if not m:
            raise ValueError(f"not a valid cabinet name: {cabinet!r}")
        return int(m.group(1)), int(m.group(2))

    # -- nodeinfos table ----------------------------------------------------------

    def nodeinfo_rows(self) -> Iterator[dict]:
        """Rows for the ``nodeinfos`` table (paper §II-B)."""
        for loc in self.nodes():
            yield {
                "cname": loc.cname,
                "row": loc.row,
                "col": loc.col,
                "cabinet": loc.cabinet,
                "cage": loc.cage,
                "slot": loc.slot,
                "node": loc.node,
                "blade": loc.blade,
                "node_index": loc.index,
                "gemini": loc.gemini_id,
                "cpu": _CPU_MODEL,
                "gpu": _GPU_MODEL,
            }
