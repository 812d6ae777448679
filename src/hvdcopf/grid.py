"""Immutable domain model for the multi-conductor AC/DC grid.

All electrical quantities are stored in per-unit on the system power base
and the node voltage bases (see :mod:`hvdcopf.units`); generator data stays
in MW / currency per MWh.  Objects are frozen dataclasses and safe to share
between threads.

The dataclasses are also the grid file schema (:mod:`hvdcopf.io`): each
field is a key of the same name, in declaration order, and a file may leave
out exactly the fields with a default, such as the `dc_switches` and
`demands` sections.  A defaulted field that the file lists before required
ones is keyword-only.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from enum import Enum


class NodeKind(str, Enum):
    POSITIVE = "positive-pole"
    NEGATIVE = "negative-pole"
    NEUTRAL = "neutral"


class ConductorRole(str, Enum):
    POLE = "pole"
    NEUTRAL = "neutral"  # dedicated metallic return


class StationConfig(str, Enum):
    BIPOLAR = "bipolar-with-DMR"
    MONOPOLE = "symmetric-monopole"
    DCDC = "dc-dc"


EARTH_NODE = "earth"  # synthetic reference node, pinned to 0 pu


@dataclass(frozen=True)
class DcNode:
    id: str
    kind: NodeKind
    base_kv: float  # signed; negative for negative-pole nodes
    grounded: bool = False
    grounding_ohm: float | None = None
    vmin_pu: float | None = None
    vmax_pu: float | None = None


@dataclass(frozen=True)
class DcLine:
    id: str
    from_node: str
    to_node: str
    resistance_pu: float
    conductor_role: ConductorRole
    switchable: bool = False


@dataclass(frozen=True)
class DcSwitch:
    id: str
    from_node: str
    to_node: str


@dataclass(frozen=True)
class PoleConverter:
    """One converter of a station: a DC terminal pair plus optional AC side.

    `dc_terminal_1` is the pole-side terminal, `dc_terminal_2` the return
    (neutral for bipolar CV_a/CV_b, the opposite pole for monopole and
    DC-DC sides).  Limits are per-unit magnitudes.
    """

    id: str  # unique within the station, e.g. "a"/"b" or "A"/"B"
    dc_terminal_1: str
    dc_terminal_2: str
    current_limit_pu: float
    power_limit_pu: float
    ac_terminal: str | None = None

    def key(self, station_id: str) -> str:
        return f"{station_id}.{self.id}"


@dataclass(frozen=True)
class ConverterStation:
    id: str
    config: StationConfig
    neutral_node: str | None = field(default=None, kw_only=True)  # bipolar only
    pole_converters: tuple[PoleConverter, ...]

    def converter(self, conv_id: str) -> PoleConverter:
        for cv in self.pole_converters:
            if cv.id == conv_id:
                return cv
        raise KeyError(f"station {self.id} has no converter {conv_id!r}")


@dataclass(frozen=True)
class Generator:
    id: str
    bus: str
    cost: float  # currency per MWh
    reserve_cost_up: float
    reserve_cost_down: float
    p_max_mw: float
    p_min_mw: float = 0.0
    is_wind: bool = False


@dataclass(frozen=True)
class Demand:
    id: str
    bus: str
    p_mw: float


@dataclass(frozen=True)
class Grid:
    name: str
    base_mw: float
    currency: str = field(default="EUR", kw_only=True)
    notes: str = field(default="", kw_only=True)
    dc_nodes: tuple[DcNode, ...]
    dc_lines: tuple[DcLine, ...]
    dc_switches: tuple[DcSwitch, ...] = field(default=(), kw_only=True)
    converter_stations: tuple[ConverterStation, ...]
    generators: tuple[Generator, ...]
    demands: tuple[Demand, ...] = ()
    _node_map: dict[str, DcNode] = field(init=False, repr=False, compare=False, default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "_node_map", {n.id: n for n in self.dc_nodes})

    def node(self, node_id: str) -> DcNode:
        return self._node_map[node_id]

    def has_node(self, node_id: str) -> bool:
        return node_id in self._node_map

    def station(self, station_id: str) -> ConverterStation:
        for cs in self.converter_stations:
            if cs.id == station_id:
                return cs
        raise KeyError(f"no converter station {station_id!r}")

    def line(self, line_id: str) -> DcLine:
        for bd in self.dc_lines:
            if bd.id == line_id:
                return bd
        raise KeyError(f"no DC line {line_id!r}")

    def bipolar_stations(self) -> tuple[ConverterStation, ...]:
        return tuple(cs for cs in self.converter_stations if cs.config is StationConfig.BIPOLAR)

    def pole_converter_ids(self) -> tuple[str, ...]:
        """All bipolar pole-converter keys ('<station>.<pole>'), file order."""
        out = []
        for cs in self.bipolar_stations():
            out.extend(cv.key(cs.id) for cv in cs.pole_converters)
        return tuple(out)

    def ac_buses(self) -> tuple[str, ...]:
        """Each AC bus once: converter terminals in station order, then generator buses, then demand buses."""
        terminals = [cv.ac_terminal for cs in self.converter_stations for cv in cs.pole_converters if cv.ac_terminal]
        return tuple(dict.fromkeys(terminals + [g.bus for g in self.generators] + [d.bus for d in self.demands]))

    def neutral_lines(self) -> tuple[DcLine, ...]:
        return tuple(bd for bd in self.dc_lines if bd.conductor_role is ConductorRole.NEUTRAL)


@dataclass(frozen=True)
class Violation:
    entity: str
    rule: str

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"{self.entity}: {self.rule}"


def _compatible_endpoints(a: DcNode, b: DcNode, role: ConductorRole) -> bool:
    if role is ConductorRole.NEUTRAL:
        return a.kind is NodeKind.NEUTRAL and b.kind is NodeKind.NEUTRAL
    return a.kind == b.kind and a.kind is not NodeKind.NEUTRAL


def validate(grid: Grid) -> list[Violation]:
    """Check every structural invariant; violations are data, not exceptions."""
    out: list[Violation] = []
    if not grid.base_mw > 0:
        out.append(Violation(grid.name, "base_mw (power base) must be > 0"))
    seen: set[str] = set()
    for n in grid.dc_nodes:
        if n.id in seen:
            out.append(Violation(n.id, "duplicate DC node id"))
        seen.add(n.id)
        if n.id == EARTH_NODE:
            out.append(Violation(n.id, f"node id {EARTH_NODE!r} is reserved for the ground reference"))
        if n.kind in (NodeKind.POSITIVE, NodeKind.NEUTRAL) and n.base_kv <= 0:
            out.append(Violation(n.id, "positive-pole/neutral nodes need a positive voltage base"))
        if n.kind is NodeKind.NEGATIVE and n.base_kv >= 0:
            out.append(Violation(n.id, "negative-pole nodes carry the negative of the rated voltage as base"))
        if n.grounded and (n.grounding_ohm is None or not n.grounding_ohm >= 0.0):
            out.append(Violation(n.id, "grounded node needs a finite grounding resistance >= 0"))
        if n.vmin_pu is not None and n.vmax_pu is not None and n.vmin_pu > n.vmax_pu:
            out.append(Violation(n.id, "voltage box is empty: vmin_pu > vmax_pu"))

    elem_ids: set[str] = set()
    for bd in grid.dc_lines:
        if bd.id in elem_ids:
            out.append(Violation(bd.id, "duplicate element id"))
        elem_ids.add(bd.id)
        if not bd.resistance_pu > 0.0:
            out.append(Violation(bd.id, "DcLine resistance must be > 0"))
        missing = [t for t in (bd.from_node, bd.to_node) if not grid.has_node(t)]
        if missing:
            out.append(Violation(bd.id, f"endpoint(s) not in grid: {missing}"))
            continue
        if not _compatible_endpoints(grid.node(bd.from_node), grid.node(bd.to_node), bd.conductor_role):
            out.append(Violation(bd.id, "endpoint kinds incompatible with conductor role"))

    for sw in grid.dc_switches:
        if sw.id in elem_ids:
            out.append(Violation(sw.id, "duplicate element id"))
        elem_ids.add(sw.id)
        missing = [t for t in (sw.from_node, sw.to_node) if not grid.has_node(t)]
        if missing:
            out.append(Violation(sw.id, f"endpoint(s) not in grid: {missing}"))
            continue
        if grid.node(sw.from_node).kind != grid.node(sw.to_node).kind:
            out.append(Violation(sw.id, "switch endpoints must share the same node kind"))

    station_ids: set[str] = set()
    for cs in grid.converter_stations:
        if cs.id in station_ids:
            out.append(Violation(cs.id, "duplicate station id"))
        station_ids.add(cs.id)
        out.extend(_validate_station(grid, cs))

    gen_ids: set[str] = set()
    for g in grid.generators:
        if g.id in gen_ids:
            out.append(Violation(g.id, "duplicate generator id"))
        gen_ids.add(g.id)
        if not (0.0 <= g.p_min_mw <= g.p_max_mw):
            out.append(Violation(g.id, "generator limits must satisfy 0 <= p_min <= p_max"))
        if g.is_wind and g.cost != 0.0:
            out.append(Violation(g.id, "wind generators have zero energy cost"))
    demand_ids: set[str] = set()
    for d in grid.demands:
        if d.id in demand_ids:
            out.append(Violation(d.id, "duplicate demand id"))
        demand_ids.add(d.id)

    # a bus that only one converter reaches, with no generator or demand,
    # islands that converter's AC side (a misspelt terminal, say)
    served = {g.bus for g in grid.generators} | {d.bus for d in grid.demands}
    reaching: dict[str, list[str]] = {}
    for cs in grid.converter_stations:
        for cv in cs.pole_converters:
            if cv.ac_terminal:
                reaching.setdefault(cv.ac_terminal, []).append(cv.key(cs.id))
    for bus, keys in reaching.items():
        if len(keys) == 1 and bus not in served:
            out.append(Violation(keys[0], f"AC terminal {bus!r} has no generator, demand or other converter"))

    out.extend(
        Violation(group_label, "electrically connected neutral subnetwork has no grounded node")
        for group_label in ungrounded_neutral_groups(grid)
    )
    return out


def _validate_station(grid: Grid, cs: ConverterStation) -> list[Violation]:
    out: list[Violation] = []
    conv_ids: set[str] = set()
    for cv in cs.pole_converters:
        if cv.id in conv_ids:
            out.append(Violation(cv.key(cs.id), "duplicate pole converter id in the station"))
        conv_ids.add(cv.id)
        for term in (cv.dc_terminal_1, cv.dc_terminal_2):
            if not grid.has_node(term):
                out.append(Violation(cv.key(cs.id), f"DC terminal {term!r} not in grid"))
                return out
        if cv.current_limit_pu <= 0 or cv.power_limit_pu <= 0:
            out.append(Violation(cv.key(cs.id), "converter limits must be positive"))

    if cs.config is StationConfig.BIPOLAR:
        if len(cs.pole_converters) != 2:
            out.append(Violation(cs.id, "bipolar station needs exactly two pole converters"))
            return out
        if cs.neutral_node is None or not grid.has_node(cs.neutral_node):
            out.append(Violation(cs.id, "bipolar station needs a neutral node"))
            return out
        if grid.node(cs.neutral_node).kind is not NodeKind.NEUTRAL:
            out.append(Violation(cs.id, "station neutral node must be of neutral kind"))
        cva, cvb = cs.pole_converters
        expect = ((cva, NodeKind.POSITIVE), (cvb, NodeKind.NEGATIVE))
        for cv, kind in expect:
            if grid.node(cv.dc_terminal_1).kind is not kind:
                out.append(Violation(cv.key(cs.id), f"terminal-1 node must be {kind.value}"))
            if cv.dc_terminal_2 != cs.neutral_node:
                out.append(Violation(cv.key(cs.id), "terminal-2 must be the station neutral node"))
            if grid.node(cv.dc_terminal_2).kind is not NodeKind.NEUTRAL:
                out.append(Violation(cv.key(cs.id), "terminal-2 node kind mismatch: expected neutral"))
            if cv.ac_terminal is None:
                out.append(Violation(cv.key(cs.id), "bipolar pole converter needs an AC terminal"))
    elif cs.config is StationConfig.MONOPOLE:
        if len(cs.pole_converters) != 1:
            out.append(Violation(cs.id, "symmetric monopole station has exactly one converter"))
            return out
        cv = cs.pole_converters[0]
        kinds = (grid.node(cv.dc_terminal_1).kind, grid.node(cv.dc_terminal_2).kind)
        if kinds != (NodeKind.POSITIVE, NodeKind.NEGATIVE):
            out.append(Violation(cv.key(cs.id), "monopole terminals must be (positive, negative) pole nodes"))
        if cv.ac_terminal is None:
            out.append(Violation(cv.key(cs.id), "monopole converter needs an AC terminal"))
    elif cs.config is StationConfig.DCDC:
        if len(cs.pole_converters) != 2:
            out.append(Violation(cs.id, "dc-dc converter has exactly two sides"))
            return out
        for cv in cs.pole_converters:
            kinds = (grid.node(cv.dc_terminal_1).kind, grid.node(cv.dc_terminal_2).kind)
            if kinds != (NodeKind.POSITIVE, NodeKind.NEGATIVE):
                out.append(Violation(cv.key(cs.id), "dc-dc side terminals must be (positive, negative) pole nodes"))
            if cv.ac_terminal is not None:
                out.append(Violation(cv.key(cs.id), "dc-dc sides have no AC terminal"))
    return out


def ungrounded_neutral_groups(grid: Grid, in_service: dict[str, int] | None = None) -> list[str]:
    """Labels of connected neutral subnetworks that cannot reach a ground.

    `in_service` optionally overrides line/switch statuses; an element is in
    service unless its status is 0, so a missing or undecided (None) entry is
    in service.  Only subnetworks with a station neutral terminal count — an
    isolated neutral bus with no converter attached needs no reference.
    """
    status = in_service or {}

    def live(elem_id: str) -> bool:
        return status.get(elem_id) != 0

    adj: dict[str, list[str]] = {}
    neutral_ids = {n.id for n in grid.dc_nodes if n.kind is NodeKind.NEUTRAL}
    for bd in grid.dc_lines:
        if bd.conductor_role is ConductorRole.NEUTRAL and live(bd.id):
            adj.setdefault(bd.from_node, []).append(bd.to_node)
            adj.setdefault(bd.to_node, []).append(bd.from_node)
    for sw in grid.dc_switches:
        if sw.from_node in neutral_ids and sw.to_node in neutral_ids and live(sw.id):
            adj.setdefault(sw.from_node, []).append(sw.to_node)
            adj.setdefault(sw.to_node, []).append(sw.from_node)

    station_neutrals = {
        cs.neutral_node for cs in grid.converter_stations if cs.neutral_node is not None
    }

    bad: list[str] = []
    visited: set[str] = set()
    for start in sorted(neutral_ids):
        if start in visited:
            continue
        group: list[str] = []
        queue = deque([start])
        visited.add(start)
        while queue:
            n = queue.popleft()
            group.append(n)
            for m in adj.get(n, ()):
                if m not in visited:
                    visited.add(m)
                    queue.append(m)
        if not any(n in station_neutrals for n in group):
            continue
        if not any(grid.node(n).grounded for n in group):
            bad.append("{" + ",".join(sorted(group)) + "}")
    return bad
