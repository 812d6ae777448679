"""Constraint generators for converter stations.

A bipolar station with dedicated metallic return couples its pole
converters CV_a (positive) and CV_b (negative) through

    i_a1 = -i_a2            (what enters terminal 1 leaves terminal 2)
    i_b1 =  i_b2            (same, with the negative-pole sign convention)
    i_dmr = i_a2 + i_b2     (net injection into the station neutral)

and enforces symmetric bipole control, when selected, by i_a2 + i_b2 = 0
(`symmetric_row`; the builder keeps it in a state's program only where the
station's selector beta = 1). DC-side powers are bilinear in the terminal
node voltages and currents.
"""

from __future__ import annotations

import itertools
from collections.abc import Iterable
from dataclasses import dataclass

from . import naming as nm
from .grid import ConverterStation, Grid, StationConfig
from .nlp import INF, Row, lin_row, quad_row


@dataclass(frozen=True)
class StationConstraints:
    """The rows and the variables, each with its box, that one station emits in one state."""

    rows: tuple[Row, ...]
    variables: dict[str, tuple[float, float]]  # {name: (lb, ub)}, in column order


def converter_variables(cv, station_id: str, k: int = 0) -> dict[str, tuple[float, float]]:
    """The converter's currents i1, i2 and power p in state k, each with its rating box, in that order."""
    il, pl = cv.current_limit_pu, cv.power_limit_pu
    return {
        nm.conv_i(station_id, cv.id, 1, k): (-il, il),
        nm.conv_i(station_id, cv.id, 2, k): (-il, il),
        nm.conv_p(station_id, cv.id, k): (-pl, pl),
    }


def _power_row(name: str, station_id: str, cv, k: int) -> Row:
    """p = u_1 i_1 + u_2 i_2 over the converter's DC terminals; a bipolar pole's terminal 2 is the station neutral."""
    i1, i2 = nm.conv_i(station_id, cv.id, 1, k), nm.conv_i(station_id, cv.id, 2, k)
    u1, u2 = nm.nodal_u(cv.dc_terminal_1, k), nm.nodal_u(cv.dc_terminal_2, k)
    return quad_row(name, {nm.conv_p(station_id, cv.id, k): 1.0}, [(u1, i1, -1.0), (u2, i2, -1.0)])


def _monopole_side(station_id: str, cv, k: int, tag: str) -> StationConstraints:
    """A symmetric monopole converter: equal terminal currents and its power row."""
    variables = converter_variables(cv, station_id, k)
    i1, i2, _ = variables
    rows = (
        lin_row(f"cv.{station_id}.{tag}cur@{k}", {i1: 1.0, i2: -1.0}),
        _power_row(f"cv.{station_id}.{tag}pwr@{k}", station_id, cv, k),
    )
    return StationConstraints(rows, variables)


def _bipolar(station: ConverterStation, k: int) -> StationConstraints:
    """Bipolar station with DMR: the pole current rows, the DMR row and both power rows."""
    cva, cvb = station.pole_converters
    s = station.id
    boxes = {**converter_variables(cva, s, k), **converter_variables(cvb, s, k), nm.dmr_i(s, k): (-INF, INF)}
    ia1, ia2, pa, ib1, ib2, pb, idmr = boxes

    rows = (
        lin_row(f"cv.{s}.a.cur@{k}", {ia1: 1.0, ia2: 1.0}),
        lin_row(f"cv.{s}.b.cur@{k}", {ib1: 1.0, ib2: -1.0}),
        lin_row(f"cv.{s}.dmr@{k}", {ia2: 1.0, ib2: 1.0, idmr: -1.0}),
        _power_row(f"cv.{s}.a.pwr@{k}", s, cva, k),
        _power_row(f"cv.{s}.b.pwr@{k}", s, cvb, k),
    )
    return StationConstraints(rows, {v: boxes[v] for v in (ia1, ia2, ib1, ib2, pa, pb, idmr)})


def symmetric_row(station: ConverterStation, k: int = 0) -> Row:
    """The row i_a2 + i_b2 = 0 that symmetric operation (beta = 1) adds to a bipolar station."""
    cva, cvb = station.pole_converters
    return lin_row(
        nm.symmetric_row(station.id, k),
        {nm.conv_i(station.id, cva.id, 2, k): 1.0, nm.conv_i(station.id, cvb.id, 2, k): 1.0},
    )


def _dcdc(station: ConverterStation, k: int) -> StationConstraints:
    """DC-DC converter: each side behaves as a symmetric monopole; the
    inter-side transfer is lossless (side powers sum to zero)."""
    sides = [_monopole_side(station.id, cv, k, f"{cv.id}.") for cv in station.pole_converters]
    p_terms = {nm.conv_p(station.id, cv.id, k): 1.0 for cv in station.pole_converters}
    lossless = lin_row(f"cv.{station.id}.lossless@{k}", p_terms)
    return StationConstraints(
        tuple(row for side in sides for row in side.rows) + (lossless,),
        {v: box for side in sides for v, box in side.variables.items()},
    )


def station_constraints(station: ConverterStation, k: int = 0) -> StationConstraints:
    """The constraint set of a station in state k, without a bipolar station's symmetric row."""
    if station.config is StationConfig.BIPOLAR:
        return _bipolar(station, k)
    if station.config is StationConfig.MONOPOLE:
        return _monopole_side(station.id, station.pole_converters[0], k, "")
    return _dcdc(station, k)


@dataclass(frozen=True)
class SymmetricCountConstraint:
    """The N_b counting rule on the symmetric-station selectors.

    beta_s = 1 runs station s symmetric; exactly N_b stations do, sum(beta)
    = N_b. An "at least N_b" rule would have the same optimum: beta = 0
    only omits a row, so an assignment with more symmetric stations is a
    restriction of one with exactly N_b. This is the only place the rule
    lives: admissibility of a complete assignment, propagation and rounding
    on a partial one (branch-and-bound) and enumeration of the completions.
    """

    station_ids: tuple[str, ...]  # sorted: the enumeration order follows it
    n_b: int

    def __post_init__(self):
        if not 0 <= self.n_b <= len(self.station_ids):
            raise ValueError(f"N_b={self.n_b} out of range for {len(self.station_ids)} bipolar stations")

    def admissible(self, beta: dict[str, int]) -> bool:
        return sum(beta[s] for s in self.station_ids) == self.n_b

    def propagate(self, beta: dict[str, int | None]) -> dict[str, int | None] | None:
        """Fix the undecided (None) selectors every admissible completion agrees on.

        Returns None when the partial assignment has no admissible completion.
        """
        beta = {s: beta[s] for s in self.station_ids}
        ones = sum(1 for v in beta.values() if v == 1)
        undecided = sum(1 for v in beta.values() if v is None)
        if ones + undecided < self.n_b or ones > self.n_b:
            return None
        if ones < self.n_b and ones + undecided == self.n_b:
            return {s: (1 if v is None else v) for s, v in beta.items()}
        if ones == self.n_b:
            return {s: (0 if v is None else v) for s, v in beta.items()}
        return beta

    def rounded(self, beta: dict[str, int | None], scores: dict[str, float]) -> dict[str, int] | None:
        """Complete a partial assignment by one score per undecided (None) selector.

        Decided entries stay. The undecided stations with the smallest scores
        (ties by station id) run symmetric until the rule is met; the others
        run asymmetric. Returns None when the partial assignment has no
        admissible completion.
        """
        beta = self.propagate(beta)
        if beta is None:
            return None
        short = self.n_b - sum(1 for v in beta.values() if v == 1)
        undecided = sorted((s for s, v in beta.items() if v is None), key=lambda s: (scores[s], s))
        symmetric = set(undecided[:short])
        return {s: int(s in symmetric) if v is None else v for s, v in beta.items()}

    def completions(self, forced_zero: Iterable[str] = ()) -> list[dict[str, int]]:
        """Every admissible assignment with the `forced_zero` stations asymmetric.

        Ordered by the sorted ids of the asymmetric set; empty when the
        forced stations alone exceed the asymmetric budget.
        """
        forced = set(forced_zero)
        free = [s for s in self.station_ids if s not in forced]
        unforced = len(self.station_ids) - self.n_b - len(forced)  # asymmetric stations left to choose
        if unforced < 0:
            return []
        out: list[dict[str, int]] = []
        for combo in itertools.combinations(free, unforced):
            asym = forced.union(combo)
            out.append({s: (0 if s in asym else 1) for s in self.station_ids})
        return out


def symmetric_count_constraint(
    stations: list[ConverterStation] | tuple[ConverterStation, ...], n_b: int
) -> SymmetricCountConstraint:
    ids = tuple(sorted(cs.id for cs in stations))
    return SymmetricCountConstraint(ids, n_b)


def neutral_offset_kv(u_pu: float, base_kv: float) -> float:
    """Physical neutral-bus voltage offset from its per-unit value."""
    return u_pu * base_kv


def neutral_offsets(grid: Grid, values: dict[str, float], k: int = 0) -> dict[str, tuple[float, float]]:
    """{station: (u_pu, offset kV)} of each station neutral in state k, from a solved variable map."""
    out: dict[str, tuple[float, float]] = {}
    for cs in grid.converter_stations:
        if cs.neutral_node is not None:
            u = values[nm.nodal_u(cs.neutral_node, k)]
            out[cs.id] = (u, neutral_offset_kv(u, grid.node(cs.neutral_node).base_kv))
    return out
