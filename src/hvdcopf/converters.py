"""Constraint generators for converter stations.

A bipolar station with dedicated metallic return couples its pole
converters CV_a (positive) and CV_b (negative) through

    i_a1 = -i_a2            (what enters terminal 1 leaves terminal 2)
    i_b1 =  i_b2            (same, with the negative-pole sign convention)
    i_dmr = i_a2 + i_b2     (net injection into the station neutral)

and enforces symmetric bipole control, when selected, by i_a2 + i_b2 = 0.
DC-side powers are bilinear in the terminal node voltages and currents.
The binary selector is fixed before every continuous solve: beta=1 adds
the symmetric row, beta=0/None omits it.
"""

from __future__ import annotations

import itertools
from collections.abc import Iterable
from dataclasses import dataclass
from typing import ClassVar

from . import naming as nm
from .grid import ConverterStation, Grid, StationConfig
from .nlp import Row, lin_row, quad_row


class WrongStationConfig(ValueError):
    pass


@dataclass(frozen=True)
class StationConstraints:
    """Rows plus bound overrides emitted for one station in one state."""

    station: str
    rows: tuple[Row, ...]
    bounds: dict[str, tuple[float, float]]
    variables: tuple[str, ...]


def _limit_bounds(cv, station_id: str, k: int, outaged: str | None) -> dict[str, tuple[float, float]]:
    il, pl = cv.current_limit_pu, cv.power_limit_pu
    if outaged == cv.id:
        # outage pins the converter; original ratings are superseded
        il = pl = 0.0
    names = {
        nm.conv_i(station_id, cv.id, 1, k): (-il, il),
        nm.conv_i(station_id, cv.id, 2, k): (-il, il),
        nm.conv_p(station_id, cv.id, k): (-pl, pl),
    }
    return names


def bipolar_constraints(
    station: ConverterStation,
    beta: int | None,
    k: int = 0,
    outaged: str | None = None,
) -> StationConstraints:
    """Constraint set of a bipolar-with-DMR station.

    beta: 1 enforces symmetric bipole control, 0 leaves the station free,
    None (undecided, used by the relaxation) also omits the row.
    outaged: converter id ('a'/'b') whose terminal currents are pinned to 0.
    """
    if station.config is not StationConfig.BIPOLAR:
        raise WrongStationConfig(f"{station.id} is not bipolar")
    cva, cvb = station.pole_converters
    s = station.id
    ia1, ia2 = nm.conv_i(s, cva.id, 1, k), nm.conv_i(s, cva.id, 2, k)
    ib1, ib2 = nm.conv_i(s, cvb.id, 1, k), nm.conv_i(s, cvb.id, 2, k)
    pa, pb = nm.conv_p(s, cva.id, k), nm.conv_p(s, cvb.id, k)
    idmr = nm.dmr_i(s, k)
    u_a = nm.nodal_u(cva.dc_terminal_1, k)
    u_b = nm.nodal_u(cvb.dc_terminal_1, k)
    u_0 = nm.nodal_u(station.neutral_node, k)

    rows = [
        lin_row(f"cv.{s}.a.cur@{k}", {ia1: 1.0, ia2: 1.0}),
        lin_row(f"cv.{s}.b.cur@{k}", {ib1: 1.0, ib2: -1.0}),
        lin_row(f"cv.{s}.dmr@{k}", {ia2: 1.0, ib2: 1.0, idmr: -1.0}),
        quad_row(f"cv.{s}.a.pwr@{k}", {pa: 1.0}, [(u_a, ia1, -1.0), (u_0, ia2, -1.0)]),
        quad_row(f"cv.{s}.b.pwr@{k}", {pb: 1.0}, [(u_b, ib1, -1.0), (u_0, ib2, -1.0)]),
    ]
    if beta == 1:
        rows.append(lin_row(f"sym.{s}@{k}", {ia2: 1.0, ib2: 1.0}))

    bounds: dict[str, tuple[float, float]] = {}
    bounds.update(_limit_bounds(cva, s, k, outaged))
    bounds.update(_limit_bounds(cvb, s, k, outaged))
    variables = (ia1, ia2, ib1, ib2, pa, pb, idmr)
    return StationConstraints(s, tuple(rows), bounds, variables)


def monopole_constraints(station: ConverterStation, k: int = 0) -> StationConstraints:
    """Symmetric monopole: equal terminal currents, bilinear power balance."""
    if station.config is not StationConfig.MONOPOLE:
        raise WrongStationConfig(f"{station.id} is not a symmetric monopole")
    (cv,) = station.pole_converters
    s = station.id
    i1, i2 = nm.conv_i(s, cv.id, 1, k), nm.conv_i(s, cv.id, 2, k)
    p = nm.conv_p(s, cv.id, k)
    u1 = nm.nodal_u(cv.dc_terminal_1, k)
    u2 = nm.nodal_u(cv.dc_terminal_2, k)
    rows = (
        lin_row(f"cv.{s}.cur@{k}", {i1: 1.0, i2: -1.0}),
        quad_row(f"cv.{s}.pwr@{k}", {p: 1.0}, [(u1, i1, -1.0), (u2, i2, -1.0)]),
    )
    return StationConstraints(s, rows, _limit_bounds(cv, s, k, None), (i1, i2, p))


def dcdc_constraints(station: ConverterStation, k: int = 0) -> StationConstraints:
    """DC-DC converter: each side behaves as a symmetric monopole; the
    inter-side transfer is lossless (side powers sum to zero)."""
    if station.config is not StationConfig.DCDC:
        raise WrongStationConfig(f"{station.id} is not a dc-dc converter")
    s = station.id
    rows: list[Row] = []
    bounds: dict[str, tuple[float, float]] = {}
    variables: list[str] = []
    p_terms: dict[str, float] = {}
    for cv in station.pole_converters:
        i1, i2 = nm.conv_i(s, cv.id, 1, k), nm.conv_i(s, cv.id, 2, k)
        p = nm.conv_p(s, cv.id, k)
        u1 = nm.nodal_u(cv.dc_terminal_1, k)
        u2 = nm.nodal_u(cv.dc_terminal_2, k)
        rows.append(lin_row(f"cv.{s}.{cv.id}.cur@{k}", {i1: 1.0, i2: -1.0}))
        rows.append(quad_row(f"cv.{s}.{cv.id}.pwr@{k}", {p: 1.0}, [(u1, i1, -1.0), (u2, i2, -1.0)]))
        bounds.update(_limit_bounds(cv, s, k, None))
        variables.extend((i1, i2, p))
        p_terms[p] = 1.0
    rows.append(lin_row(f"cv.{s}.lossless@{k}", p_terms))
    return StationConstraints(s, tuple(rows), bounds, tuple(variables))


def station_constraints(
    station: ConverterStation,
    beta: int | None = None,
    k: int = 0,
    outaged: str | None = None,
) -> StationConstraints:
    if station.config is StationConfig.BIPOLAR:
        return bipolar_constraints(station, beta, k, outaged)
    if station.config is StationConfig.MONOPOLE:
        return monopole_constraints(station, k)
    return dcdc_constraints(station, k)


@dataclass(frozen=True)
class SymmetricCountConstraint:
    """The N_b counting rule on the symmetric-station selectors.

    beta_s = 1 runs station s symmetric; the rule is sum(beta) = N_b
    ("exact") or sum(beta) >= N_b ("at-least"). This is the only place the
    rule lives: admissibility of a complete assignment, propagation on a
    partial one (branch-and-bound) and enumeration of the completions.
    """

    MODES: ClassVar[tuple[str, ...]] = ("exact", "at-least")

    station_ids: tuple[str, ...]  # sorted: the enumeration order follows it
    n_b: int
    mode: str = "exact"

    def __post_init__(self):
        if not 0 <= self.n_b <= len(self.station_ids):
            raise ValueError(f"N_b={self.n_b} out of range for {len(self.station_ids)} bipolar stations")
        if self.mode not in self.MODES:
            raise ValueError(f"unknown nb_mode {self.mode!r}; expected one of {self.MODES}")

    def admissible(self, beta: dict[str, int]) -> bool:
        total = sum(beta[s] for s in self.station_ids)
        return total == self.n_b if self.mode == "exact" else total >= self.n_b

    def propagate(self, beta: dict[str, int | None]) -> dict[str, int | None] | None:
        """Fix the undecided (None) selectors every admissible completion agrees on.

        Returns None when the partial assignment has no admissible completion.
        """
        beta = {s: beta[s] for s in self.station_ids}
        ones = sum(1 for v in beta.values() if v == 1)
        undecided = sum(1 for v in beta.values() if v is None)
        if ones + undecided < self.n_b or (self.mode == "exact" and ones > self.n_b):
            return None
        if ones < self.n_b and ones + undecided == self.n_b:
            return {s: (1 if v is None else v) for s, v in beta.items()}
        if self.mode == "exact" and ones == self.n_b:
            return {s: (0 if v is None else v) for s, v in beta.items()}
        return beta

    def completions(self, forced_zero: Iterable[str] = ()) -> list[dict[str, int]]:
        """Every admissible assignment with the `forced_zero` stations asymmetric.

        Ordered by the size of the asymmetric set, then by its sorted station
        ids; empty when the forced stations alone exceed the asymmetric budget.
        """
        forced = set(forced_zero)
        free = [s for s in self.station_ids if s not in forced]
        max_asym = len(self.station_ids) - self.n_b
        min_asym = max(max_asym if self.mode == "exact" else 0, len(forced))
        out: list[dict[str, int]] = []
        for size in range(min_asym, max_asym + 1):
            for combo in itertools.combinations(free, size - len(forced)):
                asym = forced.union(combo)
                out.append({s: (0 if s in asym else 1) for s in self.station_ids})
        return out


def symmetric_count_constraint(
    stations: list[ConverterStation] | tuple[ConverterStation, ...],
    n_b: int,
    mode: str = "exact",
) -> SymmetricCountConstraint:
    ids = tuple(sorted(cs.id for cs in stations))
    return SymmetricCountConstraint(ids, n_b, mode)


def neutral_offset_kv(u_pu: float, base_kv: float) -> float:
    """Physical neutral-bus voltage offset from its per-unit value."""
    return u_pu * base_kv


def neutral_offsets(grid: Grid, values: dict[str, float], k: int = 0) -> dict[str, float]:
    """Per-station neutral offsets in kV from a solved variable map."""
    out: dict[str, float] = {}
    for cs in grid.converter_stations:
        if cs.neutral_node is None:
            continue
        node = grid.node(cs.neutral_node)
        out[cs.id] = neutral_offset_kv(values[nm.nodal_u(cs.neutral_node, k)], node.base_kv)
    return out


def station_current_identity(values: dict[str, float], station: ConverterStation, k: int = 0) -> float:
    """Residual of i_dmr - (i_a2 + i_b2); zero on any consistent solution."""
    cva, cvb = station.pole_converters
    return values[nm.dmr_i(station.id, k)] - (
        values[nm.conv_i(station.id, cva.id, 2, k)] + values[nm.conv_i(station.id, cvb.id, 2, k)]
    )


def dc_power_balance_residual(values: dict[str, float], k: int = 0) -> float:
    """Station DC powers plus element I^2R losses; zero on any solved state.

    Element losses are summed as port-power u.i over every network element
    (lines, switches, grounding paths), so the identity covers pole, neutral
    and earth-return dissipation.
    """
    suffix = f"@{k}"
    total = 0.0
    for name, v in values.items():
        if name.startswith("u.") and name.endswith(suffix):
            total += v * values["i." + name[2:]]
        elif name.startswith("pcv.") and name.endswith(suffix):
            total += v
    return total
