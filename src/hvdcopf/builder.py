"""Assembly of the continuous OPF / SCOPF programs.

One program state holds the full tableau of the DC network plus converter,
nodal-balance and AC-side rows for one topology; the SCOPF replicates
states per contingency scenario and couples them through generator
reserves:

    min  sum_g C_g p_{g,0} + C_g_up r_g_up + C_g_down r_g_down
    s.t. tableau + converter + balance rows      per state k
         p_{g,k} - p_{g,0} <= r_g_up             k in contingencies
         p_{g,0} - p_{g,k} <= r_g_down
         0 <= r_g_up <= Pmax_g - p_{g,0},  0 <= r_g_down <= p_{g,0}

Binary statuses (symmetric-operation selectors and neutral-line statuses)
are fixed by the caller before each build; `None` marks an undecided
binary for the branch-and-bound relaxation, which simply omits the
constraint the binary would add (symmetric row / line voltage row).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from . import naming as nm
from .converters import SymmetricCountConstraint, station_constraints, symmetric_count_constraint
from .grid import Grid, NodeKind, StationConfig
from .nlp import INF, NlpProblem, ProblemBuilder, lin_row
from .tableau import assemble_tableau

COST_SCALE = 1e-3  # objective unit: 1e-3 * currency/h, keeps magnitudes near 1


class BuildError(ValueError):
    pass


@dataclass(frozen=True)
class Scenario:
    """One program state: base (outage None) or an N-1 pole outage."""

    k: int
    outage: str | None = None  # bipolar pole converter key '<station>.<pole>'

    @property
    def label(self) -> str:
        return "base" if self.outage is None else self.outage


@dataclass(frozen=True)
class StateBinaries:
    """Fixed binary values for one state; None = undecided (relaxed)."""

    beta: dict[str, int | None] = field(default_factory=dict)
    gamma: dict[str, int | None] = field(default_factory=dict)


@dataclass(frozen=True)
class OpfOptions:
    n_b: int
    nb_mode: str = "exact"
    offset_limit_kv: float | None = None
    nls_candidates: tuple[str, ...] = ()
    outage: str | None = None
    count_faulted_as_asymmetric: bool = True


@dataclass(frozen=True)
class BinaryCatalogue:
    """What the discrete layer may decide, per scenario."""

    scenarios: tuple[Scenario, ...]
    forced_beta: dict[tuple[int, str], int]  # (k, station) -> forced value
    gamma_lines: tuple[str, ...]  # sorted NLS candidate line ids
    count_rule: SymmetricCountConstraint  # N_b over the sorted bipolar station ids

    @property
    def beta_stations(self) -> tuple[str, ...]:
        return self.count_rule.station_ids


def split_outage(grid: Grid, outage: str) -> tuple[str, str]:
    """'<station>.<pole>' -> (station_id, pole_id), validated as a bipolar pole."""
    station_id, _, pole = outage.rpartition(".")
    if not station_id:
        raise BuildError(f"outage {outage!r} is not of the form '<station>.<pole>'")
    cs = grid.station(station_id)
    if cs.config is not StationConfig.BIPOLAR:
        raise BuildError(f"outage target {station_id!r} is not a bipolar station")
    cs.converter(pole)  # raises KeyError on a bad pole id
    return station_id, pole


def _default_binaries(grid: Grid, scenario: Scenario, candidates: tuple[str, ...]) -> StateBinaries:
    faulted = split_outage(grid, scenario.outage)[0] if scenario.outage else None
    beta = {cs.id: (0 if cs.id == faulted else 1) for cs in grid.bipolar_stations()}
    gamma = {bd: 1 for bd in candidates}
    return StateBinaries(beta, gamma)


def _emit_state(
    pb: ProblemBuilder,
    grid: Grid,
    scenario: Scenario,
    binaries: StateBinaries,
    offset_limit_kv: float | None,
) -> None:
    k = scenario.k
    faulted_station, faulted_pole = (None, None)
    if scenario.outage is not None:
        faulted_station, faulted_pole = split_outage(grid, scenario.outage)

    topology = {bd: g for bd, g in binaries.gamma.items() if g is not None}
    relaxed = {bd for bd, g in binaries.gamma.items() if g is None}
    tab = assemble_tableau(grid, topology)

    # tableau unknowns
    for node_id in tab.node_ids:
        if grid.has_node(node_id):
            n = grid.node(node_id)
            lb = n.vmin_pu if n.vmin_pu is not None else -INF
            ub = n.vmax_pu if n.vmax_pu is not None else INF
            start = 1.0 if n.kind in (NodeKind.POSITIVE, NodeKind.NEGATIVE) else 0.0
        else:  # earth
            lb, ub, start = -INF, INF, 0.0
        pb.add_var(nm.nodal_u(node_id, k), lb, ub, start=start)
    for el in tab.elements:
        for end, node in zip(("i", "j"), el.nodes):
            pb.add_var(nm.port_u(el.element_id, end, k), start=pb.get_start(nm.nodal_u(node, k)))
            pb.add_var(nm.port_i(el.element_id, end, k))
    for node_id in tab.node_ids:
        pb.add_var(nm.injection(node_id, k))

    # KCL rows: A i = Inj
    attached: dict[str, list[str]] = {node: [] for node in tab.node_ids}
    for el in tab.elements:
        for end, node in zip(("i", "j"), el.nodes):
            attached[node].append(nm.port_i(el.element_id, end, k))
    for node_id in tab.node_ids:
        lin = {p: 1.0 for p in attached[node_id]}
        lin[nm.injection(node_id, k)] = -1.0
        pb.add_eq(lin_row(f"kcl.{node_id}@{k}", lin))

    # connection rows: u = A^T U
    for el in tab.elements:
        for end, node in zip(("i", "j"), el.nodes):
            pb.add_eq(
                lin_row(
                    f"kvl.{el.element_id}.{end}@{k}",
                    {nm.port_u(el.element_id, end, k): 1.0, nm.nodal_u(node, k): -1.0},
                )
            )

    # element rows: F_u u + F_i i = 0 (voltage row dropped for relaxed lines)
    for el in tab.elements:
        names_u = [nm.port_u(el.element_id, e, k) for e in ("i", "j")]
        names_i = [nm.port_i(el.element_id, e, k) for e in ("i", "j")]
        for r in range(2):
            if el.element_id in relaxed and r == 0:
                continue
            lin: dict[str, float] = {}
            for c in range(2):
                if el.f_u[r, c] != 0.0:
                    lin[names_u[c]] = lin.get(names_u[c], 0.0) + float(el.f_u[r, c])
                if el.f_i[r, c] != 0.0:
                    lin[names_i[c]] = lin.get(names_i[c], 0.0) + float(el.f_i[r, c])
            if lin:
                pb.add_eq(lin_row(f"elem.{el.element_id}.{r}@{k}", lin))

    # reference pins
    for node_id, val in tab.pins:
        pb.add_eq(lin_row(f"pin.{node_id}@{k}", {nm.nodal_u(node_id, k): 1.0}, -val))

    # converter variables and station constraint sets
    conv_at_node: dict[str, list[str]] = {}
    for cs in grid.converter_stations:
        outaged = faulted_pole if cs.id == faulted_station else None
        beta = binaries.beta.get(cs.id) if cs.config is StationConfig.BIPOLAR else None
        cons = station_constraints(cs, beta, k, outaged)
        for v in cons.variables:
            pb.add_var(v)
        for v, (lb, ub) in cons.bounds.items():
            pb.set_bounds(v, lb, ub)
        for row in cons.rows:
            pb.add_eq(row)
        for cv in cs.pole_converters:
            conv_at_node.setdefault(cv.dc_terminal_1, []).append(nm.conv_i(cs.id, cv.id, 1, k))
            conv_at_node.setdefault(cv.dc_terminal_2, []).append(nm.conv_i(cs.id, cv.id, 2, k))

    # nodal current balance with converter injections
    for node_id in tab.node_ids:
        lin = {nm.injection(node_id, k): 1.0}
        for v in conv_at_node.get(node_id, ()):
            lin[v] = lin.get(v, 0.0) + 1.0
        pb.add_eq(lin_row(f"nbal.{node_id}@{k}", lin))

    # generators and AC-side station balance
    s_base = grid.base_mw
    for g in grid.generators:
        pb.add_var(
            nm.gen_p(g.id, k),
            g.p_min_mw / s_base,
            g.p_max_mw / s_base,
            start=(g.p_min_mw + g.p_max_mw) / (2.0 * s_base),
        )
    demand_at: dict[str, float] = {}
    for d in grid.demands:
        demand_at[d.bus] = demand_at.get(d.bus, 0.0) + d.p_mw / s_base
    for bus in grid.ac_buses():
        lin: dict[str, float] = {}
        for g in grid.generators:
            if g.bus == bus:
                lin[nm.gen_p(g.id, k)] = 1.0
        for cs in grid.converter_stations:
            for cv in cs.pole_converters:
                if cv.ac_terminal == bus:
                    lin[nm.conv_p(cs.id, cv.id, k)] = lin.get(nm.conv_p(cs.id, cv.id, k), 0.0) + 1.0
        pb.add_eq(lin_row(f"acbal.{bus}@{k}", lin, -demand_at.get(bus, 0.0)))

    # optional neutral-bus voltage offset box
    if offset_limit_kv is not None:
        for n in grid.dc_nodes:
            if n.kind is not NodeKind.NEUTRAL:
                continue
            lim = offset_limit_kv / abs(n.base_kv)
            u = nm.nodal_u(n.id, k)
            pb.add_ineq(lin_row(f"offlim.{n.id}.hi@{k}", {u: 1.0}, -lim))
            pb.add_ineq(lin_row(f"offlim.{n.id}.lo@{k}", {u: -1.0}, -lim))


def binary_catalogue(
    grid: Grid, options: OpfOptions, contingencies: tuple[str, ...] | None = None
) -> BinaryCatalogue:
    """Binaries of the OPF, or of the SCOPF over `contingencies`; builds no program.

    The SCOPF base state is fixed symmetric, so its catalogue holds the
    post-contingency states only.
    """
    if contingencies is None:
        scenarios = (Scenario(0, options.outage),)
    elif not contingencies:
        raise BuildError("SCOPF needs a nonempty contingency set")
    else:
        scenarios = tuple(Scenario(k + 1, outage) for k, outage in enumerate(contingencies))
    forced: dict[tuple[int, str], int] = {}
    for sc in scenarios:
        if sc.outage is not None:
            forced[(sc.k, split_outage(grid, sc.outage)[0])] = 0
    for bd in options.nls_candidates:
        line = grid.line(bd)
        if line.role.value != "neutral":
            raise BuildError(f"NLS candidate {bd!r} is not a neutral-role line")
        if not line.switchable:
            raise BuildError(f"NLS candidate {bd!r} is not a switchable line")
    try:
        count_rule = symmetric_count_constraint(grid.bipolar_stations(), options.n_b, options.nb_mode)
    except ValueError as exc:
        raise BuildError(str(exc)) from exc
    if options.count_faulted_as_asymmetric is not True:
        raise BuildError(
            "count_faulted_as_asymmetric=False is not implemented: "
            "the faulted station always counts as asymmetric"
        )
    return BinaryCatalogue(
        scenarios=scenarios,
        forced_beta=forced,
        gamma_lines=tuple(sorted(options.nls_candidates)),
        count_rule=count_rule,
    )


def build_opf(
    grid: Grid,
    options: OpfOptions,
    binaries: StateBinaries | None = None,
) -> tuple[NlpProblem, BinaryCatalogue]:
    """Single-state program (the post-contingency state when an outage is set)."""
    catalogue = binary_catalogue(grid, options)
    (scenario,) = catalogue.scenarios
    if binaries is None:
        binaries = _default_binaries(grid, scenario, catalogue.gamma_lines)

    pb = ProblemBuilder(f"opf[{scenario.label}]")
    pb.meta.update(cost_scale=COST_SCALE, base_mw=grid.base_mw, currency=grid.currency, scenarios=[scenario.label])
    _emit_state(pb, grid, scenario, binaries, options.offset_limit_kv)
    for g in grid.generators:
        pb.add_cost(nm.gen_p(g.id, 0), g.cost * grid.base_mw * COST_SCALE)
    return pb.build(), catalogue


def build_scopf(
    grid: Grid,
    contingencies: tuple[str, ...],
    options: OpfOptions,
    binaries: dict[int, StateBinaries] | None = None,
) -> tuple[NlpProblem, BinaryCatalogue]:
    """Pre-contingency state plus one state per contingency, reserve-coupled.

    The base state (k=0) is fully symmetric with all neutral lines in
    service; binaries act per post-contingency state only.
    """
    catalogue = binary_catalogue(grid, options, contingencies)
    scenarios = (Scenario(0, None),) + catalogue.scenarios

    pb = ProblemBuilder(f"scopf[{len(contingencies)} scenarios]")
    pb.meta.update(
        cost_scale=COST_SCALE,
        base_mw=grid.base_mw,
        currency=grid.currency,
        scenarios=[sc.label for sc in scenarios],
    )
    base_binaries = StateBinaries({cs.id: 1 for cs in grid.bipolar_stations()}, {})
    for sc in scenarios:
        if sc.k == 0:
            _emit_state(pb, grid, sc, base_binaries, options.offset_limit_kv)
        else:
            b = binaries.get(sc.k) if binaries else None
            if b is None:
                b = _default_binaries(grid, sc, catalogue.gamma_lines)
            _emit_state(pb, grid, sc, b, options.offset_limit_kv)

    s_base = grid.base_mw
    for g in grid.generators:
        pb.add_var(nm.reserve_up(g.id), 0.0, INF, cost=g.reserve_cost_up * s_base * COST_SCALE)
        pb.add_var(nm.reserve_down(g.id), 0.0, INF, cost=g.reserve_cost_down * s_base * COST_SCALE)
        pb.add_cost(nm.gen_p(g.id, 0), g.cost * s_base * COST_SCALE)
    for sc in scenarios[1:]:
        for g in grid.generators:
            pb.add_ineq(
                lin_row(
                    f"resup.{g.id}@{sc.k}",
                    {nm.gen_p(g.id, sc.k): 1.0, nm.gen_p(g.id, 0): -1.0, nm.reserve_up(g.id): -1.0},
                )
            )
            pb.add_ineq(
                lin_row(
                    f"resdn.{g.id}@{sc.k}",
                    {nm.gen_p(g.id, 0): 1.0, nm.gen_p(g.id, sc.k): -1.0, nm.reserve_down(g.id): -1.0},
                )
            )
    for g in grid.generators:
        pb.add_ineq(
            lin_row(
                f"rupcap.{g.id}",
                {nm.reserve_up(g.id): 1.0, nm.gen_p(g.id, 0): 1.0},
                -g.p_max_mw / s_base,
            )
        )
        pb.add_ineq(
            lin_row(f"rdncap.{g.id}", {nm.reserve_down(g.id): 1.0, nm.gen_p(g.id, 0): -1.0})
        )
    return pb.build(), catalogue


def objective_in_currency(problem: NlpProblem, objective_value: float) -> float:
    return objective_value / problem.meta.get("cost_scale", COST_SCALE)
