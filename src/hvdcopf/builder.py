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

The tableau is assembled once per grid, every line in service; each
state's KCL, connection and element rows are the rows of its matrix.

The binaries change rows only: a symmetric-operation selector beta = 1
adds its station's symmetric row, a neutral-line status gamma restamps its
line's element rows, and `None` marks a binary the branch-and-bound
relaxation leaves undecided, which omits the row it would add (symmetric
row / line voltage row).  A `BinaryAssignment` keys those values like
`BinaryCatalogue.rows`; a binary it does not list takes its default
(`BinaryCatalogue.default`).  `compile_program` emits each state once with
every variant of those rows, tagged with the binary and the values that
keep it, and freezes once.  `ProgramTemplate.program` then makes the
program of each assignment or B&B node by selecting rows; variables,
bounds, costs, the start point and the inequality rows are shared,
read-only.  `build_opf` / `build_scopf` are compile-then-program.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from . import naming as nm
from .converters import SymmetricCountConstraint, station_constraints, symmetric_count_constraint, symmetric_row
from .grid import Grid, NodeKind, StationConfig
from .nlp import INF, BilinearTerms, NlpProblem, ProblemBuilder, Row, lin_row
from .tableau import ElementStamp, TableauSystem, assemble_tableau, require_grounded, stamp_dc_line

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
class OpfOptions:
    n_b: int
    offset_limit_kv: float | None = None
    nls_candidates: tuple[str, ...] = ()
    outage: str | None = None


Binary = tuple[int, str, str]  # (k, "beta" | "gamma", station or line id), a key of `BinaryCatalogue.rows`


@dataclass(frozen=True)
class BinaryAssignment:
    """Binary values keyed like `BinaryCatalogue.rows`, None = undecided; an unlisted binary takes its default."""

    values: tuple[tuple[Binary, int | None], ...] = ()  # sorted by key

    @staticmethod
    def of(values: dict[Binary, int | None]) -> BinaryAssignment:
        return BinaryAssignment(tuple(sorted(values.items())))

    def state(self, k: int, kind: str) -> dict[str, int | None]:
        """{id: value} of the listed binaries of `kind` in state k."""
        return {name: v for (j, kd, name), v in self.values if j == k and kd == kind}

    def is_complete(self) -> bool:
        return all(v is not None for _, v in self.values)

    def _by_state(self, kind: str) -> dict[int, tuple[list[str], list[str]]]:
        """{k: (ids at 0, undecided ids)} over the states that list a binary of `kind`."""
        out: dict[int, tuple[list[str], list[str]]] = {}
        for (k, kd, name), v in self.values:
            if kd == kind:
                zero, undecided = out.setdefault(k, ([], []))
                if v is None or v == 0:
                    (undecided if v is None else zero).append(name)
        return out

    def sort_key(self):
        """Lexicographic tie-break key: asymmetric sets, then opened lines, per state."""
        return tuple(tuple((k, tuple(zero)) for k, (zero, _) in self._by_state(kind).items()) for kind in ("beta", "gamma"))

    def label(self) -> str:
        parts = []
        for kind, tag in (("beta", "asym"), ("gamma", "open")):
            for k, (zero, und) in self._by_state(kind).items():
                if kind == "beta" or zero or und:  # a state's line statuses only when one is not in service
                    parts.append(f"k{k}:{tag}={{{','.join(zero)}}}" + (f" undecided={{{','.join(und)}}}" if und else ""))
        return "; ".join(parts) or "default"


@dataclass(frozen=True)
class BinaryCatalogue:
    """What the discrete layer may decide, per scenario, on the grid it was built from.

    `rows[(k, kind, id)]` is the row binary `id` of state k adds at value 1
    and leaves out while undecided: a station's symmetric row (kind "beta")
    or an NLS candidate's in-service voltage row (kind "gamma").
    """

    scenarios: tuple[Scenario, ...]
    forced_beta: dict[tuple[int, str], int]  # (k, station) -> forced value
    gamma_lines: tuple[str, ...]  # sorted NLS candidate line ids
    count_rule: SymmetricCountConstraint  # N_b over the sorted bipolar station ids
    grid: Grid = field(repr=False)
    rows: dict[Binary, Row] = field(repr=False)

    @property
    def beta_stations(self) -> tuple[str, ...]:
        return self.count_rule.station_ids

    def default(self) -> BinaryAssignment:
        """Every binary at its default: faulted station asymmetric, other stations symmetric, lines in service."""
        return BinaryAssignment.of({(k, kind, s): self.forced_beta.get((k, s), 1) if kind == "beta" else 1
                                    for k, kind, s in self.rows})

    def check(self, assignment: BinaryAssignment | None) -> dict[Binary, int | None]:
        """The value of every binary: `assignment`'s where it lists one, its default elsewhere.

        A binary the catalogue does not list, or a value other than 0, 1 or
        None, is a `BuildError`; open lines that leave a state's station
        neutral without ground are an `UngroundedNeutralError`.
        """
        values = dict(self.default().values)
        states = {sc.k for sc in self.scenarios}
        for binary, value in () if assignment is None else assignment.values:
            k, _, name = binary
            if k not in states:
                raise BuildError(f"state {k} has no binaries to decide")
            if binary not in values:
                raise BuildError(f"state {k}: {name} is not a binary of the catalogue")
            if value not in (0, 1, None):
                raise BuildError(f"state {k}: binary {name} = {value!r} is not 0, 1 or None")
            values[binary] = value
        for k in sorted(states):  # an unlisted or undecided line counts as in service
            opened = {bd: 0 for (j, kind, bd), v in values.items() if (j, kind, v) == (k, "gamma", 0)}
            if opened:
                require_grounded(self.grid, opened)
        return values


def split_outage(grid: Grid, outage: str) -> tuple[str, str]:
    """'<station>.<pole>' -> (station_id, pole_id), validated as a bipolar pole."""
    station_id, _, pole = outage.rpartition(".")
    if not station_id:
        raise BuildError(f"outage {outage!r} is not of the form '<station>.<pole>'")
    try:
        cs = grid.station(station_id)
        cs.converter(pole)
    except KeyError as exc:
        raise BuildError(f"outage {outage!r}: {exc.args[0]}") from None
    if cs.config is not StationConfig.BIPOLAR:
        raise BuildError(f"outage target {station_id!r} is not a bipolar station")
    return station_id, pole


# which value of its line's gamma keeps each element row of an NLS candidate:
# the in-service stamp's voltage row (0) only at gamma = 1, its continuity row
# (1) also while gamma is undecided; the open stamp's rows at gamma = 0
_IN_SERVICE_KEEP = (frozenset({1}), frozenset({1, None}))
_OPEN_KEEP = frozenset({0})
_SYMMETRIC_KEEP = frozenset({1})  # a station's symmetric row: beta = 1 only


def _rows(mat: sp.csr_matrix, names: list[str], columns: list[str]) -> list[Row]:
    """Row r of `mat` as the `Row` names[r] over the variables `columns`; a zero coefficient is left out."""
    ptr, cols, vals = mat.indptr.tolist(), mat.indices.tolist(), mat.data.tolist()
    out = []
    for r, name in enumerate(names):
        entries = range(ptr[r], ptr[r + 1])
        out.append(Row(name, tuple((columns[cols[j]], vals[j]) for j in entries if vals[j] != 0.0)))
    return out


def _element_rows(stamp: ElementStamp, k: int) -> list[Row]:
    """The element rows F_u u + F_i i = 0 of one stamp in state k, from its 2x2 blocks."""
    ends = ("i", "j")
    columns = [nm.port_u(stamp.element_id, e, k) for e in ends] + [nm.port_i(stamp.element_id, e, k) for e in ends]
    names = [f"elem.{stamp.element_id}.{r}@{k}" for r in range(2)]
    return _rows(sp.csr_matrix(np.hstack([stamp.f_u, stamp.f_i])), names, columns)


def _emit_state(
    pb: ProblemBuilder,
    grid: Grid,
    tab: TableauSystem,
    scenario: Scenario,
    offset_limit_kv: float | None,
    candidates: tuple[str, ...] = (),
    variants: list | None = None,
) -> None:
    """Emit one state with every row each of its binaries may add or restamp.

    The network rows are the rows of `tab.matrix`. With `variants` None (and
    no `candidates`) the state is fixed: every station symmetric, every line
    in service (the SCOPF base state). Otherwise each binary-dependent
    equality row is tagged in `variants` as (row, (k, kind, id), values): a
    program keeps it when the binary takes one of `values`. The rows are the
    symmetric row of each bipolar station and both stamps of each NLS
    candidate line in `candidates`.
    """
    k = scenario.k
    faulted_station, faulted_pole = (None, None)
    if scenario.outage is not None:
        faulted_station, faulted_pole = split_outage(grid, scenario.outage)

    def add_eq(row: Row, binary: tuple | None = None, values: frozenset | None = None) -> None:
        if binary is not None and variants is not None:
            variants.append((pb.n_eq, binary, values))
        pb.add_eq(row)

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

    # the tableau rows: KCL A i = Inj, connection u = A^T U, element F_u u + F_i i = 0
    ports = [(el.element_id, end) for el in tab.elements for end in ("i", "j")]
    columns = [nm.nodal_u(node_id, k) for node_id in tab.node_ids]
    columns += [nm.port_u(el, end, k) for el, end in ports] + [nm.port_i(el, end, k) for el, end in ports]
    names = [f"kcl.{node_id}@{k}" for node_id in tab.node_ids] + [f"kvl.{el}.{end}@{k}" for el, end in ports]
    names += [f"elem.{el.element_id}.{r}@{k}" for el in tab.elements for r in range(2)]
    rows = _rows(tab.matrix, names, columns)
    for node_id, row in zip(tab.node_ids, rows):
        pb.add_eq(Row(row.name, row.lin + ((nm.injection(node_id, k), -1.0),)))
    for row in rows[tab.n_nodes : tab.n_nodes + tab.n_ports]:
        pb.add_eq(row)

    # each candidate line in service and open
    opened = {bd: _element_rows(stamp_dc_line(grid.line(bd), 0), k) for bd in candidates}
    for e, el in enumerate(tab.elements):
        for r in range(2):
            row = rows[tab.n_nodes + tab.n_ports + 2 * e + r]
            if el.element_id not in opened:
                add_eq(row)
                continue
            binary = (k, "gamma", el.element_id)
            add_eq(row, binary, _IN_SERVICE_KEEP[r])
            add_eq(opened[el.element_id][r], binary, _OPEN_KEEP)

    # reference pins
    for node_id, val in tab.pins:
        pb.add_eq(lin_row(f"pin.{node_id}@{k}", {nm.nodal_u(node_id, k): 1.0}, -val))

    # converter variables and station constraint sets, with the symmetric rows
    conv_at_node: dict[str, list[str]] = {}
    for cs in grid.converter_stations:
        outaged = faulted_pole if cs.id == faulted_station else None
        cons = station_constraints(cs, k, outaged)
        for v in cons.variables:
            pb.add_var(v)
        for v, (lb, ub) in cons.bounds.items():
            pb.set_bounds(v, lb, ub)
        for row in cons.rows:
            pb.add_eq(row)
        if cs.config is StationConfig.BIPOLAR:
            add_eq(symmetric_row(cs, k), (k, "beta", cs.id), _SYMMETRIC_KEEP)
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
    for what, ids in (("contingency", contingencies or ()), ("NLS candidate", options.nls_candidates)):
        repeated = sorted({x for x in ids if ids.count(x) > 1})
        if repeated:
            raise BuildError(f"{what} {repeated[0]!r} is listed more than once")
    if options.offset_limit_kv is not None and options.offset_limit_kv < 0.0:
        raise BuildError(f"offset_limit_kv must be nonnegative, got {options.offset_limit_kv!r}")
    forced: dict[tuple[int, str], int] = {}
    for sc in scenarios:
        if sc.outage is not None:
            forced[(sc.k, split_outage(grid, sc.outage)[0])] = 0
    for bd in options.nls_candidates:
        try:
            line = grid.line(bd)
        except KeyError:
            raise BuildError(f"NLS candidate {bd!r} is not a DC line of the grid") from None
        if line.conductor_role.value != "neutral":
            raise BuildError(f"NLS candidate {bd!r} is not a neutral-role line")
        if not line.switchable:
            raise BuildError(f"NLS candidate {bd!r} is not a switchable line")
    try:
        count_rule = symmetric_count_constraint(grid.bipolar_stations(), options.n_b)
    except ValueError as exc:
        raise BuildError(str(exc)) from exc
    gamma_lines = tuple(sorted(options.nls_candidates))
    rows: dict[tuple[int, str, str], Row] = {}
    for sc in scenarios:
        for st in count_rule.station_ids:
            rows[(sc.k, "beta", st)] = symmetric_row(grid.station(st), sc.k)
        for bd in gamma_lines:
            rows[(sc.k, "gamma", bd)] = _element_rows(stamp_dc_line(grid.line(bd), 1), sc.k)[0]
    return BinaryCatalogue(scenarios, forced, gamma_lines, count_rule, grid, rows)


class ProgramTemplate:
    """One program shape, compiled once; `program` makes each member by selecting rows.

    The compiled program holds every equality row any binary value needs,
    tagged with the binary and the values that keep it. A program keeps the
    untagged rows and the tagged rows its binaries select, in compiled order
    (`NlpProblem.template_rows`). Variables, bounds, costs, the start point
    and the inequality rows do not depend on the binaries; every program shares them, read-only.
    """

    def __init__(self, catalogue: BinaryCatalogue, compiled: NlpProblem, variants: list):
        self.catalogue = catalogue
        self._compiled = compiled
        self._always = np.ones(compiled.n_eq, dtype=bool)
        self._variants: dict[Binary, list[tuple[frozenset, int]]] = {}
        for row, binary, values in variants:
            self._always[row] = False
            self._variants.setdefault(binary, []).append((values, row))
        self._row_nnz = np.diff(compiled.a_eq.indptr)
        a_in = compiled.a_ineq
        for arr in (compiled.lb, compiled.ub, compiled.cost, compiled.start, compiled.b_ineq,
                    a_in.data, a_in.indices, a_in.indptr):
            arr.setflags(write=False)

    def program(self, assignment: BinaryAssignment | None = None) -> NlpProblem:
        """The program with `assignment`'s binaries fixed; a binary it does not list takes its default."""
        values = self.catalogue.check(assignment)
        keep = self._always.copy()
        for binary, rows in self._variants.items():
            for kept, row in rows:
                if values[binary] in kept:
                    keep[row] = True
        return self._select(keep)

    def _select(self, keep: np.ndarray) -> NlpProblem:
        full = self._compiled
        a = full.a_eq
        lengths = self._row_nnz[keep]
        indptr = np.zeros(len(lengths) + 1, dtype=a.indptr.dtype)
        np.cumsum(lengths, out=indptr[1:])
        entries = np.repeat(keep, self._row_nnz)
        a_eq = sp.csr_matrix((a.data[entries], a.indices[entries], indptr), shape=(len(lengths), full.n_vars))
        q = full.bilinear
        kept = keep[q.row]
        return NlpProblem(
            name=full.name,
            var_names=full.var_names,
            lb=full.lb,
            ub=full.ub,
            cost=full.cost,
            start=full.start,
            eq_names=tuple(itertools.compress(full.eq_names, keep)),
            ineq_names=full.ineq_names,
            a_eq=a_eq,
            b_eq=full.b_eq[keep],
            bilinear=BilinearTerms((np.cumsum(keep) - 1)[q.row[kept]], q.a[kept], q.b[kept], q.coeff[kept]),
            a_ineq=full.a_ineq,
            b_ineq=full.b_ineq,
            meta={**full.meta, "template_rows": np.flatnonzero(keep)},
        )


def compile_program(
    grid: Grid, options: OpfOptions, contingencies: tuple[str, ...] | None = None
) -> ProgramTemplate:
    """Compile the OPF, or the reserve-coupled SCOPF over `contingencies`.

    The OPF is one state (the post-contingency state when an outage is
    set). The SCOPF adds a pre-contingency state (k=0), fully symmetric with
    every neutral line in service, to one state per contingency; binaries
    act per post-contingency state only.
    """
    catalogue = binary_catalogue(grid, options, contingencies)
    if contingencies is None:
        pb = ProblemBuilder(f"opf[{catalogue.scenarios[0].label}]")
        fixed: tuple[Scenario, ...] = ()
    else:
        pb = ProblemBuilder(f"scopf[{len(contingencies)} scenarios]")
        fixed = (Scenario(0, None),)
    scenarios = fixed + catalogue.scenarios
    pb.meta.update(cost_scale=COST_SCALE, scenarios=[sc.label for sc in scenarios])  # labels by state k
    tab = assemble_tableau(grid)
    variants: list = []
    for sc in fixed:
        _emit_state(pb, grid, tab, sc, options.offset_limit_kv)
    for sc in catalogue.scenarios:
        _emit_state(pb, grid, tab, sc, options.offset_limit_kv, catalogue.gamma_lines, variants)

    for g in grid.generators:
        pb.add_cost(nm.gen_p(g.id, 0), g.cost * grid.base_mw * COST_SCALE)
    if contingencies is not None:
        _emit_reserves(pb, grid, catalogue.scenarios)
    return ProgramTemplate(catalogue, pb.build(), variants)


def _emit_reserves(pb: ProblemBuilder, grid: Grid, scenarios: tuple[Scenario, ...]) -> None:
    """Generator reserves and the rows coupling each post-contingency state to the base state."""
    s_base = grid.base_mw
    for g in grid.generators:
        pb.add_var(nm.reserve_up(g.id), 0.0, INF, cost=g.reserve_cost_up * s_base * COST_SCALE)
        pb.add_var(nm.reserve_down(g.id), 0.0, INF, cost=g.reserve_cost_down * s_base * COST_SCALE)
    for sc in scenarios:
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


def build_opf(
    grid: Grid, options: OpfOptions, binaries: BinaryAssignment | None = None
) -> tuple[NlpProblem, BinaryCatalogue]:
    """Single-state program: `compile_program`, then its `program` (state k=0)."""
    template = compile_program(grid, options)
    return template.program(binaries), template.catalogue


def build_scopf(
    grid: Grid, contingencies: tuple[str, ...], options: OpfOptions, binaries: BinaryAssignment | None = None
) -> tuple[NlpProblem, BinaryCatalogue]:
    """Reserve-coupled program: `compile_program` over `contingencies`, then its `program`."""
    template = compile_program(grid, options, contingencies)
    return template.program(binaries), template.catalogue


def objective_in_currency(problem: NlpProblem, objective_value: float) -> float:
    return objective_value / problem.meta.get("cost_scale", COST_SCALE)
