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
`BinaryCatalogue.binaries`; a binary it does not list takes its default
(`BinaryCatalogue.default`).  `compile_program` emits and freezes one state
shape with every variant of those rows, tagged with the binary and the
values that keep it, and stacks one array copy of it per state.
`ProgramTemplate.program` then makes the program of each assignment or B&B
node by selecting rows; variables, bounds, costs, the start point and the
inequality rows are shared, read-only.  `build_opf` / `build_scopf` are
compile-then-program.

Where the two poles of every bipole match, the compiled program is its own
mirror image under the pole swap (`Mirror`), which also swaps the outage
states of the two poles of one station.  `compile_program` derives the
swap from the grid and keeps it only if every array of the program is
exactly its own image (Liberti, Math. Programming 131, 2012); the solver
then works on the symmetric half (`ipm`).
"""

from __future__ import annotations

import itertools
import weakref
from dataclasses import dataclass, field, replace
from typing import NamedTuple

import numpy as np
import scipy.sparse as sp

from . import naming as nm
from .converters import (SymmetricCountConstraint, converter_variables, station_constraints,
                         symmetric_count_constraint, symmetric_row)
from .grid import Grid, NodeKind, StationConfig, repeated, validate
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


Binary = tuple[int, str, str]  # (k, "beta" | "gamma", station or line id), one of `BinaryCatalogue.binaries`


@dataclass(frozen=True)
class BinaryAssignment:
    """Binary values keyed like `BinaryCatalogue.binaries`, None = undecided; an unlisted binary takes its default."""

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

    Row i of `rows` is the compiled row binary i, (k, kind, id), keeps at 1
    only, so leaves out while undecided: a station's symmetric row (kind
    "beta") or an NLS candidate's in-service voltage row (kind "gamma").
    """

    scenarios: tuple[Scenario, ...]
    forced_beta: dict[tuple[int, str], int]  # (k, station) -> forced value
    gamma_lines: tuple[str, ...]  # sorted NLS candidate line ids
    count_rule: SymmetricCountConstraint  # N_b over the sorted bipolar station ids
    grid: Grid = field(repr=False)
    binaries: tuple[Binary, ...]
    rows: sp.csr_matrix = field(repr=False, compare=False)

    def default(self) -> BinaryAssignment:
        """Every binary at its default: faulted station asymmetric, other stations symmetric, lines in service."""
        return BinaryAssignment.of({(k, kind, s): self.forced_beta.get((k, s), 1) if kind == "beta" else 1
                                    for k, kind, s in self.binaries})

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


# a station's symmetric row is kept at beta = 1 only, and so is an NLS
# candidate's in-service voltage row (element row 0) at gamma = 1: each is its
# binary's row of `BinaryCatalogue.rows`. The open stamp's row 0, i_j = 0, is
# kept at gamma = 0; the continuity row (1) of either stamp is one untagged row
_ONLY_AT_ONE = frozenset({1})
_OPEN_KEEP = frozenset({0})


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
    offset_limit_kv: float | None,
    candidates: tuple[str, ...],
    variants: list,
) -> None:
    """Emit the state shape, as state k=0, with every row each of its binaries may add or restamp.

    The network rows are the rows of `tab.matrix`. Each binary-dependent
    equality row is tagged in `variants` as (row, (0, kind, id), values): a
    program keeps it when the binary takes one of `values`. The rows are the
    symmetric row of each bipolar station and both stamps of each NLS
    candidate line in `candidates`. Every converter keeps its ratings; an
    outage pins bounds only, in its state's copy (`_stack`).
    """
    k = 0

    def add_eq(row: Row, binary: tuple | None = None, values: frozenset | None = None) -> None:
        if binary is not None:
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

    # each candidate line's row 0 in service and open, then every continuity row
    opened = {bd: _element_rows(stamp_dc_line(grid.line(bd), 0), k)[0] for bd in candidates}
    for e, el in enumerate(tab.elements):
        row = tab.n_nodes + tab.n_ports + 2 * e
        if el.element_id in opened:
            add_eq(rows[row], (k, "gamma", el.element_id), _ONLY_AT_ONE)
            add_eq(opened[el.element_id], (k, "gamma", el.element_id), _OPEN_KEEP)
        else:
            add_eq(rows[row])
        add_eq(rows[row + 1])

    # reference pins
    for node_id, val in tab.pins:
        pb.add_eq(lin_row(f"pin.{node_id}@{k}", {nm.nodal_u(node_id, k): 1.0}, -val))

    # converter variables and station constraint sets, with the symmetric rows
    conv_at_node: dict[str, list[str]] = {}
    for cs in grid.converter_stations:
        cons = station_constraints(cs, k)
        for v, (lb, ub) in cons.variables.items():
            pb.add_var(v, lb, ub)
        for row in cons.rows:
            pb.add_eq(row)
        if cs.config is StationConfig.BIPOLAR:
            add_eq(symmetric_row(cs, k), (k, "beta", cs.id), _ONLY_AT_ONE)
        for cv in cs.pole_converters:
            conv_at_node.setdefault(cv.dc_terminal_1, []).append(nm.conv_i(cs.id, cv.id, 1, k))
            conv_at_node.setdefault(cv.dc_terminal_2, []).append(nm.conv_i(cs.id, cv.id, 2, k))

    # nodal current balance with converter injections, each current its own variable
    for node_id in tab.node_ids:
        lin = {nm.injection(node_id, k): 1.0, **dict.fromkeys(conv_at_node.get(node_id, ()), 1.0)}
        pb.add_eq(lin_row(f"nbal.{node_id}@{k}", lin))

    # generators and AC-side station balance: each bus row lists its generators, then its converters
    s_base = grid.base_mw
    acbal: dict[str, dict[str, float]] = {bus: {} for bus in grid.ac_buses()}
    for g in grid.generators:
        pb.add_var(
            nm.gen_p(g.id, k),
            g.p_min_mw / s_base,
            g.p_max_mw / s_base,
            start=(g.p_min_mw + g.p_max_mw) / (2.0 * s_base),
        )
        acbal[g.bus][nm.gen_p(g.id, k)] = 1.0
    for cs in grid.converter_stations:
        for cv in cs.pole_converters:
            if cv.ac_terminal:
                acbal[cv.ac_terminal][nm.conv_p(cs.id, cv.id, k)] = 1.0
    demand_at: dict[str, float] = {}
    for d in grid.demands:
        demand_at[d.bus] = demand_at.get(d.bus, 0.0) + d.p_mw / s_base
    for bus, lin in acbal.items():
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


def _checked(grid: Grid, options: OpfOptions, contingencies: tuple[str, ...] | None) -> tuple:
    """(states with binaries, forced selectors {(k, station): 0}, count rule) of a case, after its input checks.

    The SCOPF base state is fixed symmetric, so only the OPF's state or the
    SCOPF's post-contingency states have binaries; a grid `grid.validate` rejects is a `BuildError`.
    """
    if violations := validate(grid):
        raise BuildError(f"invalid grid: {violations[0]}")
    if contingencies is None:
        scenarios = (Scenario(0, options.outage),)
    elif not contingencies:
        raise BuildError("SCOPF needs a nonempty contingency set")
    elif options.outage is not None:
        raise BuildError(f"outage {options.outage!r}: a SCOPF takes its outages from its contingencies")
    else:
        scenarios = tuple(Scenario(k + 1, outage) for k, outage in enumerate(contingencies))
    for what, ids in (("contingency", contingencies or ()), ("NLS candidate", options.nls_candidates)):
        if again := repeated(ids):
            raise BuildError(f"{what} {min(again)!r} is listed more than once")
    if options.offset_limit_kv is not None and not 0.0 <= options.offset_limit_kv < np.inf:  # NaN fails both
        raise BuildError(f"offset_limit_kv must be nonnegative and finite, got {options.offset_limit_kv!r}")
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
        return scenarios, forced, symmetric_count_constraint(grid.bipolar_stations(), options.n_b)
    except ValueError as exc:
        raise BuildError(str(exc)) from exc


class Mirror(NamedTuple):
    """The pole swap of a program as index maps: it takes x to x' with x'[var[j]] = var_sign[j] * x[j].

    Equality row r goes to row eq[r] with sign eq_sign[r], so row eq[r] at
    x' is eq_sign[r] times row r at x, and inequality row r goes to row
    ineq[r].  Each map is its own inverse.
    """

    var: np.ndarray
    var_sign: np.ndarray
    eq: np.ndarray
    eq_sign: np.ndarray
    ineq: np.ndarray


class ProgramTemplate:
    """One program shape, compiled once; `program` makes each member by selecting rows.

    The compiled program holds every equality row any binary value needs,
    tagged with the binary and the values that keep it. A program keeps the
    untagged rows and the tagged rows its binaries select, in compiled order
    (`NlpProblem.template_rows`). Variables, bounds, costs, the start point
    and the inequality rows do not depend on the binaries; every program
    shares them, read-only. `mirror` is the compiled program's pole swap
    where `compile_program` verified it, else None; a program gets it, as
    `meta["mirror"]`, where its rows are closed under it. A program's `meta["template"]` is a weak reference
    to its template, whose `solver_view` `ipm` builds on the first solve of one of its programs.
    """

    def __init__(self, catalogue: BinaryCatalogue, compiled: NlpProblem, variants: list, mirror: Mirror | None):
        self.catalogue = catalogue
        self.compiled = compiled
        self.mirror = mirror
        self.solver_view = None
        self._variants = variants  # (row, binary, the values that keep the row)
        self.always = np.ones(compiled.n_eq, dtype=bool)  # the rows every program keeps
        self.always[[row for row, _, _ in variants]] = False
        a_in = compiled.a_ineq
        for arr in (compiled.lb, compiled.ub, compiled.cost, compiled.start, compiled.b_ineq,
                    a_in.data, a_in.indices, a_in.indptr):
            arr.setflags(write=False)

    def program(self, assignment: BinaryAssignment | None = None) -> NlpProblem:
        """The program with `assignment`'s binaries fixed; a binary it does not list takes its default."""
        values = self.catalogue.check(assignment)
        keep = self.always.copy()
        keep[[row for row, binary, kept in self._variants if values[binary] in kept]] = True
        full, mirror = self.compiled, self.mirror
        meta = {**full.meta, "template_rows": np.flatnonzero(keep), "template": weakref.ref(self)}
        if mirror is not None and np.array_equal(keep[mirror.eq], keep):  # the kept rows are closed under the swap
            row_of = np.cumsum(keep) - 1
            meta["mirror"] = mirror._replace(eq=row_of[mirror.eq[keep]], eq_sign=mirror.eq_sign[keep])
        return replace(full, eq_names=tuple(itertools.compress(full.eq_names, keep)),
                       a_eq=_csr([_rows_of(full.a_eq, keep)], full.n_vars), b_eq=full.b_eq[keep],
                       bilinear=BilinearTerms(*_terms_of(full.bilinear, keep)), meta=meta)


def _rows_of(a: sp.csr_matrix, keep: np.ndarray, shift: int = 0) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The rows of CSR `a` that `keep` selects, as (row lengths, column indices + shift, values)."""
    lengths = np.diff(a.indptr)
    entries = np.repeat(keep, lengths)
    return lengths[keep], a.indices[entries] + shift, a.data[entries]


def _csr(parts: list, n_cols: int) -> sp.csr_matrix:
    """One CSR matrix of the rows of `parts`, each (row lengths, column indices, values), in order."""
    lengths, indices, data = (np.concatenate(arrays) for arrays in zip(*parts))
    indptr = np.zeros(len(lengths) + 1, dtype=np.int64)
    np.cumsum(lengths, out=indptr[1:])
    return sp.csr_matrix((data, indices, indptr), shape=(len(lengths), n_cols))


def _terms_of(q: BilinearTerms, keep: np.ndarray, row_shift: int = 0, shift: int = 0) -> tuple:
    """(row, a, b, coeff) of the terms of the rows `keep` selects: rows renumbered from row_shift, columns + shift."""
    kept = keep[q.row]
    return (np.cumsum(keep) - 1)[q.row[kept]] + row_shift, q.a[kept] + shift, q.b[kept] + shift, q.coeff[kept]


def _in_state(names, k: int) -> list[str]:
    """The shape's names, each ending '@0', suffixed for state k."""
    suffix = f"@{k}"
    return [name[:-2] + suffix for name in names]


def compile_program(
    grid: Grid, options: OpfOptions, contingencies: tuple[str, ...] | None = None
) -> ProgramTemplate:
    """Compile the OPF, or the reserve-coupled SCOPF over `contingencies`.

    The OPF is one state (the post-contingency state when an outage is
    set). The SCOPF adds a pre-contingency state (k=0), fully symmetric with
    every neutral line in service, to one state per contingency; binaries
    act per post-contingency state only. Either way one state shape is
    emitted and frozen, then stacked once per state (`_stack`). The
    catalogue's row of each binary is the compiled row it keeps at 1 only.
    The template's `mirror` is the compiled program's pole swap (`_mirror`)
    where every array of the program is exactly its own image, else None.
    """
    scenarios, forced, count_rule = _checked(grid, options, contingencies)
    gamma_lines = tuple(sorted(options.nls_candidates))
    pb, variants, tab = ProblemBuilder("state"), [], assemble_tableau(grid)
    _emit_state(pb, grid, tab, options.offset_limit_kv, gamma_lines, variants)
    if contingencies is None:
        name, base = f"opf[{scenarios[0].label}]", ()
    else:
        name, base = f"scopf[{len(contingencies)} scenarios]", (Scenario(0, None),)
    shape = pb.build()
    compiled, stacked, layout = _stack(grid, shape, variants, base, scenarios, name)
    mirror = _mirror(grid, tab, shape, variants, base + scenarios, layout, compiled)
    at_one = {binary: row for row, binary, values in stacked if values == _ONLY_AT_ONE}
    catalogue = BinaryCatalogue(scenarios, forced, gamma_lines, count_rule, grid, tuple(at_one),
                                compiled.a_eq[list(at_one.values())])
    return ProgramTemplate(catalogue, compiled, stacked, mirror)


def _stack(grid: Grid, shape: NlpProblem, variants: list, base: tuple[Scenario, ...],
           scenarios: tuple[Scenario, ...], name: str) -> tuple[NlpProblem, list, list]:
    """The program of one copy of `shape` per state, base states first, the variants of its rows and
    their layout: per state, the compiled row of each shape row, -1 where the state leaves it out.

    Copy k takes the columns from k * shape.n_vars on, and its names the
    suffix @k. A base state keeps the rows of every binary at 1, untagged; a
    post-contingency state keeps every row, its tagged rows tagged with k.
    An outage pins its pole's `converter_variables` to zero. With
    a base state, the generator reserves and their rows follow (`_reserves`),
    and `meta["reserves"]` holds their columns.
    """
    n, states = shape.n_vars, base + scenarios
    n_cols = len(states) * n + (2 * len(grid.generators) if base else 0)
    at_one = np.ones(shape.n_eq, dtype=bool)
    for row, _, values in variants:
        at_one[row] = 1 in values
    every_row, every_ineq = np.ones(shape.n_eq, dtype=bool), np.ones(shape.n_ineq, dtype=bool)
    lb, ub = np.tile(shape.lb, len(states)), np.tile(shape.ub, len(states))
    eq, terms, b_eq, eq_names, ineq, stacked, layout = [], [], [], [], [], [], []
    for sc in states:
        keep = at_one if sc in base else every_row
        shift, m = sc.k * n, len(eq_names)  # the copy's first column and row
        layout.append(np.where(keep, m + np.cumsum(keep) - 1, -1))
        eq.append(_rows_of(shape.a_eq, keep, shift))
        terms.append(_terms_of(shape.bilinear, keep, m, shift))
        b_eq.append(shape.b_eq[keep])
        eq_names += _in_state(itertools.compress(shape.eq_names, keep), sc.k)
        ineq.append(_rows_of(shape.a_ineq, every_ineq, shift))
        if sc not in base:
            stacked += [(m + row, (sc.k, kind, bid), values) for row, (_, kind, bid), values in variants]
        if sc.outage is not None:
            station, pole = split_outage(grid, sc.outage)
            for v in converter_variables(grid.station(station).converter(pole), station):
                j = shift + shape.var_index(v)
                lb[j], ub[j] = -0.0, 0.0  # -0.0: a fixed variable reports its lb, so an outaged pole prints -0

    gens = np.array([shape.var_index(nm.gen_p(g.id)) for g in grid.generators], dtype=np.int64)
    cost, start = np.tile(shape.cost, len(states)), np.tile(shape.start, len(states))
    cost[gens] += [g.cost * grid.base_mw * COST_SCALE for g in grid.generators]
    var_names = [v for sc in states for v in _in_state(shape.var_names, sc.k)]
    ineq_names = [row for sc in states for row in _in_state(shape.ineq_names, sc.k)]
    b_ineq = np.tile(shape.b_ineq, len(states))
    meta = {"scenarios": [sc.label for sc in states]}  # labels by state k
    if base:
        reserves, r_cost, r_rows, r_part, r_b = _reserves(grid, gens, [sc.k for sc in scenarios], n, len(states) * n)
        meta["reserves"] = slice(len(states) * n, n_cols)
        var_names += reserves
        lb, ub = np.append(lb, np.zeros(len(reserves))), np.append(ub, np.full(len(reserves), INF))
        cost, start = np.append(cost, r_cost), np.append(start, np.zeros(len(reserves)))
        ineq_names += r_rows
        ineq.append(r_part)
        b_ineq = np.append(b_ineq, r_b)
    compiled = NlpProblem(
        name=name,
        var_names=tuple(var_names),
        lb=lb,
        ub=ub,
        cost=cost,
        start=start,
        eq_names=tuple(eq_names),
        ineq_names=tuple(ineq_names),
        a_eq=_csr(eq, n_cols),
        b_eq=np.concatenate(b_eq),
        bilinear=BilinearTerms(*(np.concatenate(arrays) for arrays in zip(*terms))),
        a_ineq=_csr(ineq, n_cols),
        b_ineq=b_ineq,
        meta=meta,
    )
    return compiled, stacked, layout


def _reserves(grid: Grid, gens: np.ndarray, ks: list[int], n: int, first: int) -> tuple:
    """Generator reserves and the rows coupling each post-contingency state to the base state, as arrays.

    `gens` are the generators' columns in the base state, and state k's are
    k * n further on; the reserves r_g_up, r_g_down of each generator take
    the columns from `first` on. Returns the reserves' names and costs, and
    the rows' names, (row lengths, columns, values) and constants.
    """
    s_base, n_g, n_k = grid.base_mw, len(gens), len(ks)
    up = first + 2 * np.arange(n_g)
    p_0, r_up, r_dn = (np.tile(c, n_k) for c in (gens, up, up + 1))
    p_k = p_0 + np.repeat(np.asarray(ks, dtype=np.int64) * n, n_g)
    # per state k and generator: p_k - p_0 - r_up <= 0 and p_0 - p_k - r_dn <= 0; per generator:
    # r_up + p_0 - Pmax <= 0 and r_dn - p_0 <= 0; each row's columns ascend, as p_0 < p_k < reserves
    cols = np.concatenate([np.stack([p_0, p_k, r_up, p_0, p_k, r_dn], axis=1).ravel(),
                           np.stack([gens, up, gens, up + 1], axis=1).ravel()])
    vals = np.concatenate([np.tile([-1.0, 1.0, -1.0, 1.0, -1.0, -1.0], n_k * n_g), np.tile([1.0, 1.0, -1.0, 1.0], n_g)])
    lengths = np.concatenate([np.full(2 * n_k * n_g, 3), np.full(2 * n_g, 2)])
    names = [name for g in grid.generators for name in (nm.reserve_up(g.id), nm.reserve_down(g.id))]
    cost = [c * s_base * COST_SCALE for g in grid.generators for c in (g.reserve_cost_up, g.reserve_cost_down)]
    rows = [f"{kind}.{g.id}@{k}" for k in ks for g in grid.generators for kind in ("resup", "resdn")]
    rows += [f"{kind}.{g.id}" for g in grid.generators for kind in ("rupcap", "rdncap")]
    b = np.concatenate([np.zeros(2 * n_k * n_g), [c for g in grid.generators for c in (-g.p_max_mw / s_base, 0.0)]])
    return names, cost, rows, (lengths, cols, vals), b


def _mirror(grid: Grid, tab: TableauSystem, shape: NlpProblem, variants: list, states: tuple[Scenario, ...],
            layout: list, compiled: NlpProblem) -> Mirror | None:
    """The pole swap of the compiled program, if every array of it is exactly its own image; else None.

    The states' images come first: the base state is its own image and an
    outage of one pole the image of the outage of the other.  Only where
    each state has its image is the swap of the state shape (`_shape_swap`)
    derived, then stacked; the reserves are their own images.  A reserve
    row of state k goes to the row of the same name in k's image.
    """
    images = _state_images(grid, states)
    swap = None if images is None else _shape_swap(grid, tab, shape, variants)
    if swap is None:
        return None
    var, var_sign, eq, eq_sign, ineq = swap
    n, n_in, n_s = shape.n_vars, shape.n_ineq, len(states)
    own = np.arange(n_s * n, compiled.n_vars)  # the reserves
    c_var = np.concatenate([(images[:, None] * n + var).ravel(), own])
    c_sign = np.concatenate([np.tile(var_sign, n_s), np.ones(len(own))])
    c_eq, c_eq_sign = np.empty(compiled.n_eq, dtype=np.int64), np.empty(compiled.n_eq)
    for at, image in zip(layout, images):
        kept = at >= 0
        c_eq[at[kept]], c_eq_sign[at[kept]] = layout[image][eq[kept]], eq_sign[kept]
    c_in = list((images[:, None] * n_in + ineq).ravel())
    row_of = {name: r for r, name in enumerate(compiled.ineq_names[n_s * n_in :], n_s * n_in)}
    for name in compiled.ineq_names[n_s * n_in :]:
        stem, at, k = name.rpartition("@")  # a cap row carries no state
        c_in.append(row_of[f"{stem}@{images[int(k)]}" if at else name])
    mirror = Mirror(c_var, c_sign, c_eq, c_eq_sign, np.array(c_in, dtype=np.int64))
    return mirror if np.all(c_eq >= 0) and _is_symmetric(compiled, mirror) else None


def _state_images(grid: Grid, states: tuple[Scenario, ...]) -> np.ndarray | None:
    """The image of each state k under the pole swap, or None if an outage's twin is not a state."""
    twin = {}
    for cs in grid.bipolar_stations():
        a, b = (cv.key(cs.id) for cv in cs.pole_converters)
        twin.update({a: b, b: a})
    k_of = {sc.outage: sc.k for sc in states}
    images = [sc.k if sc.outage is None else k_of.get(twin.get(sc.outage)) for sc in states]
    return None if None in images else np.array(images)


def _shape_swap(grid: Grid, tab: TableauSystem, shape: NlpProblem, variants: list) -> tuple | None:
    """The pole swap of the state shape as (var, var_sign, eq, eq_sign, ineq); None where something has no image.

    Each bipolar station's pole converter a pairs with its pole b, and
    their pole nodes with each other; a monopole's or DC-DC side's
    terminals 1 and 2 pair likewise.  A pole node's quantities keep their
    sign, while a neutral node (and earth) is its own image with sign -1.
    An element pairs with the element in the same place between the images
    of its ends, with their sign, so a neutral line is its own image.  Each
    row pairs with the row whose linear entries, and binary tag, are its
    own swapped (`_row_images`).
    """
    node = {nid: (nid, -1.0) for nid in tab.node_ids if not grid.has_node(nid) or grid.node(nid).kind is NodeKind.NEUTRAL}
    for cs in grid.converter_stations:
        cvs = cs.pole_converters
        if cs.config is StationConfig.BIPOLAR:
            ends = [(cvs[0].dc_terminal_1, cvs[1].dc_terminal_1)]
        else:
            ends = [(cv.dc_terminal_1, cv.dc_terminal_2) for cv in cvs]
        for p, q in ends + [(q, p) for p, q in ends]:
            if node.setdefault(p, (q, 1.0)) != (q, 1.0):
                return None
    if len(node) < tab.n_nodes:  # a pole node no converter pairs
        return None
    pairs = [(name(nid), name(image), s) for nid, (image, s) in node.items() for name in (nm.nodal_u, nm.injection)]
    between: dict[tuple[str, str], list[str]] = {}
    for el in tab.elements:
        between.setdefault(el.nodes, []).append(el.element_id)
    for el in tab.elements:
        (i, s), (j, s_j) = node[el.nodes[0]], node[el.nodes[1]]
        twins, at = between.get((i, j), []), between[el.nodes].index(el.element_id)
        if s != s_j or at >= len(twins):
            return None
        pairs += [(name(el.element_id, end), name(twins[at], end), s) for end in ("i", "j") for name in (nm.port_u, nm.port_i)]
    for cs in grid.converter_stations:
        cvs = cs.pole_converters
        if cs.config is StationConfig.BIPOLAR:  # a's terminal-2 (neutral) current is minus b's
            for cv, other in zip(cvs, cvs[::-1]):
                pairs += [(nm.conv_i(cs.id, cv.id, t), nm.conv_i(cs.id, other.id, t), s) for t, s in ((1, 1.0), (2, -1.0))]
                pairs.append((nm.conv_p(cs.id, cv.id), nm.conv_p(cs.id, other.id), 1.0))
            pairs.append((nm.dmr_i(cs.id), nm.dmr_i(cs.id), -1.0))
        else:
            for cv in cvs:
                pairs += [(nm.conv_i(cs.id, cv.id, t), nm.conv_i(cs.id, cv.id, 3 - t), 1.0) for t in (1, 2)]
                pairs.append((nm.conv_p(cs.id, cv.id), nm.conv_p(cs.id, cv.id), 1.0))
    pairs += [(nm.gen_p(g.id), nm.gen_p(g.id), 1.0) for g in grid.generators]
    var, var_sign = np.empty(shape.n_vars, dtype=np.int64), np.empty(shape.n_vars)
    own = [shape.var_index(name) for name, _, _ in pairs]  # every variable of the shape, once
    var[own], var_sign[own] = [shape.var_index(image) for _, image, _ in pairs], [s for _, _, s in pairs]
    tags = [None] * shape.n_eq
    for row, binary, values in variants:
        tags[row] = (binary, values)
    eq = _row_images(shape.a_eq, var, var_sign, tags, (1.0, -1.0))
    ineq = _row_images(shape.a_ineq, var, var_sign, [None] * shape.n_ineq, (1.0,))
    return None if eq is None or ineq is None else (var, var_sign, *eq, ineq[0])


def _row_images(a: sp.csr_matrix, var: np.ndarray, var_sign: np.ndarray, tags: list, signs: tuple) -> tuple | None:
    """(image, sign) of each row of `a` under the variable swap: the row with the same tag whose linear
    entries are the row's own, swapped and times one of `signs`; None if a row has none or two rows look alike."""
    ptr, cols, vals = a.indptr.tolist(), a.indices.tolist(), a.data.tolist()
    images, swapped = var[a.indices].tolist(), (var_sign[a.indices] * a.data).tolist()
    rows = [(ptr[r], ptr[r + 1], tag) for r, tag in enumerate(tags)]
    where = {(frozenset(zip(cols[lo:hi], vals[lo:hi])), tag): r for r, (lo, hi, tag) in enumerate(rows)}
    if len(where) < len(rows):
        return None
    image, sign = [], []
    for lo, hi, tag in rows:
        for s in signs:
            q = where.get((frozenset(zip(images[lo:hi], [s * v for v in swapped[lo:hi]])), tag))
            if q is not None:
                break
        else:
            return None
        image.append(q)
        sign.append(s)
    return np.array(image, dtype=np.int64), np.array(sign)


def _is_symmetric(p: NlpProblem, mirror: Mirror) -> bool:
    """Whether every array of `p` is exactly its own image under `mirror`, an involution: bounds, costs, constants,
    rows and bilinear terms.  Values are compared with ==, so a pin at -0.0 matches one at 0.0."""
    var, t, eq, s, ineq = mirror
    n = p.n_vars

    def same(key, val, image_key, image_val) -> bool:  # the entries (key, val), each key once, are their images
        own, image = np.argsort(key), np.argsort(image_key)
        return np.array_equal(key[own], image_key[image]) and np.array_equal(val[own], image_val[image])

    def same_rows(a: sp.csr_matrix, image: np.ndarray, sign: np.ndarray) -> bool:
        row = np.repeat(np.arange(a.shape[0]), np.diff(a.indptr))
        return same(row * n + a.indices, a.data, image[row] * n + var[a.indices], sign[row] * t[a.indices] * a.data)

    q = p.bilinear
    term = lambda row, a, b: (row * n + np.minimum(a, b)) * n + np.maximum(a, b)  # its row and unordered factors
    return (all(np.array_equal(m[m], np.arange(len(m))) for m in (var, eq, ineq))
            and np.array_equal(t[var], t) and np.array_equal(s[eq], s)
            and np.array_equal(p.lb[var], np.where(t > 0, p.lb, -p.ub))
            and np.array_equal(p.ub[var], np.where(t > 0, p.ub, -p.lb))
            and np.array_equal(p.cost[var], t * p.cost) and np.array_equal(p.b_eq[eq], s * p.b_eq)
            and np.array_equal(p.b_ineq[ineq], p.b_ineq)
            and same_rows(p.a_eq, eq, s) and same_rows(p.a_ineq, ineq, np.ones(p.n_ineq))
            and same(term(q.row, q.a, q.b), q.coeff, term(eq[q.row], var[q.a], var[q.b]), s[q.row] * t[q.a] * t[q.b] * q.coeff))


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
    return objective_value / COST_SCALE


def reserve_cost_in_currency(problem: NlpProblem, x: np.ndarray) -> float | None:
    """The objective's reserve terms at the point `x` of `problem`, in currency/h; None without reserves."""
    reserves = problem.meta.get("reserves")
    return None if reserves is None else float(problem.cost[reserves] @ x[reserves] / COST_SCALE)
