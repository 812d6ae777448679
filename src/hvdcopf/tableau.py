"""Sparse tableau assembly for the DC network.

The network equations keep nodal voltages U, port voltages u and port
currents i as explicit unknowns:

    [  0    0    A ] [U]   [I]
    [ -A^T  I    0 ] [u] = [0]
    [  0   F_u  F_i] [i]   [0]

`assemble_tableau` stores this stacked matrix once, as
`TableauSystem.matrix`; it is the one form of the network equations, which
the builder emits as each state's KCL, connection and element rows and
`solve_tableau` reads.  A, F_u and F_i are slices of it.

Each two-port element contributes one column pair to the block-diagonal
element matrices F_u / F_i.  The connection status of a DC line enters its
element equations through the binary gamma:

    [g  -g] [u_i]   [0  1-g+g*R] [i_i]   [0]
    [0   0] [u_j] + [1     1   ] [i_j] = [0]

a DC switch through z with R = 0, and a grounding resistor with g = 1
(`_series_stamp` writes all three).  Statuses are kept exact (0 or 1); the
discrete layer fixes them before every continuous solve.

Grounding is modeled with a synthetic reference node (``earth``, pinned to
0 pu) and one resistor element per grounded node.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .grid import EARTH_NODE, DcLine, DcSwitch, Grid, ungrounded_neutral_groups
from .units import resistance_base_ohm


class TableauError(Exception):
    pass


class UngroundedNeutralError(TableauError):
    """A neutral subnetwork with converter terminals lost its ground path."""


@dataclass(frozen=True)
class ElementStamp:
    """Two-port element equations F_u [u_i,u_j] + F_i [i_i,i_j] = 0."""

    element_id: str
    nodes: tuple[str, str]
    f_u: np.ndarray  # 2x2
    f_i: np.ndarray  # 2x2


def _series_stamp(element_id: str, nodes: tuple[str, str], g: float, r: float) -> ElementStamp:
    """Series element with status g in {0,1} and resistance r; row 1, the continuity i_i + i_j = 0, holds at either g."""
    return ElementStamp(element_id, nodes, np.array([[g, -g], [0.0, 0.0]]), np.array([[0.0, 1 - g + g * r], [1.0, 1.0]]))


def stamp_dc_line(line: DcLine, gamma: float) -> ElementStamp:
    """Series-resistance line stamp with connection status gamma in {0,1}."""
    return _series_stamp(line.id, (line.from_node, line.to_node), float(gamma), line.resistance_pu)


def stamp_dc_switch(sw: DcSwitch, z_sw: float) -> ElementStamp:
    """Ideal switch stamp: closed (z=1) shorts the ports, open forces zero current."""
    return _series_stamp(sw.id, (sw.from_node, sw.to_node), float(z_sw), 0.0)


def _grounding_resistor(node_id: str, r_pu: float) -> ElementStamp:
    # always connected (g = 1); the floor keeps a solid ground's element row nonsingular
    return _series_stamp(f"gnd.{node_id}", (node_id, EARTH_NODE), 1.0, max(r_pu, 1e-9))


@dataclass(frozen=True)
class TableauSystem:
    node_ids: tuple[str, ...]  # includes the earth node when grounded
    elements: tuple[ElementStamp, ...]
    # [[0, 0, A], [-A^T, I, 0], [0, F_u, F_i]]: rows KCL per node, connection
    # and element per port; columns U, u, i; every stamp entry stored, zeros too
    matrix: sp.csr_matrix
    pins: tuple[tuple[str, float], ...]  # (node, value) reference equations

    @property
    def n_nodes(self) -> int:
        return len(self.node_ids)

    @property
    def n_ports(self) -> int:
        return 2 * len(self.elements)

    def node_index(self, node_id: str) -> int:
        return self.node_ids.index(node_id)

    def port_names(self) -> list[str]:
        return [f"{el.element_id}.{end}" for el in self.elements for end in ("i", "j")]

    @property
    def incidence(self) -> sp.csr_matrix:
        """A: |nodes| x 2|elements|, +1 where a port attaches, one entry per column."""
        return self.matrix[: self.n_nodes, self.n_nodes + self.n_ports :]

    @property
    def f_u_blk(self) -> sp.csr_matrix:
        return self.matrix[self.n_nodes + self.n_ports :, self.n_nodes : self.n_nodes + self.n_ports]

    @property
    def f_i_blk(self) -> sp.csr_matrix:
        return self.matrix[self.n_nodes + self.n_ports :, self.n_nodes + self.n_ports :]


def require_grounded(grid: Grid, status: dict[str, int]) -> None:
    """Raise UngroundedNeutralError when `status` leaves a converter neutral without ground."""
    bad = ungrounded_neutral_groups(grid, status)
    if bad:
        raise UngroundedNeutralError(
            "neutral subnetwork(s) without ground after topology applied: " + ", ".join(bad)
        )


def assemble_tableau(grid: Grid, topology: dict[str, int] | None = None) -> TableauSystem:
    """Build the tableau for one topology state.

    `topology` maps line/switch ids to status (lines: gamma, switches: z);
    anything missing is in service.  Raises UngroundedNeutralError when the
    applied statuses leave a converter neutral without a reference path.
    """
    status = topology or {}
    require_grounded(grid, status)

    elements: list[ElementStamp] = []
    for bd in grid.dc_lines:
        elements.append(stamp_dc_line(bd, status.get(bd.id, 1)))
    for sw in grid.dc_switches:
        elements.append(stamp_dc_switch(sw, status.get(sw.id, 1)))

    grounded = [n for n in grid.dc_nodes if n.grounded]
    node_ids = tuple(n.id for n in grid.dc_nodes) + ((EARTH_NODE,) if grounded else ())
    for n in grounded:
        r_pu = (n.grounding_ohm or 0.0) / resistance_base_ohm(grid.base_mw, abs(n.base_kv))
        elements.append(_grounding_resistor(n.id, r_pu))

    elems = tuple(elements)
    index = {n: k for k, n in enumerate(node_ids)}
    for el in elems:
        for node in el.nodes:
            if node not in index:
                raise TableauError(f"element {el.element_id!r} references unknown node {node!r}")
    nn, npn = len(node_ids), 2 * len(elems)
    ports = np.arange(npn)
    port_node = np.array([index[node] for el in elems for node in el.nodes], dtype=int)
    e, r, c = (idx.ravel() for idx in np.indices((len(elems), 2, 2)))
    stamp_row = nn + npn + 2 * e + r
    rows = np.concatenate([port_node, nn + ports, nn + ports, stamp_row, stamp_row])
    cols = np.concatenate([nn + npn + ports, port_node, nn + ports, nn + 2 * e + c, nn + npn + 2 * e + c])
    vals = np.concatenate([
        np.ones(npn), -np.ones(npn), np.ones(npn),
        np.array([el.f_u for el in elems], dtype=float).ravel(),
        np.array([el.f_i for el in elems], dtype=float).ravel(),
    ])
    size = nn + 2 * npn
    matrix = sp.csr_matrix((vals, (rows, cols)), shape=(size, size))
    pins = ((EARTH_NODE, 0.0),) if grounded else ()
    return TableauSystem(node_ids, elems, matrix, pins)


@dataclass(frozen=True)
class TableauSolution:
    nodal_u: np.ndarray
    port_u: np.ndarray
    port_i: np.ndarray
    residual_norm: float

    def voltage(self, tab: TableauSystem, node_id: str) -> float:
        return float(self.nodal_u[tab.node_index(node_id)])

    def port_current(self, tab: TableauSystem, element_id: str, side: str) -> float:
        k = tab.port_names().index(f"{element_id}.{side}")
        return float(self.port_i[k])


def solve_tableau(
    tab: TableauSystem,
    injections: dict[str, float] | None = None,
    extra_pins: dict[str, float] | None = None,
) -> TableauSolution:
    """Solve the linear tableau for given injections (diagnostic path).

    Reference pins are kept as explicit equations, so the stacked system is
    rectangular but consistent; it is solved dense via least squares and the
    residual checked.  The builder emits the rows of the same matrix as NLP
    constraints instead of calling this.
    """
    pins = list(tab.pins) + list((extra_pins or {}).items())
    size = tab.matrix.shape[0]
    m = np.zeros((size + len(pins), size))
    m[:size] = tab.matrix.toarray()
    b = np.zeros(size + len(pins))
    for node, val in (injections or {}).items():
        b[tab.node_index(node)] = val
    for row, (node, val) in enumerate(pins, start=size):
        m[row, tab.node_index(node)] = 1.0
        b[row] = val

    x, *_ = np.linalg.lstsq(m, b, rcond=None)
    res = float(np.linalg.norm(m @ x - b, np.inf))
    if res > 1e-8:
        raise TableauError(f"tableau solve inconsistent (residual {res:.2e}); check injections/topology")
    nn, npn = tab.n_nodes, tab.n_ports
    return TableauSolution(x[:nn], x[nn : nn + npn], x[nn + npn :], res)


def dump_tableau(tab: TableauSystem, fh) -> None:
    """Write the tableau blocks in a matrix-market-style text format."""

    def write_block(name: str, mat: sp.spmatrix) -> None:
        coo = mat.tocoo()
        fh.write(f"%%block {name} coordinate real {coo.shape[0]} {coo.shape[1]} {coo.nnz}\n")
        order = np.lexsort((coo.col, coo.row))
        for r, c, v in zip(coo.row[order], coo.col[order], coo.data[order]):
            fh.write(f"{r + 1} {c + 1} {v:.17g}\n")

    fh.write("%%tableau nodes " + " ".join(tab.node_ids) + "\n")
    fh.write("%%tableau ports " + " ".join(tab.port_names()) + "\n")
    write_block("A_dc", tab.incidence)
    write_block("F_u", tab.f_u_blk)
    write_block("F_i", tab.f_i_blk)
    for node, val in tab.pins:
        fh.write(f"%%pin {node} {val:.17g}\n")
