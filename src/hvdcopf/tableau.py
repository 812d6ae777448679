"""Sparse tableau assembly for the DC network.

The network equations keep nodal voltages U, port voltages u and port
currents i as explicit unknowns:

    [  0    0    A ] [U]   [I]
    [ -A^T  I    0 ] [u] = [0]
    [  0   F_u  F_i] [i]   [0]

Each two-port element contributes one column pair to the block-diagonal
element matrices F_u / F_i.  The connection status of a DC line enters its
element equations through the binary gamma:

    [g  -g] [u_i]   [1-g  R] [i_i]   [0]
    [0   0] [u_j] + [ g   1] [i_j] = [0]

and a DC switch through z with the same structure and R = 0.  Statuses are
kept exact (0 or 1); the discrete layer fixes them before every continuous
solve.

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


def stamp_dc_line(line: DcLine, gamma: float) -> ElementStamp:
    """Series-resistance line stamp with connection status gamma in {0,1}."""
    g = float(gamma)
    f_u = np.array([[g, -g], [0.0, 0.0]])
    f_i = np.array([[1.0 - g, line.resistance_pu], [g, 1.0]])
    return ElementStamp(line.id, (line.from_node, line.to_node), f_u, f_i)


def stamp_dc_switch(sw: DcSwitch, z_sw: float) -> ElementStamp:
    """Ideal switch stamp: closed (z=1) shorts the ports, open forces zero current."""
    z = float(z_sw)
    f_u = np.array([[z, -z], [0.0, 0.0]])
    f_i = np.array([[1.0 - z, 0.0], [z, 1.0]])
    return ElementStamp(sw.id, (sw.from_node, sw.to_node), f_u, f_i)


def _grounding_resistor(node_id: str, r_pu: float) -> ElementStamp:
    # Same series-resistance structure as a line; tiny floor keeps a solid
    # ground from producing a singular element row.
    r = max(r_pu, 1e-9)
    f_u = np.array([[1.0, -1.0], [0.0, 0.0]])
    f_i = np.array([[0.0, r], [1.0, 1.0]])
    return ElementStamp(f"gnd.{node_id}", (node_id, EARTH_NODE), f_u, f_i)


@dataclass(frozen=True)
class TableauSystem:
    node_ids: tuple[str, ...]  # includes the earth node when grounded
    elements: tuple[ElementStamp, ...]
    incidence: sp.csr_matrix  # |nodes| x 2|elements|
    f_u_blk: sp.csr_matrix  # 2|elements| x 2|elements|
    f_i_blk: sp.csr_matrix
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
        out = []
        for el in self.elements:
            out.append(f"{el.element_id}.i")
            out.append(f"{el.element_id}.j")
        return out


def assemble_incidence(node_ids: tuple[str, ...], elements: tuple[ElementStamp, ...]) -> sp.csr_matrix:
    """Node-to-port incidence: +1 where a port attaches, one entry per column."""
    index = {n: k for k, n in enumerate(node_ids)}
    rows, cols = [], []
    for e, el in enumerate(elements):
        for side, node in enumerate(el.nodes):
            if node not in index:
                raise TableauError(f"element {el.element_id!r} references unknown node {node!r}")
            rows.append(index[node])
            cols.append(2 * e + side)
    data = np.ones(len(rows))
    return sp.csr_matrix((data, (rows, cols)), shape=(len(node_ids), 2 * len(elements)))


def _block_diag_2x2(blocks: list[np.ndarray]) -> sp.csr_matrix:
    """Block-diagonal CSR of 2x2 stamps, all four entries stored, zeros too (as sp.block_diag)."""
    size = 2 * len(blocks)
    vals = np.asarray(blocks, dtype=float).reshape(2 * size)
    cols = (np.repeat(np.arange(0, size, 2), 2)[:, None] + np.arange(2)).reshape(2 * size)
    return sp.csr_matrix((vals, cols, np.arange(0, 2 * size + 1, 2)), shape=(size, size))


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
    a = assemble_incidence(node_ids, elems)
    f_u = _block_diag_2x2([el.f_u for el in elems])
    f_i = _block_diag_2x2([el.f_i for el in elems])
    pins = ((EARTH_NODE, 0.0),) if grounded else ()
    return TableauSystem(node_ids, elems, a, f_u, f_i, pins)


def tableau_residual(
    tab: TableauSystem,
    nodal_u: np.ndarray,
    port_u: np.ndarray,
    port_i: np.ndarray,
    injections: np.ndarray,
) -> np.ndarray:
    """Stacked residual of the three block equations (KCL, connection, element)."""
    if len(nodal_u) != tab.n_nodes or len(injections) != tab.n_nodes:
        raise ValueError("nodal vector length mismatch")
    if len(port_u) != tab.n_ports or len(port_i) != tab.n_ports:
        raise ValueError("port vector length mismatch")
    r_kcl = tab.incidence @ port_i - injections
    r_con = port_u - tab.incidence.T @ nodal_u
    r_ele = tab.f_u_blk @ port_u + tab.f_i_blk @ port_i
    return np.concatenate([r_kcl, r_con, r_ele])


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
    residual checked.  The optimization layer embeds the same rows as NLP
    constraints instead of calling this.
    """
    inj = np.zeros(tab.n_nodes)
    for node, val in (injections or {}).items():
        inj[tab.node_index(node)] = val

    nn, npn = tab.n_nodes, tab.n_ports
    a = tab.incidence.toarray()
    top = np.hstack([np.zeros((nn, nn)), np.zeros((nn, npn)), a])
    mid = np.hstack([-a.T, np.eye(npn), np.zeros((npn, npn))])
    bot = np.hstack([np.zeros((npn, nn)), tab.f_u_blk.toarray(), tab.f_i_blk.toarray()])
    rows = [top, mid, bot]
    rhs = [inj, np.zeros(npn), np.zeros(npn)]

    pins = list(tab.pins) + list((extra_pins or {}).items())
    for node, val in pins:
        row = np.zeros((1, nn + 2 * npn))
        row[0, tab.node_index(node)] = 1.0
        rows.append(row)
        rhs.append(np.array([val]))

    m = np.vstack(rows)
    b = np.concatenate(rhs)
    x, *_ = np.linalg.lstsq(m, b, rcond=None)
    res = float(np.linalg.norm(m @ x - b, np.inf))
    if res > 1e-8:
        raise TableauError(f"tableau solve inconsistent (residual {res:.2e}); check injections/topology")
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
