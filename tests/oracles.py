"""Independent reference computations used by unit and acceptance tests.

These deliberately avoid the library's assembly/solve paths: the nodal
oracle eliminates port quantities analytically and solves the reduced
conductance system; the stamp oracle evaluates the two-port equations by
hand.
"""

from __future__ import annotations

import numpy as np

from hvdcopf import naming as nm
from hvdcopf.grid import ConductorRole, ConverterStation, DcLine, DcNode, Grid, NodeKind


def nodal_solution(n_nodes: int, edges: list[tuple[int, int, float]], injections: np.ndarray, ref: int = 0):
    """Conductance-matrix solve of a resistive network, ref node pinned to 0.

    Returns nodal voltages and per-edge current (flowing into the edge at
    its first endpoint).
    """
    g = np.zeros((n_nodes, n_nodes))
    for a, b, r in edges:
        y = 1.0 / r
        g[a, a] += y
        g[b, b] += y
        g[a, b] -= y
        g[b, a] -= y
    keep = [k for k in range(n_nodes) if k != ref]
    u = np.zeros(n_nodes)
    u[keep] = np.linalg.solve(g[np.ix_(keep, keep)], injections[keep])
    flows = np.array([(u[a] - u[b]) / r for a, b, r in edges])
    return u, flows


def random_connected_network(rng: np.random.Generator, max_nodes: int = 10):
    """Random spanning tree plus extra edges; zero-sum injections."""
    n = int(rng.integers(2, max_nodes + 1))
    edges = []
    for k in range(1, n):
        parent = int(rng.integers(0, k))
        edges.append((parent, k, float(rng.uniform(0.002, 0.1))))
    n_extra = int(rng.integers(0, n))
    for _ in range(n_extra):
        a, b = rng.integers(0, n, size=2)
        if a != b:
            edges.append((int(min(a, b)), int(max(a, b)), float(rng.uniform(0.002, 0.1))))
    inj = rng.uniform(-1.0, 1.0, size=n)
    inj -= inj.mean()
    return n, edges, inj


def network_as_grid(n: int, edges) -> Grid:
    """Wrap an abstract resistive network as neutral nodes with node 0 grounded."""
    nodes = tuple(
        DcNode(f"n{k}", NodeKind.NEUTRAL, 400.0, grounded=(k == 0), grounding_ohm=0.0)
        for k in range(n)
    )
    lines = tuple(
        DcLine(f"e{idx}", f"n{a}", f"n{b}", r, ConductorRole.NEUTRAL)
        for idx, (a, b, r) in enumerate(edges)
    )
    return Grid(
        name="random-network",
        base_mw=1000.0,
        dc_nodes=nodes,
        dc_lines=lines,
        dc_switches=(),
        converter_stations=(),
        generators=(),
        demands=(),
    )


def line_stamp_hand_oracle(r: float, gamma: float, u_i: float, u_j: float, i_i: float, i_j: float):
    """Residuals of the series-resistance element equations, written out."""
    row1 = gamma * u_i - gamma * u_j + (1.0 - gamma) * i_i + r * i_j
    row2 = gamma * i_i + i_j
    return row1, row2


def switch_stamp_hand_oracle(z: float, u_i: float, u_j: float, i_i: float, i_j: float):
    row1 = z * u_i - z * u_j + (1.0 - z) * i_i
    row2 = z * i_i + i_j
    return row1, row2


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
