import hashlib
import io

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from hvdcopf.grid import ConductorRole, DcLine, DcNode, DcSwitch, Grid, NodeKind
from hvdcopf.tableau import (
    TableauError,
    UngroundedNeutralError,
    assemble_tableau,
    dump_tableau,
    solve_tableau,
    stamp_dc_line,
    stamp_dc_switch,
)

from conftest import two_station_grid
from oracles import nodal_solution, network_as_grid, random_connected_network


def _line(r=0.01):
    return DcLine("L1", "a", "b", r, ConductorRole.POLE)


class TestLineStamp:
    def test_out_of_service_forces_zero_currents(self):
        s = stamp_dc_line(_line(), 0.0)
        # row 1: i_j = 0, row 2, the continuity row of either status, then gives i_i = 0
        assert np.allclose(s.f_u, [[0, 0], [0, 0]])
        assert np.allclose(s.f_i, [[0, 1], [1, 1]])
        assert np.array_equal(s.f_i[1], stamp_dc_line(_line(), 1.0).f_i[1])

    def test_in_service_hand_values(self):
        s = stamp_dc_line(_line(0.01), 1.0)
        u = np.array([1.00, 0.99])
        i = np.array([1.0, -1.0])
        residual = s.f_u @ u + s.f_i @ i
        assert np.allclose(residual, 0.0, atol=1e-14)

    def test_equal_voltages_zero_current(self):
        s = stamp_dc_line(_line(0.02), 1.0)
        residual = s.f_u @ np.array([1.0, 1.0]) + s.f_i @ np.array([0.0, 0.0])
        assert np.allclose(residual, 0.0)

    @given(g=st.floats(0.0, 1.0), r=st.floats(1e-4, 1.0))
    def test_stamp_affine_in_gamma(self, g, r):
        line = _line(r)
        s0, s1 = stamp_dc_line(line, 0.0), stamp_dc_line(line, 1.0)
        sg = stamp_dc_line(line, g)
        assert np.allclose(sg.f_u, s0.f_u + g * (s1.f_u - s0.f_u))
        assert np.allclose(sg.f_i, s0.f_i + g * (s1.f_i - s0.f_i))


class TestSwitchStamp:
    def test_closed_ties_voltages_and_currents(self):
        s = stamp_dc_switch(DcSwitch("sw", "a", "b"), 1.0)
        residual = s.f_u @ np.array([0.98, 0.98]) + s.f_i @ np.array([0.5, -0.5])
        assert np.allclose(residual, 0.0)

    def test_open_decouples(self):
        s = stamp_dc_switch(DcSwitch("sw", "a", "b"), 0.0)
        residual = s.f_u @ np.array([1.0, 0.2]) + s.f_i @ np.array([0.0, 0.0])
        assert np.allclose(residual, 0.0)

    def test_current_continuity(self):
        s = stamp_dc_switch(DcSwitch("sw", "a", "b"), 1.0)
        # z=1 row 2: i_i + i_j = 0
        assert np.allclose(s.f_i[1], [1.0, 1.0])


class TestIncidence:
    def test_one_nonzero_per_port_column(self, builtin_grid):
        tab = assemble_tableau(builtin_grid)
        a = tab.incidence.toarray()
        assert set(np.unique(a)) <= {0.0, 1.0}
        assert (np.count_nonzero(a, axis=0) == 1).all()

    def test_node_with_two_line_ends(self):
        grid = _lines_grid(("x", "y", "z"), [("e1", "x", "y"), ("e2", "y", "z")])
        a = assemble_tableau(grid).incidence.toarray()
        assert a[1].sum() == 2

    def test_unknown_node_rejected(self):
        grid = _lines_grid(("x",), [("e1", "x", "nowhere")])
        with pytest.raises(TableauError, match="e1"):
            assemble_tableau(grid)


def _lines_grid(node_ids, lines) -> Grid:
    """Ungrounded pole nodes joined by pole lines (id, from, to); not validated."""
    nodes = tuple(DcNode(n, NodeKind.POSITIVE, 400.0) for n in node_ids)
    lines = tuple(DcLine(bd, a, b, 0.01, ConductorRole.POLE) for bd, a, b in lines)
    return Grid("lines", 1000.0, nodes, lines, (), (), ())


class TestAssembleAndSolve:
    def test_radial_network_matches_nodal_oracle(self):
        n, edges = 3, [(0, 1, 0.02), (1, 2, 0.05)]
        inj = np.array([0.6, -0.1, -0.5])
        grid = network_as_grid(n, edges)
        tab = assemble_tableau(grid)
        sol = solve_tableau(tab, {f"n{k}": float(inj[k]) for k in range(n)})
        u_ref, flows = nodal_solution(n, edges, inj)
        for k in range(n):
            assert sol.voltage(tab, f"n{k}") == pytest.approx(u_ref[k], abs=1e-10)
        for idx in range(len(edges)):
            assert sol.port_current(tab, f"e{idx}", "i") == pytest.approx(flows[idx], abs=1e-10)

    def test_all_lines_out_zero_injections(self, pair_grid):
        tab = assemble_tableau(pair_grid, {"L-p": 0, "L-m": 0, "L-n": 0})
        sol = solve_tableau(tab)
        assert np.allclose(sol.port_i, 0.0, atol=1e-12)

    def test_grounded_node_at_zero(self):
        grid = network_as_grid(1, [])
        tab = assemble_tableau(grid)
        sol = solve_tableau(tab)
        assert sol.voltage(tab, "n0") == pytest.approx(0.0, abs=1e-12)

    def test_out_of_service_line_zero_ports(self, pair_grid):
        # all lines out: endpoints decouple, so distinct pins stay consistent
        tab = assemble_tableau(pair_grid, {"L-p": 0, "L-m": 0, "L-n": 0})
        sol = solve_tableau(tab, extra_pins={"Pp": 1.0, "Qp": 1.02, "Pn": 0.97, "Qn": 1.01})
        for elem in ("L-p", "L-m", "L-n"):
            assert sol.port_current(tab, elem, "i") == pytest.approx(0.0, abs=1e-12)
            assert sol.port_current(tab, elem, "j") == pytest.approx(0.0, abs=1e-12)

    def test_ungrounded_topology_rejected(self):
        grid = two_station_grid(ground_p=False, ground_q=True)
        with pytest.raises(UngroundedNeutralError):
            assemble_tableau(grid, {"L-m": 0})

    def test_inconsistent_injection_rejected(self, pair_grid):
        tab = assemble_tableau(pair_grid, {"L-p": 0, "L-m": 0, "L-n": 0})
        with pytest.raises(TableauError):
            solve_tableau(tab, {"Pp": 1.0})


def _residual(tab, nodal_u, port_u, port_i, injections):
    """tab.matrix @ [U; u; i] - [Inj; 0]: the stacked KCL, connection and element residual."""
    return tab.matrix @ np.concatenate([nodal_u, port_u, port_i]) - np.concatenate([injections, np.zeros(2 * tab.n_ports)])


class TestResidual:
    def test_solution_has_tiny_residual(self):
        n, edges, inj = 4, [(0, 1, 0.01), (1, 2, 0.02), (2, 3, 0.01), (0, 3, 0.03)], None
        rng = np.random.default_rng(7)
        inj = rng.uniform(-1, 1, 4)
        inj -= inj.mean()
        grid = network_as_grid(n, edges)
        tab = assemble_tableau(grid)
        sol = solve_tableau(tab, {f"n{k}": float(inj[k]) for k in range(n)})
        injections = np.zeros(tab.n_nodes)
        for k in range(n):
            injections[tab.node_index(f"n{k}")] = inj[k]
        r = _residual(tab, sol.nodal_u, sol.port_u, sol.port_i, injections)
        assert np.max(np.abs(r)) <= 1e-10

    def test_perturbed_current_shows_in_residual(self, pair_grid):
        tab = assemble_tableau(pair_grid)
        sol = solve_tableau(tab)
        i = sol.port_i.copy()
        i[0] += 1e-3
        r = _residual(tab, sol.nodal_u, sol.port_u, i, np.zeros(tab.n_nodes))
        assert np.max(np.abs(r)) == pytest.approx(1e-3, rel=1e-6)

    def test_zero_state_residual_equals_injection(self, pair_grid):
        tab = assemble_tableau(pair_grid)
        injections = np.zeros(tab.n_nodes)
        injections[0] = 0.25
        z = np.zeros
        r = _residual(tab, z(tab.n_nodes), z(tab.n_ports), z(tab.n_ports), injections)
        assert r[0] == pytest.approx(-0.25)


@given(scale=st.floats(min_value=-3.0, max_value=3.0, allow_nan=False))
def test_solve_is_linear_in_injections(scale):
    # resistive network with fixed topology: superposition must hold
    grid = network_as_grid(3, [(0, 1, 0.02), (1, 2, 0.05), (0, 2, 0.04)])
    tab = assemble_tableau(grid)
    base = {"n0": -0.7, "n1": 0.3, "n2": 0.4}
    ref = solve_tableau(tab, base)
    scaled = solve_tableau(tab, {k: scale * v for k, v in base.items()})
    assert np.allclose(scaled.nodal_u, scale * ref.nodal_u, atol=1e-9)
    assert np.allclose(scaled.port_i, scale * ref.port_i, atol=1e-9)


def test_oracle_equivalence_random_networks():
    rng = np.random.default_rng(42)
    for _ in range(20):
        n, edges, inj = random_connected_network(rng)
        grid = network_as_grid(n, edges)
        tab = assemble_tableau(grid)
        sol = solve_tableau(tab, {f"n{k}": float(inj[k]) for k in range(n)})
        u_ref, flows = nodal_solution(n, edges, np.array(inj))
        scale = max(1.0, np.max(np.abs(u_ref)))
        for k in range(n):
            assert abs(sol.voltage(tab, f"n{k}") - u_ref[k]) / scale < 1e-8


def test_dump_tableau_format(pair_grid):
    tab = assemble_tableau(pair_grid)
    buf = io.StringIO()
    dump_tableau(tab, buf)
    text = buf.getvalue()
    assert text.startswith("%%tableau nodes")
    assert "%%block A_dc coordinate real" in text
    assert "%%pin earth 0" in text


def test_dump_of_the_shipped_grid_is_pinned(builtin_grid):
    # recorded when A, F_u and F_i were three separate matrices; the stamps'
    # stored zeros are listed: F_u and F_i hold 72 entries each
    buf = io.StringIO()
    dump_tableau(assemble_tableau(builtin_grid), buf)
    text = buf.getvalue()
    assert len(text.splitlines()) == 186
    assert "%%block F_u coordinate real 36 36 72\n" in text and "%%block F_i coordinate real 36 36 72\n" in text
    assert hashlib.sha256(text.encode()).hexdigest() == "112f4c80e2062b90dc74fe38520c2e33b7273537624e72a629bcc1419e6377f4"
