from dataclasses import replace

import pytest

from hvdcopf import naming as nm
from hvdcopf.builder import (
    BuildError,
    OpfOptions,
    StateBinaries,
    build_opf,
    build_scopf,
    objective_in_currency,
    split_outage,
)
from hvdcopf.ipm import solve


def test_split_outage_validates(builtin_grid):
    assert split_outage(builtin_grid, "Cb-A1.a") == ("Cb-A1", "a")
    with pytest.raises(BuildError):
        split_outage(builtin_grid, "Cm-F1.m")  # monopole, not bipolar
    with pytest.raises(KeyError):
        split_outage(builtin_grid, "Cb-A1.z")
    with pytest.raises(BuildError):
        split_outage(builtin_grid, "nodots")


def test_offset_limit_adds_row_pairs(builtin_grid):
    base, _ = build_opf(builtin_grid, OpfOptions(n_b=4))
    lim, _ = build_opf(builtin_grid, OpfOptions(n_b=4, offset_limit_kv=4.0))
    n_neutral = sum(1 for n in builtin_grid.dc_nodes if n.kind.value == "neutral")
    assert lim.n_ineq - base.n_ineq == 2 * n_neutral
    # 4 kV on the 400 kV neutral base is a 0.01 pu box
    row = lim.ineq_names.index("offlim.A1m.hi@0")
    assert lim.b_ineq[row] == pytest.approx(-0.01)


def test_outage_pins_converter_variables(builtin_grid):
    prob, _ = build_opf(builtin_grid, OpfOptions(n_b=3, outage="Cb-A1.a"))
    for name in (nm.conv_i("Cb-A1", "a", 1), nm.conv_i("Cb-A1", "a", 2), nm.conv_p("Cb-A1", "a")):
        k = prob.var_index(name)
        assert prob.lb[k] == prob.ub[k] == 0.0
    # the healthy pole keeps its rating
    k = prob.var_index(nm.conv_i("Cb-A1", "b", 1))
    assert prob.ub[k] == pytest.approx(1.05)


def test_beta_values_control_symmetry_rows(builtin_grid):
    all_sym, _ = build_opf(builtin_grid, OpfOptions(n_b=4))
    assert sum(1 for n in all_sym.eq_names if n.startswith("sym.")) == 4
    free = StateBinaries({cs.id: 0 for cs in builtin_grid.bipolar_stations()}, {})
    none_sym, _ = build_opf(builtin_grid, OpfOptions(n_b=0), binaries=free)
    assert sum(1 for n in none_sym.eq_names if n.startswith("sym.")) == 0
    undecided = StateBinaries({cs.id: None for cs in builtin_grid.bipolar_stations()}, {})
    relaxed, _ = build_opf(builtin_grid, OpfOptions(n_b=2), binaries=undecided)
    assert sum(1 for n in relaxed.eq_names if n.startswith("sym.")) == 0


def test_gamma_zero_stamps_line_out(builtin_grid):
    binaries = StateBinaries(
        {cs.id: 0 for cs in builtin_grid.bipolar_stations()},
        {"LD-7": 0, "LD-9": 1},
    )
    prob, _ = build_opf(
        builtin_grid,
        OpfOptions(n_b=0, outage="Cb-A1.a", nls_candidates=("LD-7", "LD-9")),
        binaries=binaries,
    )
    sol = solve(prob)
    assert sol.status == "optimal"
    v = sol.values(prob)
    assert abs(v[nm.port_i("LD-7", "i", 0)]) < 1e-9
    assert abs(v[nm.port_i("LD-7", "j", 0)]) < 1e-9


def test_relaxed_gamma_keeps_continuity_only(builtin_grid):
    binaries = StateBinaries(
        {cs.id: 0 for cs in builtin_grid.bipolar_stations()},
        {"LD-7": None},
    )
    prob, _ = build_opf(
        builtin_grid, OpfOptions(n_b=0, nls_candidates=("LD-7",)), binaries=binaries
    )
    assert "elem.LD-7.0@0" not in prob.eq_names
    assert "elem.LD-7.1@0" in prob.eq_names


def test_catalogue_contents(builtin_grid):
    _, cat = build_opf(
        builtin_grid,
        OpfOptions(n_b=2, outage="Cb-B1.b", nls_candidates=("LD-9", "LD-7")),
    )
    assert cat.beta_stations == ("Cb-A1", "Cb-B1", "Cb-C2", "Cb-D1")
    assert cat.gamma_lines == ("LD-7", "LD-9")
    assert cat.forced_beta == {(0, "Cb-B1"): 0}


def test_nb_out_of_range_rejected(builtin_grid):
    with pytest.raises(BuildError):
        build_opf(builtin_grid, OpfOptions(n_b=9))


def test_pole_role_required_for_nls(builtin_grid):
    with pytest.raises(BuildError):
        build_opf(builtin_grid, OpfOptions(n_b=0, nls_candidates=("LD-1",)))


def test_non_switchable_neutral_line_rejected_for_nls(builtin_grid):
    lines = tuple(replace(ln, switchable=False) if ln.id == "LD-7" else ln for ln in builtin_grid.dc_lines)
    grid = replace(builtin_grid, dc_lines=lines)
    with pytest.raises(BuildError, match="LD-7.*switchable"):
        build_opf(grid, OpfOptions(n_b=0, nls_candidates=("LD-7", "LD-9")))
    build_opf(grid, OpfOptions(n_b=0, nls_candidates=("LD-9",)))


def test_uncounted_faulted_station_rejected(builtin_grid):
    opts = OpfOptions(n_b=2, outage="Cb-A1.a", count_faulted_as_asymmetric=False)
    with pytest.raises(BuildError, match="count_faulted_as_asymmetric"):
        build_opf(builtin_grid, opts)
    with pytest.raises(BuildError, match="count_faulted_as_asymmetric"):
        build_scopf(builtin_grid, ("Cb-A1.a",), opts)


def test_unknown_nb_mode_rejected(builtin_grid):
    with pytest.raises(BuildError, match="nb_mode"):
        build_opf(builtin_grid, OpfOptions(n_b=2, nb_mode="roughly"))


class TestScopf:
    def test_reserve_structure_counts(self, builtin_grid):
        conts = builtin_grid.pole_converter_ids()
        prob, _ = build_scopf(builtin_grid, conts, OpfOptions(n_b=0))
        n_g = len(builtin_grid.generators)
        n_k = len(conts)
        assert sum(1 for v in prob.var_names if v.startswith("rup.")) == n_g
        assert sum(1 for v in prob.var_names if v.startswith("rdn.")) == n_g
        coupling = [n for n in prob.ineq_names if n.startswith(("resup.", "resdn."))]
        assert len(coupling) == 2 * n_g * n_k
        caps = [n for n in prob.ineq_names if n.startswith(("rupcap.", "rdncap."))]
        assert len(caps) == 2 * n_g

    def test_empty_contingency_set_rejected(self, builtin_grid):
        with pytest.raises(BuildError):
            build_scopf(builtin_grid, (), OpfOptions(n_b=0))

    def test_reserve_bound_collapse_at_pmax(self, builtin_grid):
        # r_up + p_g0 <= p_max forces r_up to 0 when p_g0 is at its cap
        conts = ("Cb-A1.a",)
        prob, _ = build_scopf(builtin_grid, conts, OpfOptions(n_b=0))
        r = prob.ineq_names.index("rupcap.G-A1")
        row = prob.a_ineq[r].toarray().ravel()
        assert row[prob.var_index("rup.G-A1")] == 1.0
        assert row[prob.var_index(nm.gen_p("G-A1", 0))] == 1.0
        assert prob.b_ineq[r] == pytest.approx(-1.5)

    def test_base_state_fully_symmetric(self, builtin_grid):
        prob, _ = build_scopf(builtin_grid, ("Cb-A1.a",), OpfOptions(n_b=0))
        assert sum(1 for n in prob.eq_names if n.startswith("sym.") and n.endswith("@0")) == 4

    def test_offset_rows_replicate_per_state(self, builtin_grid):
        conts = ("Cb-A1.a", "Cb-B1.b")
        prob, _ = build_scopf(builtin_grid, conts, OpfOptions(n_b=0, offset_limit_kv=8.0))
        n_neutral = sum(1 for n in builtin_grid.dc_nodes if n.kind.value == "neutral")
        rows = [n for n in prob.ineq_names if n.startswith("offlim.")]
        assert len(rows) == 2 * n_neutral * (len(conts) + 1)


def test_objective_currency_round_trip(builtin_grid):
    prob, _ = build_opf(builtin_grid, OpfOptions(n_b=4))
    assert objective_in_currency(prob, 60.0) == pytest.approx(60000.0)


def test_flat_start_voltages(builtin_grid):
    prob, _ = build_opf(builtin_grid, OpfOptions(n_b=4))
    assert prob.start[prob.var_index(nm.nodal_u("A1p", 0))] == 1.0
    assert prob.start[prob.var_index(nm.nodal_u("A1n", 0))] == 1.0
    assert prob.start[prob.var_index(nm.nodal_u("A1m", 0))] == 0.0
    k = prob.var_index(nm.gen_p("G-A1", 0))
    assert prob.start[k] == pytest.approx(0.75)  # midpoint of [0, 1500] MW in pu
