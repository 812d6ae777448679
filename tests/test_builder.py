import hashlib
import math
from dataclasses import replace

import numpy as np
import pytest

import hvdcopf.builder
from hvdcopf import naming as nm
from hvdcopf.builder import (
    BinaryAssignment,
    BuildError,
    OpfOptions,
    build_opf,
    build_scopf,
    compile_program,
    objective_in_currency,
    reserve_cost_in_currency,
    split_outage,
)
from hvdcopf.converters import symmetric_row
from hvdcopf.engine import enumerate_assignments
from hvdcopf.ipm import solve
from hvdcopf.tableau import UngroundedNeutralError, assemble_tableau, solve_tableau, stamp_dc_line

from conftest import two_station_grid
from oracles import network_as_grid, random_connected_network


def _state(k=0, beta=None, gamma=None) -> BinaryAssignment:
    """The assignment that lists `beta` and `gamma` ({id: value}) of state k."""
    return BinaryAssignment.of({**{(k, "beta", s): v for s, v in (beta or {}).items()},
                                **{(k, "gamma", bd): v for bd, v in (gamma or {}).items()}})


def test_split_outage_validates(builtin_grid):
    assert split_outage(builtin_grid, "Cb-A1.a") == ("Cb-A1", "a")
    with pytest.raises(BuildError):
        split_outage(builtin_grid, "Cm-F1.m")  # monopole, not bipolar
    with pytest.raises(BuildError, match="Cb-A1.z"):
        split_outage(builtin_grid, "Cb-A1.z")
    with pytest.raises(BuildError, match="Zz.a"):
        split_outage(builtin_grid, "Zz.a")
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
    free = _state(beta={cs.id: 0 for cs in builtin_grid.bipolar_stations()})
    none_sym, _ = build_opf(builtin_grid, OpfOptions(n_b=0), binaries=free)
    assert sum(1 for n in none_sym.eq_names if n.startswith("sym.")) == 0
    undecided = _state(beta={cs.id: None for cs in builtin_grid.bipolar_stations()})
    relaxed, _ = build_opf(builtin_grid, OpfOptions(n_b=2), binaries=undecided)
    assert sum(1 for n in relaxed.eq_names if n.startswith("sym.")) == 0


def test_gamma_zero_stamps_line_out(builtin_grid):
    binaries = _state(beta={cs.id: 0 for cs in builtin_grid.bipolar_stations()}, gamma={"LD-7": 0, "LD-9": 1})
    prob, _ = build_opf(
        builtin_grid,
        OpfOptions(n_b=0, outage="Cb-A1.a", nls_candidates=("LD-7", "LD-9")),
        binaries=binaries,
    )
    sol = solve(prob)
    assert sol.status == "optimal"
    v = sol.values()
    assert abs(v[nm.port_i("LD-7", "i", 0)]) < 1e-9
    assert abs(v[nm.port_i("LD-7", "j", 0)]) < 1e-9


def test_relaxed_gamma_keeps_continuity_only(builtin_grid):
    binaries = _state(beta={cs.id: 0 for cs in builtin_grid.bipolar_stations()}, gamma={"LD-7": None})
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
    assert cat.count_rule.station_ids == ("Cb-A1", "Cb-B1", "Cb-C2", "Cb-D1")
    assert cat.gamma_lines == ("LD-7", "LD-9")
    assert cat.forced_beta == {(0, "Cb-B1"): 0}


def test_catalogue_rows_are_the_rows_binaries_add(builtin_grid):
    template = compile_program(builtin_grid, OpfOptions(n_b=2, outage="Cb-B1.b", nls_candidates=("LD-9", "LD-7")))
    cat = template.catalogue
    assert cat.grid is builtin_grid
    assert sorted(cat.binaries) == sorted(
        [(0, "beta", s) for s in cat.count_rule.station_ids] + [(0, "gamma", bd) for bd in cat.gamma_lines]
    )
    ones = template.program(BinaryAssignment.of(dict.fromkeys(cat.binaries, 1)))
    undecided = template.program(BinaryAssignment.of(dict.fromkeys(cat.binaries)))
    # the rows every binary at 1 keeps and every binary undecided leaves out, in compiled order
    only_at_one = np.isin(ones.template_rows, undecided.template_rows, invert=True)
    assert cat.rows.shape == (len(cat.binaries), ones.n_vars)
    assert (cat.rows != ones.a_eq[np.flatnonzero(only_at_one)]).nnz == 0


def _network_residuals(problem, tab, sol, injections: dict[str, float]) -> np.ndarray:
    """The program's kcl/kvl/elem/pin rows at a `solve_tableau` solution of state 0."""
    x = np.zeros(problem.n_vars)
    for node, u in zip(tab.node_ids, sol.nodal_u):
        x[problem.var_index(nm.nodal_u(node))] = u
        x[problem.var_index(nm.injection(node))] = injections.get(node, 0.0)
    ports = [(el.element_id, end) for el in tab.elements for end in ("i", "j")]
    for (el, end), u, i in zip(ports, sol.port_u, sol.port_i):
        x[problem.var_index(nm.port_u(el, end))] = u
        x[problem.var_index(nm.port_i(el, end))] = i
    network = [r for r, name in enumerate(problem.eq_names) if name.split(".")[0] in ("kcl", "kvl", "elem", "pin")]
    assert len(network) == tab.matrix.shape[0] + len(tab.pins)
    return problem.eval_eq(x)[network]


def test_network_rows_vanish_at_the_tableau_solution():
    # criterion 2's random networks: the rows the OPF solves are the tableau's
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(50):
        n, edges, inj = random_connected_network(rng, max_nodes=10)
        grid = network_as_grid(n, edges)
        injections = {f"n{k}": float(inj[k]) for k in range(n)}
        tab = assemble_tableau(grid)
        sol = solve_tableau(tab, injections)
        problem = compile_program(grid, OpfOptions(n_b=0)).program()
        worst = max(worst, np.max(np.abs(_network_residuals(problem, tab, sol, injections))))
    assert worst <= 1e-10


def test_open_candidate_rows_vanish_at_the_open_tableau_solution(pair_grid):
    template = compile_program(pair_grid, OpfOptions(n_b=0, nls_candidates=("L-m",)))
    problem = template.program(BinaryAssignment.of({(0, "gamma", "L-m"): 0}))
    injections = {"Pp": 0.5, "Qp": -0.5, "Pm": 0.2, "Qm": -0.2}
    tab = assemble_tableau(pair_grid, {"L-m": 0})
    sol = solve_tableau(tab, injections)
    assert np.max(np.abs(_network_residuals(problem, tab, sol, injections))) <= 1e-10


def test_one_tableau_assembly_per_compile(builtin_grid, monkeypatch):
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return assemble_tableau(*args, **kwargs)

    monkeypatch.setattr(hvdcopf.builder, "assemble_tableau", counted)
    compile_program(builtin_grid, OpfOptions(n_b=2), SCOPF_OUTAGES)
    assert len(calls) == 1


@pytest.mark.parametrize(
    "contingencies, candidates, repeated",
    [(None, ("LD-7", "LD-9", "LD-7"), "NLS candidate 'LD-7'"),
     (("Cb-A1.a", "Cb-B1.b", "Cb-A1.a"), (), "contingency 'Cb-A1.a'")],
)
def test_repeated_binary_ids_rejected(builtin_grid, contingencies, candidates, repeated):
    with pytest.raises(BuildError, match=f"{repeated} is listed more than once"):
        compile_program(builtin_grid, OpfOptions(n_b=0, nls_candidates=candidates), contingencies)


def test_outage_of_a_scopf_rejected(builtin_grid):
    # a SCOPF's states are its contingencies; an outage option would change nothing
    with pytest.raises(BuildError, match="outage 'Cb-A1.a'"):
        compile_program(builtin_grid, OpfOptions(n_b=2, outage="Cb-A1.a"), SCOPF_OUTAGES)


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


def test_reserve_cost_is_the_objective_reserve_terms(builtin_grid):
    problem, _ = build_scopf(builtin_grid, ("Cb-A1.a", "Cb-B1.a"), OpfOptions(n_b=2))
    sol = solve(problem)
    assert sol.status == "optimal"
    values = sol.values()
    # the oracle: each generator's reserve costs times its reserves, from grid data, in currency/h
    oracle = sum((g.reserve_cost_up * values[nm.reserve_up(g.id)]
                  + g.reserve_cost_down * values[nm.reserve_down(g.id)]) * builtin_grid.base_mw
                 for g in builtin_grid.generators)
    assert oracle > 0.0
    assert reserve_cost_in_currency(problem, sol.x) == pytest.approx(oracle, rel=1e-12, abs=0.0)
    opf, _ = build_opf(builtin_grid, OpfOptions(n_b=0, outage="Cb-A1.a"))
    assert reserve_cost_in_currency(opf, opf.start) is None


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

    def test_each_outage_pins_its_own_pole(self, builtin_grid):
        # state k pins exactly outage k's pole, to (-0.0, 0.0); every other copy keeps the state-0 bounds
        prob, _ = build_scopf(builtin_grid, SCOPF_OUTAGES, OpfOptions(n_b=2))
        shape = [v for v in prob.var_names if v.endswith("@0")]
        for k, outage in enumerate(SCOPF_OUTAGES, start=1):
            station, pole = split_outage(builtin_grid, outage)
            pinned = {nm.conv_i(station, pole, 1, k), nm.conv_i(station, pole, 2, k), nm.conv_p(station, pole, k)}
            copies = [(prob.var_index(v), prob.var_index(f"{v[:-2]}@{k}")) for v in shape]
            moved = {prob.var_names[i] for j, i in copies if (prob.lb[i], prob.ub[i]) != (prob.lb[j], prob.ub[j])}
            assert moved == pinned
            for v in pinned:
                lb, ub = prob.lb[prob.var_index(v)], prob.ub[prob.var_index(v)]
                assert lb == ub == 0.0 and math.copysign(1.0, lb) < 0
        # state 0, fully healthy, rates each pole an outage pins
        for outage in SCOPF_OUTAGES:
            station, pole = split_outage(builtin_grid, outage)
            cv = builtin_grid.station(station).converter(pole)
            for v, limit in ((nm.conv_i(station, pole, 1), cv.current_limit_pu),
                             (nm.conv_i(station, pole, 2), cv.current_limit_pu), (nm.conv_p(station, pole), cv.power_limit_pu)):
                assert limit > 0.0 and (prob.lb[prob.var_index(v)], prob.ub[prob.var_index(v)]) == (-limit, limit)


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


# -- compiled templates -----------------------------------------------------------


def _digest(p) -> str:
    """sha256 of a program's names and raw arrays, with each array's dtype and shape.

    The bilinear terms hash as one float64 N x 4 array of (row, a, b, coeff).
    """
    h = hashlib.sha256()
    for names in ((p.name,), p.var_names, p.eq_names, p.ineq_names):
        h.update("\n".join(names).encode() + b"\0")
    q = p.bilinear
    terms = np.column_stack([q.row, q.a, q.b, q.coeff]).astype(float)
    for arr in (p.a_eq.indptr, p.a_eq.indices, p.a_eq.data, p.b_eq, terms, p.lb, p.ub, p.cost, p.start,
                p.a_ineq.indptr, p.a_ineq.indices, p.a_ineq.data, p.b_ineq):
        h.update(f"{arr.dtype.str}{arr.shape}".encode())
        h.update(np.ascontiguousarray(arr).tobytes())
    return h.hexdigest()


# the three MINLPs of the 4 kV NLS study (the `nls-4kv` benchmark workload)
NLS_4KV = {
    "unrestricted": OpfOptions(n_b=0, outage="Cb-A1.a"),
    "4kv": OpfOptions(n_b=0, outage="Cb-A1.a", offset_limit_kv=4.0),
    "4kv-nls": OpfOptions(n_b=0, outage="Cb-A1.a", offset_limit_kv=4.0,
                          nls_candidates=("LD-2", "LD-5", "LD-7", "LD-9")),
}
SCOPF_OUTAGES = ("Cb-A1.a", "Cb-A1.b", "Cb-B1.a", "Cb-B1.b")

# Digests recorded with the row-by-row builder the templates replaced: every
# enumerated assignment of the NLS MINLPs, keyed by (MINLP, assignment label)...
NLS_DIGESTS = {
    ("unrestricted", "k0:asym={Cb-A1,Cb-B1,Cb-C2,Cb-D1}"):
        "c37dd154cd1ed8d1ba00d107be5605f6a2ff717831824d9e7e3015101b43cc76",
    ("4kv", "k0:asym={Cb-A1,Cb-B1,Cb-C2,Cb-D1}"): "efb6adec32f675219d587acfd4166aeb3368d42e4915738f1a71c7ff77b8b4aa",
    ("4kv-nls", "k0:asym={Cb-A1,Cb-B1,Cb-C2,Cb-D1}"):
        "efb6adec32f675219d587acfd4166aeb3368d42e4915738f1a71c7ff77b8b4aa",
    ("4kv-nls", "k0:asym={Cb-A1,Cb-B1,Cb-C2,Cb-D1}; k0:open={LD-9}"):
        "7d83d906dacd39d46f098713f84cf54ce72d03feed9e706eb99f49bef17781b8",
    ("4kv-nls", "k0:asym={Cb-A1,Cb-B1,Cb-C2,Cb-D1}; k0:open={LD-7}"):
        "f9b106eca9b39a064bc5828ad3653d6a0efce6b6cecc10bde88173333510f919",
    ("4kv-nls", "k0:asym={Cb-A1,Cb-B1,Cb-C2,Cb-D1}; k0:open={LD-7,LD-9}"):
        "0e9905428c690834c6f34d4c90fc57b6be81567d0ca646d05c50dec0bd67dfce",
    ("4kv-nls", "k0:asym={Cb-A1,Cb-B1,Cb-C2,Cb-D1}; k0:open={LD-5}"):
        "5a343ea9c77ca6cfaca1cbf4331d530713907845a7d644834ebdd75156e9e651",
    ("4kv-nls", "k0:asym={Cb-A1,Cb-B1,Cb-C2,Cb-D1}; k0:open={LD-5,LD-9}"):
        "cf99f06f096f89fe8d85099f6e08204fca097e403ef3eb42efff3e2d9909238b",
    ("4kv-nls", "k0:asym={Cb-A1,Cb-B1,Cb-C2,Cb-D1}; k0:open={LD-5,LD-7}"):
        "128a0acbdb0574f7b718170991292e5d3846de276b97a0c73d851ba26dd68b5e",
    ("4kv-nls", "k0:asym={Cb-A1,Cb-B1,Cb-C2,Cb-D1}; k0:open={LD-5,LD-7,LD-9}"):
        "569d7457f2bb7d7dffc8fcef898f6828d5c0d2a1d619390a354e877ffe35c739",
    ("4kv-nls", "k0:asym={Cb-A1,Cb-B1,Cb-C2,Cb-D1}; k0:open={LD-2}"):
        "641b20b5ef0614ce7a6d7cb3003df26ec0da388abaa5eeb7cfae796fa620ae11",
    ("4kv-nls", "k0:asym={Cb-A1,Cb-B1,Cb-C2,Cb-D1}; k0:open={LD-2,LD-9}"):
        "0c9fd180cadcd3814a5142640c07a3d2382d347517555d812b40a00ef26143e7",
    ("4kv-nls", "k0:asym={Cb-A1,Cb-B1,Cb-C2,Cb-D1}; k0:open={LD-2,LD-7}"):
        "4950a81138b4c7d8cbd3a19f64924fce8a547847c464b741188246a3c5fb993a",
    ("4kv-nls", "k0:asym={Cb-A1,Cb-B1,Cb-C2,Cb-D1}; k0:open={LD-2,LD-7,LD-9}"):
        "22a35191f9751935c5e5bcc3ae93b05f94af6028c91fd7120734e929bc516c9a",
    ("4kv-nls", "k0:asym={Cb-A1,Cb-B1,Cb-C2,Cb-D1}; k0:open={LD-2,LD-5}"):
        "27af19a32dd8867464657dcc978fcb14bc2d784cf771510c658d14dd456c18c0",
    ("4kv-nls", "k0:asym={Cb-A1,Cb-B1,Cb-C2,Cb-D1}; k0:open={LD-2,LD-5,LD-9}"):
        "44a9ce4d82a55cd99d34a467ab5a00ff89c42adb312d96f1326a0bef23f0abd5",
    ("4kv-nls", "k0:asym={Cb-A1,Cb-B1,Cb-C2,Cb-D1}; k0:open={LD-2,LD-5,LD-7}"):
        "34172fb772f59ca4ae9b45fe26a62690f2e42ba000e82c080509036bb229f521",
    ("4kv-nls", "k0:asym={Cb-A1,Cb-B1,Cb-C2,Cb-D1}; k0:open={LD-2,LD-5,LD-7,LD-9}"):
        "7c0c169489ff16ba1cd31d85b8c12ea0d4568496551abfed8feff7af4bd865b4",
}
# ...two relaxed nodes and the default build of the MINLP with NLS candidates,
# keyed by the line statuses at every station asymmetric ('default': none given)...
NLS_RELAXED_DIGESTS = {
    (("LD-2", None), ("LD-5", None), ("LD-7", None), ("LD-9", None)):
        "74ac807a8474e9409ef98a71adc2bd9404631a41eba9e7f2064de62f88ea22fc",
    (("LD-2", 0), ("LD-5", None), ("LD-7", 1), ("LD-9", None)):
        "231e42fa251fa5485d9299e0b985fd73baacf296cf34baebb2b78bddb686d55a",
    "default": "8554e68c808e1c6f302ab1d7b262b3221a484cab6bea1bf21175ad3fb57fa783",
}
# ...and every node of the branch-and-bound tree on the 4-outage SCOPF at N_b=2
# (the `scopf-bnb` workload), the partial nodes its parent's bound prunes
# unsolved included: the panel pins programs, not the search. Keyed by each
# state's selectors over the sorted bipolar stations (k=1 first; '?'
# undecided), plus its default build
SCOPF_DIGESTS = {
    "0??? 0??? ?0?? ?0??": "3d9515ff2b5db3134fde61bd39fe36f8f4916ca0085de25ed30b09124797c64c",
    "0011 0??? ?0?? ?0??": "9baf3a73e99338a0d3ce6741fcbed86173f144daae01bfff17f1f0ea64d4f0b3",
    "0011 0011 ?0?? ?0??": "a5be748c4bebc84ad1bcc4585936f4262dc805f5ed5ed8f7b05d48db61a254d4",
    "0011 0011 ?0?? 0011": "92c975b99f89ad519131c31776455dd23881d21eb5698f34cb0267cdb08d5827",
    "0011 0011 0011 0011": "ad8eee03a9e1d80705456a896e1932ab3a90c302dd1f4b3fb73a0583be045209",
    "0011 0011 10?? 0011": "ed28d1b2063dce8a9909edc6d810d14af0663135e2fba40d9220a4c04a522989",
    "0011 0011 ?0?? 10??": "8c40c453b80a203b02f789fac194466c0fcadcfb64f08f682ebc76b897b2daa9",
    "0011 01?? ?0?? ?0??": "ea948e2b6034bf1d6171b87d6c0a11c36850d8a3eda824ce2559d4030b55a0bf",
    "01?? 0??? ?0?? ?0??": "85373a424fe7d3bd822c9d2de6ab944a79e4ea06514414c94f5111b955ef0c58",
    "default": "b1d67931ee98c6befc39ed09a31940c824580706a1b6f8d37623c76703695b76",
}


def _scopf_node(catalogue, code: str) -> BinaryAssignment:
    return BinaryAssignment.of({
        (k + 1, "beta", s): None if c == "?" else int(c)
        for k, group in enumerate(code.split()) for s, c in zip(catalogue.count_rule.station_ids, group)
    })


@pytest.mark.parametrize("minlp", sorted(NLS_4KV))
def test_enumerated_nls_programs_match_golden(builtin_grid, minlp):
    template = compile_program(builtin_grid, NLS_4KV[minlp])
    assignments = enumerate_assignments(template.catalogue)
    assert {a.label() for a in assignments} == {label for key, label in NLS_DIGESTS if key == minlp}
    for a in assignments:
        assert _digest(template.program(a)) == NLS_DIGESTS[(minlp, a.label())], a.label()


def test_relaxed_nls_programs_match_golden(builtin_grid):
    options = NLS_4KV["4kv-nls"]
    template = compile_program(builtin_grid, options)
    for gamma, digest in NLS_RELAXED_DIGESTS.items():
        if gamma == "default":
            programs = (template.program(), build_opf(builtin_grid, options)[0])
        else:
            binaries = _state(beta={s: 0 for s in template.catalogue.count_rule.station_ids}, gamma=dict(gamma))
            programs = (template.program(binaries), build_opf(builtin_grid, options, binaries=binaries)[0])
        assert [_digest(p) for p in programs] == [digest, digest], gamma


def test_scopf_bnb_nodes_match_golden(builtin_grid):
    options = OpfOptions(n_b=2)
    template = compile_program(builtin_grid, options, SCOPF_OUTAGES)
    for code, digest in SCOPF_DIGESTS.items():
        if code == "default":
            programs = (template.program(), build_scopf(builtin_grid, SCOPF_OUTAGES, options)[0])
        else:
            a = _scopf_node(template.catalogue, code)
            programs = (template.program(a),
                        build_scopf(builtin_grid, SCOPF_OUTAGES, options, binaries=a)[0])
        assert [_digest(p) for p in programs] == [digest, digest], code


# Digests recorded with the compile that emitted each state on its own, before one
# state shape was stacked per state: the SCOPF of generated grids over every pole
# outage, keyed by (n, seed, options) -> (default build, one partial node). 'nls'
# adds neutral-offset rows and two candidate lines, which the base state leaves out
GENERATED_SCOPF = {
    "plain": lambda n: OpfOptions(n_b=n - 1),
    "nls": lambda n: OpfOptions(n_b=n // 2, offset_limit_kv=4.0, nls_candidates=("L0-m", "L1-m")),
}
GENERATED_SCOPF_DIGESTS = {
    (4, 0, "plain"): ("d6d636b693c607e99f7e2e1f1fb86d1dc2dca10e530604ca890d44e8f466a6af",
                      "c1f5f03634c31d2ffac2176ff1c25b64297575da192ca55d07a155a5dc336b0e"),
    (4, 0, "nls"): ("ee1807660417c1a1958b625da2a885170370bc1697f91f4488b7b8859e9e48c0",
                    "6a73c0f012666de2b2735ceeb6552b072e35790734cc1da002a452e67159ac7b"),
    (8, 7, "plain"): ("35ac5acb33941a57cf8d2a85caa7b981a569bdf597d018386116b31bf098c446",
                      "3d83767ab87b98e4aebfab65bc52be00f55a0974ae320e1d8ab29823506de621"),
    (8, 7, "nls"): ("52b8b51071824881cdd5941e8054a06a9da79b09847711b1ef36200dc5dd961a",
                    "517cd8ec9efb4c55dd65fb315bb997fe66418914daf56ed1abff3c1b75d1c2f2"),
}


@pytest.mark.parametrize("n, seed, options", sorted(GENERATED_SCOPF_DIGESTS))
def test_generated_scopf_programs_match_golden(meshed_bipolar_grid, n, seed, options):
    grid = meshed_bipolar_grid(n, seed)
    template = compile_program(grid, GENERATED_SCOPF[options](n), tuple(grid.pole_converter_ids()))
    # every binary undecided; with candidates, state 1 opens L0-m
    partial = {b: None for b in template.catalogue.binaries} | ({(1, "gamma", "L0-m"): 0} if options == "nls" else {})
    programs = (template.program(), template.program(BinaryAssignment.of(partial)))
    assert tuple(_digest(p) for p in programs) == GENERATED_SCOPF_DIGESTS[(n, seed, options)]


def test_catalogue_rows_are_the_symmetric_and_voltage_rows(builtin_grid, meshed_bipolar_grid):
    """On the golden compiles, each binary's row of the catalogue is its station's symmetric row or its
    line's in-service voltage row, built as a `Row`: the same nonzero entries, in the same order."""
    cases = [(builtin_grid, options, None) for options in NLS_4KV.values()]
    cases.append((builtin_grid, OpfOptions(n_b=2), SCOPF_OUTAGES))
    for n, seed, options in sorted(GENERATED_SCOPF_DIGESTS):
        grid = meshed_bipolar_grid(n, seed)
        cases.append((grid, GENERATED_SCOPF[options](n), tuple(grid.pole_converter_ids())))
    for grid, options, contingencies in cases:
        template = compile_program(grid, options, contingencies)
        cat, var_names = template.catalogue, template.program().var_names
        assert sorted(cat.binaries) == sorted([(sc.k, "beta", s) for sc in cat.scenarios for s in cat.count_rule.station_ids]
                                              + [(sc.k, "gamma", bd) for sc in cat.scenarios for bd in cat.gamma_lines])
        for (k, kind, name), row in zip(cat.binaries, cat.rows):
            if kind == "beta":
                expect = symmetric_row(grid.station(name), k)
            else:
                expect = hvdcopf.builder._element_rows(stamp_dc_line(grid.line(name), 1), k)[0]
            lin = tuple((var_names[j], c) for j, c in zip(row.indices.tolist(), row.data.tolist()) if c != 0.0)
            assert lin == expect.lin and not expect.quad and expect.const == 0.0, (k, kind, name)


def test_one_state_shape_per_compile(builtin_grid, monkeypatch):
    emitted = []
    emit = hvdcopf.builder._emit_state
    monkeypatch.setattr(hvdcopf.builder, "_emit_state", lambda *args: emitted.append(args) or emit(*args))
    template = compile_program(builtin_grid, OpfOptions(n_b=2), SCOPF_OUTAGES)
    assert len(emitted) == 1
    assert template.program().meta["scenarios"] == ["base", *SCOPF_OUTAGES]


# the NLS MINLP's default build with LD-7 open, recorded by listing every binary
NLS_DEFAULT_LD7_OPEN = "e74788121297a450d6bd8bc7e9fe19a510a48cdae6248dccf7e3bbcba1d672cb"


def test_an_unlisted_binary_takes_its_default(builtin_grid):
    nls = compile_program(builtin_grid, NLS_4KV["4kv-nls"])
    scopf = compile_program(builtin_grid, OpfOptions(n_b=2), SCOPF_OUTAGES)
    cases = [
        (nls, {}, NLS_RELAXED_DIGESTS["default"]),
        (nls, {(0, "gamma", "LD-7"): 0}, NLS_DEFAULT_LD7_OPEN),  # the selectors unlisted: faulted asymmetric
        (scopf, {}, SCOPF_DIGESTS["default"]),
        # each state lists one selector; the faulted one is asymmetric, the others symmetric
        (scopf, {(1, "beta", "Cb-B1"): 0, (2, "beta", "Cb-B1"): 0, (3, "beta", "Cb-A1"): 0, (4, "beta", "Cb-A1"): 0},
         SCOPF_DIGESTS["0011 0011 0011 0011"]),
    ]
    for template, partial, digest in cases:
        completion = BinaryAssignment.of({**dict(template.catalogue.default().values), **partial})
        assert completion.is_complete() and len(completion.values) == len(template.catalogue.binaries)
        programs = [template.program(BinaryAssignment.of(partial)), template.program(completion)]
        if not partial:
            programs.append(template.program())
        assert [_digest(p) for p in programs] == [digest] * len(programs), partial


def test_default_of_the_catalogue(builtin_grid):
    catalogue = compile_program(builtin_grid, OpfOptions(n_b=2), SCOPF_OUTAGES[1:3]).catalogue
    assert catalogue.default().label() == "k1:asym={Cb-A1}; k2:asym={Cb-B1}"
    nls = compile_program(builtin_grid, NLS_4KV["4kv-nls"]).catalogue.default()
    assert nls.state(0, "gamma") == dict.fromkeys(("LD-2", "LD-5", "LD-7", "LD-9"), 1)


def test_label_of_a_catalogue_without_bipolar_stations(builtin_grid):
    # no selector to list, so the assignment with every line in service reads "default"
    grid = replace(builtin_grid, converter_stations=tuple(
        cs for cs in builtin_grid.converter_stations if cs not in builtin_grid.bipolar_stations()))
    catalogue = compile_program(grid, OpfOptions(n_b=0, nls_candidates=("LD-7",))).catalogue
    assert [a.label() for a in enumerate_assignments(catalogue)] == ["default", "k0:open={LD-7}"]
    assert BinaryAssignment().label() == "default"


def test_programs_share_read_only_arrays(builtin_grid):
    template = compile_program(builtin_grid, OpfOptions(n_b=2), SCOPF_OUTAGES)
    catalogue = template.catalogue
    p1 = template.program(_scopf_node(catalogue, "0011 0011 0011 0011"))
    p2 = template.program(_scopf_node(catalogue, "0??? 0??? ?0?? ?0??"))
    assert p1.n_eq > p2.n_eq
    for name in ("lb", "ub", "cost", "start", "b_ineq"):
        arr = getattr(p1, name)
        assert arr is getattr(p2, name)
        with pytest.raises(ValueError, match="read-only"):
            arr[0] = 1.0
    assert p1.a_ineq is p2.a_ineq
    for arr in (p1.a_ineq.data, p1.a_ineq.indices, p1.a_ineq.indptr):
        with pytest.raises(ValueError, match="read-only"):
            arr[0] = 1
    q1, q2 = p1.bilinear, p2.bilinear
    for a1, a2 in ((p1.b_eq, p2.b_eq), (q1.row, q2.row), (q1.a, q2.a), (q1.b, q2.b), (q1.coeff, q2.coeff),
                   (p1.a_eq.data, p2.a_eq.data), (p1.a_eq.indices, p2.a_eq.indices), (p1.a_eq.indptr, p2.a_eq.indptr)):
        assert not np.shares_memory(a1, a2)


def test_program_rejects_binaries_the_catalogue_does_not_list(builtin_grid):
    options = OpfOptions(n_b=0, outage="Cb-A1.a", nls_candidates=("LD-7",))
    template = compile_program(builtin_grid, options)
    with pytest.raises(BuildError, match="LD-9"):  # a neutral line that is no candidate
        template.program(_state(gamma={"LD-9": 0}))
    with pytest.raises(BuildError, match="Cm-F1"):  # a monopole has no selector
        template.program(_state(beta={"Cm-F1": 1}))
    with pytest.raises(BuildError, match="state 1"):
        template.program(_state(1, gamma={"LD-7": 1}))
    with pytest.raises(BuildError, match="LD-7"):
        template.program(_state(gamma={"LD-7": 2}))
    with pytest.raises(BuildError, match="LD-9"):
        build_opf(builtin_grid, options, binaries=_state(gamma={"LD-9": 0}))
    scopf = compile_program(builtin_grid, OpfOptions(n_b=2), SCOPF_OUTAGES)
    with pytest.raises(BuildError, match="state 0"):  # the SCOPF base state is fixed
        scopf.program(_state(beta={"Cb-A1": 0}))


def test_program_raises_when_gamma_leaves_a_neutral_without_ground():
    grid = two_station_grid(ground_q=False)  # St-Q's neutral reaches ground through L-m only
    options = OpfOptions(n_b=0, nls_candidates=("L-m",))
    template = compile_program(grid, options)
    template.program(_state(gamma={"L-m": 1}))
    template.program(_state(gamma={"L-m": None}))
    with pytest.raises(UngroundedNeutralError, match="Qm"):
        template.program(_state(gamma={"L-m": 0}))
    with pytest.raises(UngroundedNeutralError, match="Qm"):
        build_opf(grid, options, binaries=_state(gamma={"L-m": 0}))


# -- the pole mirror --------------------------------------------------------------


def test_pole_swap_pairs_poles_neutrals_and_outages(builtin_grid):
    template = compile_program(builtin_grid, OpfOptions(n_b=2), SCOPF_OUTAGES)  # states k1..k4 in that order
    p = template.program()
    mirror = p.meta["mirror"]  # the compiled program's, over the rows this program keeps
    image = lambda name: (p.var_names[mirror.var[p.var_index(name)]], mirror.var_sign[p.var_index(name)])
    assert image(nm.conv_i("Cb-A1", "a", 1, 1)) == (nm.conv_i("Cb-A1", "b", 1, 2), 1.0)
    assert image(nm.conv_i("Cb-B1", "b", 2, 3)) == (nm.conv_i("Cb-B1", "a", 2, 4), -1.0)
    assert image(nm.nodal_u("A1p", 0)) == (nm.nodal_u("A1n", 0), 1.0)
    assert image(nm.nodal_u("A1m", 2)) == (nm.nodal_u("A1m", 1), -1.0)  # a neutral node is its own, negated
    assert image(nm.port_i("LD-1", "j", 0)) == (nm.port_i("LD-3", "j", 0), 1.0)  # pole lines pair by their ends
    assert image(nm.port_i("LD-9", "j", 0)) == (nm.port_i("LD-9", "j", 0), -1.0)  # parallel neutral lines do not
    assert image(nm.conv_i("Cd-E1", "B", 1, 0)) == (nm.conv_i("Cd-E1", "B", 2, 0), 1.0)  # DC-DC terminals 1 and 2
    assert image(nm.reserve_up("G-A1")) == (nm.reserve_up("G-A1"), 1.0)
    row = lambda name: (p.eq_names[mirror.eq[p.eq_names.index(name)]], mirror.eq_sign[p.eq_names.index(name)])
    assert row("cv.Cb-C2.a.pwr@3") == ("cv.Cb-C2.b.pwr@4", 1.0)
    assert row("sym.Cb-C2@0") == ("sym.Cb-C2@0", -1.0)  # i_a2 + i_b2: 0 = 0 on the symmetric half
    assert p.ineq_names[mirror.ineq[p.ineq_names.index("resup.G-A1@1")]] == "resup.G-A1@2"


@pytest.mark.parametrize("options, contingencies", [
    (OpfOptions(n_b=0, outage="Cb-A1.a"), None),  # the outage of pole b is not a state
    (OpfOptions(n_b=2), SCOPF_OUTAGES[:3]),
])
def test_no_mirror_without_each_outage_twin(builtin_grid, options, contingencies):
    template = compile_program(builtin_grid, options, contingencies)
    assert template.mirror is None and "mirror" not in template.program().meta


def test_programs_get_the_mirror_where_their_rows_are_closed(builtin_grid):
    template = compile_program(builtin_grid, OpfOptions(n_b=2), SCOPF_OUTAGES)
    assert "mirror" in template.program().meta  # every selector at its default
    same = {(k, "beta", "Cb-C2"): 0 for k in (1, 2)}
    assert "mirror" in template.program(BinaryAssignment.of(same)).meta
    assert "mirror" not in template.program(BinaryAssignment.of({(1, "beta", "Cb-C2"): 0})).meta
    undecided = {(k, "beta", s): None for k in (1, 2, 3, 4) for s in ("Cb-C2", "Cb-D1")}
    assert "mirror" in template.program(BinaryAssignment.of(undecided)).meta


def test_no_mirror_where_one_pole_line_differs(builtin_grid):
    lines = tuple(replace(bd, resistance_pu=1.01 * bd.resistance_pu) if bd.id == "LD-12" else bd
                  for bd in builtin_grid.dc_lines)
    grid = replace(builtin_grid, dc_lines=lines)
    assert compile_program(grid, OpfOptions(n_b=2), SCOPF_OUTAGES).mirror is None
    assert compile_program(builtin_grid, OpfOptions(n_b=2), SCOPF_OUTAGES).mirror is not None
