"""Acceptance suite: one test per criterion, one printed pass/fail line each.

Run with `pytest -s tests/test_acceptance.py` to see the lines as the
criteria execute.  Numeric trend checks run on the shipped test system;
they are property/trend assertions, not value reproduction.
"""

import time

import numpy as np
import pytest

from hvdcopf import naming as nm
from hvdcopf.builder import OpfOptions, build_opf, compile_program, objective_in_currency
from hvdcopf.engine import nls_guard, solve_minlp
from hvdcopf.grid import ConductorRole, DcLine, DcNode, DcSwitch, Grid, NodeKind
from hvdcopf.io import load_builtin_case
from hvdcopf.ipm import check_kkt, solve
from hvdcopf.tableau import assemble_tableau, solve_tableau, stamp_dc_line, stamp_dc_switch
from hvdcopf.units import per_unit

from conftest import two_station_grid
from oracles import (
    line_stamp_hand_oracle,
    network_as_grid,
    nodal_solution,
    random_connected_network,
    station_current_identity,
    switch_stamp_hand_oracle,
)

GRID = load_builtin_case()
KKT_REGISTRY: list[tuple[str, object, object]] = []  # (tag, problem, solution)


def _report(criterion: int, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {criterion}: {detail}")
    assert ok, f"criterion {criterion}: {detail}"


def _two_node_element_grid(element, grounded_first=True):
    nodes = (
        DcNode("n0", NodeKind.NEUTRAL, 400.0, grounded=grounded_first, grounding_ohm=0.0),
        DcNode("n1", NodeKind.NEUTRAL, 400.0),
    )
    lines = (element,) if isinstance(element, DcLine) else ()
    switches = (element,) if isinstance(element, DcSwitch) else ()
    return Grid("one-element", 1000.0, nodes, lines, (), (), (), dc_switches=switches)


def test_criterion_1_stamp_correctness():
    rng = np.random.default_rng(11)
    t0 = time.perf_counter()
    worst = 0.0
    for trial in range(1000):
        r = float(rng.uniform(1e-3, 0.2))
        use_switch = trial % 2 == 1
        status = int(rng.integers(0, 2))
        if use_switch:
            elem = DcSwitch("sw", "n0", "n1")
            stamp = stamp_dc_switch(elem, status)
        else:
            elem = DcLine("ln", "n0", "n1", r, ConductorRole.NEUTRAL)
            stamp = stamp_dc_line(elem, status)
        # out-of-service cases pin both nodes freely, so skip the ground
        grid = _two_node_element_grid(elem, grounded_first=(status == 1))
        tab = assemble_tableau(grid, {elem.id: status})
        if status == 1:
            inj = float(rng.uniform(-2.0, 2.0))
            sol = solve_tableau(tab, {"n1": inj, "n0": -inj})
            expect_ij = inj
            got = (
                sol.port_current(tab, elem.id, "i"),
                sol.port_current(tab, elem.id, "j"),
            )
            worst = max(worst, abs(got[1] - expect_ij), abs(got[0] + expect_ij))
        else:
            pins = {"n0": float(rng.uniform(-1, 1)), "n1": float(rng.uniform(-1, 1))}
            sol = solve_tableau(tab, extra_pins=pins)
            got = (
                sol.port_current(tab, elem.id, "i"),
                sol.port_current(tab, elem.id, "j"),
            )
            worst = max(worst, abs(got[0]), abs(got[1]))
        u = (sol.voltage(tab, "n0"), sol.voltage(tab, "n1"))
        if use_switch:
            rows = switch_stamp_hand_oracle(status, *u, *got)
        else:
            rows = line_stamp_hand_oracle(r, status, *u, *got)
        worst = max(worst, abs(rows[0]), abs(rows[1]))
    dt = time.perf_counter() - t0
    _report(1, worst <= 1e-10 and dt < 1.0, f"1000 randomized stamps, worst residual {worst:.2e}, {dt:.2f}s")


def test_criterion_2_oracle_equivalence():
    rng = np.random.default_rng(2024)
    t0 = time.perf_counter()
    worst = 0.0
    for _ in range(50):
        n, edges, inj = random_connected_network(rng, max_nodes=10)
        grid = network_as_grid(n, edges)
        tab = assemble_tableau(grid)
        sol = solve_tableau(tab, {f"n{k}": float(inj[k]) for k in range(n)})
        u_ref, flows = nodal_solution(n, edges, np.asarray(inj))
        scale = max(1.0, float(np.max(np.abs(u_ref))), float(np.max(np.abs(flows))) if len(flows) else 1.0)
        for k in range(n):
            worst = max(worst, abs(sol.voltage(tab, f"n{k}") - u_ref[k]) / scale)
        for idx in range(len(edges)):
            worst = max(worst, abs(sol.port_current(tab, f"e{idx}", "i") - flows[idx]) / scale)
    dt = time.perf_counter() - t0
    _report(2, worst <= 1e-8 and dt < 5.0, f"50 random networks vs nodal oracle, worst rel dev {worst:.2e}, {dt:.2f}s")


def test_criterion_3_symmetry_invariant():
    problem, _ = build_opf(GRID, OpfOptions(n_b=4))
    sol = solve(problem)
    assert sol.status == "optimal"
    KKT_REGISTRY.append(("opf-symmetric", problem, sol))
    values = sol.values()
    worst = 0.0
    for cs in GRID.bipolar_stations():
        worst = max(worst, abs(values[nm.nodal_u(cs.neutral_node, 0)]))
        worst = max(worst, abs(values[nm.dmr_i(cs.id, 0)]))
        worst = max(worst, abs(station_current_identity(values, cs)))
    _report(3, worst <= 1e-8, f"all-symmetric OPF: max |neutral U|, |i_dmr| = {worst:.2e} pu")


@pytest.fixture(scope="module")
def nb_sweep():
    t0 = time.perf_counter()
    out = {}
    for n_b in (3, 2, 1, 0):
        opts = OpfOptions(n_b=n_b, outage="Cb-A1.a")
        template = compile_program(GRID, opts)
        res = solve_minlp(template.program, template.catalogue)
        assert res.status == "optimal"
        KKT_REGISTRY.append((f"sweep-nb-{n_b}", template.program(res.assignment), res.solution))
        out[n_b] = res
    return out, time.perf_counter() - t0


def test_criterion_4_nb_monotonicity(nb_sweep):
    results, dt = nb_sweep
    objs = {nb: res.objective for nb, res in results.items()}
    monotone = objs[3] >= objs[2] >= objs[1] >= objs[0]
    strict = (objs[3] - objs[0]) / abs(objs[3]) >= 1e-3
    eur = {nb: objective_in_currency(res.solution.problem, res.objective) for nb, res in results.items()}
    _report(
        4,
        monotone and strict and dt < 300.0,
        "post-contingency OPF cost by N_b: "
        + " >= ".join(f"{eur[nb]:,.0f}" for nb in (3, 2, 1, 0))
        + f" EUR/h, extreme drop {100 * (objs[3] - objs[0]) / objs[3]:.2f}%, {dt:.0f}s",
    )


@pytest.fixture(scope="module")
def scopf_extremes():
    contingencies = GRID.pole_converter_ids()
    out = {}
    for n_b in (3, 0):
        opts = OpfOptions(n_b=n_b)
        template = compile_program(GRID, opts, contingencies)
        res = solve_minlp(template.program, template.catalogue)
        assert res.status == "optimal"
        KKT_REGISTRY.append((f"scopf-nb-{n_b}", template.program(res.assignment), res.solution))
        out[n_b] = res
    return out


def test_criterion_5_scopf_benefit(scopf_extremes):
    hi, lo = scopf_extremes[3].objective, scopf_extremes[0].objective
    reduction = 100.0 * (hi - lo) / hi
    _report(
        5,
        lo < hi,
        f"SCOPF total cost N_b=0 vs N_b=3: {lo / 1e-3:,.0f} < {hi / 1e-3:,.0f} EUR/h "
        f"(reduction {reduction:.2f}%; reference point on the original data: 7.01%)",
    )


CANDIDATES = ("LD-2", "LD-5", "LD-7", "LD-9")


@pytest.fixture(scope="module")
def nls_table():
    rows = {}
    for limit, with_nls in [(None, False), (8.0, False), (8.0, True), (4.0, False), (4.0, True)]:
        opts = OpfOptions(
            n_b=0,
            outage="Cb-A1.a",
            offset_limit_kv=limit,
            nls_candidates=CANDIDATES if with_nls else (),
        )
        template = compile_program(GRID, opts)
        res = solve_minlp(template.program, template.catalogue)
        assert res.status == "optimal"
        KKT_REGISTRY.append((f"nls-{limit}-{with_nls}", template.program(res.assignment), res.solution))
        rows[(limit, with_nls)] = res
    return rows


def test_criterion_6_offset_limit_ordering(nls_table):
    o_u = nls_table[(None, False)].objective
    o_8 = nls_table[(8.0, False)].objective
    o_4 = nls_table[(4.0, False)].objective
    ordered = o_u <= o_8 + 1e-9 and o_8 <= o_4 + 1e-9
    strict = (o_8 - o_u) > 1e-6 * abs(o_u) or (o_4 - o_8) > 1e-6 * abs(o_8)
    _report(
        6,
        ordered and strict,
        f"objective unrestricted/8kV/4kV: {o_u / 1e-3:,.0f} <= {o_8 / 1e-3:,.0f} <= {o_4 / 1e-3:,.0f} EUR/h",
    )


def test_criterion_7_nls_dominance(nls_table):
    ok = True
    strict_any = False
    details = []
    for limit in (8.0, 4.0):
        base = nls_table[(limit, False)].objective
        nls = nls_table[(limit, True)]
        ok &= nls.objective <= base + 1e-9 * abs(base)
        strict_any |= nls.objective < base - 1e-9 * abs(base)
        plan = nls.assignment.state(0, "gamma")
        ok &= nls_guard(GRID, plan)
        opened = sorted(bd for bd, v in plan.items() if v == 0)
        details.append(f"{limit:g}kV {base / 1e-3:,.0f}->{nls.objective / 1e-3:,.0f} open={opened}")
    _report(7, ok and strict_any, "; ".join(details))


def test_criterion_8_derivative_check():
    problem, _ = build_opf(GRID, OpfOptions(n_b=0, outage="Cb-A1.a", offset_limit_kv=8.0))
    rng = np.random.default_rng(5)
    lo = np.where(np.isfinite(problem.lb), problem.lb, -1.5)
    hi = np.where(np.isfinite(problem.ub), problem.ub, 1.5)
    h = 1e-6
    worst = 0.0
    for _ in range(20):
        x = rng.uniform(lo, hi)
        jac = problem.eq_jacobian(x).toarray()
        fd = np.zeros_like(jac)
        for k in range(problem.n_vars):
            e = np.zeros(problem.n_vars)
            e[k] = h
            fd[:, k] = (problem.eval_eq(x + e) - problem.eval_eq(x - e)) / (2 * h)
        scale = max(1.0, float(np.max(np.abs(jac))))
        worst = max(worst, float(np.max(np.abs(jac - fd))) / scale)
    _report(8, worst <= 1e-5, f"analytic vs central-difference Jacobian at 20 points, max rel err {worst:.2e}")


def test_criterion_9_kkt_certification(nb_sweep, scopf_extremes, nls_table):
    assert KKT_REGISTRY, "earlier criteria populate the registry"
    worst = 0.0
    worst_tag = ""
    for tag, problem, sol in KKT_REGISTRY:
        report = check_kkt(problem, sol)
        if report.max_residual > worst:
            worst, worst_tag = report.max_residual, tag
    _report(
        9,
        worst <= 1e-5,
        f"independent KKT check on {len(KKT_REGISTRY)} reported solves, worst scaled residual {worst:.2e} ({worst_tag})",
    )


def test_criterion_10_minlp_soundness():
    instances = []
    # shipped system, beta layer: 3 admissible assignments
    instances.append((GRID, OpfOptions(n_b=1, outage="Cb-A1.a")))
    # shipped system, switching layer under a binding limit: 4 assignments
    instances.append((GRID, OpfOptions(n_b=0, outage="Cb-A1.a", offset_limit_kv=4.0, nls_candidates=("LD-7", "LD-9"))))
    # two-station system, mixed layer: 2 x 2 assignments
    pair = two_station_grid()
    instances.append((pair, OpfOptions(n_b=1, outage="St-P.a", nls_candidates=("L-m",))))
    worst = 0.0
    counts = []
    for grid, opts in instances:
        template = compile_program(grid, opts)
        enum = solve_minlp(template.program, template.catalogue, strategy="enumerate")
        bnb = solve_minlp(template.program, template.catalogue, strategy="branch-and-bound")
        assert enum.status == bnb.status == "optimal"
        worst = max(worst, abs(enum.objective - bnb.objective) / max(1.0, abs(enum.objective)))
        counts.append(enum.explored)
    _report(
        10,
        worst <= 1e-6,
        f"branch-and-bound vs enumeration on {len(instances)} instances ({counts} assignments), max rel gap {worst:.2e}",
    )


def test_criterion_11_neutral_offset_arithmetic():
    # forced return current around a two-station chain, grounded at Q only
    r_dmr = 0.04
    grid = two_station_grid(r_dmr=r_dmr, ground_p=False, ground_q=True, r_ground=1.6)
    tab = assemble_tableau(grid)
    i_ret = 0.8
    sol = solve_tableau(tab, {"Pm": i_ret, "Qm": -i_ret})
    u_p = sol.voltage(tab, "Pm")
    u_q = sol.voltage(tab, "Qm")
    # Ohm's law along the only return path: the full current crosses the DMR,
    # none enters the electrode (the injections already balance at Qm)
    expect_q = 0.0
    expect_p = expect_q + i_ret * r_dmr
    dev = max(abs(u_p - expect_p), abs(u_q - expect_q))
    offset_kv = u_p * 400.0
    ratio_ok = per_unit(14.52, 400.0) == pytest.approx(0.0363, rel=1e-4)
    _report(
        11,
        dev <= 1e-8 and abs(offset_kv - i_ret * r_dmr * 400.0) <= 1e-6 and ratio_ok,
        f"chain offset {offset_kv:.3f} kV matches Ohm's-law oracle (dev {dev:.1e}); "
        f"14.52 kV <-> 3.63% of 400 kV verified",
    )
