import dataclasses
import math

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog
from scipy.sparse import csgraph

from hvdcopf.builder import BinaryAssignment, OpfOptions, build_opf, build_scopf, compile_program
from hvdcopf.engine import enumerate_assignments, solve_minlp
import hvdcopf.ipm
import hvdcopf.presolve
from hvdcopf.ipm import (
    BACKWARD_ERROR,
    REG_EQ,
    SolverOptions,
    _Kkt,
    _KktError,
    _static_step,
    _threshold_step,
    check_kkt,
    solve,
    solve_multistart,
)
from hvdcopf.presolve import _breadth_first_forest, _Condensed, _view
from hvdcopf.nlp import INF, ProblemBuilder, lin_row, quad_row


def without_mirror(problem):
    """The program with its pole mirror taken out, so that it is solved whole."""
    return dataclasses.replace(problem, meta={key: v for key, v in problem.meta.items() if key != "mirror"})


def box_qp():
    """min (x-2)^2 over 0 <= x <= 1, as an epigraph with bilinear rows."""
    pb = ProblemBuilder("box-qp")
    pb.add_var("x", 0.0, 1.0, start=0.5)
    pb.add_var("s", start=-1.5)
    pb.add_var("q", cost=1.0, start=2.0)
    pb.add_eq(lin_row("shift", {"s": 1.0, "x": -1.0}, 2.0))  # s = x - 2
    pb.add_eq(quad_row("square", {"q": 1.0}, [("s", "s", -1.0)]))  # q = s^2
    return pb.build()


def two_node_opf(r=0.02, p_load=0.5):
    """One source feeding a fixed load through a resistance, sending end pinned.

    Closed form: i solves i - r i^2 = p_load, dispatch = load + i^2 r.
    """
    pb = ProblemBuilder("two-node")
    pb.add_var("u1", 1.0, 1.0, start=1.0)
    pb.add_var("u2", 0.5, 1.5, start=1.0)
    pb.add_var("i", start=0.0)
    pb.add_var("pg", 0.0, 2.0, cost=1.0, start=0.5)
    pb.add_eq(lin_row("ohm", {"u1": 1.0, "u2": -1.0, "i": -r}))
    pb.add_eq(quad_row("send", {"pg": 1.0}, [("u1", "i", -1.0)]))
    pb.add_eq(quad_row("load", {}, [("u2", "i", 1.0)], -p_load))
    return pb.build()


class TestToyProblems:
    def test_box_qp_hits_bound_with_multiplier(self):
        p = box_qp()
        sol = solve(p)
        assert sol.status == "optimal"
        assert sol.x[p.var_index("x")] == pytest.approx(1.0, abs=1e-6)
        assert sol.objective == pytest.approx(1.0, abs=1e-6)
        # gradient of (x-2)^2 at x=1 is -2: the upper bound holds it with z_u = 2
        assert sol.z_upper[p.var_index("x")] == pytest.approx(2.0, abs=1e-4)

    def test_two_node_dispatch_covers_load_plus_losses(self):
        r, p_load = 0.02, 0.5
        p = two_node_opf(r, p_load)
        sol = solve(p)
        assert sol.status == "optimal"
        i = (1.0 - math.sqrt(1.0 - 4.0 * r * p_load)) / (2.0 * r)
        assert sol.x[p.var_index("i")] == pytest.approx(i, rel=1e-6)
        assert sol.x[p.var_index("pg")] == pytest.approx(p_load + i * i * r, rel=1e-6)

    def test_contradictory_equalities_detected(self):
        pb = ProblemBuilder("bad")
        pb.add_var("x", start=0.5)
        pb.add_eq(lin_row("is0", {"x": 1.0}))
        pb.add_eq(lin_row("is1", {"x": 1.0}, -1.0))
        sol = solve(pb.build())
        assert sol.status == "infeasible"

    def test_nan_data_raises(self):
        pb = ProblemBuilder("nan")
        pb.add_var("x", cost=float("nan"))
        with pytest.raises(ValueError):
            solve(pb.build())

    @pytest.mark.parametrize("where", ["b_eq", "b_ineq"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_non_finite_row_constant_raises(self, where, value):
        pb = ProblemBuilder("nan")
        pb.add_var("x", cost=1.0)
        pb.add_eq(lin_row("eq", {"x": 1.0}, value if where == "b_eq" else -1.0))
        pb.add_ineq(lin_row("in", {"x": 1.0}, value if where == "b_ineq" else -2.0))
        with pytest.raises(ValueError, match="NaN/inf"):
            solve(pb.build())

    def test_no_bound_and_no_inequality(self):
        # empty bound and inequality blocks go through the same arithmetic
        pb = ProblemBuilder("unbounded")
        pb.add_var("x", cost=1.0, start=0.5)
        pb.add_var("y", start=0.0)
        pb.add_eq(lin_row("one", {"x": 1.0}, -1.0))  # x = 1
        pb.add_eq(quad_row("square", {"y": 1.0}, [("x", "x", -1.0)]))  # y = x^2
        p = pb.build()
        con = _view(p)
        assert (len(con.lo), len(con.up), con.m_in) == (0, 0, 0)
        sol = solve(p)
        assert sol.status == "optimal"
        assert sol.x == pytest.approx([1.0, 1.0])
        assert check_kkt(p, sol).max_residual <= 1e-10

    def test_all_fixed_feasibility_path(self):
        pb = ProblemBuilder("fixed")
        pb.add_var("x", 2.0, 2.0)
        pb.add_eq(lin_row("match", {"x": 1.0}, -2.0))
        sol = solve(pb.build())
        assert sol.status == "optimal" and sol.x[0] == 2.0


class TestOptions:
    def test_invalid_options_rejected(self):
        with pytest.raises(ValueError):
            SolverOptions(tol_kkt=-1.0)
        with pytest.raises(ValueError):
            SolverOptions(max_iter=0)

    def test_iteration_limit_status(self):
        p = two_node_opf()
        sol = solve(p, SolverOptions(max_iter=2))
        assert sol.status == "iteration-limit"


class TestDeterminism:
    def test_bit_identical_repeat_solves(self, builtin_grid):
        p, _ = build_opf(builtin_grid, OpfOptions(n_b=4))
        a = solve(p)
        b = solve(p)
        assert a.iterations == b.iterations
        assert a.objective == b.objective
        assert np.array_equal(a.x, b.x)

    def test_bit_identical_repeat_solves_of_a_template_program(self, builtin_grid):
        # a program solved before and after another program of its live template is the same solve
        template = compile_program(builtin_grid, TestWarmStart.NLS_4KV)
        p = template.program()
        a = solve(p)
        solve(template.program(BinaryAssignment.of({(0, "gamma", "LD-5"): 0})))
        b = solve(p)
        assert a.iterations == b.iterations and np.array_equal(a.x, b.x) and np.array_equal(a.lam_eq, b.lam_eq)

    def test_a_solve_does_not_depend_on_solve_order(self, builtin_grid):
        # the 16 plans of the shipped 4 kV NLS enumeration, solved in enumeration order and in reverse, each
        # order on a fresh compile: every solution is bit for bit the same
        def solve_all(reverse):
            template = compile_program(builtin_grid, TestWarmStart.NLS_4KV)
            plans = list(enumerate_assignments(template.catalogue))
            sols = {a: solve(template.program(a)) for a in (plans[::-1] if reverse else plans)}
            return [sols[a] for a in plans]

        forward, backward = solve_all(False), solve_all(True)
        assert len(forward) == 16
        for a, b in zip(forward, backward):
            assert a.status == b.status == "optimal" and a.iterations == b.iterations
            for name in ("x", "lam_eq", "nu_ineq", "z_lower", "z_upper"):
                assert np.array_equal(getattr(a, name), getattr(b, name)), name

    def test_default_multistart_is_one_flat_solve(self, builtin_grid):
        p, _ = build_opf(builtin_grid, OpfOptions(n_b=2, outage="Cb-A1.a"))
        a = solve(p)
        b = solve_multistart(p)
        assert a.iterations == b.iterations
        assert a.objective == b.objective
        assert np.array_equal(a.x, b.x)


class TestWarmStart:
    NLS_4KV = OpfOptions(n_b=0, outage="Cb-A1.a", offset_limit_kv=4.0, nls_candidates=("LD-2", "LD-5", "LD-7", "LD-9"))

    def _programs(self, grid, *gammas):
        """Programs of the shipped 4 kV NLS template with LD-5 at each gamma, the others in service."""
        template = compile_program(grid, self.NLS_4KV)
        return [template.program(BinaryAssignment.of({(0, "gamma", "LD-5"): g})) for g in gammas]

    def test_start_from_the_relaxation(self, builtin_grid):
        # the plan with LD-5 open, started from the relaxation that leaves LD-5 undecided: the
        # relaxation keeps LD-5's continuity row, one row of either stamp, but not the open row i_j = 0
        relaxed, opened = self._programs(builtin_grid, None, 0)
        assert not set(opened.template_rows) <= set(relaxed.template_rows)
        flat = solve(opened)
        warm = solve(opened, start=solve(relaxed))
        assert warm.status == flat.status == "optimal"
        assert warm.iterations < flat.iterations
        assert warm.objective == pytest.approx(flat.objective, rel=1e-7)
        assert check_kkt(opened, warm).max_residual <= 10 * SolverOptions().tol_kkt
        assert warm.problem is opened

    def test_rows_of_one_name_map_by_template_row(self, builtin_grid):
        # row 0 of LD-5's in-service and open stamps has one name but is two rows of the template,
        # while the continuity row (1) is one template row of both: a start from the in-service plan
        # gives the open plan's row 0 multiplier 0
        in_service, opened = self._programs(builtin_grid, 1, 0)
        (row,), (continuity,) = ([in_service.eq_names.index(f"elem.LD-5.{r}@0")] for r in range(2))
        assert "elem.LD-5.0@0" in opened.eq_names
        assert in_service.template_rows[row] not in opened.template_rows
        assert in_service.template_rows[continuity] == opened.template_rows[opened.eq_names.index("elem.LD-5.1@0")]
        start = solve(in_service)
        start.lam_eq[row] = 1e12  # past the multiplier bound at which a solve gives up as infeasible
        assert solve(in_service, start=start).status == "infeasible"
        warm = solve(opened, start=start)
        assert warm.status == "optimal"
        assert warm.objective == pytest.approx(solve(opened).objective, rel=1e-7)

    def test_start_from_a_program_with_other_variables_is_rejected(self, builtin_grid):
        # an OPF solution has the variables of one state; the 2-outage SCOPF has three states and reserves
        opf, _ = build_opf(builtin_grid, OpfOptions(n_b=2))
        scopf, _ = build_scopf(builtin_grid, ("Cb-A1.a", "Cb-B1.a"), OpfOptions(n_b=2))
        with pytest.raises(ValueError, match="the start's program has other variables"):
            solve(scopf, start=solve(opf))


class TestCheckKkt:
    def test_optimal_point_passes(self):
        sol = solve(box_qp())
        report = check_kkt(box_qp(), sol)
        assert report.max_residual <= 1e-6

    def test_agrees_with_solver_claim(self, builtin_grid):
        p, _ = build_opf(builtin_grid, OpfOptions(n_b=4))
        sol = solve(p)
        report = check_kkt(p, sol)
        assert sol.status == "optimal"
        assert report.max_residual <= 10 * SolverOptions().tol_kkt

    def test_perturbed_primal_shows_feasibility_residual(self):
        p = two_node_opf()
        sol = solve(p)
        sol.x[p.var_index("u2")] += 1e-3
        report = check_kkt(p, sol)
        assert report.primal_eq == pytest.approx(1e-3, rel=0.2)

    def test_sign_flipped_multiplier_flagged(self):
        p = box_qp()
        sol = solve(p)
        sol.lam_eq = -sol.lam_eq
        report = check_kkt(p, sol)
        assert report.stationarity > 1e-2


class TestSolveDetails:
    def test_log_is_line_oriented(self):
        sol = solve(two_node_opf())
        assert sol.iterations >= 1
        assert all(line.startswith("iter") for line in sol.log)

    def test_primal_feasibility_tight_after_refinement(self, builtin_grid):
        p, _ = build_opf(builtin_grid, OpfOptions(n_b=4))
        sol = solve(p)
        assert sol.kkt.primal_eq <= 1e-10

    @pytest.mark.parametrize("contingencies", [None, ("Cb-A1.a", "Cb-B1.b")])
    def test_solution_carries_its_kkt_report(self, builtin_grid, contingencies):
        opts = OpfOptions(n_b=2, outage=None if contingencies else "Cb-A1.a")
        p, _ = build_opf(builtin_grid, opts) if contingencies is None else build_scopf(builtin_grid, contingencies, opts)
        sol = solve(p)
        assert sol.status == "optimal"
        assert sol.kkt == check_kkt(p, sol)
        assert sol.kkt.bound_violation == sol.kkt.dual_feasibility == 0.0

    def test_refinement_keeps_stationarity(self, meshed_bipolar_grid):
        # moving x alone to cut the equality residuals raises stationarity here to about 6e-6
        grid = meshed_bipolar_grid(4, 0)
        p, _ = build_scopf(grid, grid.pole_converter_ids(), OpfOptions(n_b=3))
        sol = solve(p)
        assert sol.status == "optimal"
        assert check_kkt(p, sol).stationarity <= 1e-7


def fail_newton_solves_from(monkeypatch, count):
    """Make every Newton solve after the first `count` of a solve give no step."""
    kkt_solve = _Kkt.solve
    monkeypatch.setattr(_Kkt, "solve", lambda self, rhs: None if self.factorizations >= count else kkt_solve(self, rhs))


class TestClosingStep:
    """The first point that passes the termination test takes one more Newton step, kept only if it passes too."""

    def test_opf_check_after_closing_step(self, builtin_grid):
        p, _ = build_opf(builtin_grid, OpfOptions(n_b=4))
        sol = solve(p)
        assert sol.status == "optimal"
        assert check_kkt(p, sol).max_residual <= 2e-8  # 6.3e-8 at the converged point

    def test_closing_step_at_max_iter(self, builtin_grid, monkeypatch):
        # the test first passes in the last iteration max_iter allows; the
        # closing step still runs, and a converged point stays optimal when
        # the closing step's Newton solve fails
        p, _ = build_opf(builtin_grid, OpfOptions(n_b=4))
        full = solve(p)
        limit = SolverOptions(max_iter=full.iterations - 1)
        sol = solve(p, limit)
        assert sol.status == "optimal" and np.array_equal(sol.x, full.x)
        fail_newton_solves_from(monkeypatch, full.factorizations - 1)  # every factor of the closing step fails
        converged = solve(p, limit)
        assert converged.status == "optimal"
        assert converged.iterations == full.iterations - 1
        assert check_kkt(p, converged).max_residual <= 10 * SolverOptions().tol_kkt

    def test_rejected_closing_step_returns_converged_point(self, meshed_bipolar_grid, monkeypatch):
        grid = meshed_bipolar_grid(8, 6)
        p, _ = build_scopf(grid, grid.pole_converter_ids(), OpfOptions(n_b=7))
        p = without_mirror(p)  # on the mirrored half, the closing step passes
        sol = solve(p)
        assert sol.status == "optimal"
        assert check_kkt(p, sol).max_residual <= 10 * SolverOptions().tol_kkt
        # the closing step fails the termination test here, so the solve
        # returns what it returns when the closing step gets no step at all
        fail_newton_solves_from(monkeypatch, sol.factorizations - 1)
        assert np.array_equal(solve(p).x, sol.x)


def backtracks(sol):
    """Step halvings over the solve, from the `ls` field of each log line."""
    return sum(int(line.split(" ls ")[1].split()[0]) for line in sol.log)


class TestIterationBudgets:
    def test_opf(self, builtin_grid):
        p, _ = build_opf(builtin_grid, OpfOptions(n_b=4))
        sol = solve(p)
        assert sol.status == "optimal"
        assert sol.iterations <= 20
        assert backtracks(sol) <= 0.1 * sol.iterations
        assert sol.pivot_fallbacks == 0

    def test_four_outage_scopf(self, builtin_grid):
        outages = ("Cb-A1.a", "Cb-A1.b", "Cb-B1.a", "Cb-B1.b")
        p, _ = build_scopf(builtin_grid, outages, OpfOptions(n_b=2))
        sol = solve(p)
        assert sol.status == "optimal"
        assert sol.iterations <= 30
        assert backtracks(sol) <= 0.1 * sol.iterations
        assert sol.pivot_fallbacks == 0

    def test_shipped_nls_4kv_enumeration(self, builtin_grid):
        # the 16 line plans of the shipped NLS at 4 kV, each solve but the first warm from the one before
        template = compile_program(builtin_grid, TestWarmStart.NLS_4KV)
        res = solve_minlp(template.program, template.catalogue, strategy="enumerate")
        assert res.status == "optimal" and res.explored == 16
        assert res.iterations <= 230

    def test_shipped_nls_4kv_branch_and_bound(self, builtin_grid):
        # the same search by B&B: relaxations warm from their parent, no more iterations than flat starts take
        template = compile_program(builtin_grid, TestWarmStart.NLS_4KV)
        res = solve_minlp(template.program, template.catalogue, strategy="branch-and-bound")
        assert res.status == "optimal" and res.explored == 13
        assert res.iterations <= 538

    def test_shipped_two_outage_scopf_enumeration(self, builtin_grid):
        # three plans stop at the 200-iteration limit, each after one solve
        template = compile_program(builtin_grid, OpfOptions(n_b=2), ("Cb-A1.a", "Cb-B1.a"))
        res = solve_minlp(template.program, template.catalogue, strategy="enumerate")
        assert res.status == "optimal"
        assert res.assignment.label() == "k1:asym={Cb-A1,Cb-B1}; k2:asym={Cb-A1,Cb-B1}"
        assert res.explored == 9 and [r.status for r in res.table].count("iteration-limit") == 3
        assert res.diagnostics == "unproven search: 3 assignments dropped at the iteration limit"
        assert res.iterations <= 700

    def test_shipped_sweep_nb(self, builtin_grid):
        # the enumerated N_b sweep on Cb-A1.a, each assignment but the first warm from the one before:
        # together no more iterations than the 159 of flat starts
        searches = []
        for n_b in (3, 2, 1, 0):
            template = compile_program(builtin_grid, OpfOptions(n_b=n_b, outage="Cb-A1.a"))
            searches.append(solve_minlp(template.program, template.catalogue, strategy="enumerate"))
        assert [res.status for res in searches] == ["optimal"] * 4
        assert [res.explored for res in searches] == [1, 3, 3, 1]
        assert sum(res.iterations for res in searches) <= 159

    @pytest.mark.parametrize("seed", [1, 3, 5, 7])
    def test_generated_n4_panel(self, meshed_bipolar_grid, seed):
        grid = meshed_bipolar_grid(4, seed)
        p, _ = build_scopf(grid, grid.pole_converter_ids(), OpfOptions(n_b=3))
        sol = solve(p)
        assert sol.status == "optimal"
        assert sol.iterations <= 100
        assert check_kkt(p, sol).max_residual <= 10 * SolverOptions().tol_kkt


def shared_entry_problem():
    """Bilinear terms on top of linear entries of the same (row, col), plus a
    square term, a partly fixed product and an inequality (3-block KKT)."""
    pb = ProblemBuilder("shared-entry")
    pb.add_var("x", 0.0, 2.0, cost=1.0, start=1.0)
    pb.add_var("y", -1.0, 1.0, start=0.2)
    pb.add_var("z", start=0.5)
    pb.add_var("f", 0.5, 0.5, start=0.5)
    pb.add_eq(quad_row("r0", {"x": 2.0, "y": 1.0}, [("x", "y", 1.0), ("f", "z", 1.0), ("y", "x", -0.5)], -1.0))
    pb.add_eq(quad_row("r1", {"y": 1.0, "z": -1.0}, [("x", "x", 1.0)]))
    pb.add_ineq(lin_row("c", {"x": 1.0, "z": 1.0}, -3.0))
    return pb.build()


def csr(entries, shape):
    """The CSR matrix of a condensed matrix's (row, column, value) arrays in CSR order."""
    row, col, val = entries
    return sp.csr_matrix((val, col, np.searchsorted(row, np.arange(shape[0] + 1))), shape=shape)


def reference_kkt(con, x, lam, diag, s, nu):
    """The Newton matrix assembled with sp.bmat, term by term from the condensed data."""
    n, m_eq, m_in = con.n, con.m_eq, con.m_in
    a_eq, a_in = csr(con.a_eq, (m_eq, n)), csr(con.a_in, (m_in, n))
    t = con.terms
    jr, jc, jv, hr, hc, hv = [], [], [], [], [], []
    for r, a, b, c in zip(t.row, t.a, t.b, t.coeff):
        jr += [r, r]
        jc += [a, b]
        jv += [c * x[b], c * x[a]]
        w = c * lam[r]
        hr += [a, b]
        hc += [b, a]
        hv += [w, w]
    j_eq = a_eq + sp.csr_matrix((jv, (jr, jc)), shape=a_eq.shape)
    w_blk = sp.csr_matrix((hv, (hr, hc)), shape=(n, n)) + sp.diags(diag)
    blocks = [[w_blk, j_eq.T], [j_eq, sp.diags(-REG_EQ / con.w_eq)]]  # -dc on each mirrored pair's row halved
    if m_in:
        blocks[0].append(a_in.T)
        blocks[1].append(None)
        blocks.append([a_in, None, sp.diags(-s / nu)])
    return sp.bmat(blocks, format="csc")


ASSEMBLY_CASES = ("opf-2-block", "opf-3-block", "shared-entry")


@pytest.fixture(scope="module")
def assembly_problems(builtin_grid):
    two_block, _ = build_opf(builtin_grid, OpfOptions(n_b=4))
    three_block, _ = build_opf(builtin_grid, OpfOptions(n_b=0, outage="Cb-A1.a", offset_limit_kv=4.0))
    return dict(zip(ASSEMBLY_CASES, (two_block, three_block, shared_entry_problem())))


class TestKktAssembly:
    @staticmethod
    def _state(con, seed):
        rng = np.random.default_rng(seed)
        return (
            rng.uniform(-1.5, 1.5, con.n),
            rng.normal(size=con.m_eq),
            rng.uniform(1e-3, 10.0, con.n),
            rng.uniform(1e-3, 1.0, con.m_in),
            rng.uniform(1e-3, 1.0, con.m_in),
        )

    @staticmethod
    def _assert_close(kkt, ref):
        got, want = kkt.matrix.toarray(), ref.toarray()
        assert np.max(np.abs(got - want)) <= 1e-14 * max(1.0, np.max(np.abs(want)))

    @pytest.mark.parametrize("case", ASSEMBLY_CASES)
    def test_scattered_kkt_equals_bmat_assembly(self, assembly_problems, case):
        con = _view(assembly_problems[case])
        assert (con.m_in > 0) == (case != "opf-2-block")
        kkt = _Kkt(con)
        for seed in range(3):
            x, lam, sig_x, s, nu = self._state(con, seed)
            kkt.set_jacobian(con.jac.values(x))
            kkt.set_slack(-s / nu)
            kkt.set_w(con.terms.hessian_values(lam), sig_x)
            self._assert_close(kkt, reference_kkt(con, x, lam, sig_x, s, nu))

    @pytest.mark.parametrize("case", ASSEMBLY_CASES)
    def test_delta_w_retry_matches_bmat_assembly(self, assembly_problems, case):
        con = _view(assembly_problems[case])
        kkt = _Kkt(con)
        x, lam, sig_x, s, nu = self._state(con, 7)
        kkt.set_jacobian(con.jac.values(x))
        kkt.set_slack(-s / nu)
        hess_val = con.terms.hessian_values(lam)
        for delta_w in (0.0, 1e-8, 1e-7, 1e4):
            kkt.set_w(hess_val, sig_x + delta_w)
            self._assert_close(kkt, reference_kkt(con, x, lam, sig_x + delta_w, s, nu))

    @pytest.mark.parametrize("case", ASSEMBLY_CASES)
    def test_reordered_kkt_equals_permuted_bmat_assembly(self, assembly_problems, case):
        con = _view(assembly_problems[case])
        kkt = _Kkt(con)
        matrix_id = id(kkt.matrix)
        perm = np.random.default_rng(11).permutation(kkt.matrix.shape[0])
        kkt.reorder(perm)
        x, lam, sig_x, s, nu = self._state(con, 5)
        kkt.set_jacobian(con.jac.values(x))
        kkt.set_slack(-s / nu)
        hess_val = con.terms.hessian_values(lam)
        for delta_w in (0.0, 1e-8, 1e4):
            kkt.set_w(hess_val, sig_x + delta_w)
            ref = reference_kkt(con, x, lam, sig_x + delta_w, s, nu)
            self._assert_close(kkt, ref[perm][:, perm])  # P K P^T
        assert id(kkt.matrix) == matrix_id

    def test_shared_entry_sums_linear_and_bilinear_parts(self):
        con = _view(shared_entry_problem())
        x = np.array([1.5, -0.25, 0.75])  # free x, y, z; f = 0.5 is condensed out
        j = con.jac.matrix(con.jac.values(x)).toarray()
        # r0 = 2x + y + xy + f z - 0.5 yx - 1
        assert j[0] == pytest.approx([2.0 + 0.5 * x[1], 1.0 + 0.5 * x[0], 0.5])
        assert j[1] == pytest.approx([2.0 * x[0], 1.0, -1.0])

    def test_shared_entry_problem_solves(self):
        p = shared_entry_problem()
        sol = solve(p)
        assert sol.status == "optimal"
        assert check_kkt(p, sol).max_residual <= 10 * SolverOptions().tol_kkt

    @pytest.mark.parametrize("offset_limit_kv", [None, 4.0])
    def test_solve_never_reaches_bmat(self, builtin_grid, monkeypatch, offset_limit_kv):
        def forbidden(*args, **kwargs):
            raise AssertionError("matrix constructor called inside ipm.solve")

        monkeypatch.setattr(sp, "bmat", forbidden)
        monkeypatch.setattr(sp, "diags", forbidden)
        factored = []
        splu = scipy.sparse.linalg.splu
        monkeypatch.setattr(scipy.sparse.linalg, "splu", lambda a, *args, **kw: factored.append(a) or splu(a, *args, **kw))
        options = OpfOptions(n_b=0, outage="Cb-A1.a", offset_limit_kv=offset_limit_kv)
        p, _ = build_opf(builtin_grid, options)
        sol = solve(p)
        assert sol.status == "optimal"
        con = _view(p)
        size = con.n + con.m_eq + con.m_in
        assert size <= 130  # 295 before the alias rows are merged
        newton = [a for a in factored if a.shape == (size, size)]
        assert len(newton) >= sol.iterations - 1
        assert len({id(a) for a in newton}) == 1  # one persistent matrix, refilled in place


class TestFixedCost:
    """Symbolic work is done once per solve, evaluation work once per point."""

    @staticmethod
    def _solve_counting_constructions(monkeypatch, problem, options):
        built = []
        for cls in (sp.csr_matrix, sp.csc_matrix, sp.csr_array, sp.csc_array):
            def counting(self, *args, _init=cls.__init__, **kwargs):
                built.append(type(self))
                _init(self, *args, **kwargs)

            monkeypatch.setattr(cls, "__init__", counting)
        sol = solve(problem, options)
        monkeypatch.undo()
        return sol, len(built)

    def test_newton_loop_constructs_no_sparse_matrix(self, builtin_grid, monkeypatch):
        p, _ = build_opf(builtin_grid, OpfOptions(n_b=0, outage="Cb-A1.a", offset_limit_kv=4.0))
        solve(p)  # the program builds its A_I^T once, on first use
        counts = {}
        for max_iter in (3, 12, 200):
            sol, counts[max_iter] = self._solve_counting_constructions(monkeypatch, p, SolverOptions(max_iter=max_iter))
        assert sol.status == "optimal" and sol.iterations > 12
        assert counts[3] == counts[12]  # nothing per iteration
        assert counts[200] == counts[3]  # condensing, the Newton pattern and the one check

    def test_dual_residual_evaluated_once_per_point(self, builtin_grid, monkeypatch):
        p, _ = build_opf(builtin_grid, OpfOptions(n_b=0, outage="Cb-A1.a", offset_limit_kv=4.0))
        calls = []
        restrict = _Condensed.restrict

        def counting(self, v):
            calls.append(self)
            return restrict(self, v)

        monkeypatch.setattr(_Condensed, "restrict", counting)
        sol = solve(p)
        assert sol.status == "optimal"
        # P^T runs once in condensing (the cost), once per Newton right-hand side (one per log line),
        # and once per point's dual residual: the start and every line-search trial
        points = 1 + len(sol.log) + backtracks(sol)
        assert len(calls) == 1 + len(sol.log) + points

    @settings(max_examples=300, deadline=None)
    @given(
        blocks=st.lists(
            st.lists(st.floats(-1e6, 1e6) | st.sampled_from([0.0, 1e-300, 1e-9, 0.1, 7.0]), max_size=6),
            min_size=8, max_size=8,
        ),
        mu=st.floats(0.0, 1e3) | st.sampled_from([0.0, 1e-8, 0.1]),
    )
    def test_closed_form_mu_cut_matches_shifted_residuals(self, blocks, mu):
        r_d, r_pe, r_pi, r_cl, r_cu, r_cs, lam, nu = map(np.array, blocks)
        z_l, z_u = np.abs(r_cl[::-1]), np.abs(r_cu)

        def norm(v):
            return float(np.max(np.abs(v))) if len(v) else 0.0

        # the error of F_mu as the solver computed it before the closed form:
        # every complementarity row shifted by mu, then the scaled norms
        n_mult = len(lam) + len(nu) + len(z_l) + len(z_u)
        total = np.abs(lam).sum() + np.abs(nu).sum() + np.abs(z_l).sum() + np.abs(z_u).sum()
        s_d = max(100.0, total / max(1, n_mult)) / 100.0
        s_c = max(100.0, (np.abs(z_l).sum() + np.abs(z_u).sum() + np.abs(nu).sum()) / max(1, n_mult)) / 100.0
        comp = max(norm(r_cl - mu), norm(r_cu - mu), norm(r_cs - mu)) / s_c
        expected = max(norm(r_d) / s_d, max(norm(r_pe), norm(r_pi)), comp)

        error = _KktError(r_d, r_pe, r_pi, (r_cl, r_cu, r_cs), lam, nu, z_l, z_u, len(lam))
        assert error(mu) == expected
        assert error.feas == max(norm(r_pe), norm(r_pi))

    @settings(max_examples=200, deadline=None)
    @given(
        n=st.integers(1, 12),
        pairs=st.lists(st.tuples(st.integers(0, 11), st.integers(0, 11)), max_size=20),
    )
    def test_forest_is_the_csgraph_breadth_first_forest(self, n, pairs):
        edges = {}
        for a, b in pairs:
            if a < n and b < n and a != b:
                edges.setdefault((min(a, b), max(a, b)), (a, b))
        u = np.array([e[0] for e in edges.values()], dtype=np.int64)
        v = np.array([e[1] for e in edges.values()], dtype=np.int64)
        graph = sp.csr_matrix((np.ones(len(u)), (u, v)), shape=(n, n))
        _, label = csgraph.connected_components(graph, directed=False)
        roots = np.unique(label, return_index=True)[1]
        rows, cols = np.r_[u, np.full(len(roots), n)], np.r_[v, roots]
        joined = sp.csr_matrix((np.ones(len(rows)), (rows, cols)), shape=(n + 1, n + 1))
        parent = csgraph.breadth_first_order(joined, n, directed=False, return_predecessors=True)[1][:n]
        expected = np.where(parent == n, np.arange(n), parent)
        assert np.array_equal(_breadth_first_forest(u, v, n), expected)

    @pytest.mark.parametrize("case", ["opf-3-block", "shared-entry"])
    def test_merged_matrices_have_the_scipy_product_layout(self, assembly_problems, case):
        # A P must hold the entries, values and per-row order of scipy's own
        # product, which fix the summation order of c_eq and c_in
        p = assembly_problems[case]
        con = _view(p)
        merge = sp.csr_matrix((con.sign, (np.arange(con.n_free), con.col)), shape=(con.n_free, con.n))
        x_fixed = np.zeros(p.n_vars)
        x_fixed[con.fixed] = con.x_fixed
        q = p.bilinear
        free = np.zeros(p.n_vars, dtype=bool)
        free[con.free] = True
        one = free[q.a] != free[q.b]  # terms linear in their one free factor
        lin_col = np.where(free[q.a], q.a, q.b)[one]
        lin_val = q.coeff[one] * x_fixed[np.where(free[q.a], q.b, q.a)[one]]
        a_eq = p.a_eq + sp.csr_matrix((lin_val, (q.row[one], lin_col)), shape=p.a_eq.shape)
        a_eq = a_eq[:, con.free].tocsr()
        a_eq.eliminate_zeros()
        for got, want in ((csr(con.a_eq, (con.m_eq, con.n)), a_eq[con.rows] @ merge),
                          (csr(con.a_in, (con.m_in, con.n)), p.a_ineq[:, con.free] @ merge)):
            want.eliminate_zeros()
            assert np.array_equal(got.indptr, want.indptr)
            assert np.array_equal(got.indices, want.indices)
            assert np.array_equal(got.data, want.data)


class TestFactorSolve:
    @staticmethod
    def _backward_error(k, step, rhs):
        return np.max(np.abs(rhs - k @ step)) / max(1.0, np.max(np.abs(rhs)))

    def test_tiny_diagonal_pivot_falls_back(self):
        # every symmetric ordering pivots on a 1e-20 diagonal first, so the
        # static factor grows to 1e20; the matrix itself has eigenvalues 2, -1, -1
        k = sp.csc_matrix(np.where(np.eye(3) > 0, 1e-20, 1.0))
        rhs = np.array([1.0, 2.0, 3.0])
        assert _static_step(k, rhs, "MMD_AT_PLUS_A")[0] is None
        step = _threshold_step(k, rhs)
        assert self._backward_error(k, step, rhs) <= BACKWARD_ERROR

    def test_quasi_definite_matrix_takes_static_path(self):
        k = sp.csc_matrix(np.array([[4.0, 1.0, 1.0], [1.0, 3.0, 1.0], [1.0, 1.0, -2.0]]))
        rhs = np.array([1.0, -2.0, 0.5])
        step, _ = _static_step(k, rhs, "MMD_AT_PLUS_A")
        assert step is not None
        assert self._backward_error(k, step, rhs) <= BACKWARD_ERROR

    def test_singular_matrix_returns_no_step(self):
        k, rhs = sp.csc_matrix(np.ones((2, 2))), np.ones(2)
        assert _static_step(k, rhs, "MMD_AT_PLUS_A")[0] is None
        assert _threshold_step(k, rhs) is None

    def test_every_factor_tries_static_pivots_first(self, builtin_grid, monkeypatch):
        monkeypatch.setattr(hvdcopf.ipm, "BACKWARD_ERROR", -1.0)  # no static factor passes
        static_sizes = []
        splu = scipy.sparse.linalg.splu

        def recording_splu(a, *args, **kw):
            if kw.get("diag_pivot_thresh") == 0.0:
                static_sizes.append(a.shape[0])
            return splu(a, *args, **kw)

        monkeypatch.setattr(scipy.sparse.linalg, "splu", recording_splu)
        p, _ = build_opf(builtin_grid, OpfOptions(n_b=4))
        sol = solve(p)
        assert sol.status == "optimal"
        assert sol.factorizations >= sol.iterations - 1
        assert sol.pivot_fallbacks == sol.factorizations
        con = _view(p)
        assert static_sizes.count(con.n + con.m_eq + con.m_in) == sol.factorizations

    def test_n12_scopf_takes_static_pivots(self, meshed_bipolar_grid):
        # a rejected static factor falls back for itself only, so after the
        # rejected first factors of this solve the later ones take static pivots
        grid = meshed_bipolar_grid(12, 1)
        p, _ = build_scopf(grid, grid.pole_converter_ids(), OpfOptions(n_b=11))
        sol = solve(p)
        assert sol.status == "optimal"
        assert sol.pivot_fallbacks <= 0.1 * sol.factorizations
        assert check_kkt(p, sol).max_residual <= 10 * SolverOptions().tol_kkt


class TestOrderReuse:
    """The Newton matrix is ordered once per solve and factorised in that order afterwards."""

    @pytest.fixture()
    def opf_4kv(self, builtin_grid):
        p, _ = build_opf(builtin_grid, OpfOptions(n_b=0, outage="Cb-A1.a", offset_limit_kv=4.0))
        con = _view(p)
        return p, con.n + con.m_eq + con.m_in

    def test_one_view_per_template_and_one_ordering_per_solve(self, builtin_grid, monkeypatch):
        # the 16 plans of the shipped 4 kV NLS enumeration: the first solve builds the template's view;
        # each solve orders its own Newton matrix on its first factor and keeps that order
        views, specs = [], []
        init, splu = hvdcopf.presolve._TemplateView.__init__, scipy.sparse.linalg.splu
        monkeypatch.setattr(hvdcopf.presolve._TemplateView, "__init__", lambda self, *args: views.append(self) or init(self, *args))
        monkeypatch.setattr(scipy.sparse.linalg, "splu", lambda a, *args, **kw: specs.append(kw.get("permc_spec")) or splu(a, *args, **kw))
        template = compile_program(builtin_grid, TestWarmStart.NLS_4KV)
        solves = []
        monkeypatch.setattr(hvdcopf.ipm, "solve", lambda *args: solves.append(solve(*args)) or solves[-1])
        res = solve_minlp(template.program, template.catalogue, strategy="enumerate")
        assert res.status == "optimal" and len(solves) == res.explored == 16
        assert views == [template.solver_view]
        assert all(s.orderings == 1 and s.pivot_fallbacks == 0 for s in solves)
        assert len(specs) == sum(s.factorizations for s in solves)
        for s, first in zip(solves, np.cumsum([0] + [s.factorizations for s in solves])):
            assert specs[first : first + s.factorizations] == ["MMD_AT_PLUS_A"] + ["NATURAL"] * (s.factorizations - 1)

    def test_reordered_step_within_backward_error(self, opf_4kv, monkeypatch):
        p, _ = opf_4kv
        calls = []
        kkt_solve = _Kkt.solve

        def recording_solve(self, rhs):
            fallbacks, ordered = self.pivot_fallbacks, self.ordered
            step = kkt_solve(self, rhs)
            calls.append((self.matrix.copy(), self.order, rhs, step, ordered and self.pivot_fallbacks == fallbacks))
            return step

        monkeypatch.setattr(_Kkt, "solve", recording_solve)
        sol = solve(p)
        assert sol.status == "optimal"
        reordered = [c for c in calls if c[4]]  # static factors after the first reorder
        assert len(reordered) >= sol.iterations - 2
        for matrix, order, rhs, step, _ in reordered[:: max(1, len(reordered) // 4)]:
            back = np.argsort(order)
            k = matrix[back][:, back].tocsc()  # the assembly order
            unreordered, _ = _static_step(k, rhs, "MMD_AT_PLUS_A")
            assert unreordered is not None
            bound = BACKWARD_ERROR * max(1.0, np.max(np.abs(rhs)))
            assert np.max(np.abs(rhs - k @ step)) <= bound
            assert np.max(np.abs(k @ (step - unreordered))) <= 2 * bound

    def test_first_fallback_factors_the_relaid_matrix(self, opf_4kv, monkeypatch):
        # the first static step fails its backward error: the matrix is relaid in the order that
        # factor computed before its threshold fallback, which factors it in that layout
        p, _ = opf_4kv
        static_step, threshold_step, kkt_solve = hvdcopf.ipm._static_step, hvdcopf.ipm._threshold_step, _Kkt.solve
        first, specs, fallbacks, steps = {}, [], [], []

        def failing_once(matrix, rhs, permc_spec):
            step, perm_c = static_step(matrix, rhs, permc_spec)
            specs.append(permc_spec)
            if first:
                return step, perm_c
            first.update(k=matrix.copy(), rhs=rhs.copy(), order=np.argsort(perm_c))
            return None, perm_c

        def recording_threshold(matrix, rhs):
            fallbacks.append((matrix.copy(), rhs.copy(), threshold_step(matrix, rhs)))
            return fallbacks[-1][2]

        monkeypatch.setattr(hvdcopf.ipm, "_static_step", failing_once)
        monkeypatch.setattr(hvdcopf.ipm, "_threshold_step", recording_threshold)
        monkeypatch.setattr(_Kkt, "solve", lambda self, rhs: steps.append(kkt_solve(self, rhs)) or steps[-1])
        sol = solve(p)
        assert sol.status == "optimal" and sol.orderings == 1 and sol.pivot_fallbacks == len(fallbacks) == 1
        assert specs == ["MMD_AT_PLUS_A"] + ["NATURAL"] * (sol.factorizations - 1)
        (matrix, rhs, step), order = fallbacks[0], first["order"]
        assert not np.array_equal(order, np.arange(len(order)))
        assert (matrix != first["k"][order][:, order]).nnz == 0  # P K P^T, not K
        assert np.array_equal(rhs, first["rhs"][order])
        assert np.array_equal(steps[0][order], step)  # the step comes back in the assembly order


class TestTemplateView:
    """A program's view is its template's, selected and merged again where it keeps variant alias rows:
    the view, and the solution, that a view built from the program alone gives."""

    SEARCHES = {
        "nls-4kv": (TestWarmStart.NLS_4KV, None),
        "scopf-2-outage-nb1": (OpfOptions(n_b=1), ("Cb-A1.a", "Cb-B1.a")),  # its symmetric rows merge per program
    }

    @pytest.mark.parametrize("case", sorted(SEARCHES))
    def test_template_view_equals_the_view_of_the_program_alone(self, builtin_grid, case):
        options, contingencies = self.SEARCHES[case]
        template = compile_program(builtin_grid, options, contingencies)
        merged_again = 0
        for a in enumerate_assignments(template.catalogue):
            p = template.program(a)
            alone = dataclasses.replace(p, meta={key: v for key, v in p.meta.items() if key != "template"})
            con, own = _view(p), _view(alone)
            merged_again += len(con.tree_rows) > len(template.solver_view.base.tree_rows)
            for name in ("rows", "tree_rows", "col", "sign", "b_eq", "b_in", "cost", "box_lb", "box_ub", "_rep",
                         "w_var", "w_eq", "lo", "up"):
                assert np.array_equal(getattr(con, name), getattr(own, name)), name
            for got, want in zip(con.a_eq + con.a_in, own.a_eq + own.a_in):
                assert np.array_equal(got, want)
            for name in ("row", "a", "b", "coeff"):
                assert np.array_equal(getattr(con.terms, name), getattr(own.terms, name))
            assert np.array_equal(con.jac.values(np.ones(con.n)), own.jac.values(np.ones(own.n)))
            kkt, own_kkt = _Kkt(con), _Kkt(own)  # the Newton-matrix pattern, selected and built
            for name in ("indptr", "indices", "data"):
                assert np.array_equal(getattr(kkt.matrix, name), getattr(own_kkt.matrix, name)), name
            for name in ("_pos_w", "_w_h", "_w_d", "_pos_j", "_pos_jt", "_pos_s"):
                assert np.array_equal(getattr(kkt, name), getattr(own_kkt, name)), name
            sol, sol_alone = solve(p), solve(alone)
            assert (sol.status, sol.iterations) == (sol_alone.status, sol_alone.iterations) == ("optimal", sol.iterations)
            for name in ("x", "lam_eq", "nu_ineq", "z_lower", "z_upper"):
                assert np.array_equal(getattr(sol, name), getattr(sol_alone, name)), name
        assert merged_again > 0 if contingencies else merged_again == 0


def sign_chain():
    """d = -c = b = -a with a bound on each member; the active one is b's."""
    pb = ProblemBuilder("sign-chain")
    pb.add_var("a", -INF, 2.0, cost=-2.0)
    pb.add_var("b", -1.0, INF)
    pb.add_var("c", 0.0, 5.0, start=3.0)
    pb.add_var("d", -4.0, 4.0)
    pb.add_var("w", 0.0, 1.0, cost=-1.0)
    pb.add_eq(lin_row("ab", {"a": 1.0, "b": 1.0}))
    pb.add_eq(lin_row("bc", {"b": -2.0, "c": -2.0}))
    pb.add_eq(lin_row("cd", {"d": 1.0, "c": 1.0}))
    pb.add_ineq(lin_row("cap", {"w": 1.0, "c": 1.0}, -1.5))
    return pb.build()


def alias_cycle(consistent):
    """a = b, b = +-c, c = a: one row is redundant, or the signs force a = b = c = 0."""
    pb = ProblemBuilder("alias-cycle")
    pb.add_var("a", -1.0, 1.0, cost=1.0)
    pb.add_var("b", -2.0, 0.5)
    pb.add_var("c", -3.0, 3.0)
    pb.add_var("w", -1.0, 1.0, cost=-1.0)
    pb.add_eq(lin_row("ab", {"a": 1.0, "b": -1.0}))
    pb.add_eq(lin_row("bc", {"b": 1.0, "c": -1.0 if consistent else 1.0}))
    pb.add_eq(lin_row("ca", {"c": 1.0, "a": -1.0}))
    pb.add_eq(lin_row("link", {"w": 1.0, "a": 0.5, "c": 0.25}, -0.5))
    return pb.build()


def empty_interior_alias():
    """a = b with a in [0, 1] and b in [1, 2]: the merged box is the point 1."""
    pb = ProblemBuilder("empty-interior")
    pb.add_var("a", 0.0, 1.0, cost=1.0)
    pb.add_var("b", 1.0, 2.0, cost=-0.5)
    pb.add_var("w", -1.0, 1.0, cost=-1.0)
    pb.add_eq(lin_row("ab", {"a": 1.0, "b": -1.0}))
    pb.add_ineq(lin_row("cap", {"w": 1.0, "b": 1.0}, -1.5))
    return pb.build()


def fixed_partner_alias():
    """a = -b, and b = f with f pinned: the second row condenses to b = 0.5."""
    pb = ProblemBuilder("fixed-partner")
    pb.add_var("a", -1.0, 1.0, cost=1.0)
    pb.add_var("b", -1.0, 1.0)
    pb.add_var("f", 0.5, 0.5)
    pb.add_var("w", -1.0, 1.0, cost=-1.0)
    pb.add_eq(lin_row("ab", {"a": 1.0, "b": 1.0}))
    pb.add_eq(lin_row("bf", {"b": 1.0, "f": -1.0}))
    pb.add_ineq(lin_row("cap", {"w": 1.0, "a": -1.0}, -0.25))
    return pb.build()


# program, (merged variables, rows left in the Newton system), kept row names
ALIAS_CASES = {
    "sign-chain": (sign_chain, (2, 0), ()),
    "consistent-cycle": (lambda: alias_cycle(True), (2, 1), ("link",)),
    "inconsistent-cycle": (lambda: alias_cycle(False), (2, 2), ("bc", "link")),
    "empty-interior": (empty_interior_alias, (3, 1), ("ab",)),
    "fixed-partner": (fixed_partner_alias, (2, 1), ("bf",)),
}


class TestAliasPresolve:
    @pytest.mark.parametrize("case", ALIAS_CASES)
    def test_merged_program_solves_the_full_one(self, case):
        build, (n, m_eq), kept = ALIAS_CASES[case]
        p = build()
        con = _view(p)
        assert (con.n, con.m_eq) == (n, m_eq)
        assert tuple(p.eq_names[r] for r in con.rows) == kept
        sol = solve(p)
        assert sol.status == "optimal"
        assert check_kkt(p, sol).max_residual <= 10 * SolverOptions().tol_kkt
        removed = np.setdiff1d(np.arange(p.n_eq), con.rows)
        # a removed row holds bitwise: its members are +-1 times one merged value
        assert np.all(p.eval_eq(sol.x)[removed] == 0.0)

    def test_bounds_of_every_member_keep_their_multiplier(self):
        p = sign_chain()
        sol = solve(p)
        # max 2a + w with w + c <= 1.5 and c = a <= 1 (from b = -a >= -1)
        assert sol.x[p.var_index("a")] == pytest.approx(1.0, abs=1e-6)
        assert sol.x[p.var_index("w")] == pytest.approx(0.5, abs=1e-6)
        assert sol.z_lower[p.var_index("b")] == pytest.approx(1.0, abs=1e-4)
        assert sol.z_upper[p.var_index("a")] == pytest.approx(0.0, abs=1e-4)

    def test_scopf_newton_system_is_less_than_half(self, builtin_grid):
        outages = ("Cb-A1.a", "Cb-A1.b", "Cb-B1.a", "Cb-B1.b")
        p, _ = build_scopf(builtin_grid, outages, OpfOptions(n_b=2))
        con = _view(p)
        unreduced = con.n_free + p.n_eq + p.n_ineq
        assert unreduced == 1499
        assert con.n + con.m_eq + con.m_in <= 654


SCOPF_OUTAGES = ("Cb-A1.a", "Cb-A1.b", "Cb-B1.a", "Cb-B1.b")


class TestPoleMirror:
    """A program with a verified pole mirror is solved on its symmetric half, and answers as the whole one."""

    @staticmethod
    def _agree(mirrored, whole):
        assert mirrored.status == whole.status
        if whole.objective is not None:
            assert abs(mirrored.objective - whole.objective) <= 1e-6 * max(1.0, abs(whole.objective))

    @pytest.mark.parametrize("n_b", [3, 2, 1, 0])
    def test_shipped_scopf_search_matches_the_whole_program(self, builtin_grid, n_b):
        template = compile_program(builtin_grid, OpfOptions(n_b=n_b), SCOPF_OUTAGES)
        assert template.mirror is not None
        mirrored = solve_minlp(template.program, template.catalogue, strategy="branch-and-bound")
        whole = solve_minlp(lambda a: without_mirror(template.program(a)), template.catalogue, strategy="branch-and-bound")
        self._agree(mirrored, whole)
        assert mirrored.assignment == whole.assignment
        assert mirrored.mirrored > 0 and whole.mirrored == 0
        sol = mirrored.solution
        assert check_kkt(without_mirror(sol.problem), sol).max_residual <= 10 * SolverOptions().tol_kkt

    @pytest.mark.parametrize("n, seed", [(n, seed) for n in (4, 8) for seed in range(4)])
    def test_generated_scopf_matches_the_whole_program(self, meshed_bipolar_grid, n, seed):
        grid = meshed_bipolar_grid(n, seed)
        p, _ = build_scopf(grid, grid.pole_converter_ids(), OpfOptions(n_b=n - 1))
        mirrored, whole = solve(p), solve(without_mirror(p))
        assert mirrored.mirrored and not whole.mirrored
        self._agree(mirrored, whole)
        assert check_kkt(without_mirror(p), mirrored).max_residual <= 10 * SolverOptions().tol_kkt
        # half the Newton system: the base state's neutral quantities are pinned at 0
        con, whole_con = _view(p), _view(without_mirror(p))
        assert con.n + con.m_eq <= 0.51 * (whole_con.n + whole_con.m_eq)

    def test_changed_pole_line_solves_the_whole_program(self, builtin_grid):
        lines = tuple(dataclasses.replace(bd, resistance_pu=1.01 * bd.resistance_pu) if bd.id == "LD-1" else bd
                      for bd in builtin_grid.dc_lines)
        template = compile_program(dataclasses.replace(builtin_grid, dc_lines=lines), OpfOptions(n_b=2), SCOPF_OUTAGES)
        assert template.mirror is None
        p = template.program()
        assert "mirror" not in p.meta
        sol, whole = solve(p), solve(without_mirror(p))
        assert not sol.mirrored
        for field in ("x", "lam_eq", "nu_ineq", "z_lower", "z_upper"):
            assert np.array_equal(getattr(sol, field), getattr(whole, field))
        assert (sol.status, sol.objective, sol.iterations, sol.log) == (whole.status, whole.objective, whole.iterations,
                                                                          whole.log)

    def test_solution_is_its_own_mirror_image(self, builtin_grid):
        p, _ = build_scopf(builtin_grid, SCOPF_OUTAGES, OpfOptions(n_b=2))
        sol = solve(p)
        mirror = p.meta["mirror"]
        image = np.empty_like(sol.x)
        image[mirror.var] = mirror.var_sign * sol.x
        assert np.array_equal(image, sol.x)

    def test_warm_start_from_an_asymmetric_solution(self, builtin_grid):
        # the warm start's bound and inequality multipliers are averaged with their images first
        template = compile_program(builtin_grid, OpfOptions(n_b=2, offset_limit_kv=12.0), SCOPF_OUTAGES)
        asym = {(k, "beta", "Cb-C2"): 0 for k in (1, 3)} | {(k, "beta", "Cb-D1"): 0 for k in (2, 4)}
        start = solve(template.program(BinaryAssignment.of(asym)))
        assert start.status == "optimal" and not start.mirrored
        p = template.program()
        sol, whole = solve(p, start=start), solve(without_mirror(p), start=start)
        assert sol.mirrored
        self._agree(sol, whole)
        assert check_kkt(without_mirror(p), sol).max_residual <= 10 * SolverOptions().tol_kkt


@st.composite
def alias_lps(draw):
    """A bounded LP of alias chains with random signs and coefficients,
    optional pinned partners and coupling rows, feasible at a drawn point."""
    value = st.integers(-8, 8).map(lambda v: v / 8.0)
    gap = st.sampled_from([INF, 0.25, 1.0])
    pb = ProblemBuilder("alias-lp")
    point = {}
    for k in range(draw(st.integers(1, 3))):
        base, sign, prev = draw(value), 1.0, None
        for j in range(draw(st.integers(1, 4))):
            name = f"x{k}.{j}"
            if prev is not None:
                flip = draw(st.booleans())
                coeff = draw(st.sampled_from([1.0, -1.0, 2.5, -0.5]))
                sign = -sign if flip else sign
            v = sign * base
            lo, hi = (1.0, 0.25) if prev is None else (draw(gap), draw(gap))
            pb.add_var(name, v - lo, v + hi, cost=draw(value))
            if prev is not None:
                pb.add_eq(lin_row(f"alias{k}.{j}", {name: coeff, prev: coeff if flip else -coeff}))
            point[name], prev = v, name
        if draw(st.booleans()):
            pb.add_var(f"f{k}", point[prev], point[prev])
            pb.add_eq(lin_row(f"pin{k}", {prev: 1.0, f"f{k}": -1.0}))
            point[f"f{k}"] = point[prev]
    for r in range(draw(st.integers(0, 2))):
        members = draw(st.lists(st.sampled_from(list(point)), min_size=1, max_size=3, unique=True))
        coeffs = {v: draw(value) for v in members}
        const = -sum(c * point[v] for v, c in coeffs.items())
        if draw(st.booleans()):
            pb.add_eq(lin_row(f"link{r}", coeffs, const))
        else:
            pb.add_ineq(lin_row(f"cap{r}", coeffs, const - 0.5))
    return pb.build()


@settings(max_examples=60, deadline=None)
@given(p=alias_lps())
def test_alias_lp_matches_highs(p):
    # at tol_kkt 1e-6 the stopping test allows an objective gap of a few 1e-6
    # on these unit-scale LPs (so does the solver without the merge); 1e-8
    # makes a 1e-6 comparison with the oracle meaningful
    options = SolverOptions(tol_kkt=1e-8)
    sol = solve(p, options)
    bounds = [(None if np.isinf(lo) else lo, None if np.isinf(hi) else hi) for lo, hi in zip(p.lb, p.ub)]
    ref = linprog(
        p.cost,
        A_ub=p.a_ineq.toarray() if p.n_ineq else None,
        b_ub=-p.b_ineq if p.n_ineq else None,
        A_eq=p.a_eq.toarray() if p.n_eq else None,
        b_eq=-p.b_eq if p.n_eq else None,
        bounds=bounds,
        method="highs",
    )
    assert ref.status == 0
    assert sol.status == "optimal"
    assert check_kkt(p, sol).max_residual <= 10 * options.tol_kkt
    assert sol.objective == pytest.approx(ref.fun, rel=1e-6, abs=1e-6)
