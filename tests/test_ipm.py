import math

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg

from hvdcopf.builder import OpfOptions, build_opf
from hvdcopf.ipm import REG_EQ, SolverOptions, _Condensed, _Kkt, check_kkt, solve, solve_multistart
from hvdcopf.nlp import ProblemBuilder, lin_row, quad_row


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

    def test_default_multistart_is_one_flat_solve(self, builtin_grid):
        p, _ = build_opf(builtin_grid, OpfOptions(n_b=2, outage="Cb-A1.a"))
        a = solve(p)
        b = solve_multistart(p)
        assert a.iterations == b.iterations
        assert a.objective == b.objective
        assert np.array_equal(a.x, b.x)


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
        assert sol.kkt_residuals["feasibility_eq"] <= 1e-10


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


def reference_kkt(con, x, lam, diag, s, nu):
    """The Newton matrix assembled with sp.bmat, term by term from the condensed data."""
    n, m_eq, m_in = con.n, con.m_eq, con.m_in
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
    j_eq = con.a_eq + sp.csr_matrix((jv, (jr, jc)), shape=con.a_eq.shape)
    w_blk = sp.csr_matrix((hv, (hr, hc)), shape=(n, n)) + sp.diags(diag)
    blocks = [[w_blk, j_eq.T], [j_eq, -REG_EQ * sp.identity(m_eq)]]
    if m_in:
        blocks[0].append(con.a_in.T)
        blocks[1].append(None)
        blocks.append([con.a_in, None, sp.diags(-s / nu)])
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
        con = _Condensed(assembly_problems[case])
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
        con = _Condensed(assembly_problems[case])
        kkt = _Kkt(con)
        x, lam, sig_x, s, nu = self._state(con, 7)
        kkt.set_jacobian(con.jac.values(x))
        kkt.set_slack(-s / nu)
        hess_val = con.terms.hessian_values(lam)
        for delta_w in (0.0, 1e-8, 1e-7, 1e4):
            kkt.set_w(hess_val, sig_x + delta_w)
            self._assert_close(kkt, reference_kkt(con, x, lam, sig_x + delta_w, s, nu))

    def test_shared_entry_sums_linear_and_bilinear_parts(self):
        con = _Condensed(shared_entry_problem())
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
        size = int((~p.fixed_mask()).sum()) + p.n_eq + p.n_ineq
        newton = [a for a in factored if a.shape == (size, size)]
        assert len(newton) >= sol.iterations - 1
        assert len({id(a) for a in newton}) == 1  # one persistent matrix, refilled in place
