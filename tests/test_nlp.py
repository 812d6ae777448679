import io

import numpy as np
import pytest

from hvdcopf.builder import OpfOptions, build_opf
from hvdcopf.nlp import INF, ProblemBuilder, lin_row, quad_row


def small_problem():
    pb = ProblemBuilder("toy")
    pb.add_var("x", 0.0, 2.0, cost=1.0, start=1.0)
    pb.add_var("y", -1.0, 1.0, start=0.0)
    pb.add_var("z", start=0.5)
    pb.add_eq(quad_row("q", {"z": 1.0}, [("x", "y", -1.0)]))  # z = x*y
    pb.add_eq(lin_row("l", {"x": 1.0, "y": 2.0}, -1.0))
    pb.add_ineq(lin_row("c", {"x": 1.0, "z": -1.0}, -5.0))
    return pb.build()


def test_eval_matches_hand_computation():
    p = small_problem()
    x = np.array([1.0, 0.5, 2.0])
    eq = p.eval_eq(x)
    assert eq[0] == pytest.approx(2.0 - 0.5)
    assert eq[1] == pytest.approx(1.0 + 1.0 - 1.0)
    assert p.eval_ineq(x)[0] == pytest.approx(1.0 - 2.0 - 5.0)
    assert p.eval_objective(x) == pytest.approx(1.0)


def test_linear_rows_have_constant_jacobian():
    p = small_problem()
    j1 = p.eq_jacobian(np.array([1.0, 0.5, 2.0])).toarray()
    j2 = p.eq_jacobian(np.array([0.1, -0.3, 0.7])).toarray()
    assert np.allclose(j1[1], j2[1])  # linear row unchanged
    assert not np.allclose(j1[0], j2[0])  # bilinear row moves


def test_product_rule_jacobian_entries():
    p = small_problem()
    x = np.array([1.5, -0.25, 0.0])
    j = p.eq_jacobian(x).toarray()
    # row q: d/dx = -y, d/dy = -x, d/dz = 1
    assert j[0] == pytest.approx([0.25, -1.5, 1.0])


def test_finite_difference_jacobian():
    rng = np.random.default_rng(3)
    p = small_problem()
    for _ in range(5):
        x = rng.uniform(-1, 1, p.n_vars)
        j = p.eq_jacobian(x).toarray()
        h = 1e-6
        fd = np.zeros_like(j)
        for k in range(p.n_vars):
            e = np.zeros(p.n_vars)
            e[k] = h
            fd[:, k] = (p.eval_eq(x + e) - p.eval_eq(x - e)) / (2 * h)
        assert np.max(np.abs(j - fd)) < 1e-6


def test_lagrangian_hessian_symmetry():
    p = small_problem()
    lam = np.array([2.0, -1.0])
    h = p.lagrangian_hessian(lam).toarray()
    assert np.allclose(h, h.T)
    assert h[0, 1] == pytest.approx(-2.0)  # lam_q * d2(z - xy)/dxdy


def test_unknown_variable_rejected():
    pb = ProblemBuilder()
    pb.add_var("x")
    with pytest.raises(KeyError):
        pb.add_eq(lin_row("bad", {"nope": 1.0}))


def test_duplicate_variable_rejected():
    pb = ProblemBuilder()
    pb.add_var("x")
    with pytest.raises(ValueError):
        pb.add_var("x")


def test_nonlinear_inequality_rejected():
    pb = ProblemBuilder()
    pb.add_var("x")
    with pytest.raises(ValueError):
        pb.add_ineq(quad_row("bad", {}, [("x", "x", 1.0)]))


def test_dimension_mismatch_rejected():
    p = small_problem()
    with pytest.raises(ValueError):
        p.eval_eq(np.zeros(2))


def test_build_is_deterministic(builtin_grid):
    p1, _ = build_opf(builtin_grid, OpfOptions(n_b=4))
    p2, _ = build_opf(builtin_grid, OpfOptions(n_b=4))
    assert p1.var_names == p2.var_names
    assert p1.eq_names == p2.eq_names
    assert np.array_equal(p1.b_eq, p2.b_eq)
    assert (p1.a_eq != p2.a_eq).nnz == 0


def test_every_constraint_references_catalogued_vars(builtin_grid):
    p, _ = build_opf(builtin_grid, OpfOptions(n_b=4))
    assert p.a_eq.shape[1] == p.n_vars
    assert p.jacobian_pattern().shape == (p.n_eq + p.n_ineq, p.n_vars)


def test_dump_contains_rows():
    p = small_problem()
    buf = io.StringIO()
    p.dump(buf)
    text = buf.getvalue()
    assert "eq q:" in text and "ineq c:" in text and "jacobian-pattern" in text


def test_fixed_mask():
    pb = ProblemBuilder()
    pb.add_var("a", 1.0, 1.0)
    pb.add_var("b", 0.0, INF)
    p = pb.build()
    assert p.fixed_mask().tolist() == [True, False]


@pytest.fixture(scope="module")
def shipped_opf_rows(builtin_grid):
    """The offset-limited post-contingency OPF with the Row objects it was built from."""
    captured = {}
    build = ProblemBuilder.build

    def capture(self):
        captured["eq"] = list(self._eq)
        return build(self)

    ProblemBuilder.build = capture
    try:
        p, _ = build_opf(builtin_grid, OpfOptions(n_b=0, outage="Cb-A1.a", offset_limit_kv=8.0))
    finally:
        ProblemBuilder.build = build
    assert len(p.bilinear.row) > 0
    return p, captured["eq"]


def _loop_jacobian(p, x):
    """Term-by-term reference for the vectorised Jacobian."""
    j = p.a_eq.toarray()
    for row, ja, jb, c in p.quad_eq:
        j[int(row), int(ja)] += c * x[int(jb)]
        j[int(row), int(jb)] += c * x[int(ja)]
    return j


def _loop_hessian(p, lam):
    h = np.zeros((p.n_vars, p.n_vars))
    for row, ja, jb, c in p.quad_eq:
        w = c * lam[int(row)]
        h[int(ja), int(jb)] += w
        h[int(jb), int(ja)] += w
    return h


def _points(p, count, seed):
    rng = np.random.default_rng(seed)
    lo = np.where(np.isfinite(p.lb), p.lb, -1.5)
    hi = np.where(np.isfinite(p.ub), p.ub, 1.5)
    return [rng.uniform(lo, hi) for _ in range(count)]


def test_vectorised_eq_matches_row_evaluate(shipped_opf_rows):
    p, rows = shipped_opf_rows
    for x in _points(p, 5, 1):
        state = dict(zip(p.var_names, x))
        want = np.array([row.evaluate(state) for row in rows])
        assert np.allclose(p.eval_eq(x), want, rtol=1e-12, atol=1e-12)


def test_vectorised_derivatives_match_loops_and_differences(shipped_opf_rows):
    p, _ = shipped_opf_rows
    rng = np.random.default_rng(2)
    h = 1e-6
    for x in _points(p, 3, 2):
        lam = rng.normal(size=p.n_eq)
        jac = p.eq_jacobian(x)
        assert np.allclose(jac.toarray(), _loop_jacobian(p, x), rtol=1e-14, atol=1e-14)
        assert np.allclose(jac.T @ lam, _loop_jacobian(p, x).T @ lam, rtol=1e-12, atol=1e-12)
        assert np.array_equal(p.eq_jacobian_rmatvec(x, lam), jac.T @ lam)  # the same sums in the same order
        hess = p.lagrangian_hessian(lam).toarray()
        assert np.allclose(hess, _loop_hessian(p, lam), rtol=1e-14, atol=1e-14)
        fd_j = np.zeros((p.n_eq, p.n_vars))
        fd_h = np.zeros((p.n_vars, p.n_vars))
        for k in range(p.n_vars):
            e = np.zeros(p.n_vars)
            e[k] = h
            fd_j[:, k] = (p.eval_eq(x + e) - p.eval_eq(x - e)) / (2 * h)
            fd_h[:, k] = (p.eq_jacobian(x + e).T @ lam - p.eq_jacobian(x - e).T @ lam) / (2 * h)
        assert np.max(np.abs(jac.toarray() - fd_j)) <= 1e-6 * max(1.0, np.max(np.abs(fd_j)))
        assert np.max(np.abs(hess - fd_h)) <= 1e-6 * max(1.0, np.max(np.abs(fd_h)))
        d = rng.normal(size=p.n_vars)
        assert p.bilinear.curvature(lam, d) == pytest.approx(d @ hess @ d, rel=1e-12, abs=1e-12)


def test_jacobian_pattern_keeps_cancelled_entries():
    pb = ProblemBuilder()
    pb.add_var("x")
    pb.add_var("y")
    pb.add_eq(quad_row("r", {"x": -1.0}, [("x", "y", 1.0)]))  # d/dx = y - 1
    p = pb.build()
    jac = p.eq_jacobian(np.array([3.0, 1.0]))
    assert jac.nnz == 2 and jac.toarray().tolist() == [[0.0, 3.0]]
    assert p.jacobian_pattern().nnz == 2
