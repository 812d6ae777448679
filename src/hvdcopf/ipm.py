"""Primal-dual interior-point solver for the binaries-fixed programs.

Solves   min c.x  s.t.  c_E(x) = 0,  c_I(x) <= 0,  l <= x <= u
with slacks on the inequalities and log barriers on slacks and finite
bounds.  The barrier parameter follows a monotone Fiacco-McCormick
schedule; each barrier subproblem is driven by Newton steps on the
primal-dual system

    [ W + Sig_x + dw*I   J_E^T    J_I^T   ] [dx ]   [ rhs_x ]
    [ J_E                -dc*I    0       ] [dlam] = [ -c_E  ]
    [ J_I                0        -Sig_s^-1] [dnu ]  [ rhs_s ]

where W is the Lagrangian Hessian (constant-curvature bilinear terms),
Sig_x/Sig_s the barrier diagonals, and (dw, dc) inertia-style diagonal
regularization escalated on factorization failure or bad curvature.
Steps are cut by the fraction-to-boundary rule and a residual-norm
backtracking line search.  Variables with lb == ub are condensed out
before the iteration and reported with back-computed bound multipliers.

Within one solve the sparsity of J_E, W and the Newton matrix never
changes, only the values do (the structure-reuse design of IPOPT, Waechter
& Biegler, Math. Programming 106, 2006).  Each solve therefore builds the
CSR pattern of J_E and the CSC pattern of the whole 2- or 3-block matrix
once, with index maps from every block into the matrix data; an iteration,
and each dw retry, only scatters values into that one persistent matrix
and factorizes it.  No sparse matrix is constructed inside the Newton loop.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .nlp import BilinearTerms, JacobianPattern, NlpProblem, scatter_sum


@dataclass(frozen=True)
class SolverOptions:
    tol_kkt: float = 1e-6
    max_iter: int = 200
    mu_init: float = 0.1
    mu_reduction: float = 0.2
    mu_threshold: float = 10.0  # barrier subproblem accepted at E_mu <= threshold*mu
    tau: float = 0.995  # fraction-to-boundary
    reg_eq: float = 1e-8  # constant dual regularization
    reg_primal_init: float = 1e-8
    reg_primal_max: float = 1e8
    feas_tol: float = 1e-7
    bound_push: float = 1e-2
    stall_iters: int = 25
    verbose: bool = False

    def __post_init__(self):
        if self.tol_kkt <= 0 or not (0.0 < self.tau < 1.0):
            raise ValueError("tolerances must be positive and 0 < tau < 1")
        if not (0.0 < self.mu_reduction < 1.0):
            raise ValueError("mu reduction factor must lie in (0, 1)")


@dataclass
class Solution:
    status: str  # 'optimal' | 'infeasible' | 'iteration-limit'
    x: np.ndarray
    lam_eq: np.ndarray
    nu_ineq: np.ndarray
    z_lower: np.ndarray
    z_upper: np.ndarray
    objective: float
    kkt_residuals: dict[str, float]
    iterations: int
    log: list[str] = field(default_factory=list)

    def values(self, problem: NlpProblem) -> dict[str, float]:
        return {name: float(v) for name, v in zip(problem.var_names, self.x)}


class _Condensed:
    """Problem with lb==ub variables substituted out; exact sparse derivatives."""

    def __init__(self, problem: NlpProblem):
        self.problem = problem
        fixed = problem.fixed_mask()
        self.free = np.flatnonzero(~fixed)
        self.fixed = np.flatnonzero(fixed)
        self.x_fixed = problem.lb[self.fixed]
        self.n = len(self.free)
        self.lb = problem.lb[self.free]
        self.ub = problem.ub[self.free]
        self.cost = problem.cost[self.free]

        full_to_free = -np.ones(problem.n_vars, dtype=int)
        full_to_free[self.free] = np.arange(self.n)
        xfix = np.zeros(problem.n_vars)
        xfix[self.fixed] = self.x_fixed

        def condense_linear(a: sp.csr_matrix, b: np.ndarray):
            shift = b + a[:, self.fixed] @ self.x_fixed if len(self.fixed) else b.copy()
            return a[:, self.free].tocsr(), shift

        self.a_eq, self.b_eq = condense_linear(problem.a_eq, problem.b_eq)
        self.a_in, self.b_in = condense_linear(problem.a_ineq, problem.b_ineq)
        self.m_eq = self.a_eq.shape[0]
        self.m_in = self.a_in.shape[0]

        # split bilinear terms by how many of their factors stay free
        q = problem.bilinear
        fa, fb = full_to_free[q.a], full_to_free[q.b]
        both = (fa >= 0) & (fb >= 0)
        one = (fa >= 0) ^ (fb >= 0)
        none = (fa < 0) & (fb < 0)
        np.add.at(self.b_eq, q.row[none], q.coeff[none] * xfix[q.a[none]] * xfix[q.b[none]])
        if one.any():
            a_free = fa[one] >= 0
            lin_cols = np.where(a_free, fa[one], fb[one])
            lin_vals = q.coeff[one] * xfix[np.where(a_free, q.b[one], q.a[one])]
            self.a_eq = (
                self.a_eq
                + sp.csr_matrix((lin_vals, (q.row[one], lin_cols)), shape=self.a_eq.shape)
            ).tocsr()
        self.terms = BilinearTerms(q.row[both], fa[both], fb[both], q.coeff[both])
        self.jac = JacobianPattern(self.a_eq, self.terms)
        self.a_in_t = self.a_in.T.tocsr()

    def expand(self, x_free: np.ndarray) -> np.ndarray:
        x = np.empty(self.problem.n_vars)
        x[self.free] = x_free
        x[self.fixed] = self.x_fixed
        return x

    def objective(self, x: np.ndarray) -> float:
        return float(self.cost @ x)

    def c_eq(self, x: np.ndarray) -> np.ndarray:
        return self.terms.add_values(self.a_eq @ x + self.b_eq, x)

    def c_in(self, x: np.ndarray) -> np.ndarray:
        return self.a_in @ x + self.b_in


class _Kkt:
    """The Newton matrix of one solve: a fixed CSC pattern filled in place.

    The pattern is the union of every block's entries, built once; index
    maps place the W block (Hessian entries plus the Sig_x + dw diagonal),
    J_E and J_E^T, and -Sig_s into `matrix.data` each iteration.  A_I,
    A_I^T and -dc*I do not change within a solve and are written once.
    """

    def __init__(self, con: _Condensed, reg_eq: float):
        n, m_eq, m_in = con.n, con.m_eq, con.m_in
        size = n + m_eq + m_in
        jac = con.jac
        h_rows, h_cols = con.terms.hessian_entries()
        a_in = con.a_in.tocoo()
        var = np.arange(n)
        eq = n + np.arange(m_eq)
        ineq = n + m_eq + np.arange(m_in)
        blocks = [
            (h_rows, h_cols),  # W: Hessian
            (var, var),  # W: Sig_x + dw
            (n + jac.row, jac.col),  # J_E
            (jac.col, n + jac.row),  # J_E^T
            (eq, eq),  # -dc*I
            (n + m_eq + a_in.row, a_in.col),  # A_I
            (a_in.col, n + m_eq + a_in.row),  # A_I^T
            (ineq, ineq),  # -Sig_s
        ]
        rows = np.concatenate([r for r, _ in blocks]).astype(np.int64)
        cols = np.concatenate([c for _, c in blocks]).astype(np.int64)
        keys, where = np.unique(cols * size + rows, return_inverse=True)
        indptr = np.searchsorted(keys // size, np.arange(size + 1))
        self.matrix = sp.csc_matrix((np.zeros(len(keys)), keys % size, indptr), shape=(size, size))
        pos_h, pos_d, self._pos_j, self._pos_jt, pos_dc, pos_a, pos_at, self._pos_s = np.split(
            where, np.cumsum([len(r) for r, _ in blocks])[:-1]
        )
        # W-block values are summed in a compact vector over its own positions
        self._pos_w = np.unique(np.concatenate([pos_h, pos_d]))
        self._w_h = np.searchsorted(self._pos_w, pos_h)
        self._w_d = np.searchsorted(self._pos_w, pos_d)
        data = self.matrix.data
        data[pos_dc] = -reg_eq
        data[pos_a] = a_in.data
        data[pos_at] = a_in.data

    def set_jacobian(self, j_val: np.ndarray) -> None:
        self.matrix.data[self._pos_j] = j_val
        self.matrix.data[self._pos_jt] = j_val

    def set_w(self, hess_val: np.ndarray, diag: np.ndarray) -> None:
        w = scatter_sum(self._w_h, hess_val, len(self._pos_w))
        w[self._w_d] += diag
        self.matrix.data[self._pos_w] = w

    def set_slack(self, neg_sig_s: np.ndarray) -> None:
        self.matrix.data[self._pos_s] = neg_sig_s


def _interior_start(x0, lb, ub, push):
    x = x0.copy()
    has_l, has_u = np.isfinite(lb), np.isfinite(ub)
    lb_f = np.where(has_l, lb, 0.0)
    ub_f = np.where(has_u, ub, 0.0)
    width = np.where(has_l & has_u, ub_f - lb_f, np.inf)
    pl = np.minimum(push * np.maximum(1.0, np.abs(lb_f)), 0.5 * width)
    pu = np.minimum(push * np.maximum(1.0, np.abs(ub_f)), 0.5 * width)
    x = np.where(has_l, np.maximum(x, lb_f + pl), x)
    x = np.where(has_u, np.minimum(x, ub_f - pu), x)
    return x


def solve(problem: NlpProblem, options: SolverOptions | None = None, start: np.ndarray | None = None) -> Solution:
    """Solve the program from the given start (default: the builder's flat start)."""
    opt = options or SolverOptions()
    if np.any(~np.isfinite(problem.b_eq)) or np.any(~np.isfinite(problem.cost)):
        raise ValueError("problem data contains NaN/inf")
    con = _Condensed(problem)
    n, m_eq, m_in = con.n, con.m_eq, con.m_in

    x_full0 = problem.start if start is None else np.asarray(start, dtype=float)
    if x_full0.shape != (problem.n_vars,):
        raise ValueError("start point has wrong dimension")
    x = _interior_start(x_full0[con.free], con.lb, con.ub, opt.bound_push)

    if n == 0:  # every variable pinned: pure feasibility check
        x_full = con.expand(x)
        feas = max(_inf_norm(con.c_eq(x)), _inf_norm(np.maximum(con.c_in(x), 0.0)) if m_in else 0.0)
        final = Solution(
            status="optimal" if feas <= opt.feas_tol else "infeasible",
            x=x_full,
            lam_eq=np.zeros(m_eq),
            nu_ineq=np.zeros(m_in),
            z_lower=np.maximum(problem.cost, 0.0),
            z_upper=np.maximum(-problem.cost, 0.0),
            objective=problem.eval_objective(x_full),
            kkt_residuals={},
            iterations=0,
        )
        final.kkt_residuals = _kkt_residuals(check_kkt(problem, final))
        return final

    has_l, has_u = np.isfinite(con.lb), np.isfinite(con.ub)
    lb_s = np.where(has_l, con.lb, 0.0)  # safe finite stand-ins, always masked
    ub_s = np.where(has_u, con.ub, 0.0)
    mu = opt.mu_init
    s = np.maximum(-con.c_in(x), 1e-2) if m_in else np.zeros(0)
    lam = np.zeros(m_eq)
    nu = np.full(m_in, mu) / np.maximum(s, 1e-8) if m_in else np.zeros(0)
    z_l = np.where(has_l, mu / np.maximum(x - lb_s, 1e-8), 0.0)
    z_u = np.where(has_u, mu / np.maximum(ub_s - x, 1e-8), 0.0)

    log: list[str] = []
    theta_best = np.inf
    stall = 0
    status = "iteration-limit"
    it = 0

    def residuals(x, s, lam, nu, z_l, z_u, mu):
        j_val = con.jac.values(x)
        r_d = con.cost + con.jac.rmatvec(j_val, lam) - z_l + z_u
        if m_in:
            r_d = r_d + con.a_in_t @ nu
        r_pe = con.c_eq(x)
        r_pi = con.c_in(x) + s if m_in else np.zeros(0)
        r_cl = np.where(has_l, (x - lb_s) * z_l - mu, 0.0)
        r_cu = np.where(has_u, (ub_s - x) * z_u - mu, 0.0)
        r_cs = s * nu - mu if m_in else np.zeros(0)
        return j_val, r_d, r_pe, r_pi, r_cl, r_cu, r_cs

    def kkt_error(r_d, r_pe, r_pi, r_cl, r_cu, r_cs, lam, nu, z_l, z_u):
        n_mult = m_eq + m_in + int(has_l.sum() + has_u.sum())
        total = np.abs(lam).sum() + np.abs(nu).sum() + np.abs(z_l).sum() + np.abs(z_u).sum()
        s_d = _multiplier_scale(total, n_mult)
        s_c = _multiplier_scale(np.abs(z_l).sum() + np.abs(z_u).sum() + np.abs(nu).sum(), n_mult)
        stat = _inf_norm(r_d) / s_d
        feas = max(_inf_norm(r_pe), _inf_norm(r_pi))
        comp = max(_inf_norm(r_cl), _inf_norm(r_cu), _inf_norm(r_cs)) / s_c
        return max(stat, feas, comp), stat, feas, comp

    def error_at(mu_val, j_r):
        _, r_d, r_pe, r_pi, _, _, _ = j_r
        r_cl = np.where(has_l, (x - lb_s) * z_l - mu_val, 0.0)
        r_cu = np.where(has_u, (ub_s - x) * z_u - mu_val, 0.0)
        r_cs = s * nu - mu_val if m_in else np.zeros(0)
        return kkt_error(r_d, r_pe, r_pi, r_cl, r_cu, r_cs, lam, nu, z_l, z_u)

    kkt = _Kkt(con, opt.reg_eq)
    delta_w_last = 0.0
    for it in range(1, opt.max_iter + 1):
        j_r = residuals(x, s, lam, nu, z_l, z_u, 0.0)
        j_val, r_d, r_pe, r_pi, _, _, _ = j_r
        err0, _, feas0, _ = error_at(0.0, j_r)
        if err0 <= opt.tol_kkt and feas0 <= opt.feas_tol:
            status = "optimal"
            break

        theta = max(_inf_norm(r_pe), _inf_norm(r_pi))
        if theta < theta_best * (1.0 - 1e-3):
            theta_best, stall = theta, 0
        else:
            stall += 1
        mult_norm = max(_inf_norm(lam), _inf_norm(nu))
        if (stall >= opt.stall_iters and theta_best > 1e3 * opt.tol_kkt) or mult_norm > 1e10:
            status = "infeasible"
            break

        # monotone barrier reduction once the subproblem is solved enough
        while mu > opt.tol_kkt / 100.0 and error_at(mu, j_r)[0] <= opt.mu_threshold * mu:
            mu = max(opt.tol_kkt / 100.0, mu * opt.mu_reduction)

        sig_x = np.where(has_l, z_l / np.maximum(x - lb_s, 1e-300), 0.0)
        sig_x = sig_x + np.where(has_u, z_u / np.maximum(ub_s - x, 1e-300), 0.0)
        hess_val = con.terms.hessian_values(lam)
        kkt.set_jacobian(j_val)
        if m_in:
            kkt.set_slack(-s / np.maximum(nu, 1e-300))

        v_l = np.where(has_l, mu / np.maximum(x - lb_s, 1e-300) - z_l, 0.0)
        v_u = np.where(has_u, mu / np.maximum(ub_s - x, 1e-300) - z_u, 0.0)
        rhs = np.concatenate(
            [
                -r_d + v_l - v_u,
                -r_pe,
                -(con.c_in(x) + mu / np.maximum(nu, 1e-300)) if m_in else np.zeros(0),
            ]
        )

        delta_w = 0.0 if delta_w_last == 0.0 else max(opt.reg_primal_init, 0.33 * delta_w_last)
        dx = dlam = dnu = None
        while True:
            kkt.set_w(hess_val, sig_x + delta_w)
            step = None
            try:
                step = spla.splu(kkt.matrix).solve(rhs)
            except RuntimeError:
                pass
            if step is not None and np.all(np.isfinite(step)):
                dx = step[:n]
                dlam = step[n : n + m_eq]
                dnu = step[n + m_eq :]
                curv = con.terms.curvature(lam, dx) + dx @ ((sig_x + delta_w) * dx)
                if curv >= -1e-10 * max(1.0, float(dx @ dx)):
                    break
                dx = None
            delta_w = opt.reg_primal_init if delta_w == 0.0 else delta_w * 10.0
            if delta_w > opt.reg_primal_max:
                break
        if dx is None or not np.all(np.isfinite(dx)):
            status = "iteration-limit"
            break
        delta_w_last = delta_w

        ds = (-(con.c_in(x) + s) - con.a_in @ dx) if m_in else np.zeros(0)

        # equality/inequality multipliers move with the primal step so the
        # Newton cancellation of the dual residual survives; the bound-dual
        # step is recomputed from the realized primal step, which keeps the
        # complementarity linearization consistent at any step size.
        tau = opt.tau
        alpha_p = _max_step(x - lb_s, dx, tau, has_l)
        alpha_p = min(alpha_p, _max_step(ub_s - x, -dx, tau, has_u))
        if m_in:
            alpha_p = min(alpha_p, _max_step(s, ds, tau))
            alpha_p = min(alpha_p, _max_step(nu, dnu, tau))

        norm0 = _merit_norm(residuals(x, s, lam, nu, z_l, z_u, mu))
        sig_l = np.where(has_l, z_l / np.maximum(x - lb_s, 1e-300), 0.0)
        sig_u = np.where(has_u, z_u / np.maximum(ub_s - x, 1e-300), 0.0)

        def trial(t: float):
            ap = t * alpha_p
            dxs = ap * dx
            dz_l = np.where(has_l, v_l - sig_l * dxs, 0.0)
            dz_u = np.where(has_u, v_u + sig_u * dxs, 0.0)
            ad = min(_max_step(z_l, dz_l, tau, has_l), _max_step(z_u, dz_u, tau, has_u))
            return (
                x + dxs,
                s + ap * ds if m_in else s,
                lam + ap * dlam,
                nu + ap * dnu if m_in else nu,
                z_l + ad * dz_l,
                z_u + ad * dz_u,
                ap,
                ad,
            )

        t = 1.0
        accepted = False
        for _ in range(10):
            xt, st, lt, nt, zlt, zut, ap, ad = trial(t)
            norm_t = _merit_norm(residuals(xt, st, lt, nt, zlt, zut, mu))
            if norm_t <= (1.0 - 1e-4 * t * alpha_p) * norm0 or norm_t < opt.tol_kkt:
                accepted = True
                break
            t *= 0.5
        if not accepted:
            xt, st, lt, nt, zlt, zut, ap, ad = trial(min(t, 1e-3))
        x, s, lam, nu, z_l, z_u = xt, st, lt, nt, zlt, zut
        # keep bound duals within a mu-proportional corridor around mu/gap
        k_sig = 1e10
        gap_l = np.maximum(x - lb_s, 1e-30)
        gap_u = np.maximum(ub_s - x, 1e-30)
        z_l = np.where(has_l, np.clip(z_l, mu / (k_sig * gap_l), k_sig * mu / gap_l), 0.0)
        z_u = np.where(has_u, np.clip(z_u, mu / (k_sig * gap_u), k_sig * mu / gap_u), 0.0)
        if m_in:
            nu = np.maximum(nu, 1e-16)
            s = np.maximum(s, 1e-16)

        log.append(
            f"iter {it:3d} obj {con.objective(x):+.8e} err {err0:.3e} mu {mu:.1e} "
            f"alpha {ap:.2e}/{ad:.2e} dw {delta_w:.1e}"
        )
        if opt.verbose:  # pragma: no cover - console aid
            print(log[-1])

    if status == "optimal" and n:
        x, lam = _refine_primal(con, x, lam)

    x_full = con.expand(x)
    lam_full = lam
    nu_full = nu
    zl_full = np.zeros(problem.n_vars)
    zu_full = np.zeros(problem.n_vars)
    zl_full[con.free] = z_l
    zu_full[con.free] = z_u
    if len(con.fixed):
        # bound multipliers of pinned variables absorb their stationarity rows
        resid = problem.cost + problem.eq_jacobian(x_full).T @ lam_full
        if problem.n_ineq:
            resid = resid + problem.a_ineq.T @ nu_full
        zl_full[con.fixed] = np.maximum(resid[con.fixed], 0.0)
        zu_full[con.fixed] = np.maximum(-resid[con.fixed], 0.0)

    final = Solution(
        status=status,
        x=x_full,
        lam_eq=lam_full,
        nu_ineq=nu_full,
        z_lower=zl_full,
        z_upper=zu_full,
        objective=problem.eval_objective(x_full),
        kkt_residuals={},
        iterations=it,
        log=log,
    )
    report = check_kkt(problem, final)
    final.kkt_residuals = _kkt_residuals(report)
    if status == "optimal" and report.max_residual > 10.0 * opt.tol_kkt:
        final.status = "iteration-limit"
    return final


def _merit_norm(res_tuple) -> float:
    _, r_d, r_pe, r_pi, r_cl, r_cu, r_cs = res_tuple
    parts = [r_d, r_pe, r_pi, r_cl, r_cu, r_cs]
    return float(np.sqrt(sum(float(p @ p) for p in parts if len(p))))


def _multiplier_scale(mult_sum: float, n_mult: int) -> float:
    """Scale of the dual and complementarity residuals: max(100, mean |multiplier|) / 100."""
    return max(100.0, mult_sum / max(1, n_mult)) / 100.0


def _inf_norm(v: np.ndarray) -> float:
    return float(np.max(np.abs(v))) if len(v) else 0.0


def _max_step(dist: np.ndarray, step: np.ndarray, tau: float, mask: np.ndarray | None = None) -> float:
    """Largest alpha <= 1 keeping dist + alpha*step >= (1 - tau)*dist."""
    if not len(dist):
        return 1.0
    neg = step < 0
    if mask is not None:
        neg = neg & mask
    if not np.any(neg):
        return 1.0
    ratio = -tau * dist[neg] / step[neg]
    return float(min(1.0, ratio.min()))


def _refine_primal(con: _Condensed, x: np.ndarray, lam: np.ndarray, passes: int = 2) -> tuple[np.ndarray, np.ndarray]:
    """Newton least-squares polish of the equality residuals.

    Only strictly interior variables move, so bound feasibility and the
    active-set structure are preserved; residuals of the (mostly linear)
    equalities drop to near machine precision.
    """
    margin = 1e-9
    for _ in range(passes):
        c = con.c_eq(x)
        if _inf_norm(c) <= 1e-12:
            break
        j = con.jac.matrix(con.jac.values(x))
        interior = np.ones(con.n, dtype=bool)
        interior &= ~np.isfinite(con.lb) | (x - con.lb > margin)
        interior &= ~np.isfinite(con.ub) | (con.ub - x > margin)
        jf = j[:, interior]
        normal = (jf.T @ jf + 1e-12 * sp.identity(int(interior.sum()))).tocsc()
        try:
            dxf = spla.splu(normal).solve(-jf.T @ c)
        except RuntimeError:
            break
        dx = np.zeros(con.n)
        dx[interior] = dxf
        alpha = min(
            _max_step(x - con.lb, dx, 1.0, np.isfinite(con.lb)),
            _max_step(con.ub - x, -dx, 1.0, np.isfinite(con.ub)),
        )
        x_new = np.clip(x + alpha * dx, con.lb, con.ub)
        if _inf_norm(con.c_eq(x_new)) < _inf_norm(c):
            x = x_new
        else:
            break
    return x, lam


@dataclass(frozen=True)
class KktReport:
    stationarity: float
    primal_eq: float
    primal_ineq: float
    bound_violation: float
    complementarity: float
    dual_feasibility: float

    @property
    def max_residual(self) -> float:
        return max(
            self.stationarity,
            self.primal_eq,
            self.primal_ineq,
            self.bound_violation,
            self.complementarity,
            self.dual_feasibility,
        )


def _kkt_residuals(report: KktReport) -> dict[str, float]:
    """The residuals a `Solution` carries, taken from its independent check."""
    return {"stationarity": report.stationarity, "feasibility_eq": report.primal_eq,
            "feasibility_ineq": report.primal_ineq, "complementarity": report.complementarity}


def check_kkt(problem: NlpProblem, solution: Solution) -> KktReport:
    """Independent first-order optimality check from problem data only.

    Recomputes every residual through the public evaluation API rather
    than reusing solver internals, with the same multiplier-size scaling
    the solver applies to its own termination test.
    """
    x = solution.x
    lam, nu = solution.lam_eq, solution.nu_ineq
    z_l, z_u = solution.z_lower, solution.z_upper

    grad = problem.objective_gradient(x) + problem.eq_jacobian(x).T @ lam
    if problem.n_ineq:
        grad = grad + problem.a_ineq.T @ nu
    grad = grad - z_l + z_u

    c_eq, c_in = problem.eval_constraints(x)
    has_l, has_u = np.isfinite(problem.lb), np.isfinite(problem.ub)
    lb_s = np.where(has_l, problem.lb, 0.0)
    ub_s = np.where(has_u, problem.ub, 0.0)
    bound_vio = max(
        _inf_norm(np.maximum(lb_s - x, 0.0)[has_l]) if has_l.any() else 0.0,
        _inf_norm(np.maximum(x - ub_s, 0.0)[has_u]) if has_u.any() else 0.0,
    )
    comp_parts = [
        np.where(has_l, (x - lb_s) * z_l, 0.0),
        np.where(has_u, (ub_s - x) * z_u, 0.0),
    ]
    if problem.n_ineq:
        comp_parts.append(c_in * nu)
    dual_neg = max(
        _inf_norm(np.minimum(z_l, 0.0)),
        _inf_norm(np.minimum(z_u, 0.0)),
        _inf_norm(np.minimum(nu, 0.0)) if problem.n_ineq else 0.0,
    )

    n_mult = problem.n_eq + problem.n_ineq + int(has_l.sum() + has_u.sum())
    total = np.abs(lam).sum() + np.abs(nu).sum() + np.abs(z_l).sum() + np.abs(z_u).sum()
    s_d = _multiplier_scale(total, n_mult)

    return KktReport(
        stationarity=_inf_norm(grad) / s_d,
        primal_eq=_inf_norm(c_eq),
        primal_ineq=_inf_norm(np.maximum(c_in, 0.0)) if problem.n_ineq else 0.0,
        bound_violation=bound_vio,
        complementarity=max(_inf_norm(p) for p in comp_parts) / s_d,
        dual_feasibility=dual_neg,
    )


def solve_multistart(
    problem: NlpProblem,
    options: SolverOptions | None = None,
    n_perturbed: int = 0,
    seed: int = 2024,
    scale: float = 0.02,
) -> Solution:
    """Flat start plus `n_perturbed` seeded perturbed starts; keep the best optimal solve.

    With the default of no perturbed starts this is exactly `solve(problem,
    options)`: the bound-push interior start is built to be used alone, and
    the discrete layer relies on it.
    """
    best = solve(problem, options)
    rng = np.random.default_rng(seed)
    free = ~problem.fixed_mask()
    for _ in range(n_perturbed):
        start = problem.start.copy()
        start[free] = start[free] + scale * rng.standard_normal(int(free.sum()))
        start = np.clip(start, problem.lb, problem.ub)
        cand = solve(problem, options, start=start)
        if cand.status == "optimal" and (best.status != "optimal" or cand.objective < best.objective - 1e-12):
            best = cand
    return best
