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
The bound-multiplier direction follows from dx:
dz_l = mu/(x - l) - z_l - Sig_l dx and dz_u = mu/(u - x) - z_u + Sig_u dx.
One step length moves every block -- x, the slacks, lam, nu and the
bound multipliers z alike -- along the Newton direction: alpha is the
smallest fraction-to-boundary step (tau = 0.995) of x's bounds, s, nu and
z, and a backtracking line search halves t in t*alpha until the 2-norm of
the barrier residual F_mu decreases (Armijo), keeping the last, shortest
trial point if none of ten trials does.  The first point that passes the
termination test takes one more step of the same loop, at the current mu
and the full fraction-to-boundary step alpha, with no backtracking; the
new point is returned if it passes the same test, the converged one
otherwise.  The closing step cuts the residuals the test leaves (it
allows equality residuals up to 1e-7) in x and every multiplier together,
a full primal-dual Newton step (Waechter & Biegler, Math. Programming 106,
2006).  Variables with lb == ub are condensed out before the iteration
and reported with back-computed bound multipliers.

A solve starts flat from the builder's start, or warm from `start`, the
solution of another program of the same template: x by each merged
variable's member (below), lam by template row (0 where the start lacks the
row), nu and z as they are (on a mirrored program, see below).  Either
start is pushed inside the bounds and raises its multipliers to mu/gap, at
mu = MU_INIT flat and MU_WARM warm.

Most equality rows of the tableau programs are identities x_a = +-x_b
(zero-impedance KCL/KVL, element stamps, i_p = -i_n, wind AC balance).
Before the iteration `presolve` takes these alias rows out (the doubleton-
row presolve of Andersen & Andersen, Math. Programming 71, 1995): each class
of aliased variables becomes one merged variable y, with x = P y for a
signed 0/+-1 map P, so the Newton matrix of the shipped 4 kV OPF shrinks
from 295 to 128 rows.  Every original bound keeps its own barrier term and
multiplier, acting on P y: Sig_x above is P^T Sig P and the bound part of
rhs_x is P^T(v_l - v_u).  The solution is reported in the full variable
space; the multipliers of the removed rows are recovered from the
stationarity of the eliminated variables by back-substitution over the
spanning forest of the alias rows, leaf to root.

A program with a pole mirror, `meta["mirror"]` (the signed permutation of
variables and rows under which the builder verified every array exactly),
is solved on its symmetric half: the points the swap maps to themselves
(Liberti, Math. Programming 131, 2012).  After the alias forest each merged
variable is merged with its image, a second signed map Q like P, so x =
P Q z; a merged variable that is its own image with sign -1 is pinned at
0.  Each mirrored pair of equality rows keeps one row, whose multiplier is
the pair's signed sum, and a row that is its own image with sign -1 leaves,
as it reads 0 = 0 there.  Bounds, their multipliers, the inequality rows
and the slacks stay whole.  The iteration is the whole program's restricted
to the symmetric half: the merit norm and the KKT error weigh each entry of
r_d by one over its orbit's size and each kept row of a pair twice, the
multiplier count is the whole program's, dw and dc are scaled to match, and
a warm start's bound and inequality multipliers are averaged with their
images.  The solution is reported on the whole program: each row of a pair
takes half of its kept row's multiplier, with the row sign, and the
removed rows and pinned variables get theirs as above.  On `synth-scopf`
the Newton matrix shrinks from 3929 to 2076 rows.  A program without a
mirror runs the same code with the identity for Q.

Each piece of work is done once per template, once per solve or once per
point (the structure-reuse design of IPOPT, Waechter & Biegler, Math.
Programming 106, 2006).  A program selected from a compiled template
(`builder.ProgramTemplate`) is solved through the template's view
(`presolve._TemplateView`), built on the first solve of one of its programs: the
fixed-variable split, the condensed rows and the alias forest of the rows
every program keeps are built once, and each program selects its rows from
them.  Only a program that keeps variant alias rows (the symmetric rows of
beta = 1) searches the classes they touch again, and a mirrored program
quotients its own.  Within a solve the patterns of J_E and of the whole 2-
or 3-block matrix and its order are built once, with index maps into the
matrix data, and an iteration, and each dw retry, only scatters values into
that one persistent matrix.  The Newton loop runs on plain arrays: A_E x,
A_I x, A_I^T nu, A_I dx and K step are each one `scatter_sum` over a fixed
pattern, in the order the `scipy.sparse` product sums in, and the
complementarity pairs of the lower bounds, the upper bounds and the slacks
are one gap and one multiplier vector, so an iteration takes one product,
one Sigma, one fraction-to-boundary pass and one trial update.  Residuals
are evaluated once per point: every block of the accepted line-search
trial, with the complementarity products at mu = 0, seeds the next
iteration; the merit test takes mu off them.  The barrier cut is
closed-form: ||r - mu||_inf = max(max r - mu, mu - min r) bit for bit for
the complementarity products r (rounding is monotone).

The Newton matrix is symmetric with a negative definite regularised (2,2)
block; where W + Sig_x + dw*I is positive definite too, it is
quasi-definite and has a factor with diagonal pivots in any symmetric
order (Vanderbei, SIAM J. Optim. 5, 1995).  That does not cover these
programs: at dw = 0 every merged variable with no finite bound and no
square term leaves an exactly zero diagonal (31 on the 4 kV OPF).  The
backward error guards their steps instead.  Every factor first tries
static diagonal pivots in a minimum-degree ordering of K + K^T, about
half the fill of COLAMD with partial pivoting, refines the step at most
twice, and keeps it only if ||rhs - K step||_inf <= 1e-10 max(1,
||rhs||_inf) (Arioli, Demmel & Duff, SIAM J. Matrix Anal. Appl. 10,
1989).  Otherwise, or if SuperLU raises, that one matrix is factorised
again with COLAMD and threshold partial pivoting (the static pivoting of
SuperLU_DIST, Li & Demmel, ACM TOMS 29, 2003).  The ordering depends on
the pattern only: the first static factor SuperLU completes in a solve
computes it, the persistent matrix is relaid in place in that symmetric
order, and that factor's fallback and every later factor of the solve keep
it (`NATURAL`).  Each solve orders its own matrix, so no solve depends on
another.  Every factor uses one-column panels: the supernodes of these
matrices are too narrow for wider ones to pay.  `_Kkt.solve` is the one
place this rule lives.
"""

from __future__ import annotations

from dataclasses import astuple, dataclass, field

# `presolve` is imported, and so compiled from source, before scipy.sparse.linalg loads: its compile
# peak (about 2 MB) then falls below the memory the linalg import keeps, not on top of it
from .presolve import _Condensed, _product, _view

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .nlp import NlpProblem, scatter_sum


MU_INIT = 0.1
MU_REDUCTION = 0.2
MU_WARM = MU_INIT * MU_REDUCTION  # a warm start's first barrier parameter, the flat schedule's second
MU_THRESHOLD = 10.0  # barrier subproblem accepted at E_mu <= threshold*mu
TAU = 0.995  # fraction-to-boundary
REG_EQ = 1e-8  # constant dual regularization
REG_PRIMAL_INIT = 1e-8
REG_PRIMAL_MAX = 1e8
FEAS_TOL = 1e-7
STALL_ITERS = 25
BACKWARD_ERROR = 1e-10  # accepted ||rhs - K step||_inf / max(1, ||rhs||_inf) of a static-pivot solve
REFINE_STEPS = 2  # iterative refinement steps on a static-pivot factor
PANEL_SIZE = 1  # SuperLU panel width: the Newton matrices' supernodes are too narrow for wider panels


@dataclass(frozen=True)
class SolverOptions:
    tol_kkt: float = 1e-6
    max_iter: int = 200

    def __post_init__(self):
        for name, positive in (("tol_kkt", self.tol_kkt > 0), ("max_iter", self.max_iter >= 1)):
            if not positive:
                raise ValueError(f"{name}: must be positive, not {getattr(self, name)!r}")


@dataclass
class Solution:
    status: str  # 'optimal' | 'infeasible' | 'iteration-limit'
    x: np.ndarray
    lam_eq: np.ndarray
    nu_ineq: np.ndarray
    z_lower: np.ndarray
    z_upper: np.ndarray
    objective: float
    kkt: KktReport  # check_kkt of this solution, taken when the solver returns it
    iterations: int
    log: list[str] = field(default_factory=list)
    # Newton-matrix factorisations of the solve, and how many of them were
    # solved with threshold pivoting instead of static diagonal pivots
    factorizations: int = 0
    pivot_fallbacks: int = 0
    # fill-reducing orderings of the Newton matrix computed in the solve: 1,
    # more only where SuperLU raises before a static factor completes
    orderings: int = 0
    mirrored: bool = False  # solved on the symmetric half of its program's pole mirror
    problem: NlpProblem = field(kw_only=True, repr=False, compare=False)  # the program this solves

    def values(self) -> dict[str, float]:
        return {name: float(v) for name, v in zip(self.problem.var_names, self.x)}


class _Kkt:
    """The Newton matrix of one solve: a fixed CSC pattern filled in place.

    The pattern is the union of every block's entries, built once; index
    maps place the W block (Hessian entries plus the Sig_x + dw diagonal),
    J_E and J_E^T, and -Sig_s into `matrix.data` each iteration.  A_I,
    A_I^T and -dc*I do not change within a solve and are written once.
    The matrix is held in a symmetric order; `order` maps its positions
    back to the assembly order: the assembly order itself until the first
    static factor of the solve computes one.  `solve` owns the
    factorisation rule and counts the solve's factorisations,
    threshold-pivoting fallbacks and orderings.
    """

    def __init__(self, con: _Condensed):
        n, m_eq, m_in = con.n, con.m_eq, con.m_in
        size = n + m_eq + m_in
        jac, (in_row, in_col, in_val) = con.jac, con.a_in
        h_rows, h_cols = con.terms.hessian_entries()
        var, eq, ineq = np.arange(n), n + np.arange(m_eq), n + m_eq + np.arange(m_in)
        blocks = [
            (h_rows, h_cols),  # W: Hessian
            (var, var),  # W: Sig_x + dw
            (n + jac.row, jac.col),  # J_E
            (jac.col, n + jac.row),  # J_E^T
            (eq, eq),  # -dc*I
            (n + m_eq + in_row, in_col),  # A_I
            (in_col, n + m_eq + in_row),  # A_I^T
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
        data[pos_dc] = -REG_EQ / con.w_eq  # a kept pair row's multiplier is the pair's sum: -dc/2 is the whole -dc*I
        data[pos_a] = in_val
        data[pos_at] = in_val
        self.order, self.ordered = np.arange(size), False  # assembly row and column per position
        self.factorizations = self.pivot_fallbacks = self.orderings = 0

    def set_jacobian(self, j_val: np.ndarray) -> None:
        self.matrix.data[self._pos_j] = j_val
        self.matrix.data[self._pos_jt] = j_val

    def set_w(self, hess_val: np.ndarray, diag: np.ndarray) -> None:
        w = scatter_sum(self._w_h, hess_val, len(self._pos_w))
        w[self._w_d] += diag
        self.matrix.data[self._pos_w] = w

    def set_slack(self, neg_sig_s: np.ndarray) -> None:
        self.matrix.data[self._pos_s] = neg_sig_s

    def reorder(self, order: np.ndarray) -> None:
        """Relay `matrix` in place as P K P^T for the assembly order K: its row and column `order[k]` move to k.

        The same object keeps its arrays; the position maps follow, so later
        refills write into the permuted layout.
        """
        m = self.matrix
        size = m.shape[0]
        new_of_old = np.empty(size, dtype=np.int64)
        new_of_old[order] = np.arange(size)
        new_of_old = new_of_old[self.order]  # from the current layout
        keys = new_of_old[np.repeat(np.arange(size), np.diff(m.indptr))] * size + new_of_old[m.indices]
        old_at = np.argsort(keys)
        new_at = np.empty_like(old_at)
        new_at[old_at] = np.arange(len(old_at))
        keys = keys[old_at]
        m.data[:] = m.data[old_at]
        m.indices[:] = keys % size
        m.indptr[:] = np.searchsorted(keys // size, np.arange(size + 1))
        self._pos_w, self._pos_j, self._pos_jt, self._pos_s = (
            new_at[p] for p in (self._pos_w, self._pos_j, self._pos_jt, self._pos_s)
        )
        self.order = order

    def solve(self, rhs: np.ndarray) -> np.ndarray | None:
        """The step of the Newton matrix for `rhs`, or None if no factor of it gives one.

        Static diagonal pivots first (`_static_step`), threshold pivoting only
        if that step fails, on the matrix as it is laid out then.  The first
        static factor SuperLU completes orders the matrix, which is relaid in
        that order (`reorder`) before that factor's fallback and every later
        one of the solve.
        """
        self.factorizations += 1
        self.orderings += not self.ordered
        order = self.order
        step, perm_c = _static_step(self.matrix, rhs[order], "NATURAL" if self.ordered else "MMD_AT_PLUS_A")
        if not self.ordered and perm_c is not None:
            self.reorder(np.argsort(perm_c))
            self.ordered = True
        if step is None:
            self.pivot_fallbacks += 1
            order = self.order
            step = _threshold_step(self.matrix, rhs[order])
        if step is None:
            return None
        unpermuted = np.empty_like(step)
        unpermuted[order] = step
        return unpermuted


def solve(problem: NlpProblem, options: SolverOptions | None = None, start: Solution | None = None) -> Solution:
    """Solve the program from the builder's flat start, or warm from `start`, a solution of a program of its template."""
    opt = options or SolverOptions()
    if not all(np.isfinite(a).all() for a in (problem.b_eq, problem.b_ineq, problem.cost)):
        raise ValueError("problem data contains NaN/inf")
    if start is not None and start.problem.var_names != problem.var_names:
        raise ValueError("the start's program has other variables than this one")
    con = _view(problem)
    n, m_eq, m_in = con.n, con.m_eq, con.m_in
    # the complementarity pairs as one gap and one multiplier vector: the finite bounds of the free
    # variables P x, lower then upper (`bounded`), with z_l and z_u, then the slacks s with nu
    bounded, bounds, bound_sign = con.bounded, con.bounds, con.bound_sign
    n_l, n_b = len(con.lo), len(bounded)

    x = con.interior(problem.start if start is None else start.x)

    if n == 0:  # every variable pinned: a feasibility check; the bound multipliers take the cost
        feas = max(_inf_norm(con.c_eq(x)), _inf_norm(np.maximum(con.c_in(x), 0.0)))
        status = "optimal" if feas <= FEAS_TOL else "infeasible"
        return _full_solution(con, opt, status, x, np.zeros(m_eq), np.zeros(n_b + m_in), 0, [])

    in_row, in_col, in_val = con.a_in
    sign2, neg_sign, col_b, sign_b = con.sign**2, -bound_sign, con.col[bounded], con.sign[bounded]  # P x at `bounded`

    def primal(x, lam):
        """The part of F_mu that x and lam alone fix: J_E values, cost + J_E^T lam, c_E, c_I and the bound gaps."""
        j_val = con.jac.values(x)
        return j_val, con.cost + con.jac.rmatvec(j_val, lam), con.c_eq(x), con.c_in(x), bound_sign * (sign_b * x[col_b] - bounds)

    def residuals(part, gap, mult):
        """F_0 of the point with `primal` part `part`: r_d, r_pe, r_pi and the complementarity products."""
        _, grad, c_eq, c_in, _ = part
        r_d = grad + con.restrict(con.on_free(neg_sign * mult[:n_b])) + scatter_sum(in_col, in_val * mult[n_b:][in_row], n)
        return r_d, c_eq, c_in + gap[n_b:], gap * mult

    mu, lam, mult = MU_INIT, np.zeros(m_eq), 0.0  # the flat start: no multipliers
    if start is not None:
        by_row = dict(zip(start.problem.template_rows.tolist(), start.lam_eq.tolist()))
        lam = con.fold(np.array([by_row.get(r, 0.0) for r in problem.template_rows.tolist()]))
        mu = MU_WARM
        mult = con.symmetric(np.concatenate([start.z_lower[con.free[con.lo]], start.z_upper[con.free[con.up]],
                                             start.nu_ineq]))
    part = primal(x, lam)
    gap = np.concatenate([part[4], np.maximum(-part[3], 1e-2)])
    mult = np.maximum(mult, mu / np.maximum(gap, 1e-8))
    res = residuals(part, gap, mult)

    log: list[str] = []
    theta_best = np.inf
    stall = 0
    status = "iteration-limit"

    kkt = _Kkt(con)
    delta_w_last = 0.0
    merit = None  # (mu, the merit norm of `res` at that mu): the accepted trial's, from its line search
    closing = None  # the first point that passes the termination test, while the step from it is tried
    for it in range(1, opt.max_iter + 2):
        # `part` and `res` are the accepted trial point's
        j_val, _, _, c_in, _ = part
        r_d, r_pe, r_pi, r_c = res
        nu = mult[n_b:]
        error = _KktError(r_d / con.w_var, r_pe, r_pi, (r_c,), lam, nu, mult[:n_l], mult[n_l:n_b], con.n_lam)
        err0 = error(0.0)
        passed = err0 <= opt.tol_kkt and error.feas <= FEAS_TOL
        if closing is not None:
            if not passed:
                x, lam, gap, mult = closing
            break
        if passed:
            status, closing = "optimal", (x, lam, gap, mult)
        else:
            if error.feas < theta_best * (1.0 - 1e-3):
                theta_best, stall = error.feas, 0
            else:
                stall += 1
            mult_norm = max(_inf_norm(lam / con.w_eq), _inf_norm(nu))
            if (stall >= STALL_ITERS and theta_best > 1e3 * opt.tol_kkt) or mult_norm > 1e10:
                status = "infeasible"
                break

        # monotone barrier reduction once the subproblem is solved enough
        while mu > opt.tol_kkt / 100.0 and error(mu) <= MU_THRESHOLD * mu:
            mu = max(opt.tol_kkt / 100.0, mu * MU_REDUCTION)

        gap_b, nu_safe = np.maximum(gap[:n_b], 1e-300), np.maximum(nu, 1e-300)
        sig = mult[:n_b] / gap_b
        sig_x = scatter_sum(con.col, sign2 * con.on_free(sig), n)  # P^T Sig P
        hess_val = con.terms.hessian_values(lam)
        kkt.set_jacobian(j_val)
        kkt.set_slack(-gap[n_b:] / nu_safe)

        v_b = mu / gap_b - mult[:n_b]
        rhs = np.concatenate([-r_d + con.restrict(con.on_free(bound_sign * v_b)), -r_pe, -(c_in + mu / nu_safe)])

        delta_w = 0.0 if delta_w_last == 0.0 else max(REG_PRIMAL_INIT, 0.33 * delta_w_last)
        dx = dlam = dnu = None
        while True:
            diag = sig_x + delta_w * con.w_var  # dw*I on each merged variable of an orbit
            kkt.set_w(hess_val, diag)
            step = kkt.solve(rhs)
            if step is not None and np.all(np.isfinite(step)):
                dx, dlam, dnu = step[:n], step[n : n + m_eq], step[n + m_eq :]
                curv = con.terms.curvature(lam, dx) + dx @ (diag * dx)
                if curv >= -1e-10 * max(1.0, float(dx @ (con.w_var * dx))):
                    break
                dx = None
            delta_w = REG_PRIMAL_INIT if delta_w == 0.0 else delta_w * 10.0
            if delta_w > REG_PRIMAL_MAX:
                break
        if dx is None:
            break
        delta_w_last = delta_w

        # every block moves by the same step t*alpha along the Newton
        # direction, so backtracking shrinks the whole step towards the
        # iterate; alpha is the fraction-to-boundary step of all of them
        ds = -r_pi - _product(con.a_in, dx, m_in)
        d_gap = np.concatenate([bound_sign * (sign_b * dx[col_b]), ds])
        d_mult = np.concatenate([v_b - sig * d_gap[:n_b], dnu])
        alpha = _max_step(np.concatenate([gap, mult]), np.concatenate([d_gap, d_mult]))

        norm0 = merit[1] if merit is not None and merit[0] == mu else _merit_norm(res, mu, con)
        t = 1.0
        for backtracks in range(10):  # the last trial point is kept if none passes; the closing step takes the first
            a = t * alpha
            x_t, lam_t, mult_t = x + a * dx, lam + a * dlam, mult + a * d_mult
            part = primal(x_t, lam_t)
            gap_t = np.concatenate([part[4], gap[n_b:] + a * ds])
            res = residuals(part, gap_t, mult_t)
            norm_t = _merit_norm(res, mu, con)
            if closing is not None or norm_t <= (1.0 - 1e-4 * a) * norm0 or norm_t < opt.tol_kkt:
                break
            t *= 0.5
        x, lam, gap, mult, merit = x_t, lam_t, gap_t, mult_t, (mu, norm_t)

        log.append(
            f"iter {it:3d} obj {float(con.cost @ x):+.8e} err {err0:.3e} mu {mu:.1e} "
            f"alpha {a:.2e} ls {backtracks} dw {delta_w:.1e}"
        )
        if it == opt.max_iter and closing is None:  # the closing step is tested past max_iter
            break

    return _full_solution(con, opt, status, x, lam, mult, it, log, kkt)


def _full_solution(con: _Condensed, opt, status, x, lam, mult, iterations, log, kkt: _Kkt | None = None) -> Solution:
    """The iterate in the full variable space with every multiplier, its `check_kkt` report and `kkt`'s counters;
    an `optimal` status whose report exceeds 10 `opt.tol_kkt` becomes `iteration-limit`.

    `mult` holds the bound multipliers z_l, z_u, then the inequality multipliers nu.
    """
    problem = con.problem
    n_l, n_b = len(con.lo), len(con.bounded)
    z_l, z_u, nu = mult[:n_l], mult[n_l:n_b], mult[n_b:]
    x_full = con.expand(x)
    lam_full = np.zeros(problem.n_eq)
    lam_full[con.rows] = lam / con.w_eq  # each row of a mirrored pair takes half, with its sign
    at, partner, sign = con._pairs
    lam_full[partner] = sign * lam_full[con.rows[at]]
    zl_full = np.zeros(problem.n_vars)
    zu_full = np.zeros(problem.n_vars)
    zl_full[con.free[con.lo]] = z_l
    zu_full[con.free[con.up]] = z_u

    def stationarity():
        return problem.lagrangian_gradient(x_full, lam_full, nu)

    # removed tree rows take the multipliers that zero the stationarity of
    # their eliminated members; removed rows off the forest keep 0
    r_free = stationarity()[con.free]
    r_free[con.lo] -= z_l
    r_free[con.up] += z_u
    lam_full[con.tree_rows] = con.tree_multipliers(r_free)
    if len(con.fixed):
        # bound multipliers of pinned variables absorb their stationarity rows
        resid = stationarity()
        zl_full[con.fixed] = np.maximum(resid[con.fixed], 0.0)
        zu_full[con.fixed] = np.maximum(-resid[con.fixed], 0.0)

    counts = (kkt.factorizations, kkt.pivot_fallbacks, kkt.orderings) if kkt else ()
    final = Solution(status, x_full, lam_full, nu, zl_full, zu_full, problem.eval_objective(x_full), None, iterations,
                     log, *counts, mirrored=con.mirrored, problem=problem)
    final.kkt = check_kkt(problem, final)
    if status == "optimal" and final.kkt.max_residual > 10.0 * opt.tol_kkt:
        final.status = "iteration-limit"
    return final




def _merit_norm(res, mu: float, con: _Condensed) -> float:
    """The 2-norm of F_mu from the blocks of F_0: mu is taken off the three complementarity products.

    It is the norm over the unmirrored program: a merged variable's r_d is
    its orbit's over the orbit's size, and a kept row of a mirrored pair
    counts twice.
    """
    r_d, r_pe, r_pi, r_c = res
    n_l, n_b, r_c = len(con.lo), len(con.bounded), r_c - mu
    parts = [(r_d, r_d / con.w_var), (r_pe, r_pe * con.w_eq), (r_pi, r_pi)] + [(p, p) for p in (r_c[:n_l], r_c[n_l:n_b], r_c[n_b:])]
    return float(np.sqrt(sum(float(p @ q) for p, q in parts if len(p))))


class _KktError:
    """The solver's scaled KKT error of one point as a function of the barrier parameter mu.

    Stationarity and feasibility do not depend on mu.  Of each
    complementarity block r (its products at mu = 0; the solver passes them
    all as one) only max r and min r are kept: ||r - mu||_inf = max(max r -
    mu, mu - min r) bit for bit, because rounding is monotone, so each trial
    mu of the barrier update costs scalar arithmetic.
    """

    def __init__(self, r_d, r_pe, r_pi, products, lam, nu, z_l, z_u, n_lam):
        n_mult = n_lam + len(nu) + len(z_l) + len(z_u)  # n_lam: the equality multipliers of the unmirrored program
        l1_lam, l1_nu, l1_zl, l1_zu = (np.abs(v).sum() for v in (lam, nu, z_l, z_u))
        self.feas = max(_inf_norm(r_pe), _inf_norm(r_pi))
        self._stat = _inf_norm(r_d) / _multiplier_scale(l1_lam + l1_nu + l1_zl + l1_zu, n_mult)
        self._s_c = _multiplier_scale(l1_zl + l1_zu + l1_nu, n_mult)
        self._ends = [(r.max(), r.min()) for r in products if len(r)]

    def __call__(self, mu: float) -> float:
        comp = max((max(hi - mu, mu - lo) for hi, lo in self._ends), default=0.0) / self._s_c
        return max(self._stat, self.feas, comp)


def _multiplier_scale(mult_sum: float, n_mult: int) -> float:
    """Scale of the dual and complementarity residuals: max(100, mean |multiplier|) / 100."""
    return max(100.0, mult_sum / max(1, n_mult)) / 100.0


def _inf_norm(v: np.ndarray) -> float:
    return float(np.abs(v).max()) if len(v) else 0.0


def _max_step(dist: np.ndarray, step: np.ndarray) -> float:
    """Largest alpha <= 1 keeping dist + alpha*step >= (1 - TAU)*dist; an infinite `dist` never binds."""
    neg = step < 0
    return float(np.min(-TAU * dist[neg] / step[neg], initial=1.0))


def _static_step(matrix: sp.csc_matrix, rhs: np.ndarray, permc_spec: str) -> tuple[np.ndarray | None, np.ndarray | None]:
    """The step of a static-pivot factor of `matrix` in the `permc_spec` order, and that factor's column order.

    The matrix is factorised with diagonal pivots and the step refined at
    most `REFINE_STEPS` times; the step is None unless its backward error is
    within `BACKWARD_ERROR`, and both are None if SuperLU raises.
    """
    try:
        lu = spla.splu(
            matrix, permc_spec=permc_spec, diag_pivot_thresh=0.0, panel_size=PANEL_SIZE, options={"SymmetricMode": True}
        )
    except RuntimeError:
        return None, None
    step = lu.solve(rhs)
    bound = BACKWARD_ERROR * max(1.0, _inf_norm(rhs))
    cols = np.repeat(np.arange(matrix.shape[1]), np.diff(matrix.indptr))
    for refinement in range(REFINE_STEPS + 1):
        if not np.all(np.isfinite(step)):
            break
        resid = rhs - scatter_sum(matrix.indices, matrix.data * step[cols], len(rhs))  # K step, as `csc_matvec` sums it
        if _inf_norm(resid) <= bound:
            return step, lu.perm_c
        if refinement < REFINE_STEPS:
            step = step + lu.solve(resid)
    return None, lu.perm_c


def _threshold_step(matrix: sp.csc_matrix, rhs: np.ndarray) -> np.ndarray | None:
    """The step of a COLAMD, threshold partial pivoting factor of `matrix`; None if SuperLU raises."""
    try:
        return spla.splu(matrix, panel_size=PANEL_SIZE).solve(rhs)
    except RuntimeError:
        return None


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
        return max(astuple(self))


def check_kkt(problem: NlpProblem, solution: Solution) -> KktReport:
    """Independent first-order optimality check from problem data only.

    Recomputes every residual through the public evaluation API rather
    than reusing solver internals, with the same multiplier-size scaling
    the solver applies to its own termination test.
    """
    x = solution.x
    lam, nu = solution.lam_eq, solution.nu_ineq
    z_l, z_u = solution.z_lower, solution.z_upper

    grad = problem.lagrangian_gradient(x, lam, nu) - z_l + z_u
    c_eq, c_in = problem.eval_eq(x), problem.eval_ineq(x)
    lo, up = np.flatnonzero(np.isfinite(problem.lb)), np.flatnonzero(np.isfinite(problem.ub))
    gap_l, gap_u = x[lo] - problem.lb[lo], problem.ub[up] - x[up]

    n_mult = problem.n_eq + problem.n_ineq + len(lo) + len(up)
    total = np.abs(lam).sum() + np.abs(nu).sum() + np.abs(z_l).sum() + np.abs(z_u).sum()
    s_d = _multiplier_scale(total, n_mult)

    return KktReport(
        stationarity=_inf_norm(grad) / s_d,
        primal_eq=_inf_norm(c_eq),
        primal_ineq=_inf_norm(np.maximum(c_in, 0.0)),
        bound_violation=max(_inf_norm(np.minimum(gap_l, 0.0)), _inf_norm(np.minimum(gap_u, 0.0))),
        complementarity=max(_inf_norm(gap_l * z_l[lo]), _inf_norm(gap_u * z_u[up]), _inf_norm(c_in * nu)) / s_d,
        dual_feasibility=max(_inf_norm(np.minimum(v, 0.0)) for v in (z_l, z_u, nu)),
    )


def solve_multistart(problem: NlpProblem, options: SolverOptions | None = None, start: Solution | None = None) -> Solution:
    """`solve(problem, options, start)` under the name the engine calls and `bench/tracing.py` patches.

    It calls the module-global `solve`, so a patched `solve` still sees every solve, warm or flat.
    """
    return solve(problem, options, start)
