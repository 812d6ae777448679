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
trial point if none of ten trials does.  Variables with lb == ub are
condensed out before the iteration and reported with back-computed bound
multipliers.

Most equality rows of the tableau programs are identities x_a = +-x_b
(zero-impedance KCL/KVL, element stamps, i_p = -i_n, wind AC balance).
Before the iteration these alias rows are taken out (the doubleton-row
presolve of Andersen & Andersen, Math. Programming 71, 1995): each class
of aliased variables becomes one merged variable y, with x = P y for a
signed 0/+-1 map P, so the Newton matrix of the shipped 4 kV OPF shrinks
from 295 to 128 rows.  Every original bound keeps its own barrier term and
multiplier, acting on P y: Sig_x above is P^T Sig P and the bound part of
rhs_x is P^T(v_l - v_u).  The solution is reported in the full variable
space; the multipliers of the removed rows are recovered from the
stationarity of the eliminated variables by back-substitution over the
spanning forest of the alias rows, leaf to root.

Within one solve the sparsity of J_E, W and the Newton matrix never
changes, only the values do (the structure-reuse design of IPOPT, Waechter
& Biegler, Math. Programming 106, 2006).  Each solve therefore builds the
CSR pattern of J_E and the CSC pattern of the whole 2- or 3-block matrix
once, with index maps from every block into the matrix data; an iteration,
and each dw retry, only scatters values into that one persistent matrix
and factorizes it.  No sparse matrix is constructed inside the Newton loop.

The Newton matrix is symmetric and its regularised (2,2) block
(-dc*I, -Sig_s^-1) is negative definite; where W + Sig_x + dw*I is
positive definite too, the matrix is quasi-definite and has a factor with
diagonal pivots in any symmetric order (Vanderbei, SIAM J. Optim. 5,
1995).  That argument does not cover the Newton matrices of these
programs: at dw = 0 every merged variable with no finite bound and no
square term leaves an exactly zero diagonal (31 on the 4 kV OPF, where
SuperLU interchanges 4 rows).  What guards their steps is the backward
error.  Every factor first tries static diagonal pivots
(`diag_pivot_thresh=0`) in a minimum-degree ordering of K + K^T, about
half the fill of COLAMD with partial pivoting, and refines the step at
most twice; the step is kept only if ||rhs - K step||_inf is within
1e-10 max(1, ||rhs||_inf) (Arioli, Demmel & Duff, SIAM J. Matrix Anal.
Appl. 10, 1989).  Otherwise, or if SuperLU raises, that one matrix is
factorised again with COLAMD and threshold partial pivoting, and the next
factor tries static pivots again (the static pivoting of SuperLU_DIST,
Li & Demmel, ACM TOMS 29, 2003).  The ordering depends on the pattern
only, so it is computed once per solve, by the first static factor
SuperLU completes; the persistent matrix is then relaid in place in that
symmetric order and every later factor of the solve keeps it (`NATURAL`),
with the right-hand side permuted in and the step permuted out.  Every
factor uses one-column panels: the supernodes of these matrices are too
narrow for wider ones to pay.  The equality polish after the loop solves
its normal equations through the same static-then-threshold rule.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.sparse import csgraph

from .nlp import BilinearTerms, JacobianPattern, NlpProblem, scatter_sum


MU_INIT = 0.1
MU_REDUCTION = 0.2
MU_THRESHOLD = 10.0  # barrier subproblem accepted at E_mu <= threshold*mu
TAU = 0.995  # fraction-to-boundary
REG_EQ = 1e-8  # constant dual regularization
REG_PRIMAL_INIT = 1e-8
REG_PRIMAL_MAX = 1e8
FEAS_TOL = 1e-7
BOUND_PUSH = 1e-2
STALL_ITERS = 25
BACKWARD_ERROR = 1e-10  # accepted ||rhs - K step||_inf / max(1, ||rhs||_inf) of a static-pivot solve
REFINE_STEPS = 2  # iterative refinement steps on a static-pivot factor
PANEL_SIZE = 1  # SuperLU panel width: the Newton matrices' supernodes are too narrow for wider panels


@dataclass(frozen=True)
class SolverOptions:
    tol_kkt: float = 1e-6
    max_iter: int = 200

    def __post_init__(self):
        if self.tol_kkt <= 0 or self.max_iter < 1:
            raise ValueError("tol_kkt and max_iter must be positive")


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
    # Newton-matrix factorisations of the solve, and how many of them were
    # solved with threshold pivoting instead of static diagonal pivots
    factorizations: int = 0
    pivot_fallbacks: int = 0
    # fill-reducing orderings of the Newton matrix computed in the solve: 1
    # unless SuperLU raises before a static factor of the matrix completes
    orderings: int = 0

    def values(self, problem: NlpProblem) -> dict[str, float]:
        return {name: float(v) for name, v in zip(problem.var_names, self.x)}


class _Condensed:
    """The program the Newton loop iterates on, with exact sparse derivatives.

    Variables with lb == ub are substituted out first.  An equality row of
    the rest that reads a*x_u + b*x_v = 0 with |a| == |b| and no bilinear
    term is an alias row: x_v = +-x_u.  A spanning forest of the alias
    graph maps every free variable i to `sign[i] * y[col[i]]` of one merged
    variable y (the map P); tree rows hold by construction and leave the
    program, and so do the other alias rows that reduce to 0 = 0.  One that
    does not (a cycle whose signs force y = 0) stays an ordinary row, and a
    component whose members' boxes meet in an empty interior is not merged.
    `lb`/`ub` stay the bounds of the free variables, so each keeps its own
    barrier term, and `lo`/`up` index the free variables whose lower/upper
    bound is finite; `box_lb`/`box_ub` are the bounds' intersection per
    merged variable.
    """

    def __init__(self, problem: NlpProblem):
        self.problem = problem
        fixed = problem.fixed_mask()
        self.free = np.flatnonzero(~fixed)
        self.fixed = np.flatnonzero(fixed)
        self.x_fixed = problem.lb[self.fixed]
        self.n_free = len(self.free)
        self.lb = problem.lb[self.free]
        self.ub = problem.ub[self.free]
        self.lo = np.flatnonzero(np.isfinite(self.lb))
        self.up = np.flatnonzero(np.isfinite(self.ub))

        full_to_free = -np.ones(problem.n_vars, dtype=int)
        full_to_free[self.free] = np.arange(self.n_free)
        xfix = np.zeros(problem.n_vars)
        xfix[self.fixed] = self.x_fixed

        def condense_linear(a: sp.csr_matrix, b: np.ndarray):
            shift = b + a[:, self.fixed] @ self.x_fixed if len(self.fixed) else b.copy()
            return a[:, self.free].tocsr(), shift

        a_eq, b_eq = condense_linear(problem.a_eq, problem.b_eq)
        a_in, self.b_in = condense_linear(problem.a_ineq, problem.b_ineq)

        # split bilinear terms by how many of their factors stay free
        q = problem.bilinear
        fa, fb = full_to_free[q.a], full_to_free[q.b]
        both = (fa >= 0) & (fb >= 0)
        one = (fa >= 0) ^ (fb >= 0)
        none = (fa < 0) & (fb < 0)
        np.add.at(b_eq, q.row[none], q.coeff[none] * xfix[q.a[none]] * xfix[q.b[none]])
        if one.any():
            a_free = fa[one] >= 0
            lin_cols = np.where(a_free, fa[one], fb[one])
            lin_vals = q.coeff[one] * xfix[np.where(a_free, q.b[one], q.a[one])]
            a_eq = (a_eq + sp.csr_matrix((lin_vals, (q.row[one], lin_cols)), shape=a_eq.shape)).tocsr()
        a_eq.eliminate_zeros()

        kept = self._merge_aliases(a_eq, b_eq, q.row[both])
        merge = sp.csr_matrix((self.sign, (np.arange(self.n_free), self.col)), shape=(self.n_free, self.n))
        self.rows = np.flatnonzero(kept)
        self.a_eq = (a_eq[self.rows] @ merge).tocsr()
        self.a_eq.eliminate_zeros()
        self.b_eq = b_eq[self.rows]
        self.a_in = (a_in @ merge).tocsr()
        self.cost = self.restrict(problem.cost[self.free])
        self.m_eq = len(self.rows)
        self.m_in = self.a_in.shape[0]
        row_map = np.cumsum(kept) - 1
        ta, tb = fa[both], fb[both]
        self.terms = BilinearTerms(
            row_map[q.row[both]], self.col[ta], self.col[tb], q.coeff[both] * self.sign[ta] * self.sign[tb]
        )
        self.jac = JacobianPattern(self.a_eq, self.terms)
        self.a_in_t = self.a_in.T.tocsr()

        self.box_lb, self.box_ub = _intersect_boxes(self.col, self.sign, self.lb, self.ub, self.n)
        # merged start: the builder start of the member with the narrowest
        # box, the lowest index on ties
        order = np.lexsort((np.arange(self.n_free), self.ub - self.lb, self.col))
        rep = order[np.unique(self.col[order], return_index=True)[1]]
        self.start = self.sign[rep] * problem.start[self.free[rep]]

    def _merge_aliases(self, a: sp.csr_matrix, b: np.ndarray, bilinear_rows: np.ndarray) -> np.ndarray:
        """Set `col`, `sign`, `n` and the tree of removed rows; return the kept-row mask."""
        n = self.n_free
        alias = (np.diff(a.indptr) == 2) & (b == 0.0)
        alias[bilinear_rows] = False
        rows = np.flatnonzero(alias)
        k = a.indptr[rows]
        u, v = a.indices[k].astype(np.int64), a.indices[k + 1].astype(np.int64)
        cu, cv = a.data[k], a.data[k + 1]
        pair = np.abs(cu) == np.abs(cv)
        rows, u, v, cu, cv = rows[pair], u[pair], v[pair], cu[pair], cv[pair]
        edge_sign = np.where(cu == cv, -1.0, 1.0)  # x_v = edge_sign * x_u

        # spanning forest: breadth-first from a virtual node n joined to one root per component
        keys, first = np.unique(np.minimum(u, v) * n + np.maximum(u, v), return_index=True)
        graph = sp.csr_matrix((np.ones(len(first)), (u[first], v[first])), shape=(n, n))
        _, label = csgraph.connected_components(graph, directed=False)
        roots = np.unique(label, return_index=True)[1]
        forest = sp.csr_matrix(
            (np.ones(len(first) + len(roots)), (np.r_[u[first], np.full(len(roots), n)], np.r_[v[first], roots])),
            shape=(n + 1, n + 1),
        )
        parent = csgraph.breadth_first_order(forest, n, directed=False, return_predecessors=True)[1][:n]
        child = np.flatnonzero(parent != n)
        parent = np.where(parent == n, np.arange(n), parent)
        edge = first[np.searchsorted(keys, np.minimum(child, parent[child]) * n + np.maximum(child, parent[child]))]

        # sign and depth relative to the root, by pointer jumping
        root, sign, depth = parent, np.ones(n), np.zeros(n, dtype=int)
        sign[child], depth[child] = edge_sign[edge], 1
        while np.any(root != root[root]):
            sign, depth, root = sign * sign[root], depth + depth[root], root[root]

        box_lb, box_ub = _intersect_boxes(root, sign, self.lb, self.ub, n)
        merged = box_ub[root] > box_lb[root]
        root = np.where(merged, root, np.arange(n))
        self.sign = np.where(merged, sign, 1.0)
        roots, self.col = np.unique(root, return_inverse=True)
        self.n = len(roots)

        kept = np.ones(len(b), dtype=bool)
        kept[rows[merged[u] & (cu * self.sign[u] + cv * self.sign[v] == 0.0)]] = False
        # the removed tree rows, deepest child first, for the multiplier recovery
        tree = merged[child]
        child, edge = child[tree], edge[tree]
        by_depth = np.argsort(-depth[child], kind="stable")
        child, edge = child[by_depth], edge[by_depth]
        at_v = v[edge] == child
        self.tree_rows = rows[edge]
        self._child, self._parent = child, parent[child]
        self._a_child = np.where(at_v, cv[edge], cu[edge])
        self._a_parent = np.where(at_v, cu[edge], cv[edge])
        cuts = np.flatnonzero(np.diff(depth[child])) + 1
        self._levels = [slice(s, e) for s, e in zip(np.r_[0, cuts], np.r_[cuts, len(child)])]
        return kept

    def lift(self, y: np.ndarray) -> np.ndarray:
        """P y: the value of every free variable."""
        return self.sign * y[self.col]

    def restrict(self, v: np.ndarray) -> np.ndarray:
        """P^T v: a vector over the free variables summed onto the merged ones."""
        return scatter_sum(self.col, self.sign * v, self.n)

    def on_free(self, v_lo: np.ndarray, v_up: np.ndarray) -> np.ndarray:
        """A vector over the free variables: `v_lo` at `lo` plus `v_up` at `up`, 0 elsewhere."""
        v = np.zeros(self.n_free)
        v[self.lo] = v_lo
        v[self.up] += v_up
        return v

    def tree_multipliers(self, r: np.ndarray) -> np.ndarray:
        """Multipliers of `tree_rows` that zero the stationarity residual of every non-root member.

        `r` is that residual per free variable without the tree rows; the
        forest is back-substituted leaf to root, so each root keeps the
        residual of its merged variable.
        """
        r = r.copy()
        lam = np.empty(len(self.tree_rows))
        for level in self._levels:
            lam[level] = -r[self._child[level]] / self._a_child[level]
            np.add.at(r, self._parent[level], self._a_parent[level] * lam[level])
        return lam

    def expand(self, y: np.ndarray) -> np.ndarray:
        x = np.empty(self.problem.n_vars)
        x[self.free] = self.lift(y)
        x[self.fixed] = self.x_fixed
        return x

    def objective(self, x: np.ndarray) -> float:
        return float(self.cost @ x)

    def c_eq(self, x: np.ndarray) -> np.ndarray:
        return self.terms.add_values(self.a_eq @ x + self.b_eq, x)

    def c_in(self, x: np.ndarray) -> np.ndarray:
        return self.a_in @ x + self.b_in


def _intersect_boxes(group, sign, lb, ub, size):
    """Per group, the intersection of the boxes [lb, ub] of its members mapped by y = sign * x."""
    lo = np.full(size, -np.inf)
    hi = np.full(size, np.inf)
    np.maximum.at(lo, group, np.where(sign > 0, lb, -ub))
    np.minimum.at(hi, group, np.where(sign > 0, ub, -lb))
    return lo, hi


class _Kkt:
    """The Newton matrix of one solve: a fixed CSC pattern filled in place.

    The pattern is the union of every block's entries, built once; index
    maps place the W block (Hessian entries plus the Sig_x + dw diagonal),
    J_E and J_E^T, and -Sig_s into `matrix.data` each iteration.  A_I,
    A_I^T and -dc*I do not change within a solve and are written once.
    After the first static factor the matrix is held in that factor's
    symmetric order; `order` maps its positions back to the assembly order.
    `solve` owns the factorisation rule and counts the solve's
    factorisations, threshold-pivoting fallbacks and orderings.
    """

    def __init__(self, con: _Condensed):
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
        data[pos_dc] = -REG_EQ
        data[pos_a] = a_in.data
        data[pos_at] = a_in.data
        self.order = None  # assembly row and column per position, once `reorder` has run
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
        """Relay `matrix` in place as P K P^T: its row and column `order[k]` move to k.

        The same object keeps its arrays; the position maps follow, so later
        refills write into the permuted layout.
        """
        m = self.matrix
        size = m.shape[0]
        new_of_old = np.empty(size, dtype=np.int64)
        new_of_old[order] = np.arange(size)
        cols = np.repeat(np.arange(size), np.diff(m.indptr))
        keys = new_of_old[cols] * size + new_of_old[m.indices]
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
        self.order = order if self.order is None else self.order[order]

    def solve(self, rhs: np.ndarray) -> np.ndarray | None:
        """The step of the Newton matrix for `rhs`, or None if no factor of it gives one.

        The matrix is factorised with static diagonal pivots (`_static_step`)
        and, only if that step fails, again with threshold pivoting.  The
        first static factor SuperLU completes orders the matrix by minimum
        degree; `matrix` is relaid in that order whether or not its step
        passes, and every later factor keeps it (`NATURAL`), with the
        right-hand side permuted in and the step permuted out.
        """
        self.factorizations += 1
        if self.order is None:
            self.orderings += 1
            step, perm_c = _static_step(self.matrix, rhs, "MMD_AT_PLUS_A")
            if perm_c is not None:
                self.reorder(np.argsort(perm_c))
        else:
            step = self._unpermuted(_static_step(self.matrix, rhs[self.order], "NATURAL")[0])
        if step is not None:
            return step
        self.pivot_fallbacks += 1
        if self.order is None:
            return _threshold_step(self.matrix, rhs)
        return self._unpermuted(_threshold_step(self.matrix, rhs[self.order]))

    def _unpermuted(self, step_p: np.ndarray | None) -> np.ndarray | None:
        """A step of the reordered matrix in the assembly order."""
        if step_p is None:
            return None
        step = np.empty_like(step_p)
        step[self.order] = step_p
        return step


def _interior_start(x0, lb, ub):
    """x0 pushed inside each finite bound by BOUND_PUSH (relative, at most half the box width)."""
    x = x0.copy()
    half = 0.5 * (ub - lb)
    lo, up = np.flatnonzero(np.isfinite(lb)), np.flatnonzero(np.isfinite(ub))
    x[lo] = np.maximum(x[lo], lb[lo] + np.minimum(BOUND_PUSH * np.maximum(1.0, np.abs(lb[lo])), half[lo]))
    x[up] = np.minimum(x[up], ub[up] - np.minimum(BOUND_PUSH * np.maximum(1.0, np.abs(ub[up])), half[up]))
    return x


def solve(problem: NlpProblem, options: SolverOptions | None = None) -> Solution:
    """Solve the program from the builder's flat start."""
    opt = options or SolverOptions()
    if np.any(~np.isfinite(problem.b_eq)) or np.any(~np.isfinite(problem.cost)):
        raise ValueError("problem data contains NaN/inf")
    con = _Condensed(problem)
    n, m_eq, m_in = con.n, con.m_eq, con.m_in

    x = _interior_start(con.start, con.box_lb, con.box_ub)

    if n == 0:  # every variable pinned: pure feasibility check
        x_full = con.expand(x)
        feas = max(_inf_norm(con.c_eq(x)), _inf_norm(np.maximum(con.c_in(x), 0.0)))
        final = Solution(
            status="optimal" if feas <= FEAS_TOL else "infeasible",
            x=x_full,
            lam_eq=np.zeros(problem.n_eq),
            nu_ineq=np.zeros(problem.n_ineq),
            z_lower=np.maximum(problem.cost, 0.0),
            z_upper=np.maximum(-problem.cost, 0.0),
            objective=problem.eval_objective(x_full),
            kkt_residuals={},
            iterations=0,
        )
        final.kkt_residuals = _kkt_residuals(check_kkt(problem, final))
        return final

    # bounds, bound multipliers and their barrier terms live on the bounded
    # entries `lo`, `up` of the free variables P x; the Newton system sees
    # them through P^T
    lo, up = con.lo, con.up
    lb, ub = con.lb[lo], con.ub[up]

    def gaps(x):
        """Distances of the bounded free variables to their lower and upper bounds."""
        px = con.lift(x)
        return px[lo] - lb, ub - px[up]

    mu = MU_INIT
    d_l, d_u = gaps(x)
    s = np.maximum(-con.c_in(x), 1e-2)
    lam = np.zeros(m_eq)
    nu = np.full(m_in, mu) / np.maximum(s, 1e-8)
    z_l = mu / np.maximum(d_l, 1e-8)
    z_u = mu / np.maximum(d_u, 1e-8)

    log: list[str] = []
    theta_best = np.inf
    stall = 0
    status = "iteration-limit"
    it = 0

    def residuals(x, s, lam, nu, z_l, z_u, mu):
        j_val = con.jac.values(x)
        r_d = con.cost + con.jac.rmatvec(j_val, lam) + con.restrict(con.on_free(-z_l, z_u)) + con.a_in_t @ nu
        d_l, d_u = gaps(x)
        return j_val, r_d, con.c_eq(x), con.c_in(x) + s, d_l * z_l - mu, d_u * z_u - mu, s * nu - mu

    def kkt_error(r_d, r_pe, r_pi, r_cl, r_cu, r_cs, lam, nu, z_l, z_u):
        n_mult = m_eq + m_in + len(lo) + len(up)
        total = np.abs(lam).sum() + np.abs(nu).sum() + np.abs(z_l).sum() + np.abs(z_u).sum()
        s_d = _multiplier_scale(total, n_mult)
        s_c = _multiplier_scale(np.abs(z_l).sum() + np.abs(z_u).sum() + np.abs(nu).sum(), n_mult)
        stat = _inf_norm(r_d) / s_d
        feas = max(_inf_norm(r_pe), _inf_norm(r_pi))
        comp = max(_inf_norm(r_cl), _inf_norm(r_cu), _inf_norm(r_cs)) / s_c
        return max(stat, feas, comp), stat, feas, comp

    def at_mu(j_r, mu_val):
        """The residuals `j_r` of `residuals(..., 0.0)` with the complementarity rows shifted to mu_val."""
        j_val, r_d, r_pe, r_pi, r_cl, r_cu, r_cs = j_r
        return j_val, r_d, r_pe, r_pi, r_cl - mu_val, r_cu - mu_val, r_cs - mu_val

    def error_at(mu_val, j_r):
        return kkt_error(*at_mu(j_r, mu_val)[1:], lam, nu, z_l, z_u)

    kkt = _Kkt(con)
    delta_w_last = 0.0
    for it in range(1, opt.max_iter + 1):
        j_r = residuals(x, s, lam, nu, z_l, z_u, 0.0)
        j_val, r_d, r_pe, r_pi, _, _, _ = j_r
        err0, _, feas0, _ = error_at(0.0, j_r)
        if err0 <= opt.tol_kkt and feas0 <= FEAS_TOL:
            status = "optimal"
            break

        theta = max(_inf_norm(r_pe), _inf_norm(r_pi))
        if theta < theta_best * (1.0 - 1e-3):
            theta_best, stall = theta, 0
        else:
            stall += 1
        mult_norm = max(_inf_norm(lam), _inf_norm(nu))
        if (stall >= STALL_ITERS and theta_best > 1e3 * opt.tol_kkt) or mult_norm > 1e10:
            status = "infeasible"
            break

        # monotone barrier reduction once the subproblem is solved enough
        while mu > opt.tol_kkt / 100.0 and error_at(mu, j_r)[0] <= MU_THRESHOLD * mu:
            mu = max(opt.tol_kkt / 100.0, mu * MU_REDUCTION)

        sig_l = z_l / np.maximum(d_l, 1e-300)
        sig_u = z_u / np.maximum(d_u, 1e-300)
        sig_x = scatter_sum(con.col, con.on_free(sig_l, sig_u), n)  # P^T Sig P
        hess_val = con.terms.hessian_values(lam)
        kkt.set_jacobian(j_val)
        kkt.set_slack(-s / np.maximum(nu, 1e-300))

        v_l = mu / np.maximum(d_l, 1e-300) - z_l
        v_u = mu / np.maximum(d_u, 1e-300) - z_u
        rhs = np.concatenate(
            [-r_d + con.restrict(con.on_free(v_l, -v_u)), -r_pe, -(con.c_in(x) + mu / np.maximum(nu, 1e-300))]
        )

        delta_w = 0.0 if delta_w_last == 0.0 else max(REG_PRIMAL_INIT, 0.33 * delta_w_last)
        dx = dlam = dnu = None
        while True:
            kkt.set_w(hess_val, sig_x + delta_w)
            step = kkt.solve(rhs)
            if step is not None and np.all(np.isfinite(step)):
                dx = step[:n]
                dlam = step[n : n + m_eq]
                dnu = step[n + m_eq :]
                curv = con.terms.curvature(lam, dx) + dx @ ((sig_x + delta_w) * dx)
                if curv >= -1e-10 * max(1.0, float(dx @ dx)):
                    break
                dx = None
            delta_w = REG_PRIMAL_INIT if delta_w == 0.0 else delta_w * 10.0
            if delta_w > REG_PRIMAL_MAX:
                break
        if dx is None or not np.all(np.isfinite(dx)):
            status = "iteration-limit"
            break
        delta_w_last = delta_w

        ds = -(con.c_in(x) + s) - con.a_in @ dx

        # every block moves by the same step t*alpha along the Newton
        # direction, so backtracking shrinks the whole step towards the
        # iterate; alpha is the fraction-to-boundary step of all of them
        pdx = con.lift(dx)
        dz_l = v_l - sig_l * pdx[lo]
        dz_u = v_u + sig_u * pdx[up]
        alpha = min(
            _max_step(d_l, pdx[lo], TAU),
            _max_step(d_u, -pdx[up], TAU),
            _max_step(z_l, dz_l, TAU),
            _max_step(z_u, dz_u, TAU),
            _max_step(s, ds, TAU),
            _max_step(nu, dnu, TAU),
        )

        norm0 = _merit_norm(at_mu(j_r, mu))
        t = 1.0
        for backtracks in range(10):  # the last trial point is kept if none passes
            a = t * alpha
            trial = (x + a * dx, s + a * ds, lam + a * dlam, nu + a * dnu, z_l + a * dz_l, z_u + a * dz_u)
            norm_t = _merit_norm(residuals(*trial, mu))
            if norm_t <= (1.0 - 1e-4 * a) * norm0 or norm_t < opt.tol_kkt:
                break
            t *= 0.5
        x, s, lam, nu, z_l, z_u = trial
        # keep bound duals within a mu-proportional corridor around mu/gap
        k_sig = 1e10
        d_l, d_u = gaps(x)
        gap_l = np.maximum(d_l, 1e-30)
        gap_u = np.maximum(d_u, 1e-30)
        z_l = np.clip(z_l, mu / (k_sig * gap_l), k_sig * mu / gap_l)
        z_u = np.clip(z_u, mu / (k_sig * gap_u), k_sig * mu / gap_u)
        nu = np.maximum(nu, 1e-16)
        s = np.maximum(s, 1e-16)

        log.append(
            f"iter {it:3d} obj {con.objective(x):+.8e} err {err0:.3e} mu {mu:.1e} "
            f"alpha {a:.2e} ls {backtracks} dw {delta_w:.1e}"
        )

    final, report = _full_solution(con, status, x, lam, nu, z_l, z_u, it, log)
    if status == "optimal":
        # the polish can trade stationarity for feasibility: it is kept only
        # if the check of the whole solution gets no worse
        x_polished = _refine_primal(con, x)
        if x_polished is not x:
            polished, polished_report = _full_solution(con, status, x_polished, lam, nu, z_l, z_u, it, log)
            if polished_report.max_residual <= report.max_residual:
                final, report = polished, polished_report
        if report.max_residual > 10.0 * opt.tol_kkt:
            final.status = "iteration-limit"
    final.factorizations, final.pivot_fallbacks, final.orderings = (
        kkt.factorizations, kkt.pivot_fallbacks, kkt.orderings
    )
    return final


def _full_solution(con: _Condensed, status, x, lam, nu, z_l, z_u, iterations, log) -> tuple[Solution, KktReport]:
    """The iterate in the full variable space with every multiplier, and its `check_kkt` report."""
    problem = con.problem
    x_full = con.expand(x)
    lam_full = np.zeros(problem.n_eq)
    lam_full[con.rows] = lam
    zl_full = np.zeros(problem.n_vars)
    zu_full = np.zeros(problem.n_vars)
    zl_full[con.free[con.lo]] = z_l
    zu_full[con.free[con.up]] = z_u
    jac_t = problem.eq_jacobian(x_full).T.tocsr()
    a_in_t = problem.a_ineq.T.tocsr()

    def stationarity():
        return problem.cost + jac_t @ lam_full + a_in_t @ nu

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

    final = Solution(
        status=status,
        x=x_full,
        lam_eq=lam_full,
        nu_ineq=nu,
        z_lower=zl_full,
        z_upper=zu_full,
        objective=problem.eval_objective(x_full),
        kkt_residuals={},
        iterations=iterations,
        log=log,
    )
    report = check_kkt(problem, final)
    final.kkt_residuals = _kkt_residuals(report)
    return final, report


def _merit_norm(res_tuple) -> float:
    _, r_d, r_pe, r_pi, r_cl, r_cu, r_cs = res_tuple
    parts = [r_d, r_pe, r_pi, r_cl, r_cu, r_cs]
    return float(np.sqrt(sum(float(p @ p) for p in parts if len(p))))


def _multiplier_scale(mult_sum: float, n_mult: int) -> float:
    """Scale of the dual and complementarity residuals: max(100, mean |multiplier|) / 100."""
    return max(100.0, mult_sum / max(1, n_mult)) / 100.0


def _inf_norm(v: np.ndarray) -> float:
    return float(np.max(np.abs(v))) if len(v) else 0.0


def _max_step(dist: np.ndarray, step: np.ndarray, tau: float) -> float:
    """Largest alpha <= 1 keeping dist + alpha*step >= (1 - tau)*dist; an infinite `dist` never binds."""
    neg = step < 0
    return float(np.min(-tau * dist[neg] / step[neg], initial=1.0))


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
    for refinement in range(REFINE_STEPS + 1):
        if not np.all(np.isfinite(step)):
            break
        resid = rhs - matrix @ step
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


def _factor_solve(matrix: sp.csc_matrix, rhs: np.ndarray) -> tuple[np.ndarray | None, bool]:
    """Solve `matrix @ step = rhs` for a symmetric `matrix`; return the step and whether static pivots gave it.

    The step is `_static_step`'s in a minimum-degree order of K + K^T, or,
    if that step fails, `_threshold_step`'s.
    """
    step, _ = _static_step(matrix, rhs, "MMD_AT_PLUS_A")
    if step is not None:
        return step, True
    return _threshold_step(matrix, rhs), False


def _refine_primal(con: _Condensed, x: np.ndarray) -> np.ndarray:
    """Newton least-squares polish of the equality residuals.

    Only strictly interior variables move, so bound feasibility and the
    active-set structure are preserved; residuals of the (mostly linear)
    equalities drop to near machine precision.  Returns `x` itself if no
    step lowers them.
    """
    margin = 1e-9
    for _ in range(2):
        c = con.c_eq(x)
        if _inf_norm(c) <= 1e-12:
            break
        j = con.jac.matrix(con.jac.values(x))
        interior = (x - con.box_lb > margin) & (con.box_ub - x > margin)
        jf = j[:, interior]
        normal = (jf.T @ jf + 1e-12 * sp.identity(int(interior.sum()))).tocsc()
        dxf, _ = _factor_solve(normal, -jf.T @ c)
        if dxf is None:
            break
        dx = np.zeros(con.n)
        dx[interior] = dxf
        alpha = min(_max_step(x - con.box_lb, dx, 1.0), _max_step(con.box_ub - x, -dx, 1.0))
        x_new = np.clip(x + alpha * dx, con.box_lb, con.box_ub)
        if _inf_norm(con.c_eq(x_new)) < _inf_norm(c):
            x = x_new
        else:
            break
    return x


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

    grad = problem.objective_gradient(x) + problem.eq_jacobian(x).T @ lam + problem.a_ineq.T @ nu - z_l + z_u
    c_eq, c_in = problem.eval_constraints(x)
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


def solve_multistart(problem: NlpProblem, options: SolverOptions | None = None) -> Solution:
    """`solve(problem, options)` under the name the engine calls.

    `bench/tracing.py` patches `hvdcopf.ipm.solve_multistart` and
    `hvdcopf.engine.solve_multistart` at install, so the name stays until the
    tracer reads per-solve records instead. The call goes through the
    module-global `solve`, so a patched `solve` still sees every solve.
    """
    return solve(problem, options)
