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

Within one solve the sparsity of J_E, W and the Newton matrix never
changes, and each piece of work is done once per solve or once per point
(the structure-reuse design of IPOPT, Waechter & Biegler, Math.
Programming 106, 2006).  The condensed program is built by index
arithmetic on the problem's CSR arrays; the patterns of J_E and of the
whole 2- or 3-block matrix are built once, with index maps into the
matrix data, and an iteration, and each dw retry, only scatters values
into that one persistent matrix.  No sparse matrix is constructed inside
the Newton loop.  Residuals are evaluated once per point: every block of
the accepted line-search trial, with the complementarity products at
mu = 0, seeds the next iteration; the merit test takes mu off them.  The
barrier cut is closed-form: ||r - mu||_inf = max(max r - mu, mu - min r)
bit for bit for each complementarity block r (rounding is monotone).

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
the pattern only: the first static factor SuperLU completes computes it,
the persistent matrix is relaid in place in that symmetric order, and
every later factor of the solve keeps it (`NATURAL`).  Every factor uses
one-column panels: the supernodes of these matrices are too narrow for
wider ones to pay.  `_Kkt.solve` is the one place this rule lives.
"""

from __future__ import annotations

from dataclasses import astuple, dataclass, field

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .nlp import BilinearTerms, JacobianPattern, NlpProblem, scatter_sum


MU_INIT = 0.1
MU_REDUCTION = 0.2
MU_WARM = MU_INIT * MU_REDUCTION  # a warm start's first barrier parameter, the flat schedule's second
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
    # fill-reducing orderings of the Newton matrix computed in the solve: 1
    # unless SuperLU raises before a static factor of the matrix completes
    orderings: int = 0
    mirrored: bool = False  # solved on the symmetric half of its program's pole mirror
    problem: NlpProblem = field(kw_only=True, repr=False, compare=False)  # the program this solves

    def values(self) -> dict[str, float]:
        return {name: float(v) for name, v in zip(self.problem.var_names, self.x)}


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
        self.n_free = n_free = len(self.free)
        self.lb, self.ub = problem.lb[self.free], problem.ub[self.free]
        self.lo, self.up = np.flatnonzero(np.isfinite(self.lb)), np.flatnonzero(np.isfinite(self.ub))

        full_to_free = -np.ones(problem.n_vars, dtype=np.int64)
        full_to_free[self.free] = np.arange(n_free)
        xfix = np.zeros(problem.n_vars)
        xfix[self.fixed] = self.x_fixed

        def condense_linear(a: sp.csr_matrix, b: np.ndarray):
            """The entries of `a` in free columns as (row, free column, value) in CSR order, and b + A_fixed x_fixed."""
            row = np.repeat(np.arange(a.shape[0]), np.diff(a.indptr))
            col = full_to_free[a.indices]
            on = col >= 0
            shift = b + scatter_sum(row[~on], a.data[~on] * xfix[a.indices[~on]], len(b)) if len(self.fixed) else b.copy()
            return row[on], col[on], a.data[on], shift

        eq_row, eq_col, eq_val, b_eq = condense_linear(problem.a_eq, problem.b_eq)
        in_row, in_col, in_val, self.b_in = condense_linear(problem.a_ineq, problem.b_ineq)

        # split bilinear terms by how many of their factors stay free; a
        # term with one free factor is linear in it: each (row, free column)
        # entry sums its linear coefficient, then those terms in term order,
        # and entries that sum to 0 leave the pattern
        q = problem.bilinear
        fa, fb = full_to_free[q.a], full_to_free[q.b]
        both = (fa >= 0) & (fb >= 0)
        one = (fa >= 0) ^ (fb >= 0)
        none = (fa < 0) & (fb < 0)
        np.add.at(b_eq, q.row[none], q.coeff[none] * xfix[q.a[none]] * xfix[q.b[none]])
        a_free = fa[one] >= 0
        keys = np.concatenate([eq_row * n_free + eq_col, q.row[one] * n_free + np.where(a_free, fa[one], fb[one])])
        keys, at = np.unique(keys, return_inverse=True)
        eq_val = scatter_sum(at, np.concatenate([eq_val, q.coeff[one] * xfix[np.where(a_free, q.b[one], q.a[one])]]), len(keys))
        keys, eq_val = keys[eq_val != 0.0], eq_val[eq_val != 0.0]
        eq_row, eq_col = np.divmod(keys, max(n_free, 1))

        kept = self._merge_aliases(np.searchsorted(eq_row, np.arange(len(b_eq) + 1)), eq_col, eq_val, b_eq, q.row[both])
        kept = self._merge_mirror(problem, full_to_free, kept)
        self.rows = np.flatnonzero(kept)
        row_map = np.cumsum(kept) - 1
        on = kept[eq_row]
        self.m_eq, self.m_in = len(self.rows), problem.n_ineq
        self.a_eq, self.a_in = self._merged(np.concatenate([row_map[eq_row[on]], self.m_eq + in_row]),
                                            np.concatenate([eq_col[on], in_col]), np.concatenate([eq_val[on], in_val]),
                                            (self.m_eq, self.m_in))
        self.b_eq = b_eq[self.rows]
        self.a_in_t = self.a_in.T
        self.cost = self.restrict(problem.cost[self.free])
        ta, tb = fa[both], fb[both]
        term_sign = self.sign[ta] * self.sign[tb]
        live = kept[q.row[both]] & (term_sign != 0.0)  # a term on a pinned variable vanishes
        self.terms = BilinearTerms(row_map[q.row[both]][live], self.col[ta][live], self.col[tb][live],
                                   (q.coeff[both] * term_sign)[live])
        self.jac = JacobianPattern(self.a_eq, self.terms)

        live = np.flatnonzero(self.sign != 0.0)
        self.box_lb, self.box_ub = _intersect_boxes(self.col[live], self.sign[live], self.lb[live], self.ub[live], self.n)
        # each merged variable starts from its member with the narrowest box,
        # the lowest index on ties (lexsort is stable)
        order = live[np.lexsort(((self.ub - self.lb)[live], self.col[live]))]
        self._rep = order[np.unique(self.col[order], return_index=True)[1]]

    def _merge_aliases(self, indptr, cols, vals, b: np.ndarray, bilinear_rows: np.ndarray) -> np.ndarray:
        """Set `col`, `sign`, `n` and the tree of removed rows; return the kept-row mask.

        `indptr`, `cols`, `vals` are the sorted CSR arrays of the condensed A_E.
        """
        n = self.n_free
        alias = (np.diff(indptr) == 2) & (b == 0.0)
        alias[bilinear_rows] = False
        rows = np.flatnonzero(alias)
        k = indptr[rows]
        u, v = cols[k], cols[k + 1]
        cu, cv = vals[k], vals[k + 1]
        pair = np.abs(cu) == np.abs(cv)
        rows, u, v, cu, cv = rows[pair], u[pair], v[pair], cu[pair], cv[pair]
        edge_sign = np.where(cu == cv, -1.0, 1.0)  # x_v = edge_sign * x_u

        keys, first = np.unique(np.minimum(u, v) * n + np.maximum(u, v), return_index=True)
        parent = _breadth_first_forest(u[first], v[first], n)
        child = np.flatnonzero(parent != np.arange(n))
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
        self._levels = [slice(s, e) for s, e in zip([0, *cuts], [*cuts, len(child)])]
        return kept

    def _merge_mirror(self, problem: NlpProblem, full_to_free: np.ndarray, kept: np.ndarray) -> np.ndarray:
        """Merge each merged variable with its mirror image, a second signed map after P; return the kept-row mask.

        The mirror is the program's pole swap, `meta["mirror"]`, or the
        identity.  The builder verified that every array of the program is
        its own image, so the alias classes and the kept rows are too.  A
        merged variable and its image become one variable (`w_var` counts
        them), and one that is its own image with sign -1 is pinned at 0:
        its members get sign 0.  Of the kept rows, each mirrored pair keeps
        its first row (`w_eq` = 2), and a row that is its own image with
        sign -1 leaves: it reads 0 = 0.
        """
        n, m = self.n, len(kept)
        mirror = problem.meta.get("mirror")
        self.mirrored = mirror is not None
        var, var_sign, eq, eq_sign, ineq = mirror or (np.arange(problem.n_vars), np.ones(problem.n_vars), np.arange(m),
                                                      np.ones(m), np.arange(problem.n_ineq))
        # the members of merged variable c map into merged variable c_image[c], where y = tau[c] * y_c
        image, t = full_to_free[var[self.free]], var_sign[self.free]
        c_image, tau = np.empty(n, dtype=np.int64), np.empty(n)
        c_image[self.col], tau[self.col] = self.col[image], t * self.sign * self.sign[image]
        self._image, self._image_sign, self._ineq_image = image, t, ineq
        c = np.arange(n)
        pinned = (c_image == c) & (tau < 0.0)
        first = (c_image >= c) & ~pinned  # an orbit's first merged variable
        orbit = (np.cumsum(first) - 1)[np.minimum(c, c_image)]  # numbered in the order of the firsts
        self.w_var = np.bincount(orbit[~pinned], minlength=np.count_nonzero(first)).astype(float)
        to_first = np.where(first, 1.0, tau)  # y_c = to_first[c] * y of the orbit's first
        self.sign = np.where(pinned[self.col], 0.0, self.sign * to_first[self.col])
        self.col = np.where(pinned[self.col], 0, orbit[self.col])
        self.n = len(self.w_var)

        self.n_lam = np.count_nonzero(kept)  # the rows of the unmirrored program's multipliers
        r = np.arange(m)
        kept = kept & (eq >= r) & ~((eq == r) & (eq_sign < 0.0))
        rows = np.flatnonzero(kept)
        paired = eq[rows] != rows
        self.w_eq = np.where(paired, 2.0, 1.0)
        at = np.flatnonzero(paired)
        self._pairs = (at, eq[rows[at]], eq_sign[rows[at]])  # (position in rows, partner row, sign)
        return kept

    def fold(self, lam_full: np.ndarray) -> np.ndarray:
        """The multiplier of each kept row from multipliers of every program row: a mirrored pair's summed, signed."""
        lam = lam_full[self.rows]
        at, partner, sign = self._pairs
        lam[at] += sign * lam_full[partner]
        return lam

    def symmetric(self, z_l: np.ndarray, z_u: np.ndarray, nu: np.ndarray) -> tuple:
        """Bound and inequality multipliers averaged with their mirror images: a lower bound's image is the
        image variable's lower bound, or its upper bound under sign -1."""
        full_l, full_u = self.on_free(z_l, np.zeros(len(self.up))), self.on_free(np.zeros(len(self.lo)), z_u)
        flip = self._image_sign < 0.0
        image_l = np.where(flip, full_u[self._image], full_l[self._image])
        image_u = np.where(flip, full_l[self._image], full_u[self._image])
        return 0.5 * (z_l + image_l[self.lo]), 0.5 * (z_u + image_u[self.up]), 0.5 * (nu + nu[self._ineq_image])

    def _merged(self, row: np.ndarray, col: np.ndarray, val: np.ndarray, heights) -> list[sp.csr_matrix]:
        """A_k P as CSR for the matrices A_k over the free variables stacked in (row, col, val), in row order.

        `heights` are the row counts of the A_k.  Entries on one merged
        variable are summed in entry order, zero sums dropped.  Each row lists
        its merged columns in reverse order of their first entry, as the
        `scipy.sparse` product A @ P does; that order is the summation order
        of A y.
        """
        on = self.sign[col] != 0.0  # an entry on a pinned variable vanishes
        row, col, val = row[on], col[on], val[on]
        keys, first, at = np.unique(row * self.n + self.col[col], return_index=True, return_inverse=True)
        sums = scatter_sum(at, val * self.sign[col], len(keys))
        row, col = np.divmod(keys, max(self.n, 1))
        order = np.lexsort((-first, row))
        order = order[sums[order] != 0.0]
        tops = np.cumsum([0, *heights])
        indptr = np.searchsorted(row[order], np.arange(tops[-1] + 1))
        return [sp.csr_matrix((sums[order[indptr[a] : indptr[b]]], col[order[indptr[a] : indptr[b]]],
                               indptr[a : b + 1] - indptr[a]), shape=(b - a, self.n)) for a, b in zip(tops, tops[1:])]

    def interior(self, x_full: np.ndarray) -> np.ndarray:
        """y of a full-space point: each merged variable at its member's value, BOUND_PUSH inside its box."""
        y = self.sign[self._rep] * x_full[self.free[self._rep]]
        lb, ub = self.box_lb, self.box_ub
        half = 0.5 * (ub - lb)
        lo, up = np.flatnonzero(np.isfinite(lb)), np.flatnonzero(np.isfinite(ub))
        y[lo] = np.maximum(y[lo], lb[lo] + np.minimum(BOUND_PUSH * np.maximum(1.0, np.abs(lb[lo])), half[lo]))
        y[up] = np.minimum(y[up], ub[up] - np.minimum(BOUND_PUSH * np.maximum(1.0, np.abs(ub[up])), half[up]))
        return y

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
        x[self.free[self.sign == 0.0]] = 0.0  # pinned
        x[self.fixed] = self.x_fixed
        return x

    def c_eq(self, x: np.ndarray) -> np.ndarray:
        return self.terms.add_values(self.a_eq @ x + self.b_eq, x)

    def c_in(self, x: np.ndarray) -> np.ndarray:
        return self.a_in @ x + self.b_in


def _breadth_first_forest(u: np.ndarray, v: np.ndarray, n: int) -> np.ndarray:
    """The parent of each of n nodes in a breadth-first spanning forest of the undirected edges (u, v).

    Each component is rooted at its lowest node, its own parent, and a
    node's edges are taken as u, by v, then as v, by u: the forest
    `scipy.sparse.csgraph.breadth_first_order` gives from a node joined to
    each root.
    """
    ends, others = np.concatenate([u, v]), np.concatenate([v, u])
    order = np.lexsort((others, np.repeat([0, 1], len(u)), ends))
    adjacent = others[order].tolist()
    bounds = np.searchsorted(ends[order], np.arange(n + 1)).tolist()
    parent, seen = list(range(n)), [False] * n
    for root in range(n):
        if not seen[root]:
            seen[root] = True
            queue = [root]
            for p in queue:
                for q in adjacent[bounds[p] : bounds[p + 1]]:
                    if not seen[q]:
                        seen[q] = True
                        parent[q] = p
                        queue.append(q)
    return np.array(parent, dtype=np.int64)


def _intersect_boxes(group, sign, lb, ub, size):
    """Per group, the intersection of the boxes [lb, ub] of its members mapped by y = sign * x."""
    lo, hi = np.full(size, -np.inf), np.full(size, np.inf)
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
        var, eq, ineq = np.arange(n), n + np.arange(m_eq), n + m_eq + np.arange(m_in)
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
        data[pos_dc] = -REG_EQ / con.w_eq  # a kept pair row's multiplier is the pair's sum: -dc/2 is the whole -dc*I
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
        self.order = order

    def solve(self, rhs: np.ndarray) -> np.ndarray | None:
        """The step of the Newton matrix for `rhs`, or None if no factor of it gives one.

        Static diagonal pivots first (`_static_step`), threshold pivoting only
        if that step fails.  The first static factor SuperLU completes orders
        the matrix, which is relaid in that order (`reorder`) for every later
        factor, with the right-hand side permuted in and the step permuted out.
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


def solve(problem: NlpProblem, options: SolverOptions | None = None, start: Solution | None = None) -> Solution:
    """Solve the program from the builder's flat start, or warm from `start`, a solution of a program of its template."""
    opt = options or SolverOptions()
    if np.any(~np.isfinite(problem.b_eq)) or np.any(~np.isfinite(problem.cost)):
        raise ValueError("problem data contains NaN/inf")
    con = _Condensed(problem)
    n, m_eq, m_in = con.n, con.m_eq, con.m_in

    x = con.interior(problem.start if start is None else start.x)

    if n == 0:  # every variable pinned: a feasibility check; the bound multipliers take the cost
        feas = max(_inf_norm(con.c_eq(x)), _inf_norm(np.maximum(con.c_in(x), 0.0)))
        none = np.zeros(0)
        status = "optimal" if feas <= FEAS_TOL else "infeasible"
        return _full_solution(con, opt, status, x, np.zeros(m_eq), np.zeros(m_in), none, none, 0, [])

    # bounds, bound multipliers and their barrier terms live on the bounded
    # entries `lo`, `up` of the free variables P x; the Newton system sees
    # them through P^T
    lo, up = con.lo, con.up
    lb, ub = con.lb[lo], con.ub[up]

    def primal(x, lam):
        """The part of F_mu that x and lam alone fix: J_E values, cost + J_E^T lam, c_E, c_I and the bound gaps."""
        j_val = con.jac.values(x)
        px = con.lift(x)
        return j_val, con.cost + con.jac.rmatvec(j_val, lam), con.c_eq(x), con.c_in(x), px[lo] - lb, ub - px[up]

    def residuals(part, s, nu, z_l, z_u):
        """F_0 of the point with `primal` part `part`: r_d, r_pe, r_pi and the three complementarity products."""
        _, grad, c_eq, c_in, d_l, d_u = part
        r_d = grad + con.restrict(con.on_free(-z_l, z_u)) + con.a_in_t @ nu
        return r_d, c_eq, c_in + s, d_l * z_l, d_u * z_u, s * nu

    mu, lam, nu, z_l, z_u = MU_INIT, np.zeros(m_eq), 0.0, 0.0, 0.0  # the flat start: no multipliers
    if start is not None:
        by_row = dict(zip(start.problem.template_rows.tolist(), start.lam_eq.tolist()))
        lam = con.fold(np.array([by_row.get(r, 0.0) for r in problem.template_rows.tolist()]))
        mu = MU_WARM
        z_l, z_u, nu = con.symmetric(start.z_lower[con.free[lo]], start.z_upper[con.free[up]], start.nu_ineq)
    part = primal(x, lam)
    s = np.maximum(-part[3], 1e-2)
    nu = np.maximum(nu, mu / np.maximum(s, 1e-8))
    z_l = np.maximum(z_l, mu / np.maximum(part[4], 1e-8))
    z_u = np.maximum(z_u, mu / np.maximum(part[5], 1e-8))
    res = residuals(part, s, nu, z_l, z_u)

    log: list[str] = []
    theta_best = np.inf
    stall = 0
    status = "iteration-limit"

    kkt = _Kkt(con)
    delta_w_last = 0.0
    closing = None  # the first point that passes the termination test, while the step from it is tried
    for it in range(1, opt.max_iter + 2):
        # `part` and `res` are the accepted trial point's
        j_val, _, _, c_in, d_l, d_u = part
        r_d, r_pe, r_pi, r_cl, r_cu, r_cs = res
        error = _KktError(r_d / con.w_var, r_pe, r_pi, (r_cl, r_cu, r_cs), lam, nu, z_l, z_u, con.n_lam)
        err0 = error(0.0)
        passed = err0 <= opt.tol_kkt and error.feas <= FEAS_TOL
        if closing is not None:
            if not passed:
                x, s, lam, nu, z_l, z_u = closing
            break
        if passed:
            status, closing = "optimal", (x, s, lam, nu, z_l, z_u)
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

        gap_l, gap_u = np.maximum(d_l, 1e-300), np.maximum(d_u, 1e-300)
        sig_l, sig_u = z_l / gap_l, z_u / gap_u
        sig_x = scatter_sum(con.col, con.sign**2 * con.on_free(sig_l, sig_u), n)  # P^T Sig P
        hess_val = con.terms.hessian_values(lam)
        kkt.set_jacobian(j_val)
        kkt.set_slack(-s / np.maximum(nu, 1e-300))

        v_l, v_u = mu / gap_l - z_l, mu / gap_u - z_u
        rhs = np.concatenate([-r_d + con.restrict(con.on_free(v_l, -v_u)), -r_pe, -(c_in + mu / np.maximum(nu, 1e-300))])

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

        ds = -r_pi - con.a_in @ dx

        # every block moves by the same step t*alpha along the Newton
        # direction, so backtracking shrinks the whole step towards the
        # iterate; alpha is the fraction-to-boundary step of all of them
        pdx = con.lift(dx)
        dz_l, dz_u = v_l - sig_l * pdx[lo], v_u + sig_u * pdx[up]
        alpha = _max_step(np.concatenate([d_l, d_u, z_l, z_u, s, nu]),
                          np.concatenate([pdx[lo], -pdx[up], dz_l, dz_u, ds, dnu]))

        norm0 = _merit_norm(res, mu, con)
        t = 1.0
        for backtracks in range(10):  # the last trial point is kept if none passes; the closing step takes the first
            a = t * alpha
            x_t, s_t, lam_t, nu_t = x + a * dx, s + a * ds, lam + a * dlam, nu + a * dnu
            zl_t, zu_t = z_l + a * dz_l, z_u + a * dz_u
            part = primal(x_t, lam_t)
            res = residuals(part, s_t, nu_t, zl_t, zu_t)
            norm_t = _merit_norm(res, mu, con)
            if closing is not None or norm_t <= (1.0 - 1e-4 * a) * norm0 or norm_t < opt.tol_kkt:
                break
            t *= 0.5
        x, s, lam, nu, z_l, z_u = x_t, s_t, lam_t, nu_t, zl_t, zu_t

        log.append(
            f"iter {it:3d} obj {float(con.cost @ x):+.8e} err {err0:.3e} mu {mu:.1e} "
            f"alpha {a:.2e} ls {backtracks} dw {delta_w:.1e}"
        )
        if it == opt.max_iter and closing is None:  # the closing step is tested past max_iter
            break

    return _full_solution(con, opt, status, x, lam, nu, z_l, z_u, it, log, kkt)


def _full_solution(con: _Condensed, opt, status, x, lam, nu, z_l, z_u, iterations, log, kkt: _Kkt | None = None) -> Solution:
    """The iterate in the full variable space with every multiplier, its `check_kkt` report and `kkt`'s counters;
    an `optimal` status whose report exceeds 10 `opt.tol_kkt` becomes `iteration-limit`."""
    problem = con.problem
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
    r_d, r_pe, r_pi, *products = res
    parts = [(r_d, r_d / con.w_var), (r_pe, r_pe * con.w_eq), (r_pi, r_pi)] + [(p, p) for p in (r - mu for r in products)]
    return float(np.sqrt(sum(float(p @ q) for p, q in parts if len(p))))


class _KktError:
    """The solver's scaled KKT error of one point as a function of the barrier parameter mu.

    Stationarity and feasibility do not depend on mu.  Of each
    complementarity block r (its products at mu = 0) only max r and min r
    are kept: ||r - mu||_inf = max(max r - mu, mu - min r) bit for bit,
    because rounding is monotone, so each trial mu of the barrier update
    costs scalar arithmetic.
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
