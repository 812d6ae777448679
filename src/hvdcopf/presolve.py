"""The program the interior-point loop iterates on: a compiled program presolved once per template.

Variables with lb == ub are condensed out, the alias rows x_a = +-x_b are
merged into one variable per class (the doubleton-row presolve of Andersen
& Andersen, Math. Programming 71, 1995), and a program with a pole mirror
is quotiented onto its symmetric half; `ipm` describes what the iteration
does with each.  All of it that every program of a compiled template
shares is built once per compile, on the first solve of one of its
programs (`_TemplateView`, the structure reuse of IPOPT, Waechter &
Biegler, Math. Programming 106, 2006), and each program's view
(`_Condensed`) selects its rows from it.  The template's view holds only
what the compile fixes, never what a solve found, so a program's view and
its solution depend on the program and its start alone, not on which
programs of the template were solved before it.  The view holds A_E and
A_I as plain (row, column, value) arrays, so the Newton loop's products
with them are `scatter_sum`s in the order a `scipy.sparse` product sums in
(`_product`).
"""

from __future__ import annotations

import copy

import numpy as np
import scipy.sparse as sp

from .nlp import BilinearTerms, JacobianPattern, NlpProblem, scatter_sum

BOUND_PUSH = 1e-2  # a start point's least distance inside each finite bound (relative to max(1, |bound|))


class _TemplateView:
    """What the Newton loop needs of a compiled program and is the same for every program selected from it.

    Built once per compile, on the first solve of one of its programs (see
    `_view`).  Variables with lb == ub are substituted out first: `free` and
    `fixed` index the rest and them, `lb`/`ub` are the free variables'
    bounds, and `lo`/`up` index those with a finite lower/upper bound.  The
    equality and inequality rows are condensed onto the free variables as
    plain (row, free column, value) arrays in CSR order: a bilinear term
    with one free factor is linear in it, and each (row, column) entry sums
    its linear coefficient, then those terms in term order, zero sums
    dropped; `both` are the terms with two free factors.  An equality row
    that reads a*x_u + b*x_v = 0 with |a| == |b| and no bilinear term is an
    alias row; `base` merges those every program keeps (`_Aliases`), and
    `variant` marks those only some keep.
    """

    def __init__(self, compiled: NlpProblem, always: np.ndarray):
        self.compiled, self.m = compiled, compiled.n_eq
        fixed = compiled.fixed_mask()
        self.free, self.fixed = np.flatnonzero(~fixed), np.flatnonzero(fixed)
        self.x_fixed = compiled.lb[self.fixed]
        self.n_free = n_free = len(self.free)
        self.lb, self.ub = compiled.lb[self.free], compiled.ub[self.free]
        self.lo, self.up = np.flatnonzero(np.isfinite(self.lb)), np.flatnonzero(np.isfinite(self.ub))
        # the finite bounds, lower then upper: gap = bound_sign * (x[bounded] - bounds) >= 0
        self.bounded, self.bounds = np.concatenate([self.lo, self.up]), np.concatenate([self.lb[self.lo], self.ub[self.up]])
        self.bound_sign = np.repeat([1.0, -1.0], [len(self.lo), len(self.up)])
        self.full_to_free = full_to_free = -np.ones(compiled.n_vars, dtype=np.int64)
        full_to_free[self.free] = np.arange(n_free)
        xfix = np.zeros(compiled.n_vars)
        xfix[self.fixed] = self.x_fixed

        def condense_linear(a: sp.csr_matrix, b: np.ndarray):
            """The entries of `a` in free columns as (row, free column, value) in CSR order, and b + A_fixed x_fixed."""
            row = np.repeat(np.arange(a.shape[0]), np.diff(a.indptr))
            col = full_to_free[a.indices]
            on = col >= 0
            shift = b + scatter_sum(row[~on], a.data[~on] * xfix[a.indices[~on]], len(b)) if len(self.fixed) else b.copy()
            return row[on], col[on], a.data[on], shift

        eq_row, eq_col, eq_val, b_eq = condense_linear(compiled.a_eq, compiled.b_eq)
        *self.ineq, self.b_in = condense_linear(compiled.a_ineq, compiled.b_ineq)
        q = compiled.bilinear
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
        self.eq, self.b_eq = (eq_row, eq_col, eq_val), b_eq
        self.both = (q.row[both], fa[both], fb[both], q.coeff[both])
        self.cost = compiled.cost[self.free]

        indptr = np.searchsorted(eq_row, np.arange(self.m + 1))
        alias = (np.diff(indptr) == 2) & (b_eq == 0.0)
        alias[q.row[both]] = False
        rows = np.flatnonzero(alias)
        k = indptr[rows]
        u, v, cu, cv = eq_col[k], eq_col[k + 1], eq_val[k], eq_val[k + 1]
        pair = np.abs(cu) == np.abs(cv)
        self.alias = tuple(a[pair] for a in (rows, u, v, cu, cv))  # (row, u, v, a, b)
        self.variant = ~always[self.alias[0]]
        self.base = _Aliases(self, ~self.variant)
        self._whole = None  # `base` over every row, which a program without merges of its own selects from

    def program(self, problem: NlpProblem, rows: np.ndarray) -> _Condensed:
        """The view of `problem`, the program of the template `rows`: a selection of them merged by `base`,
        unless it keeps variant alias rows, whose classes are merged again, or has a pole mirror."""
        keep = np.zeros(self.m, dtype=bool)
        keep[rows] = True
        extra = self.variant & keep[self.alias[0]]
        aliases = _Aliases(self, ~self.variant | extra, extra) if extra.any() else self.base
        if aliases is self.base and "mirror" not in problem.meta:
            if self._whole is None:
                self._whole = _Condensed(self, None, np.ones(self.m, dtype=bool), self.base)
            return self._whole.select(problem, keep)
        return _Condensed(self, problem, keep, aliases)


class _Aliases:
    """The merge of the view's alias rows `on` into classes, and the signed map P it gives.

    A spanning forest of the alias graph maps every free variable i to
    `sign[i] * y[col[i]]` of one of `n` merged variables y; tree rows hold
    by construction and leave the program, and so do the other alias rows
    that reduce to 0 = 0 (`removed`, template rows).  One that does not (a
    cycle whose signs force y = 0) stays an ordinary row, and a component
    whose members' boxes meet in an empty interior is not merged.  Where
    the edges `extra` of variant rows join the base merge, only the
    components they touch are searched again; the forest is the one a
    search of every edge gives.
    """

    def __init__(self, view: _TemplateView, on: np.ndarray, extra: np.ndarray | None = None):
        n = view.n_free
        rows, u, v, cu, cv = (a[on] for a in view.alias)
        edge_sign = np.where(cu == cv, -1.0, 1.0)  # x_v = edge_sign * x_u
        keys, first = np.unique(np.minimum(u, v) * n + np.maximum(u, v), return_index=True)
        if extra is None:
            parent = _breadth_first_forest(u[first], v[first], n)
        else:
            base = view.base
            touched = np.isin(base.component, base.component[np.concatenate([view.alias[1][extra], view.alias[2][extra]])])
            nodes, e = np.flatnonzero(touched), touched[u[first]]
            parent = base.parent.copy()
            sub = _breadth_first_forest(np.searchsorted(nodes, u[first][e]), np.searchsorted(nodes, v[first][e]), len(nodes))
            parent[nodes] = nodes[sub]
        child = np.flatnonzero(parent != np.arange(n))
        edge = first[np.searchsorted(keys, np.minimum(child, parent[child]) * n + np.maximum(child, parent[child]))]

        # sign and depth relative to the root, by pointer jumping
        root, sign, depth = parent, np.ones(n), np.zeros(n, dtype=int)
        sign[child], depth[child] = edge_sign[edge], 1
        while np.any(root != root[root]):
            sign, depth, root = sign * sign[root], depth + depth[root], root[root]
        self.parent, self.component = parent, root

        box_lb, box_ub = _intersect_boxes(root, sign, view.lb, view.ub, n)
        merged = box_ub[root] > box_lb[root]
        root = np.where(merged, root, np.arange(n))
        self.sign = np.where(merged, sign, 1.0)
        roots, self.col = np.unique(root, return_inverse=True)
        self.n = len(roots)
        self.removed = rows[merged[u] & (cu * self.sign[u] + cv * self.sign[v] == 0.0)]
        # the removed tree rows, deepest child first, for the multiplier recovery
        tree = merged[child]
        child, edge = child[tree], edge[tree]
        by_depth = np.argsort(-depth[child], kind="stable")
        child, edge = child[by_depth], edge[by_depth]
        at_v = v[edge] == child
        self.tree_rows = rows[edge]
        self.tree = (child, parent[child], np.where(at_v, cv[edge], cu[edge]), np.where(at_v, cu[edge], cv[edge]))
        cuts = np.flatnonzero(np.diff(depth[child])) + 1
        self.levels = [slice(s, e) for s, e in zip([0, *cuts], [*cuts, len(child)])]


class _Condensed:
    """The program the Newton loop iterates on, with exact sparse derivatives: a view of one program.

    It keeps the template rows `keep` of its `_TemplateView`, merges their
    free variables by `aliases`, then by the program's mirror (below).
    `box_lb`/`box_ub` are the bounds' intersection per merged variable;
    each free variable keeps its own bounds and barrier term.  A_E and A_I
    are plain (row, column, value) arrays in CSR order (`a_eq`, `a_in`),
    and every product with them is one `scatter_sum` in that order.
    """

    def __init__(self, view: _TemplateView, problem: NlpProblem | None, keep: np.ndarray, aliases: _Aliases):
        self.problem = problem
        for name in ("free", "fixed", "x_fixed", "n_free", "lb", "ub", "lo", "up", "bounded", "bounds", "bound_sign"):
            setattr(self, name, getattr(view, name))
        self.sign, self.col, self.n = aliases.sign, aliases.col, aliases.n
        row_of = np.cumsum(keep) - 1
        (eq_row, eq_col, eq_val), (q_row, ta, tb, coeff) = view.eq, view.both
        if not keep.all():  # the kept rows' entries and terms, renumbered
            on, q_on = keep[eq_row], keep[q_row]
            eq_row, eq_col, eq_val = row_of[eq_row[on]], eq_col[on], eq_val[on]
            q_row, ta, tb, coeff = row_of[q_row[q_on]], ta[q_on], tb[q_on], coeff[q_on]
        kept = keep.copy()
        kept[aliases.removed] = False
        self.tree_rows, self.tree, self.levels = row_of[aliases.tree_rows], aliases.tree, aliases.levels

        kept = self._merge_mirror(view, None if problem is None else problem.meta.get("mirror"), kept[keep])
        self.rows = np.flatnonzero(kept)
        row_map = np.cumsum(kept) - 1
        on = kept[eq_row]
        in_row, in_col, in_val = view.ineq
        self.m_eq, self.m_in = len(self.rows), len(view.b_in)
        self.a_eq, self.a_in = self._merged(np.concatenate([row_map[eq_row[on]], self.m_eq + in_row]),
                                            np.concatenate([eq_col[on], in_col]), np.concatenate([eq_val[on], in_val]),
                                            (self.m_eq, self.m_in))
        self.b_eq, self.b_in = view.b_eq[keep][self.rows], view.b_in
        self.cost = self.restrict(view.cost)
        term_sign = self.sign[ta] * self.sign[tb]
        live = kept[q_row] & (term_sign != 0.0)  # a term on a pinned variable vanishes
        self.terms = BilinearTerms(row_map[q_row][live], self.col[ta][live], self.col[tb][live], (coeff * term_sign)[live])
        self.jac = JacobianPattern((self.m_eq, self.n), *self.a_eq, self.terms)

        live = np.flatnonzero(self.sign != 0.0)
        self.box_lb, self.box_ub = _intersect_boxes(self.col[live], self.sign[live], self.lb[live], self.ub[live], self.n)
        # each merged variable starts from its member with the narrowest box,
        # the lowest index on ties (lexsort is stable)
        order = live[np.lexsort(((self.ub - self.lb)[live], self.col[live]))]
        self._rep = order[np.unique(self.col[order], return_index=True)[1]]

    def select(self, problem: NlpProblem, keep: np.ndarray) -> _Condensed:
        """The view of `problem`, the template rows `keep`, from this view of every row: its rows' entries and
        terms, and the tree rows, renumbered; the arrays are those a view of `keep` alone builds."""
        out = copy.copy(self)
        out.problem = problem
        row_of, newton = np.cumsum(keep) - 1, keep[self.rows]
        at = np.cumsum(newton) - 1
        out.rows, out.tree_rows = row_of[self.rows[newton]], row_of[self.tree_rows]
        out.m_eq = out.n_lam = len(out.rows)
        row, col, val = self.a_eq
        on = newton[row]
        out.a_eq, out.b_eq, out.w_eq = (at[row[on]], col[on], val[on]), self.b_eq[newton], self.w_eq[newton]
        t = self.terms
        on = newton[t.row]
        out.terms = BilinearTerms(at[t.row[on]], t.a[on], t.b[on], t.coeff[on])
        out.jac = JacobianPattern((out.m_eq, out.n), *out.a_eq, out.terms)
        return out

    def _merge_mirror(self, view: _TemplateView, mirror, kept: np.ndarray) -> np.ndarray:
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
        n, m, n_vars, n_in = self.n, len(kept), view.compiled.n_vars, len(view.b_in)
        self.mirrored = mirror is not None
        var, var_sign, eq, eq_sign, ineq = mirror or (np.arange(n_vars), np.ones(n_vars), np.arange(m), np.ones(m),
                                                      np.arange(n_in))
        # the members of merged variable c map into merged variable c_image[c], where y = tau[c] * y_c
        image, t = view.full_to_free[var[self.free]], var_sign[self.free]
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

    def symmetric(self, mult: np.ndarray) -> np.ndarray:
        """Bound and inequality multipliers (lower bounds, upper bounds, then rows) averaged with their mirror
        images: a lower bound's image is the image variable's lower bound, or its upper bound under sign -1."""
        n_l, n_b = len(self.lo), len(self.bounded)
        full_l, full_u = np.zeros(self.n_free), np.zeros(self.n_free)
        full_l[self.lo], full_u[self.up] = mult[:n_l], mult[n_l:n_b]
        flip = self._image_sign < 0.0
        image_l = np.where(flip, full_u[self._image], full_l[self._image])
        image_u = np.where(flip, full_l[self._image], full_u[self._image])
        return 0.5 * (mult + np.concatenate([image_l[self.lo], image_u[self.up], mult[n_b:][self._ineq_image]]))

    def _merged(self, row: np.ndarray, col: np.ndarray, val: np.ndarray, heights) -> list[tuple]:
        """A_k P as (row, column, value) in CSR order for the matrices A_k over the free variables stacked in
        (row, col, val), in row order.

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
        row, col, sums = row[order], col[order], sums[order]
        tops = np.cumsum([0, *heights])
        cut = np.searchsorted(row, tops)
        return [(row[a:b] - top, col[a:b], sums[a:b]) for top, a, b in zip(tops, cut, cut[1:])]

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

    def on_free(self, v_bounds: np.ndarray) -> np.ndarray:
        """A vector over the free variables from one value per finite bound, lower bounds first:
        each at its variable (`lo`, then `up`), summed in that order, 0 elsewhere."""
        return scatter_sum(self.bounded, v_bounds, self.n_free)

    def tree_multipliers(self, r: np.ndarray) -> np.ndarray:
        """Multipliers of `tree_rows` that zero the stationarity residual of every non-root member.

        `r` is that residual per free variable without the tree rows; the
        forest is back-substituted leaf to root, so each root keeps the
        residual of its merged variable.
        """
        r = r.copy()
        lam = np.empty(len(self.tree_rows))
        child, parent, a_child, a_parent = self.tree
        for level in self.levels:
            lam[level] = -r[child[level]] / a_child[level]
            np.add.at(r, parent[level], a_parent[level] * lam[level])
        return lam

    def expand(self, y: np.ndarray) -> np.ndarray:
        x = np.empty(self.problem.n_vars)
        x[self.free] = self.lift(y)
        x[self.free[self.sign == 0.0]] = 0.0  # pinned
        x[self.fixed] = self.x_fixed
        return x

    def c_eq(self, x: np.ndarray) -> np.ndarray:
        return self.terms.add_values(_product(self.a_eq, x, self.m_eq) + self.b_eq, x)

    def c_in(self, x: np.ndarray) -> np.ndarray:
        return _product(self.a_in, x, self.m_in) + self.b_in


def _product(a: tuple, x: np.ndarray, size: int) -> np.ndarray:
    """A x for A as (row, column, value) in CSR order: each row summed in entry order, as `csr_matvec` does."""
    row, col, val = a
    return scatter_sum(row, val * x[col], size)


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


def _view(problem: NlpProblem) -> _Condensed:
    """The view the Newton loop iterates on: of the program's template, `meta["template"]`, built on the first
    solve of one of its programs and kept there; a program without a living template is its own."""
    template = problem.meta.get("template", lambda: None)()
    if template is None:
        return _TemplateView(problem, np.ones(problem.n_eq, dtype=bool)).program(problem, np.arange(problem.n_eq))
    if template.solver_view is None:
        template.solver_view = _TemplateView(template.compiled, template.always)
    return template.solver_view.program(problem, problem.template_rows)
