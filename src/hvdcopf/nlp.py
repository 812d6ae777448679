"""Mathematical-program container used by the builder and the solver.

The OPF/SCOPF programs have a linear objective, constraints that are linear
except for the converter power-balance products, and simple variable
bounds.  Every constraint row is therefore stored as

    sum_j a_j x_j + sum_k c_k x_{u_k} x_{v_k} + const  (= or <=) 0

which gives exact sparse first and second derivatives.  Rows are built
symbolically against variable names and frozen into index form by
:meth:`ProblemBuilder.build`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
import scipy.sparse as sp

INF = float("inf")


@dataclass(frozen=True)
class Row:
    """One constraint row over named variables."""

    name: str
    lin: tuple[tuple[str, float], ...]
    const: float = 0.0
    quad: tuple[tuple[str, str, float], ...] = ()

    def evaluate(self, state: dict[str, float]) -> float:
        val = self.const
        val += sum(c * state[v] for v, c in self.lin)
        val += sum(c * state[a] * state[b] for a, b, c in self.quad)
        return val


def lin_row(name: str, lin: dict[str, float], const: float = 0.0) -> Row:
    return Row(name, tuple(lin.items()), const)


def quad_row(name: str, lin: dict[str, float], quad: list[tuple[str, str, float]], const: float = 0.0) -> Row:
    return Row(name, tuple(lin.items()), const, tuple(quad))


class ProblemBuilder:
    """Accumulates variables, rows and objective terms; freezes to NlpProblem."""

    def __init__(self, name: str = "problem"):
        self.name = name
        self._names: list[str] = []
        self._index: dict[str, int] = {}
        self._lb: list[float] = []
        self._ub: list[float] = []
        self._cost: list[float] = []
        self._start: list[float] = []
        self._eq: list[Row] = []
        self._ineq: list[Row] = []
        self.meta: dict = {}

    def add_var(
        self,
        name: str,
        lb: float = -INF,
        ub: float = INF,
        cost: float = 0.0,
        start: float = 0.0,
    ) -> int:
        if name in self._index:
            raise ValueError(f"duplicate variable {name!r}")
        self._index[name] = len(self._names)
        self._names.append(name)
        self._lb.append(lb)
        self._ub.append(ub)
        self._cost.append(cost)
        self._start.append(start)
        return self._index[name]

    def set_bounds(self, name: str, lb: float, ub: float) -> None:
        k = self._index[name]
        self._lb[k], self._ub[k] = lb, ub

    def get_start(self, name: str) -> float:
        return self._start[self._index[name]]

    def add_cost(self, name: str, coeff: float) -> None:
        self._cost[self._index[name]] += coeff

    @property
    def n_eq(self) -> int:
        return len(self._eq)

    def add_eq(self, row: Row) -> None:
        self._check(row)
        self._eq.append(row)

    def add_ineq(self, row: Row) -> None:
        if row.quad:
            raise ValueError(f"inequality rows must be linear: {row.name}")
        self._check(row)
        self._ineq.append(row)

    def _check(self, row: Row) -> None:
        for v, _ in row.lin:
            if v not in self._index:
                raise KeyError(f"row {row.name!r} references unknown variable {v!r}")
        for a, b, _ in row.quad:
            for v in (a, b):
                if v not in self._index:
                    raise KeyError(f"row {row.name!r} references unknown variable {v!r}")

    def build(self) -> "NlpProblem":
        n = len(self._names)

        def pack(rows: list[Row]):
            ri, ci, vs = [], [], []
            quads = []
            consts = np.zeros(len(rows))
            for r, row in enumerate(rows):
                consts[r] = row.const
                acc: dict[int, float] = {}
                for vname, c in row.lin:
                    j = self._index[vname]
                    acc[j] = acc.get(j, 0.0) + c
                for j, c in acc.items():
                    ri.append(r)
                    ci.append(j)
                    vs.append(c)
                for a, b, c in row.quad:
                    quads.append((r, self._index[a], self._index[b], c))
            mat = sp.csr_matrix((vs, (ri, ci)), shape=(len(rows), n))
            q = np.array(quads, dtype=float).reshape(-1, 4)
            return mat, consts, q

        a_eq, b_eq, q_eq = pack(self._eq)
        a_in, b_in, q_in = pack(self._ineq)
        assert q_in.shape[0] == 0
        return NlpProblem(
            name=self.name,
            var_names=tuple(self._names),
            lb=np.array(self._lb),
            ub=np.array(self._ub),
            cost=np.array(self._cost),
            start=np.array(self._start),
            eq_names=tuple(r.name for r in self._eq),
            ineq_names=tuple(r.name for r in self._ineq),
            a_eq=a_eq,
            b_eq=b_eq,
            quad_eq=q_eq,
            a_ineq=a_in,
            b_ineq=b_in,
            meta=dict(self.meta),
        )


def scatter_sum(index: np.ndarray, values: np.ndarray, size: int) -> np.ndarray:
    """out[index[k]] += values[k] in order of k, over a zero vector of the given size."""
    return np.bincount(index, values, minlength=size).astype(float, copy=False)


class BilinearTerms:
    """Terms ``coeff_k * x[a_k] * x[b_k]`` summed into equality row ``row_k``.

    The one implementation of the bilinear values and their exact first and
    second derivatives; `NlpProblem` and the solver's condensed program both
    evaluate through it.
    """

    def __init__(self, row, a, b, coeff):
        self.row = np.asarray(row, dtype=np.intp)
        self.a = np.asarray(a, dtype=np.intp)
        self.b = np.asarray(b, dtype=np.intp)
        self.coeff = np.asarray(coeff, dtype=float)
        self._off = self.a != self.b

    def add_values(self, r: np.ndarray, x: np.ndarray) -> np.ndarray:
        """Add every term to its row of `r` in place, in term order."""
        np.add.at(r, self.row, self.coeff * x[self.a] * x[self.b])
        return r

    def partials(self, x: np.ndarray) -> np.ndarray:
        """Each term's derivative by x[a], then each term's derivative by x[b]."""
        return np.concatenate([self.coeff * x[self.b], self.coeff * x[self.a]])

    def hessian_entries(self) -> tuple[np.ndarray, np.ndarray]:
        """(rows, cols) of the values `hessian_values` returns; a (row, col) may repeat."""
        return (
            np.concatenate([self.a, self.b[self._off]]),
            np.concatenate([self.b, self.a[self._off]]),
        )

    def hessian_values(self, lam: np.ndarray) -> np.ndarray:
        """Entries of the Hessian of lam . terms, in `hessian_entries` order."""
        w = self.coeff * lam[self.row]
        return np.concatenate([np.where(self._off, w, 2.0 * w), w[self._off]])

    def curvature(self, lam: np.ndarray, d: np.ndarray) -> float:
        """d' H d for the Hessian H of lam . terms."""
        return 2.0 * float(np.sum(self.coeff * lam[self.row] * d[self.a] * d[self.b]))


class JacobianPattern:
    """Fixed CSR pattern of J = A + d(bilinear)/dx, with index maps into its values.

    Built once per program; `values(x)` only scatters numbers into the
    pattern.  An entry stays in the pattern where it evaluates to zero, so
    the structure never depends on the point.
    """

    def __init__(self, a: sp.csr_matrix, terms: BilinearTerms):
        (m, n), nnz = a.shape, a.nnz
        rows = np.concatenate([np.repeat(np.arange(m), np.diff(a.indptr)), terms.row, terms.row]).astype(np.int64)
        cols = np.concatenate([a.indices[:nnz], terms.a, terms.b]).astype(np.int64)
        keys, where = np.unique(rows * n + cols, return_inverse=True)
        self.shape = (m, n)
        self.row = keys // n
        self.col = keys % n
        self.indptr = np.searchsorted(self.row, np.arange(m + 1))
        self.nnz = len(keys)
        self._linear = scatter_sum(where[:nnz], a.data[:nnz], self.nnz)
        self._bilinear = where[nnz:]
        self._terms = terms

    def values(self, x: np.ndarray) -> np.ndarray:
        """J(x) in pattern order: the linear entry plus the summed bilinear partials."""
        return self._linear + scatter_sum(self._bilinear, self._terms.partials(x), self.nnz)

    def matrix(self, values: np.ndarray) -> sp.csr_matrix:
        """A new CSR matrix of the pattern; it shares no array with the pattern."""
        return sp.csr_matrix((values, self.col, self.indptr), shape=self.shape, copy=True)

    def rmatvec(self, values: np.ndarray, y: np.ndarray) -> np.ndarray:
        """J^T y for J with the given values."""
        return scatter_sum(self.col, values * y[self.row], self.shape[1])


@dataclass(frozen=True)
class NlpProblem:
    """Frozen program: min cost.x s.t. A_eq x + q(x) + b_eq = 0, A_in x + b_in <= 0, lb <= x <= ub."""

    name: str
    var_names: tuple[str, ...]
    lb: np.ndarray
    ub: np.ndarray
    cost: np.ndarray
    start: np.ndarray
    eq_names: tuple[str, ...]
    ineq_names: tuple[str, ...]
    a_eq: sp.csr_matrix
    b_eq: np.ndarray
    quad_eq: np.ndarray  # rows (row, ja, jb, coeff)
    a_ineq: sp.csr_matrix
    b_ineq: np.ndarray
    meta: dict = field(default_factory=dict)
    bilinear: BilinearTerms = field(init=False, repr=False, compare=False, default=None)

    def __post_init__(self):
        q = self.quad_eq
        object.__setattr__(self, "bilinear", BilinearTerms(q[:, 0], q[:, 1], q[:, 2], q[:, 3]))

    @cached_property
    def _index(self) -> dict[str, int]:
        return {n: k for k, n in enumerate(self.var_names)}

    @cached_property
    def _jacobian(self) -> JacobianPattern:
        return JacobianPattern(self.a_eq, self.bilinear)

    @property
    def n_vars(self) -> int:
        return len(self.var_names)

    @property
    def n_eq(self) -> int:
        return len(self.eq_names)

    @property
    def n_ineq(self) -> int:
        return len(self.ineq_names)

    @property
    def template_rows(self) -> np.ndarray:
        """Each equality row's row in the compiled template it was selected from; its own index outside one."""
        return self.meta.get("template_rows", np.arange(self.n_eq))

    def var_index(self, name: str) -> int:
        return self._index[name]

    def value(self, x: np.ndarray, name: str) -> float:
        return float(x[self._index[name]])

    # -- evaluation ---------------------------------------------------------

    def eval_objective(self, x: np.ndarray) -> float:
        self._check_dim(x)
        return float(self.cost @ x)

    def objective_gradient(self, x: np.ndarray | None = None) -> np.ndarray:
        return self.cost.copy()

    def eval_eq(self, x: np.ndarray) -> np.ndarray:
        self._check_dim(x)
        return self.bilinear.add_values(self.a_eq @ x + self.b_eq, x)

    def eval_ineq(self, x: np.ndarray) -> np.ndarray:
        self._check_dim(x)
        return self.a_ineq @ x + self.b_ineq

    def eval_constraints(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        return self.eval_eq(x), self.eval_ineq(x)

    def eq_jacobian(self, x: np.ndarray) -> sp.csr_matrix:
        self._check_dim(x)
        return self._jacobian.matrix(self._jacobian.values(x))

    def eq_jacobian_rmatvec(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        """J_E(x)^T y, without forming the matrix."""
        self._check_dim(x)
        return self._jacobian.rmatvec(self._jacobian.values(x), y)

    def jacobian_pattern(self) -> sp.csr_matrix:
        """Structural pattern of the stacked (eq; ineq) Jacobian."""
        pat = sp.vstack([self._jacobian.matrix(np.ones(self._jacobian.nnz)), self.a_ineq]).tocsr()
        pat.data = np.ones_like(pat.data)
        return pat

    def lagrangian_hessian(self, lam_eq: np.ndarray) -> sp.csr_matrix:
        """Hessian of lam_eq . c_eq(x); the objective and inequalities are linear."""
        rows, cols = self.bilinear.hessian_entries()
        n = self.n_vars
        return sp.csr_matrix((self.bilinear.hessian_values(lam_eq), (rows, cols)), shape=(n, n))

    def _check_dim(self, x: np.ndarray) -> None:
        if x.shape != (self.n_vars,):
            raise ValueError(f"point has shape {x.shape}, expected ({self.n_vars},)")

    # -- fixed-variable condensing ------------------------------------------

    def fixed_mask(self, tol: float = 1e-12) -> np.ndarray:
        return (self.ub - self.lb) <= tol

    def dump(self, fh) -> None:
        """Human/machine-readable dump: variables, rows, Jacobian sparsity."""
        fh.write(f"problem {self.name}\n")
        fh.write(f"vars {self.n_vars} eq {self.n_eq} ineq {self.n_ineq}\n")
        for k, name in enumerate(self.var_names):
            fh.write(
                f"var {name} lb {self.lb[k]:.17g} ub {self.ub[k]:.17g} cost {self.cost[k]:.17g}\n"
            )
        a = self.a_eq.tocoo()
        by_row: dict[int, list[str]] = {}
        for r, c, v in zip(a.row, a.col, a.data):
            by_row.setdefault(int(r), []).append(f"{v:+.12g}*{self.var_names[c]}")
        quads: dict[int, list[str]] = {}
        for row, ja, jb, c in self.quad_eq:
            quads.setdefault(int(row), []).append(
                f"{c:+.12g}*{self.var_names[int(ja)]}*{self.var_names[int(jb)]}"
            )
        for r, name in enumerate(self.eq_names):
            terms = sorted(by_row.get(r, [])) + sorted(quads.get(r, []))
            fh.write(f"eq {name}: {' '.join(terms)} {self.b_eq[r]:+.12g} = 0\n")
        a = self.a_ineq.tocoo()
        by_row = {}
        for r, c, v in zip(a.row, a.col, a.data):
            by_row.setdefault(int(r), []).append(f"{v:+.12g}*{self.var_names[c]}")
        for r, name in enumerate(self.ineq_names):
            fh.write(f"ineq {name}: {' '.join(sorted(by_row.get(r, [])))} {self.b_ineq[r]:+.12g} <= 0\n")
        pat = self.jacobian_pattern().tocoo()
        fh.write(f"jacobian-pattern nnz {pat.nnz}\n")
