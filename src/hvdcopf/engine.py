"""Discrete layer around the continuous solver.

Decides which bipolar stations run asymmetric (beta) and which neutral
lines stay connected (gamma) per post-contingency state, either by
exhaustive enumeration in deterministic lexicographic order or by
branch-and-bound.  The B&B relaxation omits the constraints an undecided
binary would add (a valid lower bound, since fixing a binary only ever
adds rows) and branches on the most violated omitted constraint.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field, replace

from . import naming as nm
from .builder import BinaryCatalogue, StateBinaries
from .grid import Grid, ungrounded_neutral_groups
from .ipm import Solution, SolverOptions, solve_multistart
from .nlp import NlpProblem


STRATEGIES = ("enumerate", "branch-and-bound")
ENUMERATION_CAP = 2**16  # default bound on the joint assignments `enumerate` will solve


class EnumerationCapExceeded(RuntimeError):
    """Raised when the assignment space is too large to enumerate."""


@dataclass(frozen=True)
class GuardResult:
    ok: bool
    violations: tuple[str, ...] = ()


def nls_guard(grid: Grid, gamma: dict[str, int]) -> GuardResult:
    """Every neutral subnetwork with a station neutral must keep a ground path."""
    bad = ungrounded_neutral_groups(grid, gamma)
    return GuardResult(not bad, tuple(bad))


@dataclass(frozen=True)
class BinaryAssignment:
    """Complete (or, inside B&B, partial) binary decision per scenario."""

    beta: tuple[tuple[int, tuple[tuple[str, int | None], ...]], ...]
    gamma: tuple[tuple[int, tuple[tuple[str, int | None], ...]], ...]

    @staticmethod
    def from_maps(beta: dict[int, dict[str, int | None]], gamma: dict[int, dict[str, int | None]]):
        freeze = lambda m: tuple(sorted((k, tuple(sorted(v.items()))) for k, v in m.items()))
        return BinaryAssignment(freeze(beta), freeze(gamma))

    def beta_map(self) -> dict[int, dict[str, int | None]]:
        return {k: dict(v) for k, v in self.beta}

    def gamma_map(self) -> dict[int, dict[str, int | None]]:
        return {k: dict(v) for k, v in self.gamma}

    def state_binaries(self, k: int) -> StateBinaries:
        return StateBinaries(self.beta_map().get(k, {}), self.gamma_map().get(k, {}))

    def binaries(self) -> dict[int, StateBinaries]:
        out = {}
        for k in {k for k, _ in self.beta} | {k for k, _ in self.gamma}:
            out[k] = self.state_binaries(k)
        return out

    def is_complete(self) -> bool:
        return not any(v is None for _, kv in self.beta + self.gamma for _, v in kv)

    def sort_key(self):
        """Lexicographic tie-break key: asymmetric sets, then opened lines."""
        asym = tuple(
            (k, tuple(s for s, v in sorted(kv) if v == 0)) for k, kv in self.beta
        )
        opened = tuple(
            (k, tuple(s for s, v in sorted(kv) if v == 0)) for k, kv in self.gamma
        )
        return (asym, opened)

    def label(self) -> str:
        parts = []
        for k, kv in self.beta:
            asym = [s for s, v in kv if v == 0]
            und = [s for s, v in kv if v is None]
            txt = "asym={" + ",".join(sorted(asym)) + "}"
            if und:
                txt += " undecided={" + ",".join(sorted(und)) + "}"
            parts.append(f"k{k}:{txt}")
        for k, kv in self.gamma:
            opened = [s for s, v in kv if v == 0]
            und = [s for s, v in kv if v is None]
            if opened or und:
                txt = "open={" + ",".join(sorted(opened)) + "}"
                if und:
                    txt += " undecided={" + ",".join(sorted(und)) + "}"
                parts.append(f"k{k}:{txt}")
        return "; ".join(parts) if parts else "default"


def _scenario_gamma_choices(grid: Grid, catalogue: BinaryCatalogue) -> list[dict[str, int]]:
    lines = catalogue.gamma_lines
    if not lines:
        return [{}]
    out = []
    for values in itertools.product((1, 0), repeat=len(lines)):
        gamma = dict(zip(lines, values))
        if nls_guard(grid, gamma).ok:
            out.append(gamma)
    return out


def enumerate_assignments(
    grid: Grid, catalogue: BinaryCatalogue, cap: int = ENUMERATION_CAP
) -> list[BinaryAssignment]:
    """All admissible complete assignments, deterministic lexicographic order.

    Ordering: per scenario, asymmetric station sets in the order of
    `SymmetricCountConstraint.completions` (size, then station id), then line
    statuses with in-service before open (line id).  Raises
    `EnumerationCapExceeded` when there are more than `cap` of them.
    """
    gamma_choices = _scenario_gamma_choices(grid, catalogue)
    per_scenario: list[list[tuple[dict[str, int], dict[str, int]]]] = []
    for sc in catalogue.scenarios:
        betas = catalogue.count_rule.completions(s for (k, s) in catalogue.forced_beta if k == sc.k)
        per_scenario.append([(b, g) for b in betas for g in gamma_choices])
    total = math.prod(len(c) for c in per_scenario) if per_scenario else 0
    if total > cap:
        raise EnumerationCapExceeded(
            f"{total} joint assignments exceed the cap ({cap}); use the branch-and-bound strategy"
        )
    out = []
    for combo in itertools.product(*per_scenario):
        beta = {sc.k: c[0] for sc, c in zip(catalogue.scenarios, combo)}
        gamma = {sc.k: c[1] for sc, c in zip(catalogue.scenarios, combo)}
        out.append(BinaryAssignment.from_maps(beta, gamma))
    return out


@dataclass
class AssignmentRecord:
    assignment: BinaryAssignment
    status: str
    objective: float | None


@dataclass
class MinlpSolution:
    status: str  # 'optimal' | 'infeasible'
    objective: float | None
    assignment: BinaryAssignment | None
    solution: Solution | None
    explored: int
    table: list[AssignmentRecord] = field(default_factory=list)
    diagnostics: str = ""
    problem: NlpProblem | None = None  # the program `solution` solves
    strategy: str = "enumerate"  # the strategy that ran; `studies` falls back to branch-and-bound past the cap


_TIE_REL = 1e-9


def _better(obj, key, best_obj, best_key) -> bool:
    if best_obj is None:
        return True
    tol = _TIE_REL * max(1.0, abs(best_obj))
    if obj < best_obj - tol:
        return True
    return abs(obj - best_obj) <= tol and key < best_key


def solve_minlp(
    factory,
    grid: Grid,
    catalogue: BinaryCatalogue,
    strategy: str = "enumerate",
    solver_options: SolverOptions | None = None,
    cap: int = ENUMERATION_CAP,
) -> MinlpSolution:
    """Minimize over admissible binary assignments.

    `factory(assignment) -> NlpProblem` builds the continuous program with
    the assignment's binaries fixed (undecided entries relax their rows).
    Each assignment and each B&B node is one flat-start IPM solve.
    """
    if strategy not in STRATEGIES:
        raise ValueError(f"unknown strategy {strategy!r}; expected one of {STRATEGIES}")
    if strategy == "enumerate":
        result = _solve_enumerate(factory, grid, catalogue, solver_options, cap)
    else:
        result = _solve_bnb(factory, grid, catalogue, solver_options)
    return replace(result, strategy=strategy)


_NO_ADMISSIBLE = (
    "no admissible binary assignment (check N_b against the outage: "
    "the faulted station cannot operate symmetrically)"
)


def _solve_enumerate(factory, grid, catalogue, solver_options, cap) -> MinlpSolution:
    assignments = enumerate_assignments(grid, catalogue, cap)
    if not assignments:
        return MinlpSolution("infeasible", None, None, None, 0, diagnostics=_NO_ADMISSIBLE)
    records: list[AssignmentRecord] = []
    best: AssignmentRecord | None = None
    chosen = None  # (problem, solution) of `best`; no other record keeps either
    for assignment in assignments:
        problem = factory(assignment)
        sol = solve_multistart(problem, solver_options)
        rec = AssignmentRecord(assignment, sol.status, sol.objective if sol.status == "optimal" else None)
        records.append(rec)
        if rec.status == "optimal" and (best is None or _better(
            rec.objective, assignment.sort_key(), best.objective, best.assignment.sort_key()
        )):
            best, chosen = rec, (problem, sol)
    if best is None:
        return MinlpSolution(
            "infeasible", None, None, None, len(records), records,
            diagnostics="every admissible assignment is infeasible for the continuous program",
        )
    return MinlpSolution(
        "optimal", best.objective, best.assignment, chosen[1], len(records), records, problem=chosen[0]
    )


# -- branch and bound ---------------------------------------------------------


def _branch_scores(problem: NlpProblem, sol: Solution, grid: Grid, assignment: BinaryAssignment):
    """Violation of each undecided binary's omitted constraint at the relaxation."""
    values = sol.values(problem)
    beta_scores: dict[tuple[int, str], float] = {}
    for k, kv in assignment.beta:
        for st, v in kv:
            if v is not None:
                continue
            cs = grid.station(st)
            cva, cvb = cs.pole_converters
            imb = values[nm.conv_i(st, cva.id, 2, k)] + values[nm.conv_i(st, cvb.id, 2, k)]
            beta_scores[(k, st)] = abs(imb)
    gamma_scores: dict[tuple[int, str], float] = {}
    for k, kv in assignment.gamma:
        for bd, v in kv:
            if v is not None:
                continue
            line = grid.line(bd)
            du = values[nm.port_u(bd, "i", k)] - values[nm.port_u(bd, "j", k)]
            res = du + line.resistance_pu * values[nm.port_i(bd, "j", k)]
            gamma_scores[(k, bd)] = abs(res)
    return beta_scores, gamma_scores


def _solve_bnb(factory, grid, catalogue, solver_options) -> MinlpSolution:
    root_beta: dict[int, dict[str, int | None]] = {}
    root_gamma: dict[int, dict[str, int | None]] = {}
    for sc in catalogue.scenarios:
        beta = catalogue.count_rule.propagate(
            {s: catalogue.forced_beta.get((sc.k, s)) for s in catalogue.beta_stations}
        )
        if beta is None:
            return MinlpSolution("infeasible", None, None, None, 0, diagnostics=_NO_ADMISSIBLE)
        root_beta[sc.k] = beta
        root_gamma[sc.k] = {bd: None for bd in catalogue.gamma_lines}
    root = BinaryAssignment.from_maps(root_beta, root_gamma)

    explored = 0
    table: list[AssignmentRecord] = []
    best: AssignmentRecord | None = None
    chosen = None  # (problem, solution) of `best`
    stack = [root]
    while stack:
        node = stack.pop()
        problem = factory(node)
        sol = solve_multistart(problem, solver_options)
        explored += 1
        if sol.status != "optimal":
            table.append(AssignmentRecord(node, sol.status, None))
            continue
        bound = sol.objective
        if node.is_complete():
            rec = AssignmentRecord(node, "optimal", bound)
            table.append(rec)
            if best is None or _better(bound, node.sort_key(), best.objective, best.assignment.sort_key()):
                best, chosen = rec, (problem, sol)
            continue
        if best is not None and bound >= best.objective - 1e-7 * max(1.0, abs(best.objective)):
            table.append(AssignmentRecord(node, "pruned-by-bound", bound))
            continue
        table.append(AssignmentRecord(node, "relaxation", bound))

        beta_scores, gamma_scores = _branch_scores(problem, sol, grid, node)
        children: list[BinaryAssignment] = []
        if beta_scores:
            (k, st), _ = max(beta_scores.items(), key=lambda kv: (kv[1], kv[0]))
            for value in (1, 0):  # pushed in reverse: asymmetric child is explored first
                beta = node.beta_map()
                beta[k] = catalogue.count_rule.propagate({**beta[k], st: value})
                if beta[k] is None:
                    continue
                children.append(BinaryAssignment.from_maps(beta, node.gamma_map()))
        else:
            (k, bd), _ = max(gamma_scores.items(), key=lambda kv: (kv[1], kv[0]))
            for value in (0, 1):  # in-service child explored first
                gamma = node.gamma_map()
                gamma[k] = dict(gamma[k])
                gamma[k][bd] = value
                statuses = {b: (1 if v is None else v) for b, v in gamma[k].items()}
                if value == 0 and not nls_guard(grid, statuses).ok:
                    continue
                children.append(BinaryAssignment.from_maps(node.beta_map(), gamma))
        stack.extend(children)

    if best is None:
        return MinlpSolution(
            "infeasible", None, None, None, explored, table,
            diagnostics="branch-and-bound found no feasible complete assignment",
        )
    return MinlpSolution(
        "optimal", best.objective, best.assignment, chosen[1], explored, table, problem=chosen[0]
    )
