"""Discrete layer around the continuous solver.

Decides which bipolar stations run asymmetric (beta) and which neutral
lines stay connected (gamma) per post-contingency state with one
depth-first search: enumeration starts it from every admissible complete
assignment in tie-break order (`BinaryAssignment.sort_key`), branch-and-bound
from the propagated root.  A relaxation omits the constraints an undecided
binary would add (a valid lower bound, since fixing a binary only ever
adds rows) and branches on the most violated omitted constraint.  A child
therefore inherits its parent's bound: a partial node whose parent's bound
already prunes against the incumbent is recorded without being built or
solved.  While there is no incumbent, a relaxation that leaves a selector
undecided is rounded to one complete assignment, which is solved next.
Complete nodes are solved, each at most once, so ties are decided between
solved assignments only: one tied with the incumbent inside a subtree the
incumbent pruned is not compared.  Objectives within `REL_GAP` tie.

The programs of one search share a template, so a solve starts warm from
another's solution: a relaxation from its parent's, a complete assignment
from the last optimal complete solve's.  Without one, a relaxation's
rounding starts from that relaxation's solution, and any other complete
assignment flat, as enumeration solves its first.  Each solved node is one
solve, recorded as it ends.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

from .builder import Binary, BinaryAssignment, BinaryCatalogue
from .grid import Grid, ungrounded_neutral_groups
from .ipm import Solution, SolverOptions, solve_multistart


STRATEGIES = ("enumerate", "branch-and-bound")
ENUMERATION_CAP = 2**16  # default bound on the joint assignments `enumerate` will solve
# coupled multi-state solves are expensive: the shipped 4-outage SCOPF at N_b=2 (81 joint assignments) goes to B&B
SCOPF_ENUMERATION_CAP = 64  # the bound the studies put on the joint assignments of a SCOPF


class EnumerationCapExceeded(RuntimeError):
    """Raised when the assignment space is too large to enumerate."""


def nls_guard(grid: Grid, gamma: dict[str, int | None]) -> bool:
    """Whether every neutral subnetwork with a station neutral keeps a ground path (undecided lines in service)."""
    return not ungrounded_neutral_groups(grid, gamma)


def _keyed(k: int, kind: str, state: dict[str, int | None]) -> dict[Binary, int | None]:
    """One state's {id: value} of `kind`, keyed like `BinaryCatalogue.binaries`."""
    return {(k, kind, name): v for name, v in state.items()}


def _scenario_gamma_choices(catalogue: BinaryCatalogue) -> list[dict[str, int]]:
    lines = catalogue.gamma_lines
    if not lines:
        return [{}]
    choices = (dict(zip(lines, values)) for values in itertools.product((1, 0), repeat=len(lines)))
    return [gamma for gamma in choices if nls_guard(catalogue.grid, gamma)]


def enumerate_assignments(catalogue: BinaryCatalogue, cap: int = ENUMERATION_CAP) -> list[BinaryAssignment]:
    """All admissible complete assignments, sorted by `BinaryAssignment.sort_key`.

    That is the lexicographic order `_better` breaks ties by: the asymmetric
    station sets of every state, then the opened lines of every state, each
    set compared as its sorted ids, so in-service comes before open.  Raises
    `EnumerationCapExceeded` when there are more than `cap` of them.
    """
    gamma_choices = _scenario_gamma_choices(catalogue)
    per_scenario: list[list[dict[Binary, int]]] = []
    for sc in catalogue.scenarios:
        betas = catalogue.count_rule.completions(s for (k, s) in catalogue.forced_beta if k == sc.k)
        per_scenario.append([{**_keyed(sc.k, "beta", b), **_keyed(sc.k, "gamma", g)} for b in betas for g in gamma_choices])
    total = math.prod(len(c) for c in per_scenario) if per_scenario else 0
    if total > cap:
        raise EnumerationCapExceeded(
            f"{total} joint assignments exceed the cap ({cap}); use the branch-and-bound strategy"
        )
    return sorted((BinaryAssignment.of({b: v for state in combo for b, v in state.items()})
                   for combo in itertools.product(*per_scenario)), key=BinaryAssignment.sort_key)


@dataclass
class AssignmentRecord:
    assignment: BinaryAssignment
    status: str
    objective: float | None  # of the solve; of the parent's bound when not `solved`
    solved: bool = True  # False for a B&B node pruned by its parent's bound


@dataclass
class MinlpSolution:
    status: str  # 'optimal' | 'infeasible' | 'iteration-limit' (no incumbent, and a solve dropped at the limit)
    objective: float | None
    assignment: BinaryAssignment | None
    solution: Solution | None
    explored: int
    table: list[AssignmentRecord] = field(default_factory=list)
    diagnostics: str = ""
    strategy: str = "enumerate"  # the strategy that ran; `studies` falls back to branch-and-bound past the cap
    iterations: int = 0  # IPM iterations of every solve
    mirrored: int = 0  # solves on the symmetric half of a pole mirror (`Solution.mirrored`)
    pole_mirror: bool = False  # whether the compile verified the pole mirror; set by `studies`

    def search_counts(self) -> dict[str, int]:
        """What the search did: solves, prunes after and before solving, failed solves, IPM iterations, mirrored solves."""
        return {
            "solved": self.explored,
            "pruned_by_own_bound": sum(r.solved and r.status == "pruned-by-bound" for r in self.table),
            "pruned_unsolved": sum(not r.solved for r in self.table),
            "not_optimal": sum(r.status in ("infeasible", "iteration-limit") for r in self.table),
            "iterations": self.iterations,
            "mirrored": self.mirrored,
        }


# Objectives closer than REL_GAP * max(1, |f|) are not told apart: `_better` breaks such
# ties by key, and a B&B bound that close to the incumbent prunes its subtree.  Warm and
# flat solves of one program differ by up to 9.5e-8 relative (8-outage SCOPF B&B, N_b=1).
REL_GAP = 1e-7


def _prunes(bound: float, incumbent: float) -> bool:
    return bound >= incumbent - REL_GAP * max(1.0, abs(incumbent))


def _unproven(table: list[AssignmentRecord], what: str) -> str:
    """The note a search owes when a solve it dropped hit the iteration limit."""
    n = sum(r.status == "iteration-limit" for r in table)
    return f"unproven search: {n} {what}{'s' if n > 1 else ''} dropped at the iteration limit" if n else ""


def _better(rec: AssignmentRecord, best: AssignmentRecord | None) -> bool:
    """Whether optimal `rec` beats incumbent `best`: lower objective, ties broken by key."""
    if best is None:
        return True
    tol = REL_GAP * max(1.0, abs(best.objective))
    if rec.objective < best.objective - tol:
        return True
    return abs(rec.objective - best.objective) <= tol and rec.assignment.sort_key() < best.assignment.sort_key()


# -- the search ----------------------------------------------------------------


def _violations(sol: Solution, catalogue: BinaryCatalogue, node: BinaryAssignment):
    """(kind, {(k, kind, id): |row residual|}) of the undecided binaries the relaxation scores.

    Selectors come before lines: each scores the row it omits while
    undecided at the relaxation's point. The largest score is branched on;
    the smallest selector scores go symmetric first in the rounding.
    """
    residual = dict(zip(catalogue.binaries, abs(catalogue.rows @ sol.x).tolist()))
    for kind in ("beta", "gamma"):
        scores = {binary: residual[binary] for binary, v in node.values if v is None and binary[1] == kind}
        if scores:
            return kind, scores


def _rounded(catalogue: BinaryCatalogue, node: BinaryAssignment, scores) -> BinaryAssignment:
    """`node` completed: selectors by `count_rule.rounded` on their `scores`, lines in service.

    A node's selectors are propagated, so their completion exists; its lines
    in service pass `nls_guard`, as its own check did.
    """
    values = dict(node.values)
    for k in {k for k, _, _ in scores}:
        state_scores = {s: score for (j, _, s), score in scores.items() if j == k}
        values.update(_keyed(k, "beta", catalogue.count_rule.rounded(node.state(k, "beta"), state_scores)))
    return BinaryAssignment.of({binary: 1 if v is None else v for binary, v in values.items()})


def _root(catalogue: BinaryCatalogue) -> BinaryAssignment | None:
    """Selectors propagated from the forced ones, lines undecided; None if a state has no completion."""
    rule, forced = catalogue.count_rule, catalogue.forced_beta
    root: dict[Binary, int | None] = {}
    for sc in catalogue.scenarios:
        beta = rule.propagate({s: forced.get((sc.k, s)) for s in rule.station_ids})
        if beta is None:
            return None
        root.update({**_keyed(sc.k, "beta", beta), **_keyed(sc.k, "gamma", dict.fromkeys(catalogue.gamma_lines))})
    return BinaryAssignment.of(root)


_NO_ADMISSIBLE = (
    "no admissible binary assignment (check N_b against the outage: "
    "the faulted station cannot operate symmetrically)"
)


def solve_minlp(
    factory,
    catalogue: BinaryCatalogue,
    strategy: str = "enumerate",
    solver_options: SolverOptions | None = None,
    cap: int = ENUMERATION_CAP,
) -> MinlpSolution:
    """Minimize over admissible binary assignments with one depth-first search.

    `factory(assignment) -> NlpProblem` gives the continuous program with
    the assignment's binaries fixed (undecided entries relax their rows),
    e.g. `ProgramTemplate.program` of a compiled program.  `enumerate`
    starts from every admissible complete assignment, popped in the order
    `_better` breaks ties in; `branch-and-bound` from the propagated root.
    Each node is one IPM solve, except a partial node whose parent's bound
    already prunes: it is recorded as `pruned-by-bound` with `solved=False`
    and costs no build and no solve.  A relaxation starts warm from its
    parent's solution, a complete assignment from the last optimal complete
    solve; without one, a rounding starts from its relaxation's solution and
    the root and any other complete assignment flat.  `explored` counts
    nodes solved; objectives within `REL_GAP` tie.  A search that dropped a
    solve at the iteration limit says so in `diagnostics`; without an
    incumbent its status is then `iteration-limit`, not `infeasible`.
    """
    if strategy not in STRATEGIES:
        raise ValueError(f"unknown strategy {strategy!r}; expected one of {STRATEGIES}")
    if strategy == "enumerate":
        start = enumerate_assignments(catalogue, cap)[::-1]  # the stack pops them in tie-break order
        what, none_found = "assignment", "every admissible assignment is infeasible for the continuous program"
    else:
        root = _root(catalogue)
        start = [] if root is None else [root]
        what, none_found = "node", "branch-and-bound found no feasible complete assignment"

    table: list[AssignmentRecord] = []
    best: AssignmentRecord | None = None
    chosen = None  # the solution of `best`; no other record keeps one
    seen: set[BinaryAssignment] = set()  # a rounded assignment can come up again in the tree
    stack = [(node, -math.inf, None) for node in start]  # (node, its parent's bound, the solution it may start from)
    last, iterations, mirrored = None, 0, 0  # `last`: the last optimal solve of a complete assignment
    while stack:
        node, parent_bound, parent = stack.pop()
        if node in seen:
            continue
        seen.add(node)
        complete = node.is_complete()
        if not complete and best is not None and _prunes(parent_bound, best.objective):
            table.append(AssignmentRecord(node, "pruned-by-bound", parent_bound, solved=False))
            continue
        problem = factory(node)
        sol = solve_multistart(problem, solver_options, last if complete and last is not None else parent)
        iterations += sol.iterations
        mirrored += sol.mirrored
        if sol.status != "optimal":
            table.append(AssignmentRecord(node, sol.status, None))
            continue
        bound = sol.objective
        if complete:
            last = sol
            rec = AssignmentRecord(node, "optimal", bound)
            table.append(rec)
            if _better(rec, best):
                best, chosen = rec, sol
            continue
        if best is not None and _prunes(bound, best.objective):
            table.append(AssignmentRecord(node, "pruned-by-bound", bound))
            continue
        table.append(AssignmentRecord(node, "relaxation", bound))

        kind, scores = _violations(sol, catalogue, node)
        binary, _ = max(scores.items(), key=lambda kv: (kv[1], kv[0]))  # a tie goes to the largest (k, id)
        k, _, name = binary
        for value in (1, 0) if kind == "beta" else (0, 1):  # pushed in reverse: asymmetric, in service first
            values = dict(node.values)
            if kind == "beta":
                # the node is propagated, so either value of an undecided selector has a completion
                beta = catalogue.count_rule.propagate({**node.state(k, "beta"), name: value})
                values.update(_keyed(k, "beta", beta))
            else:
                values[binary] = value
                if value == 0 and not nls_guard(catalogue.grid, {**node.state(k, "gamma"), name: 0}):
                    continue
            child = BinaryAssignment.of(values)
            stack.append((child, bound, None if child.is_complete() else sol))
        if best is None and kind == "beta":  # no incumbent yet: the relaxation rounded is solved next
            stack.append((_rounded(catalogue, node, scores), bound, sol))

    explored = sum(r.solved for r in table)
    unproven = _unproven(table, what)
    ran = {"strategy": strategy, "iterations": iterations, "mirrored": mirrored}
    if best is None:
        return MinlpSolution("iteration-limit" if unproven else "infeasible", None, None, None, explored, table,
                             diagnostics=unproven or (none_found if start else _NO_ADMISSIBLE), **ran)
    return MinlpSolution("optimal", best.objective, best.assignment, chosen, explored, table,
                         diagnostics=unproven, **ran)
