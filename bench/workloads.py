"""The three benchmark workloads and the correctness check of each result row.

Each workload has `setup(seed)`, which loads or generates the grid and
validates it (the part timed as `setup_s`), `run(state, out_dir)`, the timed
call (`study_s`), and `check(result)`, which turns one pass into result rows
with the reasons each row failed. Why each workload exists is in NOTES.md.
"""

from __future__ import annotations

import functools
import json
import random
from dataclasses import dataclass, field
from pathlib import Path

import hvdcopf.builder
import hvdcopf.engine
import hvdcopf.grid
import hvdcopf.io
import hvdcopf.ipm
import hvdcopf.studies
from hvdcopf.builder import COST_SCALE, OpfOptions, objective_in_currency
from hvdcopf.engine import EnumerationCapExceeded
from hvdcopf.io import StudyConfig
from hvdcopf.ipm import SolverOptions, check_kkt

from gridgen import meshed_bipolar_grid
from tracing import Patches

REFERENCE = json.loads((Path(__file__).with_name("reference.json")).read_text())
REL_TOL = 1e-6  # objective agreement with the reference values
KKT_FACTOR = 10.0  # independent check_kkt bound, in units of tol_kkt
TOL_KKT = SolverOptions().tol_kkt

NLS_CANDIDATES = ("LD-2", "LD-5", "LD-7", "LD-9")
SCOPF_OUTAGES = ("Cb-A1.a", "Cb-A1.b", "Cb-B1.a", "Cb-B1.b")
SYNTH_N = 8
SYNTH_GRID_SEED = 7


@dataclass
class Capture:
    """Keeps each `solve_minlp` result and counts IPM solves during one pass.

    Installed on every pass, traced or not, so the correctness check sees
    the solutions the study actually chose. The wrappers only append and
    count.
    """

    minlp: list = field(default_factory=list)  # (factory, MinlpSolution), call order
    fallbacks: int = 0
    ipm_solves: int = 0
    ipm_iterations: int = 0
    _patches: Patches = field(default_factory=Patches)

    def __enter__(self):
        minlp, solve = hvdcopf.engine.solve_minlp, hvdcopf.ipm.solve

        @functools.wraps(minlp)
        def captured_minlp(factory, *args, **kwargs):
            try:
                res = minlp(factory, *args, **kwargs)
            except EnumerationCapExceeded:
                self.fallbacks += 1
                raise
            self.minlp.append((factory, res))
            return res

        @functools.wraps(solve)
        def counted_solve(*args, **kwargs):
            sol = solve(*args, **kwargs)
            self.ipm_solves += 1
            self.ipm_iterations += sol.iterations
            return sol

        self._patches.set(hvdcopf.engine, "solve_minlp", captured_minlp)
        self._patches.set(hvdcopf.studies, "solve_minlp", captured_minlp)
        self._patches.set(hvdcopf.ipm, "solve", counted_solve)
        return self

    def __exit__(self, *exc):
        self._patches.restore()


@dataclass
class PassResult:
    output: object  # StudyReport, or (problem, solution) for synth-scopf
    capture: Capture


def _close(value: float | None, ref: float) -> bool:
    return value is not None and abs(value - ref) <= REL_TOL * abs(ref)


def _minlp_failures(factory, res) -> list[str]:
    """Independent KKT check of the solution the study reported."""
    if res.solution is None:
        return [f"no solution ({res.status})"]
    report = check_kkt(factory(res.assignment), res.solution)
    if report.max_residual > KKT_FACTOR * TOL_KKT:
        return [f"check_kkt {report.max_residual:.3e} > {KKT_FACTOR:g}*tol_kkt"]
    return []


def _minlp_behaviour(res) -> dict:
    return {
        "status": res.status,
        "objective_eur": None if res.objective is None else res.objective / COST_SCALE,
        "explored": res.explored,
        "iterations": None if res.solution is None else res.solution.iterations,
        "assignment": None if res.assignment is None else res.assignment.label(),
    }


def _shuffled(items: tuple[str, ...], seed: int) -> tuple[str, ...]:
    out = list(items)
    random.Random(seed).shuffle(out)
    return tuple(out)


class _StudyWorkload:
    """A study on the shipped case; the seed orders an id list of the config."""

    def setup(self, seed: int):
        grid = hvdcopf.io.load_builtin_case()
        violations = hvdcopf.grid.validate(grid)
        if violations:
            raise RuntimeError(f"shipped case fails validation: {violations}")
        return grid, self.config(seed)

    def config(self, seed: int) -> StudyConfig:
        raise NotImplementedError

    def run(self, state, out_dir: Path):
        grid, cfg = state
        return hvdcopf.studies.run_study(grid, cfg.replace(out_dir=str(out_dir)))

    def behaviour(self, result: PassResult) -> dict:
        cap = result.capture
        return {
            "status": result.output.status,
            "ipm_solves": cap.ipm_solves,
            "ipm_iterations": cap.ipm_iterations,
            "bnb_fallbacks": cap.fallbacks,
            "minlp": [_minlp_behaviour(res) for _, res in cap.minlp],
        }


class NlsWorkload(_StudyWorkload):
    name = "nls-4kv"

    def config(self, seed):
        return StudyConfig(study="nls", n_b=0, outage="Cb-A1.a", offset_limits_kv=(4.0,),
                           nls_candidates=_shuffled(NLS_CANDIDATES, seed), strategy="enumerate")

    def check(self, result: PassResult) -> list[list[str]]:
        ref = REFERENCE[self.name]
        unrestricted, limited = result.output.rows
        minlp = result.capture.minlp
        if len(minlp) != 3:
            return [[f"expected 3 MINLP results, got {len(minlp)}"]] * 2
        rows = [[], []]
        for row, key, value in ((0, "unrestricted_eur", unrestricted["objective_base_eur"]),
                                (1, "base_4kv_eur", limited["objective_base_eur"]),
                                (1, "nls_4kv_eur", limited["objective_nls_eur"])):
            if not _close(value, ref[key]):
                rows[row].append(f"{key} {value!r} != reference {ref[key]!r}")
        for row, record in zip((0, 1), (unrestricted, limited)):
            if record["status"] != "optimal":
                rows[row].append(f"status {record['status']}")
        base, nls = limited["objective_base_eur"], limited["objective_nls_eur"]
        if base is not None and nls is not None and nls > base * (1.0 + 1e-9):
            rows[1].append(f"NLS objective {nls!r} above base {base!r}")
        for row, (factory, res) in zip((0, 1, 1), minlp):
            rows[row] += _minlp_failures(factory, res)
        return rows


class ScopfWorkload(_StudyWorkload):
    name = "scopf-bnb"

    def config(self, seed):
        return StudyConfig(study="scopf", contingencies=_shuffled(SCOPF_OUTAGES, seed), nb_values=(2,),
                           strategy="enumerate")

    def check(self, result: PassResult) -> list[list[str]]:
        ref = REFERENCE[self.name]["objective_eur"]
        (row,) = result.output.rows
        failures = []
        if row["status"] != "optimal":
            failures.append(f"status {row['status']}")
        if not _close(row["objective_eur"], ref):
            failures.append(f"objective {row['objective_eur']!r} != reference {ref!r}")
        if len(result.capture.minlp) != 1:
            failures.append(f"expected 1 MINLP result, got {len(result.capture.minlp)}")
        else:
            failures += _minlp_failures(*result.capture.minlp[0])
        return [failures]


class SynthScopfWorkload:
    """SCOPF on a generated grid through `build_scopf` and `ipm.solve` directly.

    The grid is fixed (n=8, generator seed 7); the benchmark seed only
    permutes the contingency list, which leaves the optimum unchanged, so
    runs with different seeds do the same work.
    """

    name = "synth-scopf"

    def setup(self, seed: int):
        grid = meshed_bipolar_grid(SYNTH_N, SYNTH_GRID_SEED)
        violations = hvdcopf.grid.validate(grid)
        if violations:
            raise RuntimeError(f"generated grid fails validation: {violations}")
        return grid, _shuffled(grid.pole_converter_ids(), seed)

    def run(self, state, out_dir: Path):
        grid, contingencies = state
        problem, _ = hvdcopf.builder.build_scopf(grid, contingencies, OpfOptions(n_b=SYNTH_N - 1))
        return problem, hvdcopf.ipm.solve(problem)

    def behaviour(self, result: PassResult) -> dict:
        problem, sol = result.output
        return {
            "status": sol.status,
            "objective_eur": objective_in_currency(problem, sol.objective),
            "ipm_solves": result.capture.ipm_solves,
            "ipm_iterations": sol.iterations,
            "n_vars": problem.n_vars,
        }

    def check(self, result: PassResult) -> list[list[str]]:
        problem, sol = result.output
        ref = REFERENCE[self.name]["objective_eur"]
        failures = []
        if sol.status != "optimal":
            failures.append(f"status {sol.status}")
        objective = objective_in_currency(problem, sol.objective)
        if not _close(objective, ref):
            failures.append(f"objective {objective!r} != reference {ref!r}")
        residual = check_kkt(problem, sol).max_residual
        if residual > KKT_FACTOR * TOL_KKT:
            failures.append(f"check_kkt {residual:.3e} > {KKT_FACTOR:g}*tol_kkt")
        return [failures]


WORKLOADS = {w.name: w for w in (NlsWorkload(), ScopfWorkload(), SynthScopfWorkload())}
