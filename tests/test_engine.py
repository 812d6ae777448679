import itertools

import pytest

import hvdcopf.ipm
from hvdcopf.builder import OpfOptions, build_opf
from hvdcopf.engine import (
    EnumerationCapExceeded,
    enumerate_assignments,
    nls_guard,
    solve_minlp,
)
from hvdcopf.ipm import SolverOptions

from conftest import two_station_grid

FAST = SolverOptions(tol_kkt=1e-6, max_iter=120)


class TestEnumerate:
    @pytest.mark.parametrize("n_b,count", [(3, 1), (2, 3), (1, 3), (0, 1)])
    def test_counts_with_forced_faulted_station(self, builtin_grid, n_b, count):
        # brute-force oracle: admissible beta maps over 4 stations
        _, cat = build_opf(builtin_grid, OpfOptions(n_b=n_b, outage="Cb-A1.a"))
        stations = cat.beta_stations
        expect = [
            dict(zip(stations, bits))
            for bits in itertools.product((0, 1), repeat=4)
            if sum(bits) == n_b and dict(zip(stations, bits))["Cb-A1"] == 0
        ]
        got = enumerate_assignments(builtin_grid, cat)
        assert len(got) == len(expect) == count
        assert [a.beta_map()[0] for a in got] == sorted(
            expect, key=lambda m: tuple(s for s in stations if m[s] == 0)
        )

    def test_nb_equals_n_with_outage_is_empty(self, builtin_grid):
        _, cat = build_opf(builtin_grid, OpfOptions(n_b=4, outage="Cb-A1.a"))
        assert enumerate_assignments(builtin_grid, cat) == []

    def test_gamma_combinations_filtered_by_guard(self, builtin_grid):
        _, cat = build_opf(
            builtin_grid,
            OpfOptions(n_b=0, outage="Cb-A1.a", nls_candidates=("LD-2", "LD-5", "LD-7", "LD-9")),
        )
        got = enumerate_assignments(builtin_grid, cat)
        # every station is locally grounded in the shipped system, so all
        # 16 switch states pass the guard
        assert len(got) == 16
        assert got[0].gamma_map()[0] == {"LD-2": 1, "LD-5": 1, "LD-7": 1, "LD-9": 1}

    def test_guard_filters_when_single_ground(self):
        grid = two_station_grid(ground_p=False, ground_q=True)
        from hvdcopf.builder import OpfOptions, build_opf

        _, cat = build_opf(grid, OpfOptions(n_b=0, nls_candidates=("L-m",)))
        got = enumerate_assignments(grid, cat)
        # opening the only DMR strands station P's neutral: 1 of 2 combos valid
        assert len(got) == 1

    def test_cap_enforced(self, builtin_grid):
        _, cat = build_opf(
            builtin_grid,
            OpfOptions(n_b=0, nls_candidates=("LD-2", "LD-5", "LD-7", "LD-9")),
        )
        # 16 switch states: the cap admits exactly that many
        assert len(enumerate_assignments(builtin_grid, cat, cap=16)) == 16
        with pytest.raises(EnumerationCapExceeded, match="branch-and-bound"):
            enumerate_assignments(builtin_grid, cat, cap=15)

    def test_at_least_mode_enumerates_supersets(self, builtin_grid):
        _, cat = build_opf(builtin_grid, OpfOptions(n_b=2, nb_mode="at-least", outage="Cb-A1.a"))
        got = enumerate_assignments(builtin_grid, cat)
        # asym sets of size 1 (faulted alone) and size 2 (faulted + one healthy)
        assert len(got) == 1 + 3


class TestNlsGuard:
    def test_shipped_plan_passes(self, builtin_grid):
        assert nls_guard(builtin_grid, {"LD-7": 0, "LD-9": 0}).ok

    def test_stranded_neutral_fails(self):
        grid = two_station_grid(ground_p=False, ground_q=True)
        res = nls_guard(grid, {"L-m": 0})
        assert not res.ok and res.violations

    def test_all_in_service_passes(self, builtin_grid):
        assert nls_guard(builtin_grid, {}).ok


class TestSolveMinlp:
    def _factory(self, grid, opts):
        return lambda a: build_opf(grid, opts, binaries=a.state_binaries(0))[0]

    def test_enumerate_picks_table_minimum(self, pair_grid):
        opts = OpfOptions(n_b=1, outage="St-P.a")
        _, cat = build_opf(pair_grid, opts)
        res = solve_minlp(self._factory(pair_grid, opts), pair_grid, cat, solver_options=FAST)
        assert res.status == "optimal"
        objs = [r.objective for r in res.table if r.objective is not None]
        assert res.objective == pytest.approx(min(objs))

    def test_bnb_matches_enumeration(self, pair_grid):
        opts = OpfOptions(n_b=0, outage="St-P.a", nls_candidates=("L-m",))
        _, cat = build_opf(pair_grid, opts)
        factory = self._factory(pair_grid, opts)
        enum = solve_minlp(factory, pair_grid, cat, strategy="enumerate", solver_options=FAST)
        bnb = solve_minlp(factory, pair_grid, cat, strategy="branch-and-bound", solver_options=FAST)
        assert enum.status == bnb.status == "optimal"
        assert bnb.objective == pytest.approx(enum.objective, rel=1e-6)
        assert bnb.assignment.sort_key() == enum.assignment.sort_key()

    def test_infeasible_budget_diagnosed(self, builtin_grid):
        opts = OpfOptions(n_b=4, outage="Cb-A1.a")
        _, cat = build_opf(builtin_grid, opts)
        res = solve_minlp(self._factory(builtin_grid, opts), builtin_grid, cat, solver_options=FAST)
        assert res.status == "infeasible"
        assert "cannot operate symmetrically" in res.diagnostics

    @pytest.mark.parametrize("strategy", ["enumerate", "branch-and-bound"])
    def test_one_solve_per_assignment_or_node(self, pair_grid, monkeypatch, strategy):
        solves = []
        solve = hvdcopf.ipm.solve

        def counted(problem, *args, **kwargs):
            solves.append(problem)
            return solve(problem, *args, **kwargs)

        monkeypatch.setattr(hvdcopf.ipm, "solve", counted)
        opts = OpfOptions(n_b=0, outage="St-P.a", nls_candidates=("L-m",))
        _, cat = build_opf(pair_grid, opts)
        res = solve_minlp(self._factory(pair_grid, opts), pair_grid, cat, strategy=strategy, solver_options=FAST)
        assert res.status == "optimal"
        assert len(solves) == res.explored == len(res.table)
        if strategy == "enumerate":
            assert res.explored == len(enumerate_assignments(pair_grid, cat))

    @pytest.mark.parametrize("strategy", ["enumerate", "branch-and-bound"])
    def test_solution_carries_its_program(self, pair_grid, strategy):
        opts = OpfOptions(n_b=0, outage="St-P.a", nls_candidates=("L-m",))
        _, cat = build_opf(pair_grid, opts)
        factory = self._factory(pair_grid, opts)
        res = solve_minlp(factory, pair_grid, cat, strategy=strategy, solver_options=FAST)
        assert res.strategy == strategy
        rebuilt = factory(res.assignment)
        assert res.problem.var_names == rebuilt.var_names and res.problem.eq_names == rebuilt.eq_names
        assert (res.problem.a_eq != rebuilt.a_eq).nnz == 0
        assert res.solution.objective == res.problem.eval_objective(res.solution.x)

    def test_bnb_matches_enumeration_on_coupled_scopf(self, pair_grid):
        from hvdcopf.builder import build_scopf

        contingencies = ("St-P.a", "St-Q.a")
        opts = OpfOptions(n_b=0, nls_candidates=("L-m",))
        factory = lambda a: build_scopf(pair_grid, contingencies, opts, binaries=a.binaries())[0]
        _, cat = build_scopf(pair_grid, contingencies, opts)
        enum = solve_minlp(factory, pair_grid, cat, strategy="enumerate", solver_options=FAST)
        bnb = solve_minlp(factory, pair_grid, cat, strategy="branch-and-bound", solver_options=FAST)
        assert enum.status == bnb.status == "optimal"
        assert bnb.objective == pytest.approx(enum.objective, rel=1e-6)
        assert enum.explored == 4  # two switch states per post-contingency scenario

    def test_unknown_strategy_rejected(self, pair_grid):
        opts = OpfOptions(n_b=0)
        _, cat = build_opf(pair_grid, opts)
        with pytest.raises(ValueError):
            solve_minlp(self._factory(pair_grid, opts), pair_grid, cat, strategy="magic")


def test_assignment_labels_and_keys(builtin_grid):
    _, cat = build_opf(builtin_grid, OpfOptions(n_b=2, outage="Cb-A1.a"))
    assignments = enumerate_assignments(builtin_grid, cat)
    labels = [a.label() for a in assignments]
    assert len(set(labels)) == len(labels)
    keys = [a.sort_key() for a in assignments]
    assert keys == sorted(keys)
