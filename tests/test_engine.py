import itertools
from collections import defaultdict
from types import SimpleNamespace

import pytest

import hvdcopf.engine
import hvdcopf.ipm
from hvdcopf.builder import OpfOptions, build_opf, compile_program, objective_in_currency
from hvdcopf.engine import (
    REL_GAP,
    EnumerationCapExceeded,
    enumerate_assignments,
    nls_guard,
    solve_minlp,
)
from hvdcopf.grid import ungrounded_neutral_groups
from hvdcopf.ipm import SolverOptions

from conftest import two_station_grid

FAST = SolverOptions(tol_kkt=1e-6, max_iter=120)


class TestEnumerate:
    @pytest.mark.parametrize("n_b,count", [(3, 1), (2, 3), (1, 3), (0, 1)])
    def test_counts_with_forced_faulted_station(self, builtin_grid, n_b, count):
        # brute-force oracle: admissible beta maps over 4 stations
        _, cat = build_opf(builtin_grid, OpfOptions(n_b=n_b, outage="Cb-A1.a"))
        stations = cat.count_rule.station_ids
        expect = [
            dict(zip(stations, bits))
            for bits in itertools.product((0, 1), repeat=4)
            if sum(bits) == n_b and dict(zip(stations, bits))["Cb-A1"] == 0
        ]
        got = enumerate_assignments(cat)
        assert len(got) == len(expect) == count
        assert [a.state(0, "beta") for a in got] == sorted(
            expect, key=lambda m: tuple(s for s in stations if m[s] == 0)
        )

    def test_nb_equals_n_with_outage_is_empty(self, builtin_grid):
        _, cat = build_opf(builtin_grid, OpfOptions(n_b=4, outage="Cb-A1.a"))
        assert enumerate_assignments(cat) == []

    def test_gamma_combinations_filtered_by_guard(self, builtin_grid):
        _, cat = build_opf(
            builtin_grid,
            OpfOptions(n_b=0, outage="Cb-A1.a", nls_candidates=("LD-2", "LD-5", "LD-7", "LD-9")),
        )
        got = enumerate_assignments(cat)
        # every station is locally grounded in the shipped system, so all
        # 16 switch states pass the guard
        assert len(got) == 16
        assert got[0].state(0, "gamma") == {"LD-2": 1, "LD-5": 1, "LD-7": 1, "LD-9": 1}

    def test_guard_filters_when_single_ground(self):
        grid = two_station_grid(ground_p=False, ground_q=True)
        from hvdcopf.builder import OpfOptions, build_opf

        _, cat = build_opf(grid, OpfOptions(n_b=0, nls_candidates=("L-m",)))
        got = enumerate_assignments(cat)
        # opening the only DMR strands station P's neutral: 1 of 2 combos valid
        assert len(got) == 1

    @pytest.mark.parametrize(
        "options,contingencies",
        [(OpfOptions(n_b=0, outage="Cb-A1.a", nls_candidates=("LD-2", "LD-5", "LD-7", "LD-9")), None),
         (OpfOptions(n_b=1), ("Cb-A1.a", "Cb-B1.a"))],
        ids=["nls-4-candidates", "scopf-2-outage-nb1"],
    )
    def test_order_is_the_tie_break_order(self, builtin_grid, options, contingencies):
        # enumeration solves in the order of `BinaryAssignment.sort_key`, the key `_better` breaks ties by
        got = enumerate_assignments(compile_program(builtin_grid, options, contingencies).catalogue)
        keys = [a.sort_key() for a in got]
        assert len(got) > 1 and all(a < b for a, b in zip(keys, keys[1:]))

    def test_cap_enforced(self, builtin_grid):
        _, cat = build_opf(
            builtin_grid,
            OpfOptions(n_b=0, nls_candidates=("LD-2", "LD-5", "LD-7", "LD-9")),
        )
        # 16 switch states: the cap admits exactly that many
        assert len(enumerate_assignments(cat, cap=16)) == 16
        with pytest.raises(EnumerationCapExceeded, match="branch-and-bound"):
            enumerate_assignments(cat, cap=15)


class TestNlsGuard:
    def test_shipped_plan_passes(self, builtin_grid):
        assert nls_guard(builtin_grid, {"LD-7": 0, "LD-9": 0})

    def test_stranded_neutral_fails(self):
        grid = two_station_grid(ground_p=False, ground_q=True)
        assert nls_guard(grid, {"L-m": 0}) is False
        assert ungrounded_neutral_groups(grid, {"L-m": 0}) == ["{Pm}"]

    def test_undecided_line_counts_in_service(self):
        # the only DMR, undecided, still carries station P's neutral to Q's ground
        grid = two_station_grid(ground_p=False, ground_q=True)
        assert ungrounded_neutral_groups(grid, {"L-m": None}) == []
        assert nls_guard(grid, {"L-m": None}) is True

    def test_all_in_service_passes(self, builtin_grid):
        assert nls_guard(builtin_grid, {})


class TestSolveMinlp:
    def _factory(self, grid, opts):
        return lambda a: build_opf(grid, opts, binaries=a)[0]

    def test_enumerate_picks_table_minimum(self, pair_grid):
        opts = OpfOptions(n_b=1, outage="St-P.a")
        _, cat = build_opf(pair_grid, opts)
        res = solve_minlp(self._factory(pair_grid, opts), cat, solver_options=FAST)
        assert res.status == "optimal"
        objs = [r.objective for r in res.table if r.objective is not None]
        assert res.objective == pytest.approx(min(objs))

    def test_bnb_matches_enumeration(self, pair_grid):
        opts = OpfOptions(n_b=0, outage="St-P.a", nls_candidates=("L-m",))
        _, cat = build_opf(pair_grid, opts)
        factory = self._factory(pair_grid, opts)
        enum = solve_minlp(factory, cat, strategy="enumerate", solver_options=FAST)
        bnb = solve_minlp(factory, cat, strategy="branch-and-bound", solver_options=FAST)
        assert enum.status == bnb.status == "optimal"
        assert bnb.objective == pytest.approx(enum.objective, rel=1e-6)
        assert bnb.assignment.sort_key() == enum.assignment.sort_key()

    def test_bnb_skips_the_child_that_strands_a_neutral(self):
        # opening L-m, the only DMR, leaves station P's neutral without ground
        grid = two_station_grid(ground_p=False, ground_q=True)
        opts = OpfOptions(n_b=0, nls_candidates=("L-m",))
        _, cat = build_opf(grid, opts)
        factory = self._factory(grid, opts)
        enum = solve_minlp(factory, cat, strategy="enumerate", solver_options=FAST)
        bnb = solve_minlp(factory, cat, strategy="branch-and-bound", solver_options=FAST)
        assert [r.status for r in bnb.table] == ["relaxation", "optimal"]
        assert not any("open={L-m}" in r.assignment.label() for r in bnb.table)
        assert enum.status == bnb.status == "optimal"
        assert bnb.objective == enum.objective
        assert bnb.assignment == enum.assignment

    def test_infeasible_budget_diagnosed(self, builtin_grid):
        opts = OpfOptions(n_b=4, outage="Cb-A1.a")
        _, cat = build_opf(builtin_grid, opts)
        for strategy in ("enumerate", "branch-and-bound"):
            res = solve_minlp(self._factory(builtin_grid, opts), cat, strategy=strategy, solver_options=FAST)
            assert res.status == "infeasible", strategy
            assert "cannot operate symmetrically" in res.diagnostics
            assert res.explored == 0 and res.table == [] and res.solution is None

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
        res = solve_minlp(self._factory(pair_grid, opts), cat, strategy=strategy, solver_options=FAST)
        assert res.status == "optimal" and res.diagnostics == ""
        assert len(solves) == res.explored == sum(r.solved for r in res.table)
        if strategy == "enumerate":
            assert res.explored == len(enumerate_assignments(cat))

    @pytest.mark.parametrize("strategy", ["enumerate", "branch-and-bound"])
    def test_solution_carries_its_program(self, pair_grid, strategy):
        opts = OpfOptions(n_b=0, outage="St-P.a", nls_candidates=("L-m",))
        _, cat = build_opf(pair_grid, opts)
        factory = self._factory(pair_grid, opts)
        res = solve_minlp(factory, cat, strategy=strategy, solver_options=FAST)
        assert res.strategy == strategy
        rebuilt = factory(res.assignment)
        problem = res.solution.problem
        assert problem.var_names == rebuilt.var_names and problem.eq_names == rebuilt.eq_names
        assert (problem.a_eq != rebuilt.a_eq).nnz == 0
        assert res.solution.objective == problem.eval_objective(res.solution.x)

    def test_bnb_matches_enumeration_on_coupled_scopf(self, pair_grid):
        from hvdcopf.builder import build_scopf

        contingencies = ("St-P.a", "St-Q.a")
        opts = OpfOptions(n_b=0, nls_candidates=("L-m",))
        factory = lambda a: build_scopf(pair_grid, contingencies, opts, binaries=a)[0]
        _, cat = build_scopf(pair_grid, contingencies, opts)
        enum = solve_minlp(factory, cat, strategy="enumerate", solver_options=FAST)
        bnb = solve_minlp(factory, cat, strategy="branch-and-bound", solver_options=FAST)
        assert enum.status == bnb.status == "optimal"
        assert bnb.objective == pytest.approx(enum.objective, rel=1e-6)
        assert enum.explored == 4  # two switch states per post-contingency scenario

    def test_unknown_strategy_rejected(self, pair_grid):
        opts = OpfOptions(n_b=0)
        _, cat = build_opf(pair_grid, opts)
        with pytest.raises(ValueError):
            solve_minlp(self._factory(pair_grid, opts), cat, strategy="magic")


class TestBnbPruning:
    """B&B prunes a partial node by its parent's bound before building it."""

    # one beta and one gamma level below the root: the root's rounding is
    # the first incumbent, and its children are partial nodes
    OPTS = OpfOptions(n_b=1, outage="Cb-A1.a", nls_candidates=("LD-2",))

    def _stub_solves(self, monkeypatch, statuses=(), otherwise="optimal"):
        """Every solve ends `otherwise` at objective 1.0 in 1 iteration, except those of the i-th node of `statuses`."""
        nodes = []

        def solve(problem, options=None, start=None):
            if problem not in nodes:
                nodes.append(problem)
            at = nodes.index(problem)
            status = statuses[at] if at < len(statuses) else otherwise
            return SimpleNamespace(status=status, objective=1.0, iterations=1, mirrored=False,
                                   values=lambda: defaultdict(float))

        monkeypatch.setattr(hvdcopf.engine, "solve_multistart", solve)

    def test_partial_child_of_pruning_parent_is_never_built(self, builtin_grid, monkeypatch):
        self._stub_solves(monkeypatch)
        built = []
        factory = lambda a: built.append(a) or a
        catalogue = compile_program(builtin_grid, self.OPTS).catalogue
        res = solve_minlp(factory, catalogue, strategy="branch-and-bound")
        # the root, then its rounding: the first incumbent
        assert res.status == "optimal" and res.explored == len(built) == 2
        incumbent_at = next(i for i, r in enumerate(res.table) if r.status == "optimal")
        assert incumbent_at == 1 and res.assignment == built[1]
        after = res.table[incumbent_at + 1:]
        # every node after the incumbent has a parent bound (1.0) that prunes
        unsolved = [r for r in after if not r.solved]
        assert len(unsolved) == len(after) == 2
        for rec in unsolved:
            assert not rec.assignment.is_complete() and rec.assignment not in built
            assert rec.status == "pruned-by-bound" and rec.objective == 1.0
        complete = [r for r in res.table if r.assignment.is_complete()]
        assert complete and all(r.solved and r.assignment in built for r in complete)
        assert res.search_counts() == {"solved": 2, "pruned_by_own_bound": 0, "pruned_unsolved": 2, "not_optimal": 0,
                                       "iterations": 2, "mirrored": 0}

    def test_rounded_assignment_is_solved_once(self, builtin_grid, monkeypatch):
        # the root's rounding is infeasible, so the search goes on without an
        # incumbent: the next relaxation rounds to the same assignment, and the
        # tree reaches it once more as a complete node
        self._stub_solves(monkeypatch, statuses=("optimal", "infeasible"))
        built = []
        catalogue = compile_program(builtin_grid, self.OPTS).catalogue
        res = solve_minlp(lambda a: built.append(a) or a, catalogue, strategy="branch-and-bound")
        rounded = built[1]
        assert rounded.is_complete() and res.table[1].status == "infeasible"
        assert res.status == "optimal" and res.explored == len(built) == len(set(built)) == 5
        assert [r.assignment for r in res.table].count(rounded) == 1
        assert all(r.solved for r in res.table if r.assignment.is_complete())
        assert all(r.assignment not in built for r in res.table if not r.solved)
        assert res.search_counts() == {"solved": 5, "pruned_by_own_bound": 0, "pruned_unsolved": 2, "not_optimal": 1,
                                       "iterations": 5, "mirrored": 0}

    @pytest.mark.parametrize("strategy, what", [("enumerate", "assignment"), ("branch-and-bound", "node")])
    def test_iteration_limit_makes_the_search_unproven(self, builtin_grid, monkeypatch, strategy, what):
        self._stub_solves(monkeypatch, statuses=("optimal", "iteration-limit"))
        catalogue = compile_program(builtin_grid, self.OPTS).catalogue
        res = solve_minlp(lambda a: a, catalogue, strategy=strategy)
        assert res.status == "optimal"
        assert res.diagnostics == f"unproven search: 1 {what} dropped at the iteration limit"
        assert res.search_counts()["not_optimal"] == 1

    @pytest.mark.parametrize("strategy, dropped, none_found", [
        ("enumerate", "6 assignments", "every admissible assignment is infeasible for the continuous program"),
        ("branch-and-bound", "1 node", "branch-and-bound found no feasible complete assignment"),
    ], ids=["enumerate", "branch-and-bound"])
    def test_search_without_incumbent_reports_why(self, builtin_grid, monkeypatch, strategy, dropped, none_found):
        # no solve is optimal: the search proved nothing when one stopped at
        # the iteration limit, and infeasibility when every one ended infeasible
        catalogue = compile_program(builtin_grid, self.OPTS).catalogue
        for otherwise, diagnostics in (("iteration-limit", f"unproven search: {dropped} dropped at the iteration limit"),
                                       ("infeasible", none_found)):
            self._stub_solves(monkeypatch, otherwise=otherwise)
            res = solve_minlp(lambda a: a, catalogue, strategy=strategy)
            assert (res.status, res.diagnostics) == (otherwise, diagnostics)
            assert res.solution is res.assignment is res.objective is None

    def test_shipped_four_outage_scopf(self, builtin_grid):
        contingencies = ("Cb-A1.a", "Cb-A1.b", "Cb-B1.a", "Cb-B1.b")
        template = compile_program(builtin_grid, OpfOptions(n_b=2), contingencies)
        res = solve_minlp(template.program, template.catalogue, strategy="branch-and-bound")
        assert res.status == "optimal" and res.diagnostics == ""
        # the root relaxation and its rounding, whose objective prunes the root's children unbuilt
        assert res.explored == 2
        root, rounded, *unsolved = res.table
        assert root.status == "relaxation" and rounded.status == "optimal" and rounded.assignment == res.assignment
        assert len(unsolved) == 2
        assert all(not r.solved and r.status == "pruned-by-bound" and r.objective == root.objective for r in unsolved)
        assert res.assignment.label() == "; ".join(f"k{k}:asym={{Cb-A1,Cb-B1}}" for k in range(1, 5))
        assert objective_in_currency(res.solution.problem, res.objective) == pytest.approx(85072.313, abs=1e-6 * 85072.313)

    @pytest.mark.parametrize("n_b", [2, 1])
    def test_bnb_matches_enumeration_on_shipped_two_outage_scopf(self, builtin_grid, n_b):
        template = compile_program(builtin_grid, OpfOptions(n_b=n_b), ("Cb-A1.a", "Cb-B1.a"))
        built = []
        factory = lambda a: built.append(a) or template.program(a)
        enum = solve_minlp(template.program, template.catalogue, strategy="enumerate")
        bnb = solve_minlp(factory, template.catalogue, strategy="branch-and-bound")
        assert bnb.status == enum.status == "optimal"
        assert abs(bnb.objective - enum.objective) <= REL_GAP * max(1.0, abs(enum.objective))
        complete = [a for a in built if a.is_complete()]
        assert complete and len(complete) == len(set(complete))

    def test_shipped_nls_4kv_table(self, builtin_grid):
        # the branching order on gamma follows the violation of each undecided
        # line's voltage row; the table pins it node by node
        opts = OpfOptions(n_b=0, outage="Cb-A1.a", offset_limit_kv=4.0, nls_candidates=("LD-2", "LD-5", "LD-7", "LD-9"))
        template = compile_program(builtin_grid, opts)
        res = solve_minlp(template.program, template.catalogue, strategy="branch-and-bound")
        asym = "k0:asym={Cb-A1,Cb-B1,Cb-C2,Cb-D1}"
        expect = [
            (f"{asym}; k0:open={{}} undecided={{LD-2,LD-5,LD-7,LD-9}}", "relaxation", 89.38104675401976),
            (f"{asym}; k0:open={{}} undecided={{LD-2,LD-5,LD-9}}", "relaxation", 89.38104675401975),
            (f"{asym}; k0:open={{}} undecided={{LD-2,LD-5}}", "relaxation", 106.21113292619387),
            (f"{asym}; k0:open={{}} undecided={{LD-2}}", "relaxation", 106.33888302910225),
            (asym, "optimal", 107.81570414145631),
            (f"{asym}; k0:open={{LD-2}}", "optimal", 111.00663052813451),
            (f"{asym}; k0:open={{LD-5}} undecided={{LD-2}}", "relaxation", 106.302225935018),
            (f"{asym}; k0:open={{LD-5}}", "optimal", 107.76924785084805),
            (f"{asym}; k0:open={{LD-2,LD-5}}", "optimal", 110.95867444519062),
            (f"{asym}; k0:open={{LD-9}} undecided={{LD-2,LD-5}}", "pruned-by-bound", 108.58122542309142),
            (f"{asym}; k0:open={{LD-7}} undecided={{LD-2,LD-5,LD-9}}", "relaxation", 89.38104675401927),
            (f"{asym}; k0:open={{LD-7}} undecided={{LD-2,LD-5}}", "pruned-by-bound", 108.5812254230914),
            (f"{asym}; k0:open={{LD-7,LD-9}} undecided={{LD-2,LD-5}}", "pruned-by-bound", 110.96110681374665),
        ]
        assert res.status == "optimal" and res.explored == 13
        assert [(r.assignment.label(), r.status, r.solved) for r in res.table] == [(l, s, True) for l, s, _ in expect]
        assert [r.objective for r in res.table] == pytest.approx([o for _, _, o in expect], rel=1e-9)
        assert res.assignment.label() == f"{asym}; k0:open={{LD-5}}"

    def test_shipped_nls_4kv_enumerated_table(self, builtin_grid):
        # the same MINLP enumerated: every assignment solved, in `sort_key` order (opened sets lexicographic)
        opts = OpfOptions(n_b=0, outage="Cb-A1.a", offset_limit_kv=4.0, nls_candidates=("LD-2", "LD-5", "LD-7", "LD-9"))
        template = compile_program(builtin_grid, opts)
        res = solve_minlp(template.program, template.catalogue, strategy="enumerate")
        asym = "k0:asym={Cb-A1,Cb-B1,Cb-C2,Cb-D1}"
        expect = [
            ("", 107.81570414145631),
            ("LD-2", 111.00663052813451),
            ("LD-2,LD-5", 110.95867444519062),
            ("LD-2,LD-5,LD-7", 113.82833856207667),
            ("LD-2,LD-5,LD-7,LD-9", 116.66115643651051),
            ("LD-2,LD-5,LD-9", 113.82833856207667),
            ("LD-2,LD-7", 113.84494481228886),
            ("LD-2,LD-7,LD-9", 116.66114619814797),
            ("LD-2,LD-9", 113.84494481228884),
            ("LD-5", 107.76924785084805),
            ("LD-5,LD-7", 110.55602547550849),
            ("LD-5,LD-7,LD-9", 112.8481417932461),
            ("LD-5,LD-9", 110.55602547550855),
            ("LD-7", 110.56854965561132),
            ("LD-7,LD-9", 112.84780253610855),
            ("LD-9", 110.56854965561129),
        ]
        labels = [asym + (f"; k0:open={{{opened}}}" if opened else "") for opened, _ in expect]
        assert res.status == "optimal" and res.explored == 16 and res.diagnostics == ""
        assert [(r.assignment.label(), r.status, r.solved) for r in res.table] == [(l, "optimal", True) for l in labels]
        assert [r.objective for r in res.table] == pytest.approx([o for _, o in expect], rel=1e-9)
        assert res.assignment.label() == f"{asym}; k0:open={{LD-5}}"


class TestWarmStart:
    """A relaxation starts warm from its parent's solution, a complete assignment from the last complete one."""

    NLS_4KV = OpfOptions(n_b=0, outage="Cb-A1.a", offset_limit_kv=4.0, nls_candidates=("LD-2", "LD-5", "LD-7", "LD-9"))
    PAIR = OpfOptions(n_b=0, outage="St-P.a", nls_candidates=("L-m",))
    TWO_OUTAGES = ("Cb-A1.a", "Cb-B1.a")

    @staticmethod
    def _solves(monkeypatch, flat=False):
        """Record (started warm, problem, solution) of every IPM solve; with `flat`, strip each start first."""
        solves = []
        solve = hvdcopf.ipm.solve

        def recorded(problem, options=None, start=None):
            sol = solve(problem, options, None if flat else start)
            solves.append((start is not None, problem, sol))
            return sol

        monkeypatch.setattr(hvdcopf.ipm, "solve", recorded)
        return solves

    @pytest.mark.parametrize("case, strategy", [
        ("nls-4kv", "enumerate"), ("nls-4kv", "branch-and-bound"),
        ("pair", "enumerate"), ("pair", "branch-and-bound"),
        ("scopf-2-outage-nb2", "enumerate"), ("scopf-2-outage-nb2", "branch-and-bound"),
        pytest.param("scopf-2-outage-nb1", "enumerate", marks=pytest.mark.xfail(strict=True, reason=(
            "the flat start ends the plan k1 {Cb-A1,Cb-C2,Cb-D1}, k2 {Cb-B1,Cb-C2,Cb-D1} at a local optimum "
            "2.9e-5 above the warm one; same labels, statuses and choice"))),
        ("scopf-2-outage-nb1", "branch-and-bound"),
        # the two pole outages of one station score exactly alike on a mirrored relaxation, so ties go by key
        ("scopf-8-outage-nb2", "branch-and-bound"),
    ])
    def test_same_search_as_the_flat_start(self, builtin_grid, pair_grid, monkeypatch, case, strategy):
        grid, opts, contingencies = {
            "nls-4kv": (builtin_grid, self.NLS_4KV, None),
            "pair": (pair_grid, self.PAIR, None),
            "scopf-2-outage-nb2": (builtin_grid, OpfOptions(n_b=2), self.TWO_OUTAGES),
            "scopf-2-outage-nb1": (builtin_grid, OpfOptions(n_b=1), self.TWO_OUTAGES),
            "scopf-8-outage-nb2": (builtin_grid, OpfOptions(n_b=2), tuple(builtin_grid.pole_converter_ids())),
        }[case]
        template = compile_program(grid, opts, contingencies)
        solves = self._solves(monkeypatch)
        warm = solve_minlp(template.program, template.catalogue, strategy=strategy)
        warm_solves = list(solves)
        self._solves(monkeypatch, flat=True)
        flat = solve_minlp(template.program, template.catalogue, strategy=strategy)
        assert warm.status == flat.status == "optimal" and warm.assignment == flat.assignment
        assert abs(warm.objective - flat.objective) <= REL_GAP * max(1.0, abs(flat.objective))
        assert (warm.explored, warm.diagnostics) == (flat.explored, flat.diagnostics)
        assert [(r.assignment.label(), r.status, r.solved) for r in warm.table] == [
            (r.assignment.label(), r.status, r.solved) for r in flat.table]
        for w, f in zip(warm.table, flat.table):
            assert (w.objective is None) == (f.objective is None)
            if f.objective is not None:
                assert abs(w.objective - f.objective) <= REL_GAP * max(1.0, abs(f.objective)), w.assignment.label()
        assert warm.iterations <= flat.iterations
        for started_warm, problem, sol in warm_solves:
            if started_warm and sol.status == "optimal":
                assert hvdcopf.ipm.check_kkt(problem, sol).max_residual <= 10 * SolverOptions().tol_kkt

    @pytest.mark.parametrize("strategy", ["enumerate", "branch-and-bound"])
    def test_search_counts_iterations(self, pair_grid, monkeypatch, strategy):
        solves = self._solves(monkeypatch)
        template = compile_program(pair_grid, self.PAIR)
        res = solve_minlp(template.program, template.catalogue, strategy=strategy)
        counts = res.search_counts()
        # only the first complete assignment and the root relaxation start flat
        assert [started_warm for started_warm, _, _ in solves] == (
            [False, True] if strategy == "enumerate" else [False, False, True])
        assert counts["iterations"] == sum(sol.iterations for _, _, sol in solves) > 0
        # counts, not times: a second search counts the same
        assert solve_minlp(template.program, template.catalogue, strategy=strategy).search_counts() == counts

    def test_the_rounded_leaf_starts_from_its_relaxation(self, pair_grid, monkeypatch):
        starts = []  # (start, solution) of each solve, in order
        solve = hvdcopf.engine.solve_multistart

        def recorded(problem, options=None, start=None):
            sol = solve(problem, options, start)
            starts.append((start, sol))
            return sol

        monkeypatch.setattr(hvdcopf.engine, "solve_multistart", recorded)
        # at N_b=1 the root leaves both selectors undecided, so its rounding is solved next
        template = compile_program(pair_grid, OpfOptions(n_b=1, nls_candidates=("L-m",)))
        res = solve_minlp(template.program, template.catalogue, strategy="branch-and-bound")
        assert [(r.status, r.assignment.is_complete()) for r in res.table[:2]] == [("relaxation", False),
                                                                                  ("optimal", True)]
        (root_start, root), (leaf_start, _) = starts
        assert root_start is None and leaf_start is root
        # with the faulted station asymmetric at N_b=0 the root branches on its line: its complete
        # children start as enumeration's do, flat and then from the last complete solve
        starts.clear()
        template = compile_program(pair_grid, self.PAIR)
        res = solve_minlp(template.program, template.catalogue, strategy="branch-and-bound")
        assert [r.assignment.is_complete() for r in res.table] == [False, True, True]
        _, (first_start, first), (second_start, _) = starts
        assert first_start is None and second_start is first

    def test_a_warm_solve_that_fails_is_recorded_as_it_ends(self, pair_grid, monkeypatch):
        # every warm solve stops at the iteration limit: each node is solved once, and that solve is its record
        solves = []
        solve = hvdcopf.ipm.solve

        def warm_fails(problem, options=None, start=None):
            sol = solve(problem, options, start)
            if start is not None:
                sol.status = "iteration-limit"
            solves.append((start is not None, sol))
            return sol

        monkeypatch.setattr(hvdcopf.ipm, "solve", warm_fails)
        template = compile_program(pair_grid, self.PAIR)
        res = solve_minlp(template.program, template.catalogue)
        assert [w for w, _ in solves] == [False, True]
        assert res.status == "optimal" and res.explored == 2
        assert [r.status for r in res.table] == ["optimal", "iteration-limit"]
        assert res.diagnostics == "unproven search: 1 assignment dropped at the iteration limit"
        assert res.search_counts()["iterations"] == sum(sol.iterations for _, sol in solves)


def test_assignment_labels_and_keys(builtin_grid):
    _, cat = build_opf(builtin_grid, OpfOptions(n_b=2, outage="Cb-A1.a"))
    assignments = enumerate_assignments(cat)
    labels = [a.label() for a in assignments]
    assert len(set(labels)) == len(labels)
    keys = [a.sort_key() for a in assignments]
    assert keys == sorted(keys)


def test_labels_in_tie_break_order_are_pinned(builtin_grid):
    # recorded before assignments were keyed by binary; assignments.csv and `_better` read both
    lines = ("LD-2", "LD-5", "LD-7", "LD-9")
    asym = "k0:asym={Cb-A1,Cb-B1,Cb-C2,Cb-D1}"
    opened = sorted(c for n in range(len(lines) + 1) for c in itertools.combinations(lines, n))
    k12, k34 = ("Cb-A1,Cb-B1", "Cb-A1,Cb-C2", "Cb-A1,Cb-D1"), ("Cb-A1,Cb-B1", "Cb-B1,Cb-C2", "Cb-B1,Cb-D1")
    expect = {
        "nls": [asym + (f"; k0:open={{{','.join(c)}}}" if c else "") for c in opened],
        "scopf": ["; ".join(f"k{k}:asym={{{s}}}" for k, s in enumerate(c, 1))
                  for c in itertools.product(k12, k12, k34, k34)],
    }
    catalogues = {
        "nls": build_opf(builtin_grid, OpfOptions(n_b=0, outage="Cb-A1.a", offset_limit_kv=4.0,
                                                  nls_candidates=lines))[1],
        "scopf": compile_program(builtin_grid, OpfOptions(n_b=2), ("Cb-A1.a", "Cb-A1.b", "Cb-B1.a", "Cb-B1.b")).catalogue,
    }
    for name, catalogue in catalogues.items():
        assignments = sorted(enumerate_assignments(catalogue, cap=10**6), key=lambda a: a.sort_key())
        assert [a.label() for a in assignments] == expect[name], name
    assert len(expect["nls"]) == 16 and len(expect["scopf"]) == 81
