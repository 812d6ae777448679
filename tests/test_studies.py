import csv
import json
from dataclasses import fields

import pytest

import hvdcopf.ipm
import hvdcopf.studies
from hvdcopf import naming as nm
from hvdcopf.builder import OpfOptions, ProgramTemplate, build_opf, build_scopf
from hvdcopf.converters import dc_power_balance_residual, station_current_identity
from hvdcopf.engine import MinlpSolution
from hvdcopf.io import StudyConfig
from hvdcopf.ipm import SolverOptions, check_kkt, solve
from hvdcopf.studies import StudyError, run_nls, run_opf, run_scopf, run_study

from conftest import two_station_grid


@pytest.fixture()
def pair():
    return two_station_grid()


def _solved_values(grid, opts):
    problem, _ = build_opf(grid, opts)
    sol = solve(problem)
    assert sol.status == "optimal"
    return problem, sol, sol.values(problem)


class TestSolvedStateInvariants:
    def test_energy_accounting(self, pair):
        _, _, values = _solved_values(pair, OpfOptions(n_b=2))
        assert abs(dc_power_balance_residual(values)) <= 1e-6

    def test_energy_accounting_post_contingency(self, pair):
        _, _, values = _solved_values(pair, OpfOptions(n_b=0, outage="St-P.a"))
        assert abs(dc_power_balance_residual(values)) <= 1e-6

    def test_station_current_identity_every_station(self, pair):
        _, _, values = _solved_values(pair, OpfOptions(n_b=0, outage="St-P.a"))
        for cs in pair.bipolar_stations():
            assert abs(station_current_identity(values, cs)) <= 1e-9

    def test_symmetric_station_return_current_sign(self, pair):
        # with opposite pole voltage bases, the negative-pole converter's
        # return current matches its pole current in per-unit sign and
        # magnitude while the station carries power
        problem, sol, v = _solved_values(pair, OpfOptions(n_b=2))
        ib1 = v[nm.conv_i("St-Q", "b", 1)]
        ib2 = v[nm.conv_i("St-Q", "b", 2)]
        assert ib2 == pytest.approx(ib1, abs=1e-9)
        assert abs(ib1) > 1e-3  # actually carrying power

    def test_beta_one_means_zero_dmr_injection(self, pair):
        _, _, values = _solved_values(pair, OpfOptions(n_b=2))
        for cs in pair.bipolar_stations():
            assert abs(values[nm.dmr_i(cs.id, 0)]) <= 1e-8


def test_scopf_total_dominates_base_opf(pair):
    """Adding scenarios and reserves never pays relative to the plain base case."""
    base_problem, _ = build_opf(pair, OpfOptions(n_b=2))
    base = solve(base_problem)
    scopf_problem, _ = build_scopf(pair, ("St-P.a",), OpfOptions(n_b=0))
    scopf = solve(scopf_problem)
    assert base.status == scopf.status == "optimal"
    assert scopf.objective >= base.objective - 1e-9


def test_capped_enumeration_records_branch_and_bound(builtin_grid, tmp_path):
    # 3^4 joint assignments exceed the SCOPF enumeration cap of 64
    outages = ("Cb-A1.a", "Cb-A1.b", "Cb-B1.a", "Cb-B1.b")
    cfg = StudyConfig(study="scopf", contingencies=outages, nb_values=(2,), strategy="enumerate", out_dir=str(tmp_path))
    report = run_scopf(builtin_grid, cfg)
    assert report.status == "optimal"
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["minlp"] == [{
        "n_b": 2, "strategy": "branch-and-bound", "solved": 2, "pruned_by_own_bound": 0,
        "pruned_unsolved": 2, "not_optimal": 0, "iterations": 48, "cold_resolves": 0, "diagnostics": "",
    }]


def test_assignment_table_marks_unsolved_rows(builtin_grid, tmp_path, monkeypatch):
    # a node pruned by its parent's bound carries that bound as its
    # objective; only the `solved` column tells it from a solved node
    searches = []
    minlp = hvdcopf.studies._minlp

    def recording_minlp(*args, **kwargs):
        searches.append(minlp(*args, **kwargs))
        return searches[-1]

    monkeypatch.setattr(hvdcopf.studies, "_minlp", recording_minlp)
    outages = ("Cb-A1.a", "Cb-A1.b", "Cb-B1.a", "Cb-B1.b")
    cfg = StudyConfig(study="scopf", contingencies=outages, nb_values=(2,), out_dir=str(tmp_path))
    run_scopf(builtin_grid, cfg)
    (search,) = json.loads((tmp_path / "manifest.json").read_text())["minlp"]
    with hvdcopf.studies._write_assignment_table(tmp_path, searches[0]).open() as fh:
        rows = list(csv.DictReader(fh))
    unsolved = [r for r in rows if r["solved"] == "0"]
    assert len(unsolved) == search["pruned_unsolved"] > 0
    assert {r["status"] for r in unsolved} == {"pruned-by-bound"}
    assert sum(r["solved"] == "1" for r in rows) == search["solved"]


@pytest.mark.parametrize("statuses", [("iteration-limit", "infeasible"), ("infeasible", "iteration-limit")])
def test_study_status_is_its_worst_case_in_any_order(pair, tmp_path, monkeypatch, statuses):
    # a case that proved nothing outranks an infeasible one, whichever comes last
    ends = iter(statuses)
    monkeypatch.setattr(hvdcopf.studies, "_minlp", lambda *args, **kwargs: MinlpSolution(next(ends), None, None, None, 0))
    cfg = StudyConfig(study="sweep-nb", outage="St-P.a", nb_values=(1, 0), out_dir=str(tmp_path))
    report = run_study(pair, cfg)
    assert [r["status"] for r in report.rows] == list(statuses)
    assert report.status == "iteration-limit"


def test_nls_row_status_is_its_worst_case(pair, tmp_path, monkeypatch):
    # unrestricted, then the 8 kV base and NLS cases: the 8 kV row is as bad as the worse of its two
    ends = iter(("infeasible", "infeasible", "iteration-limit"))
    monkeypatch.setattr(hvdcopf.studies, "_minlp", lambda *args, **kwargs: MinlpSolution(next(ends), None, None, None, 0))
    cfg = StudyConfig(study="nls", n_b=0, outage="St-P.a", offset_limits_kv=(8.0,), nls_candidates=("L-m",),
                      out_dir=str(tmp_path))
    report = run_study(pair, cfg)
    assert [(r["offset_limit_kv"], r["status"]) for r in report.rows] == [("unrestricted", "infeasible"),
                                                                          (8.0, "iteration-limit")]
    assert report.status == "iteration-limit"


def test_manifest_records_each_search(pair, tmp_path):
    cfg = StudyConfig(study="nls", n_b=0, outage="St-P.a", offset_limits_kv=(8.0,), nls_candidates=("L-m",),
                      out_dir=str(tmp_path))
    run_nls(pair, cfg)
    searches = json.loads((tmp_path / "manifest.json").read_text())["minlp"]
    assert [(s["offset_limit_kv"], s["nls"], s["strategy"], s["solved"]) for s in searches] == [
        (None, False, "enumerate", 1), (8.0, False, "enumerate", 1), (8.0, True, "enumerate", 2)]


class TestRunners:
    def test_run_opf_rows(self, pair, tmp_path):
        cfg = StudyConfig(study="opf", n_b=0, outage="St-P.a", out_dir=str(tmp_path))
        report = run_opf(pair, cfg)
        assert report.status == "optimal"
        row = report.rows[0]
        assert row["objective_eur"] > 0
        assert row["kkt"] <= 1e-5
        assert row["asym_stations"] == "St-P|St-Q"

    def test_sweep_requires_outage(self, pair, tmp_path):
        cfg = StudyConfig(study="sweep-nb", out_dir=str(tmp_path))
        with pytest.raises(StudyError):
            run_study(pair, cfg)

    def test_run_scopf_reports_reserves(self, pair, tmp_path):
        cfg = StudyConfig(
            study="scopf",
            nb_values=(1, 0),
            contingencies=("St-P.a", "St-P.b"),
            out_dir=str(tmp_path),
        )
        report = run_scopf(pair, cfg)
        assert report.status == "optimal"
        assert [r["n_b"] for r in report.rows] == [1, 0]
        assert all(r["reserve_cost_eur"] is not None for r in report.rows)
        assert report.rows[0]["objective_eur"] >= report.rows[1]["objective_eur"] - 1e-6

    def test_run_nls_table_shape(self, pair, tmp_path):
        cfg = StudyConfig(
            study="nls",
            n_b=0,
            outage="St-P.a",
            offset_limits_kv=(8.0, 4.0),
            nls_candidates=("L-m",),
            out_dir=str(tmp_path),
        )
        report = run_nls(pair, cfg)
        assert [r["offset_limit_kv"] for r in report.rows] == ["unrestricted", 8.0, 4.0]
        unres = report.rows[0]
        assert unres["objective_nls_eur"] is None and unres["lines_disconnected"] == ""
        for row in report.rows[1:]:
            if row["objective_nls_eur"] is not None:
                assert row["objective_nls_eur"] <= row["objective_base_eur"] + 1e-6
        assert (tmp_path / "nls.csv").exists()

    def test_nls_without_candidates_equals_base(self, pair, tmp_path):
        cfg = StudyConfig(
            study="nls", n_b=0, outage="St-P.a",
            offset_limits_kv=(8.0,), out_dir=str(tmp_path),
        )
        report = run_nls(pair, cfg)
        row = report.rows[1]
        assert row["objective_nls_eur"] == pytest.approx(row["objective_base_eur"], rel=1e-9)
        assert row["lines_disconnected"] == ""

    def test_manifest_carries_grid_hash(self, pair, tmp_path):
        import json

        cfg = StudyConfig(study="opf", n_b=2, out_dir=str(tmp_path))
        run_opf(pair, cfg)
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert len(manifest["grid_sha256"]) == 64
        assert manifest["study"] == "opf"

    def test_manifest_records_every_option(self, pair, tmp_path):
        import json

        manifests = []
        for tol in (1e-6, 1e-7):
            out = tmp_path / f"tol{tol:g}"
            cfg = StudyConfig(study="opf", n_b=2, out_dir=str(out), solver=SolverOptions(tol_kkt=tol))
            run_opf(pair, cfg)
            manifests.append((out / "manifest.json").read_text())
        assert manifests[0] != manifests[1]
        options = json.loads(manifests[1])["options"]
        assert options["solver"] == {"tol_kkt": 1e-7, "max_iter": SolverOptions().max_iter}
        assert set(options) == {f.name for f in fields(StudyConfig)} - {"out_dir"}


def test_studies_build_each_program_once(pair_grid, tmp_path, monkeypatch):
    """Each MINLP compiles once; every program it makes is solved; the reports read the solved program."""
    calls = {"compile": 0, "program": 0, "solve": 0}
    results = []

    def counting(name, original):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(hvdcopf.studies, "compile_program", counting("compile", hvdcopf.studies.compile_program))
    monkeypatch.setattr(ProgramTemplate, "program", counting("program", ProgramTemplate.program))
    monkeypatch.setattr(hvdcopf.ipm, "solve", counting("solve", hvdcopf.ipm.solve))
    minlp = hvdcopf.studies.solve_minlp

    def captured(*args, **kwargs):
        results.append(minlp(*args, **kwargs))
        return results[-1]

    monkeypatch.setattr(hvdcopf.studies, "solve_minlp", captured)
    run_nls(pair_grid, StudyConfig(study="nls", n_b=0, outage="St-P.a", offset_limits_kv=(8.0,),
                                   nls_candidates=("L-m",), out_dir=str(tmp_path / "nls")))
    run_scopf(pair_grid, StudyConfig(study="scopf", nb_values=(0,), contingencies=("St-P.a", "St-Q.a"),
                                     nls_candidates=("L-m",), strategy="branch-and-bound",
                                     out_dir=str(tmp_path / "scopf")))
    assert calls["solve"] > len(results) == 4
    assert calls["compile"] == len(results)
    assert calls["program"] == calls["solve"]
    for res in results:
        assert res.status == "optimal"
        assert check_kkt(res.problem, res.solution).max_residual <= 10.0 * SolverOptions().tol_kkt
