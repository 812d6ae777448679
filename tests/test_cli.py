import json
import re
from types import SimpleNamespace

import pytest

import hvdcopf.engine
import hvdcopf.ipm
from hvdcopf.cli import EXIT_INFEASIBLE, EXIT_INPUT, EXIT_ITERATION_LIMIT, EXIT_OK, main

from conftest import two_station_grid
from hvdcopf.io import save_grid


@pytest.fixture()
def pair_grid_file(tmp_path):
    p = tmp_path / "pair.json"
    save_grid(two_station_grid(), p)
    return p


def test_opf_run_writes_reports(tmp_path, pair_grid_file, capsys):
    rc = main(
        [
            "--grid", str(pair_grid_file),
            "--study", "opf",
            "--nb", "0",
            "--outage", "St-P.a",
            "--out-dir", str(tmp_path / "out"),
        ]
    )
    assert rc == EXIT_OK
    out = capsys.readouterr().out
    assert "status=optimal" in out
    for name in ("summary.csv", "stations.csv", "offsets.csv", "assignments.csv", "manifest.json"):
        assert (tmp_path / "out" / name).exists()


def test_reports_are_byte_identical(tmp_path, pair_grid_file):
    for d in ("a", "b"):
        rc = main(
            [
                "--grid", str(pair_grid_file),
                "--study", "opf",
                "--nb", "0",
                "--outage", "St-P.a",
                "--out-dir", str(tmp_path / d),
            ]
        )
        assert rc == EXIT_OK
    for name in ("summary.csv", "stations.csv", "offsets.csv", "assignments.csv", "manifest.json"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def test_a_strategy_switch_is_printed_after_the_table(tmp_path, capsys):
    # the shipped 4-outage SCOPF at N_b=2 has 3^4 = 81 joint assignments, past the SCOPF cap of 64
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"schema_version": 1, "study": "scopf", "n_b": 2, "strategy": "enumerate",
                               "contingencies": ["Cb-A1.a", "Cb-A1.b", "Cb-B1.a", "Cb-B1.b"]}))
    assert main(["--config", str(cfg), "--out-dir", str(tmp_path / "out")]) == EXIT_OK
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("[scopf] n_b=2 status=optimal")
    assert lines[1] == "[scopf] 81 joint assignments exceed the cap (64): searched by branch-and-bound"
    assert all(line.startswith("wrote ") for line in lines[2:])


def test_flags_override_config(tmp_path, pair_grid_file):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"schema_version": 1, "study": "opf", "n_b": 2, "outage": "St-P.a"}))
    rc = main(
        [
            "--grid", str(pair_grid_file),
            "--config", str(cfg),
            "--nb", "1",
            "--out-dir", str(tmp_path / "out"),
        ]
    )
    assert rc == EXIT_OK
    manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
    assert manifest["options"]["n_b"] == 1


def test_infeasible_exit_code(tmp_path, pair_grid_file):
    # with an outage, both stations symmetric is unattainable
    rc = main(
        [
            "--grid", str(pair_grid_file),
            "--study", "opf",
            "--nb", "2",
            "--outage", "St-P.a",
            "--out-dir", str(tmp_path / "out"),
        ]
    )
    assert rc == EXIT_INFEASIBLE


def test_iteration_limit_exit_code(tmp_path, pair_grid_file, monkeypatch):
    # every solve stops at the iteration limit: the study proves nothing
    stopped = SimpleNamespace(status="iteration-limit", objective=1.0, iterations=200, mirrored=False)
    monkeypatch.setattr(hvdcopf.engine, "solve_multistart", lambda problem, options=None, start=None: stopped)
    rc = main(["--grid", str(pair_grid_file), "--study", "opf", "--out-dir", str(tmp_path / "out")])
    assert rc == EXIT_ITERATION_LIMIT


def test_input_error_exit_codes(tmp_path, capsys):
    assert main(["--study", "opf", "--grid", str(tmp_path / "missing.json")]) == EXIT_INPUT
    assert main([]) == EXIT_INPUT
    bad = tmp_path / "bad.json"
    bad.write_text("{")
    assert main(["--study", "opf", "--grid", str(bad)]) == EXIT_INPUT
    bad.write_bytes(b"\xff\xfe{")
    assert main(["--study", "opf", "--grid", str(bad)]) == EXIT_INPUT
    bad.write_text("[]")
    assert main(["--study", "opf", "--grid", str(bad)]) == EXIT_INPUT
    bad.write_text("{}")
    assert main(["--study", "opf", "--grid", str(bad)]) == EXIT_INPUT
    err = capsys.readouterr().err
    assert "top-level document must be an object" in err
    assert "schema_version: missing required field" in err


@pytest.mark.parametrize(
    "doc,message",
    [
        ({"study": "opf", "n_b": "two"}, "n_b: must be an integer"),
        ({"study": "opf", "n_b": True}, "n_b: must be an integer"),
        ({"study": "sweep-nb", "nb_values": [1, "0"]}, r"nb_values\[1\]: must be an integer"),
        ({"study": "opf", "solver": {"tol_kkt": "x"}}, "solver.tol_kkt: must be a number"),
        ({"study": "opf", "solver": {"tol_kkt": -1e-6}}, "solver.tol_kkt: must be positive"),
        ({"study": "opf", "solver": {"max_iter": 0}}, "solver.max_iter: must be positive"),
        ({"study": "opf", "solver": {"max_iter": 2.5}}, "solver.max_iter: must be an integer"),
        ({"study": "scopf", "contingencies": "St-P.a"}, "contingencies: must be a list"),
        ({"study": "nls", "nls_candidates": "L-m"}, "nls_candidates: must be a list"),
        ({"study": "nls", "nls_candidates": [7]}, r"nls_candidates\[0\]: must be a string"),
        ({"study": "opf", "offset_limit_kv": "8"}, "offset_limit_kv: must be a number"),
        ({"study": "nls", "offset_limits_kv": [8, None]}, r"offset_limits_kv\[1\]: must be a number"),
        ({"study": "opf", "outage": "Zz.a"}, "Zz.a"),
        ({"study": "opf", "outage": "St-P.z"}, "St-P.z"),
        ({"study": "scopf", "contingencies": ["St-P.a", "Zz.a"]}, "Zz.a"),
        ({"study": "nls", "outage": "St-P.a", "nls_candidates": ["L-zz"]}, "L-zz"),
        ({"study": "opf", "offset_limit_kv": float("nan")}, "offset_limit_kv: must be finite"),
        ({"study": "opf", "solver": {"tol_kkt": float("inf")}}, "solver.tol_kkt: must be finite"),
        ({"study": "opf", "solver": []}, "solver: must be an object"),
        ({"study": "opf", "outage": "St-P.a", "offset_limit_kv": -4.0}, "offset_limit_kv must be nonnegative"),
    ],
)
def test_malformed_config_is_an_input_error(tmp_path, pair_grid_file, capsys, doc, message):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"schema_version": 1, **doc}))
    rc = main(["--grid", str(pair_grid_file), "--config", str(cfg), "--out-dir", str(tmp_path / "out")])
    assert rc == EXIT_INPUT
    err = capsys.readouterr().err
    assert err.startswith("input error: ")
    assert re.search(message, err)


@pytest.mark.parametrize(
    "doc,message",
    [
        ({"study": "nls", "outage": "St-P.a", "nls_candidates": ["L-m"], "offset_limits_kv": [8.0, -4.0]},
         "offset_limit_kv must be nonnegative"),
        ({"study": "sweep-nb", "outage": "St-P.a", "nb_values": [1, 0, 3]}, "N_b=3 out of range"),
        ({"study": "scopf", "nb_values": [1, 0, 3]}, "N_b=3 out of range"),
    ],
)
def test_bad_later_case_is_an_input_error_before_any_solve(
    tmp_path, pair_grid_file, capsys, monkeypatch, doc, message
):
    solves = []
    solve = hvdcopf.ipm.solve
    monkeypatch.setattr(hvdcopf.ipm, "solve", lambda *args, **kwargs: solves.append(args) or solve(*args, **kwargs))
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"schema_version": 1, **doc}))
    rc = main(["--grid", str(pair_grid_file), "--config", str(cfg), "--out-dir", str(tmp_path / "out")])
    assert rc == EXIT_INPUT and solves == []
    err = capsys.readouterr().err
    assert err.startswith("input error: ") and re.search(message, err)


@pytest.mark.parametrize(
    "flags,doc,field",
    [
        ([], {"study": "opf", "contingencies": ["St-P.a"]}, "contingencies"),
        (["--nb", "1", "--outage", "St-P.a"], {"study": "sweep-nb"}, "n_b"),
        (["--outage", "St-P.a"], {"study": "scopf"}, "outage"),
        ([], {"study": "scopf", "nb_values": [1, 0], "n_b": 1}, "n_b"),
        (["--offset-limit-kv", "4", "--outage", "St-P.a"], {"study": "nls"}, "offset_limit_kv"),
    ],
    ids=["opf", "sweep-nb", "scopf", "scopf-nb-values", "nls"],
)
def test_option_the_study_does_not_read_is_an_input_error(
    tmp_path, pair_grid_file, capsys, monkeypatch, flags, doc, field
):
    solves = []
    solve = hvdcopf.ipm.solve
    monkeypatch.setattr(hvdcopf.ipm, "solve", lambda *args, **kwargs: solves.append(args) or solve(*args, **kwargs))
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"schema_version": 1, **doc}))
    rc = main(["--grid", str(pair_grid_file), "--config", str(cfg), "--out-dir", str(tmp_path / "out"), *flags])
    assert rc == EXIT_INPUT and solves == []
    err = capsys.readouterr().err
    assert err.startswith(f"input error: {field}: the {doc['study']} study does not read it")


@pytest.mark.parametrize("value", ["nan", "inf"])
def test_non_finite_offset_limit_flag_is_an_input_error_before_any_solve(tmp_path, capsys, monkeypatch, value):
    # argparse's float admits them; the flag used to run the search and report an iteration limit
    solves = []
    solve = hvdcopf.ipm.solve
    monkeypatch.setattr(hvdcopf.ipm, "solve", lambda *args, **kwargs: solves.append(args) or solve(*args, **kwargs))
    rc = main(["--study", "opf", "--nb", "2", "--outage", "Cb-A1.a", "--offset-limit-kv", value,
               "--out-dir", str(tmp_path / "out")])
    assert rc == EXIT_INPUT and solves == []
    assert capsys.readouterr().err.startswith(f"input error: offset_limit_kv must be nonnegative and finite, got {value}")


@pytest.mark.parametrize(
    "key,value,message",
    [("base_kv", "x", r"dc_nodes\[0\].base_kv: must be a number"),
     ("grounded", "no", r"dc_nodes\[0\].grounded: must be true or false")],
)
def test_mistyped_grid_field_is_an_input_error(tmp_path, pair_grid_file, capsys, key, value, message):
    doc = json.loads(pair_grid_file.read_text())
    doc["dc_nodes"][0][key] = value
    pair_grid_file.write_text(json.dumps(doc))
    rc = main(["--study", "opf", "--grid", str(pair_grid_file), "--out-dir", str(tmp_path / "out")])
    assert rc == EXIT_INPUT
    err = capsys.readouterr().err
    assert err.startswith("input error: ")
    assert re.search(message, err)


def test_non_object_grid_entry_is_an_input_error(tmp_path, pair_grid_file, capsys):
    doc = json.loads(pair_grid_file.read_text())
    doc["dc_nodes"].append(5)
    pair_grid_file.write_text(json.dumps(doc))
    rc = main(["--study", "opf", "--grid", str(pair_grid_file), "--out-dir", str(tmp_path / "out")])
    assert rc == EXIT_INPUT
    err = capsys.readouterr().err
    assert err.startswith("input error: ")
    assert re.search(rf"dc_nodes\[{len(doc['dc_nodes']) - 1}\]: must be an object", err)


def test_misspelt_ac_terminal_is_an_input_error(tmp_path, builtin_grid, capsys):
    path = tmp_path / "case.json"
    save_grid(builtin_grid, path)
    doc = json.loads(path.read_text())
    doc["converter_stations"][0]["pole_converters"][0]["ac_terminal"] = "A1.ac-typo"
    path.write_text(json.dumps(doc))
    rc = main(["--study", "opf", "--grid", str(path), "--out-dir", str(tmp_path / "out")])
    assert rc == EXIT_INPUT
    err = capsys.readouterr().err
    assert err.startswith("input error: ")
    assert "Cb-A1.a: AC terminal 'A1.ac-typo'" in err


def test_sweep_study(tmp_path, pair_grid_file):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(
        json.dumps(
            {
                "schema_version": 1,
                "study": "sweep-nb",
                "nb_values": [1, 0],
                "outage": "St-P.a",
            }
        )
    )
    rc = main(
        ["--grid", str(pair_grid_file), "--config", str(cfg), "--out-dir", str(tmp_path / "out")]
    )
    assert rc == EXIT_OK
    text = (tmp_path / "out" / "sweep_nb.csv").read_text()
    assert text.splitlines()[0].startswith("n_b,")
    assert len(text.splitlines()) == 3
