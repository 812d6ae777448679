import json
import re

import pytest

from hvdcopf.cli import EXIT_INFEASIBLE, EXIT_INPUT, EXIT_OK, main

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
    for name in ("summary.csv", "stations.csv", "offsets.csv", "assignments.csv"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


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


def test_input_error_exit_codes(tmp_path, capsys):
    assert main(["--study", "opf", "--grid", str(tmp_path / "missing.json")]) == EXIT_INPUT
    assert main([]) == EXIT_INPUT
    bad = tmp_path / "bad.json"
    bad.write_text("{")
    assert main(["--study", "opf", "--grid", str(bad)]) == EXIT_INPUT


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
