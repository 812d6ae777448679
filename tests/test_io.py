import json
from dataclasses import fields

import pytest

from hvdcopf.io import (
    GridSchemaError,
    StudyConfig,
    builtin_case_path,
    grid_to_doc,
    load_config,
    load_grid,
    save_grid,
)
from hvdcopf.ipm import SolverOptions


def test_builtin_case_shape(builtin_grid):
    bipolar = builtin_grid.bipolar_stations()
    assert len(bipolar) == 4
    dcdc = [cs for cs in builtin_grid.converter_stations if cs.config.value == "dc-dc"]
    assert len(dcdc) == 1
    wind = [g for g in builtin_grid.generators if g.is_wind]
    assert any(g.p_max_mw == 500.0 for g in wind)


def test_round_trip(tmp_path, builtin_grid):
    path = tmp_path / "grid.json"
    save_grid(builtin_grid, path)
    again = load_grid(path)
    assert again == builtin_grid


def _doc():
    return json.loads(builtin_case_path().read_text())


def _write(tmp_path, doc):
    p = tmp_path / "bad.json"
    p.write_text(json.dumps(doc))
    return p


def test_unknown_field_rejected_with_path(tmp_path):
    doc = _doc()
    doc["dc_nodes"][0]["voltage"] = 1.0
    with pytest.raises(GridSchemaError, match=r"dc_nodes\[0\].voltage"):
        load_grid(_write(tmp_path, doc))


def test_missing_field_rejected(tmp_path):
    doc = _doc()
    del doc["dc_lines"][0]["resistance_pu"]
    with pytest.raises(GridSchemaError, match="missing required field"):
        load_grid(_write(tmp_path, doc))


def test_version_mismatch_rejected(tmp_path):
    doc = _doc()
    doc["schema_version"] = 99
    with pytest.raises(GridSchemaError, match="unsupported version"):
        load_grid(_write(tmp_path, doc))


def test_duplicate_node_id_rejected(tmp_path):
    doc = _doc()
    doc["dc_nodes"].append(dict(doc["dc_nodes"][0]))
    with pytest.raises(GridSchemaError, match="duplicate"):
        load_grid(_write(tmp_path, doc))


def test_empty_file_rejected(tmp_path):
    p = tmp_path / "empty.json"
    p.write_text("")
    with pytest.raises(GridSchemaError, match="invalid JSON"):
        load_grid(p)


def test_unknown_enum_rejected(tmp_path):
    doc = _doc()
    doc["dc_nodes"][0]["kind"] = "tripole"
    with pytest.raises(GridSchemaError, match="unknown node kind"):
        load_grid(_write(tmp_path, doc))


def test_grid_doc_covers_everything(builtin_grid):
    doc = grid_to_doc(builtin_grid)
    assert len(doc["dc_nodes"]) == len(builtin_grid.dc_nodes)
    assert doc["schema_version"] == 1
    assert doc["currency"] == "EUR"


class TestConfig:
    def _write(self, tmp_path, doc):
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps(doc))
        return p

    def test_nls_config(self, tmp_path):
        cfg = load_config(
            self._write(
                tmp_path,
                {
                    "schema_version": 1,
                    "study": "nls",
                    "n_b": 0,
                    "outage": "Cb-A1.a",
                    "offset_limits_kv": [8, 4],
                    "nls_candidates": ["LD-7", "LD-9"],
                },
            )
        )
        assert cfg.study == "nls"
        assert cfg.offset_limits_kv == (8.0, 4.0)
        assert cfg.nls_candidates == ("LD-7", "LD-9")

    def test_sweep_config(self, tmp_path):
        cfg = load_config(
            self._write(
                tmp_path,
                {"schema_version": 1, "study": "sweep-nb", "nb_values": [3, 2, 1, 0], "outage": "Cb-A1.a"},
            )
        )
        assert cfg.nb_values == (3, 2, 1, 0)

    def test_unknown_study_rejected(self, tmp_path):
        with pytest.raises(GridSchemaError, match="unknown study"):
            load_config(self._write(tmp_path, {"schema_version": 1, "study": "party"}))

    def test_unknown_field_rejected(self, tmp_path):
        with pytest.raises(GridSchemaError, match="unknown field"):
            load_config(self._write(tmp_path, {"schema_version": 1, "study": "opf", "bogus": 1}))

    @pytest.mark.parametrize(
        "key,value",
        [("threads", 2), ("seed", 7), ("count_faulted_as_asymmetric", False), ("count_faulted_as_asymmetric", True)],
    )
    def test_removed_keys_rejected(self, tmp_path, key, value):
        with pytest.raises(GridSchemaError, match=f"{key}: unknown field"):
            load_config(self._write(tmp_path, {"schema_version": 1, "study": "nls", key: value}))

    def test_every_field_round_trips(self, tmp_path):
        doc = {
            "study": "scopf",
            "n_b": 3,
            "nb_values": [2, 1],
            "nb_mode": "at-least",
            "outage": "Cb-B1.b",
            "contingencies": ["Cb-A1.a", "Cb-D1.b"],
            "offset_limit_kv": 6.5,
            "offset_limits_kv": [12.0],
            "nls_candidates": ["LD-9"],
            "strategy": "branch-and-bound",
            "out_dir": "elsewhere",
            "solver": {"tol_kkt": 1e-7, "max_iter": 50},
        }
        cfg = load_config(self._write(tmp_path, {"schema_version": 1, **doc}))
        want = StudyConfig(
            study="scopf",
            n_b=3,
            nb_values=(2, 1),
            nb_mode="at-least",
            outage="Cb-B1.b",
            contingencies=("Cb-A1.a", "Cb-D1.b"),
            offset_limit_kv=6.5,
            offset_limits_kv=(12.0,),
            nls_candidates=("LD-9",),
            strategy="branch-and-bound",
            out_dir="elsewhere",
            solver=SolverOptions(tol_kkt=1e-7, max_iter=50),
        )
        assert cfg == want
        # every field is set, and none to its default
        for given, loaded, default in ((doc, cfg, StudyConfig(study="opf")), (doc["solver"], cfg.solver, SolverOptions())):
            assert set(given) == {f.name for f in fields(default)}
            assert all(getattr(loaded, f.name) != getattr(default, f.name) for f in fields(default))

    def test_bad_solver_key_rejected(self, tmp_path):
        with pytest.raises(GridSchemaError):
            load_config(
                self._write(
                    tmp_path,
                    {"schema_version": 1, "study": "opf", "solver": {"warp": 9}},
                )
            )


def test_nb_out_of_range_surfaces_at_build(builtin_grid):
    # range validation needs the station count, so it happens at build time
    from hvdcopf.builder import BuildError, OpfOptions, build_opf

    with pytest.raises(BuildError, match="out of range"):
        build_opf(builtin_grid, OpfOptions(n_b=9))
