import json
import math
from dataclasses import fields

import pytest

from hvdcopf.grid import DcLine, Grid
from hvdcopf.io import (
    GridSchemaError,
    StudyConfig,
    builtin_case_path,
    grid_to_doc,
    load_builtin_case,
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
    doc["schema_version"] = True
    with pytest.raises(GridSchemaError, match="schema_version: must be an integer"):
        load_grid(_write(tmp_path, doc))


def test_non_object_document_rejected(tmp_path):
    with pytest.raises(GridSchemaError, match="top-level document must be an object"):
        load_grid(_write(tmp_path, [_doc()]))


def test_missing_schema_version_rejected(tmp_path):
    doc = _doc()
    del doc["schema_version"]
    with pytest.raises(GridSchemaError, match=r"schema_version: missing required field"):
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


@pytest.mark.parametrize(
    "where,value,message",
    [
        (("dc_nodes", 0, "base_kv"), "x", r"dc_nodes\[0\].base_kv: must be a number"),
        (("dc_nodes", 0, "base_kv"), True, r"dc_nodes\[0\].base_kv: must be a number"),
        (("dc_nodes", 1, "grounded"), "no", r"dc_nodes\[1\].grounded: must be true or false"),
        (("dc_nodes", 1, "grounded"), 0, r"dc_nodes\[1\].grounded: must be true or false"),
        (("dc_nodes", 2, "vmin_pu"), "0.9", r"dc_nodes\[2\].vmin_pu: must be a number"),
        (("dc_lines", 0, "resistance_pu"), None, r"dc_lines\[0\].resistance_pu: must be a number"),
        (("dc_lines", 0, "switchable"), "yes", r"dc_lines\[0\].switchable: must be true or false"),
        (("converter_stations", 0, "pole_converters", 0, "power_limit_pu"), "1",
         r"pole_converters\[0\].power_limit_pu: must be a number"),
        (("generators", 0, "is_wind"), 1, r"generators\[0\].is_wind: must be true or false"),
        (("generators", 0, "p_min_mw"), [0.0], r"generators\[0\].p_min_mw: must be a number"),
        (("demands", 0, "p_mw"), "300", r"demands\[0\].p_mw: must be a number"),
        (("base_mw",), "1000", "base_mw: must be a number"),
        (("dc_nodes", 0, "base_kv"), math.nan, r"dc_nodes\[0\].base_kv: must be finite"),
        (("dc_lines", 0, "resistance_pu"), math.inf, r"dc_lines\[0\].resistance_pu: must be finite"),
        (("base_mw",), -math.inf, "base_mw: must be finite"),
        pytest.param(("base_mw",), 10**400, "base_mw: must be finite", id="base_mw-huge-integer"),
        (("dc_nodes", 0, "id"), 7, r"dc_nodes\[0\].id: must be a string"),
        (("dc_lines", 0, "from_node"), None, r"dc_lines\[0\].from_node: must be a string"),
        (("generators", 0, "id"), None, r"generators\[0\].id: must be a string"),
        (("generators", 0, "bus"), 1, r"generators\[0\].bus: must be a string"),
        (("converter_stations", 0, "pole_converters", 0, "ac_terminal"), 1.5,
         r"pole_converters\[0\].ac_terminal: must be a string"),
        (("name",), [1], "name: must be a string"),
        (("currency",), 3, "currency: must be a string"),
        (("dc_lines",), {"L": {}}, "dc_lines: must be a list"),
        (("converter_stations", 0, "pole_converters"), {}, r"converter_stations\[0\].pole_converters: must be a list"),
        (("dc_nodes", 0), 5, r"dc_nodes\[0\]: must be an object"),
        (("demands", 0), ["D", "bus", 1.0], r"demands\[0\]: must be an object"),
        (("dc_lines", 0, "conductor_role"), "earth", r"dc_lines\[0\].conductor_role: unknown conductor role 'earth'"),
        (("converter_stations", 0, "config"), "tripolar", r"converter_stations\[0\].config: unknown station config"),
    ],
)
def test_field_types_checked_with_path(tmp_path, where, value, message):
    doc = _doc()
    obj = doc
    for key in where[:-1]:
        obj = obj[key]
    obj[where[-1]] = value
    with pytest.raises(GridSchemaError, match=message):
        load_grid(_write(tmp_path, doc))


def test_optional_sections_default_empty(tmp_path):
    doc = _doc()
    del doc["dc_switches"], doc["demands"]
    grid = load_grid(_write(tmp_path, doc))
    assert (grid.dc_switches, grid.demands) == ((), ())
    del doc["dc_lines"]
    with pytest.raises(GridSchemaError, match=r"\.dc_lines: missing required field"):
        load_grid(_write(tmp_path, doc))


def test_grid_built_without_optional_sections_equals_the_loaded_one(tmp_path, builtin_grid):
    # a file and a constructor call may leave out the same fields: those with a dataclass default
    doc = _doc()
    del doc["dc_switches"], doc["demands"]
    given = {f.name: getattr(builtin_grid, f.name) for f in fields(Grid) if f.init}
    del given["dc_switches"], given["demands"]
    assert Grid(**given) == load_grid(_write(tmp_path, doc))


def test_writer_reproduces_shipped_case(tmp_path, builtin_grid):
    # manifest.json's grid_sha256 hashes grid_to_doc, so the writer must not drift
    shipped = builtin_case_path().read_text()
    assert grid_to_doc(builtin_grid) == json.loads(shipped)
    save_grid(builtin_grid, tmp_path / "grid.json")
    assert (tmp_path / "grid.json").read_text() == shipped


def test_grid_doc_covers_everything(builtin_grid):
    doc = grid_to_doc(builtin_grid)
    assert len(doc["dc_nodes"]) == len(builtin_grid.dc_nodes)
    assert doc["schema_version"] == 1
    assert doc["currency"] == "EUR"


def test_file_keys_are_field_names():
    line = grid_to_doc(load_builtin_case())["dc_lines"][0]
    assert list(line) == [f.name for f in fields(DcLine)]


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
        [("threads", 2), ("seed", 7), ("count_faulted_as_asymmetric", False), ("count_faulted_as_asymmetric", True),
         ("nb_mode", "exact"), ("nb_mode", "at-least")],
    )
    def test_removed_keys_rejected(self, tmp_path, key, value):
        with pytest.raises(GridSchemaError, match=f"{key}: unknown field"):
            load_config(self._write(tmp_path, {"schema_version": 1, "study": "nls", key: value}))

    def test_every_field_round_trips(self, tmp_path):
        doc = {
            "study": "scopf",
            "n_b": 3,
            "nb_values": [2, 1],
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
