"""Grid / study-config file handling and the shipped test system.

Both file kinds are versioned JSON documents with strict schemas: unknown
fields are rejected with a field-path diagnostic so that typos surface at
load time rather than as silently ignored data.
"""

from __future__ import annotations

import json
from dataclasses import MISSING, dataclass, field, fields
from importlib import resources
from pathlib import Path
from typing import get_type_hints

from .converters import SymmetricCountConstraint
from .engine import STRATEGIES
from .grid import (
    ConductorRole,
    ConverterStation,
    DcLine,
    DcNode,
    DcSwitch,
    Demand,
    Generator,
    Grid,
    NodeKind,
    PoleConverter,
    StationConfig,
    validate,
)
from .ipm import SolverOptions

GRID_SCHEMA_VERSION = 1
CONFIG_SCHEMA_VERSION = 1


class GridSchemaError(ValueError):
    def __init__(self, path: str, message: str):
        super().__init__(f"{path}: {message}")
        self.path = path


def _require(obj: dict, path: str, known: dict[str, bool]) -> None:
    """known maps field name -> required; anything else is rejected."""
    for key in obj:
        if key not in known:
            raise GridSchemaError(f"{path}.{key}", "unknown field")
    for key, required in known.items():
        if required and key not in obj:
            raise GridSchemaError(f"{path}.{key}", "missing required field")


def _load_json(path: str | Path) -> dict:
    p = Path(path)
    try:
        text = p.read_text()
    except OSError as exc:
        raise GridSchemaError(str(p), f"cannot read file: {exc}") from exc
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise GridSchemaError(f"{p}:{exc.lineno}:{exc.colno}", f"invalid JSON: {exc.msg}") from exc
    if not isinstance(doc, dict):
        raise GridSchemaError(str(p), "top-level document must be an object")
    return doc


def _grid_from_doc(doc: dict, origin: str) -> Grid:
    _require(
        doc,
        origin,
        {
            "schema_version": True,
            "name": True,
            "base_mw": True,
            "currency": False,
            "notes": False,
            "dc_nodes": True,
            "dc_lines": True,
            "dc_switches": False,
            "converter_stations": True,
            "generators": True,
            "demands": False,
        },
    )
    if doc["schema_version"] != GRID_SCHEMA_VERSION:
        raise GridSchemaError(f"{origin}.schema_version", f"unsupported version {doc['schema_version']!r}")

    nodes = []
    for i, nd in enumerate(doc["dc_nodes"]):
        p = f"{origin}.dc_nodes[{i}]"
        _require(nd, p, {"id": True, "kind": True, "base_kv": True, "grounded": False,
                         "grounding_ohm": False, "vmin_pu": False, "vmax_pu": False})
        try:
            kind = NodeKind(nd["kind"])
        except ValueError:
            raise GridSchemaError(f"{p}.kind", f"unknown node kind {nd['kind']!r}") from None
        nodes.append(
            DcNode(nd["id"], kind, float(nd["base_kv"]), bool(nd.get("grounded", False)),
                   nd.get("grounding_ohm"), nd.get("vmin_pu"), nd.get("vmax_pu"))
        )

    lines = []
    for i, ln in enumerate(doc["dc_lines"]):
        p = f"{origin}.dc_lines[{i}]"
        _require(ln, p, {"id": True, "from_node": True, "to_node": True,
                         "resistance_pu": True, "conductor_role": True, "switchable": False})
        try:
            role = ConductorRole(ln["conductor_role"])
        except ValueError:
            raise GridSchemaError(f"{p}.conductor_role", f"unknown role {ln['conductor_role']!r}") from None
        lines.append(DcLine(ln["id"], ln["from_node"], ln["to_node"],
                            float(ln["resistance_pu"]), role, bool(ln.get("switchable", False))))

    switches = []
    for i, sw in enumerate(doc.get("dc_switches", [])):
        p = f"{origin}.dc_switches[{i}]"
        _require(sw, p, {"id": True, "from_node": True, "to_node": True})
        switches.append(DcSwitch(sw["id"], sw["from_node"], sw["to_node"]))

    stations = []
    for i, st in enumerate(doc["converter_stations"]):
        p = f"{origin}.converter_stations[{i}]"
        _require(st, p, {"id": True, "config": True, "neutral_node": False, "pole_converters": True})
        try:
            config = StationConfig(st["config"])
        except ValueError:
            raise GridSchemaError(f"{p}.config", f"unknown station config {st['config']!r}") from None
        convs = []
        for j, cv in enumerate(st["pole_converters"]):
            q = f"{p}.pole_converters[{j}]"
            _require(cv, q, {"id": True, "dc_terminal_1": True, "dc_terminal_2": True,
                             "current_limit_pu": True, "power_limit_pu": True, "ac_terminal": False})
            convs.append(PoleConverter(cv["id"], cv["dc_terminal_1"], cv["dc_terminal_2"],
                                       float(cv["current_limit_pu"]), float(cv["power_limit_pu"]),
                                       cv.get("ac_terminal")))
        stations.append(ConverterStation(st["id"], config, tuple(convs), st.get("neutral_node")))

    gens = []
    for i, g in enumerate(doc["generators"]):
        p = f"{origin}.generators[{i}]"
        _require(g, p, {"id": True, "bus": True, "cost": True, "reserve_cost_up": True,
                        "reserve_cost_down": True, "p_max_mw": True, "p_min_mw": False, "is_wind": False})
        gens.append(Generator(g["id"], g["bus"], float(g["cost"]), float(g["reserve_cost_up"]),
                              float(g["reserve_cost_down"]), float(g["p_max_mw"]),
                              float(g.get("p_min_mw", 0.0)), bool(g.get("is_wind", False))))

    demands = []
    for i, d in enumerate(doc.get("demands", [])):
        p = f"{origin}.demands[{i}]"
        _require(d, p, {"id": True, "bus": True, "p_mw": True})
        demands.append(Demand(d["id"], d["bus"], float(d["p_mw"])))

    grid = Grid(
        name=doc["name"],
        base_mw=float(doc["base_mw"]),
        dc_nodes=tuple(nodes),
        dc_lines=tuple(lines),
        dc_switches=tuple(switches),
        converter_stations=tuple(stations),
        generators=tuple(gens),
        demands=tuple(demands),
        currency=doc.get("currency", "EUR"),
        notes=doc.get("notes", ""),
    )
    problems = validate(grid)
    if problems:
        raise GridSchemaError(origin, "grid validation failed: " + "; ".join(map(str, problems)))
    return grid


def load_grid(path: str | Path) -> Grid:
    return _grid_from_doc(_load_json(path), str(path))


def grid_to_doc(grid: Grid) -> dict:
    return {
        "schema_version": GRID_SCHEMA_VERSION,
        "name": grid.name,
        "base_mw": grid.base_mw,
        "currency": grid.currency,
        "notes": grid.notes,
        "dc_nodes": [
            {
                "id": n.id, "kind": n.kind.value, "base_kv": n.base_kv,
                "grounded": n.grounded, "grounding_ohm": n.grounding_ohm,
                "vmin_pu": n.vmin_pu, "vmax_pu": n.vmax_pu,
            }
            for n in grid.dc_nodes
        ],
        "dc_lines": [
            {
                "id": bd.id, "from_node": bd.from_node, "to_node": bd.to_node,
                "resistance_pu": bd.resistance_pu, "conductor_role": bd.role.value,
                "switchable": bd.switchable,
            }
            for bd in grid.dc_lines
        ],
        "dc_switches": [
            {"id": sw.id, "from_node": sw.from_node, "to_node": sw.to_node} for sw in grid.dc_switches
        ],
        "converter_stations": [
            {
                "id": cs.id, "config": cs.config.value, "neutral_node": cs.neutral_node,
                "pole_converters": [
                    {
                        "id": cv.id, "dc_terminal_1": cv.dc_terminal_1, "dc_terminal_2": cv.dc_terminal_2,
                        "current_limit_pu": cv.current_limit_pu, "power_limit_pu": cv.power_limit_pu,
                        "ac_terminal": cv.ac_terminal,
                    }
                    for cv in cs.pole_converters
                ],
            }
            for cs in grid.converter_stations
        ],
        "generators": [
            {
                "id": g.id, "bus": g.bus, "cost": g.cost, "reserve_cost_up": g.reserve_cost_up,
                "reserve_cost_down": g.reserve_cost_down, "p_max_mw": g.p_max_mw,
                "p_min_mw": g.p_min_mw, "is_wind": g.is_wind,
            }
            for g in grid.generators
        ],
        "demands": [{"id": d.id, "bus": d.bus, "p_mw": d.p_mw} for d in grid.demands],
    }


def save_grid(grid: Grid, path: str | Path) -> None:
    Path(path).write_text(json.dumps(grid_to_doc(grid), indent=2, sort_keys=False) + "\n")


def builtin_case_path() -> Path:
    """Path to the shipped desk-scale test system (CIGRE-B4-shaped reconstruction)."""
    return Path(str(resources.files("hvdcopf.data") / "cigre_b4.json"))


def load_builtin_case() -> Grid:
    return load_grid(builtin_case_path())


@dataclass(frozen=True)
class StudyConfig:
    study: str  # one of STUDIES
    n_b: int = 0
    nb_values: tuple[int, ...] = ()
    nb_mode: str = "exact"
    outage: str | None = None
    contingencies: tuple[str, ...] = ()
    offset_limit_kv: float | None = None
    offset_limits_kv: tuple[float, ...] = (8.0, 4.0)
    nls_candidates: tuple[str, ...] = ()
    strategy: str = "enumerate"
    out_dir: str = "out"
    solver: SolverOptions = field(default_factory=SolverOptions)

    def replace(self, **kw) -> "StudyConfig":
        from dataclasses import replace

        return replace(self, **kw)


STUDIES = ("opf", "scopf", "sweep-nb", "nls")
# fields whose value comes from a fixed set; each set is defined where it is used
_CHOICES = {"study": STUDIES, "nb_mode": SymmetricCountConstraint.MODES, "strategy": STRATEGIES}


def _integer(path: str, value) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise GridSchemaError(path, f"must be an integer, not {value!r}")
    return value


def _number(path: str, value) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise GridSchemaError(path, f"must be a number, not {value!r}")
    return float(value)


def _string(path: str, value) -> str:
    if not isinstance(value, str):
        raise GridSchemaError(path, f"must be a string, not {value!r}")
    return value


def _optional(check):
    return lambda path, value: None if value is None else check(path, value)


def _list_of(check):
    def checked(path: str, value) -> tuple:
        if not isinstance(value, list):
            raise GridSchemaError(path, f"must be a list, not {value!r}")
        return tuple(check(f"{path}[{i}]", v) for i, v in enumerate(value))

    return checked


def _solver_options(path: str, value) -> SolverOptions:
    if not isinstance(value, dict):
        raise GridSchemaError(path, "must be an object")
    kw = _checked_fields(SolverOptions, value, path)
    for key, v in kw.items():
        if v <= 0:
            raise GridSchemaError(f"{path}.{key}", f"must be positive, not {v!r}")
    return SolverOptions(**kw)


# value check and conversion for each field type of the config dataclasses
_CHECKS = {
    int: _integer,
    float: _number,
    str: _string,
    str | None: _optional(_string),
    float | None: _optional(_number),
    tuple[int, ...]: _list_of(_integer),
    tuple[float, ...]: _list_of(_number),
    tuple[str, ...]: _list_of(_string),
    SolverOptions: _solver_options,
}


def _checked_fields(cls, doc: dict, path: str, extra: dict[str, bool] | None = None) -> dict:
    """Type-checked values of the fields of dataclass `cls` that `doc` sets.

    The known keys are the fields of `cls` (plus `extra`); a field without
    a default is required. Fields `doc` leaves out keep their dataclass
    default.
    """
    known = {f.name: f.default is MISSING and f.default_factory is MISSING for f in fields(cls)}
    _require(doc, path, {**(extra or {}), **known})
    types = get_type_hints(cls)
    return {key: _CHECKS[types[key]](f"{path}.{key}", doc[key]) for key in known if key in doc}


def load_config(path: str | Path) -> StudyConfig:
    doc = _load_json(path)
    origin = str(path)
    values = _checked_fields(StudyConfig, doc, origin, {"schema_version": True})
    if doc["schema_version"] != CONFIG_SCHEMA_VERSION:
        raise GridSchemaError(f"{origin}.schema_version", f"unsupported version {doc['schema_version']!r}")
    for key, choices in _CHOICES.items():
        if key in values and values[key] not in choices:
            raise GridSchemaError(f"{origin}.{key}", f"unknown {key} {values[key]!r}; expected one of {choices}")
    return StudyConfig(**values)
