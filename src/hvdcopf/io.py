"""Grid / study-config file handling and the shipped test system.

Both file kinds are versioned JSON documents with strict schemas: unknown
fields are rejected with a field-path diagnostic so that typos surface at
load time rather than as silently ignored data.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from importlib import resources
from pathlib import Path

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
    study: str  # 'opf' | 'scopf' | 'sweep-nb' | 'nls'
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
    count_faulted_as_asymmetric: bool = True
    solver: dict = field(default_factory=dict)

    def replace(self, **kw) -> "StudyConfig":
        from dataclasses import replace

        return replace(self, **kw)


_STUDIES = ("opf", "scopf", "sweep-nb", "nls")


def load_config(path: str | Path) -> StudyConfig:
    doc = _load_json(path)
    origin = str(path)
    _require(
        doc,
        origin,
        {
            "schema_version": True,
            "study": True,
            "n_b": False,
            "nb_values": False,
            "nb_mode": False,
            "outage": False,
            "contingencies": False,
            "offset_limit_kv": False,
            "offset_limits_kv": False,
            "nls_candidates": False,
            "strategy": False,
            "out_dir": False,
            "count_faulted_as_asymmetric": False,
            "solver": False,
        },
    )
    if doc["schema_version"] != CONFIG_SCHEMA_VERSION:
        raise GridSchemaError(f"{origin}.schema_version", f"unsupported version {doc['schema_version']!r}")
    if doc["study"] not in _STUDIES:
        raise GridSchemaError(f"{origin}.study", f"unknown study {doc['study']!r}; expected one of {_STUDIES}")
    if doc.get("nb_mode", "exact") not in ("exact", "at-least"):
        raise GridSchemaError(f"{origin}.nb_mode", "must be 'exact' or 'at-least'")
    if doc.get("strategy", "enumerate") not in ("enumerate", "branch-and-bound"):
        raise GridSchemaError(f"{origin}.strategy", "must be 'enumerate' or 'branch-and-bound'")
    if doc.get("count_faulted_as_asymmetric", True) is not True:
        raise GridSchemaError(
            f"{origin}.count_faulted_as_asymmetric",
            "only true is supported: the faulted station always counts as asymmetric",
        )
    solver = doc.get("solver", {})
    _require(solver, f"{origin}.solver", {"tol_kkt": False, "max_iter": False})
    return StudyConfig(
        study=doc["study"],
        n_b=int(doc.get("n_b", 0)),
        nb_values=tuple(int(v) for v in doc.get("nb_values", ())),
        nb_mode=doc.get("nb_mode", "exact"),
        outage=doc.get("outage"),
        contingencies=tuple(doc.get("contingencies", ())),
        offset_limit_kv=doc.get("offset_limit_kv"),
        offset_limits_kv=tuple(float(v) for v in doc.get("offset_limits_kv", (8.0, 4.0))),
        nls_candidates=tuple(doc.get("nls_candidates", ())),
        strategy=doc.get("strategy", "enumerate"),
        out_dir=doc.get("out_dir", "out"),
        solver=dict(solver),
    )
