"""Grid / study-config file handling and the shipped test system.

Both file kinds are versioned JSON documents whose schema is the dataclasses
they load into: `Grid` and its parts (:mod:`hvdcopf.grid`), `StudyConfig`
and its `SolverOptions`.  `_from_doc` reads any of them: the known keys and
which are required come from the dataclass fields, the value check from each
field's type.  `_to_doc` writes them back in field order.  Unknown fields,
missing required fields and values of the wrong type (non-finite numbers
included) are rejected with a field-path diagnostic, so that typos surface
at load time rather than as silently ignored or misread data; a loaded grid
must also pass `grid.validate`.
"""

from __future__ import annotations

import json
import re
import sys
from dataclasses import MISSING, dataclass, field, fields, is_dataclass
from enum import Enum
from functools import cache
from importlib import resources
from pathlib import Path
from typing import get_args, get_origin, get_type_hints

from .engine import STRATEGIES
from .grid import Grid, validate
from .ipm import SolverOptions

GRID_SCHEMA_VERSION = 1
CONFIG_SCHEMA_VERSION = 1


class GridSchemaError(ValueError):
    def __init__(self, path: str, message: str):
        super().__init__(f"{path}: {message}")
        self.path = path


@dataclass(frozen=True)
class StudyConfig:
    study: str  # one of STUDIES
    n_b: int = 0
    nb_values: tuple[int, ...] = ()
    outage: str | None = None
    contingencies: tuple[str, ...] = ()
    offset_limit_kv: float | None = None
    offset_limits_kv: tuple[float, ...] = (8.0, 4.0)
    nls_candidates: tuple[str, ...] = ()
    strategy: str = "enumerate"
    out_dir: str = "out"
    solver: SolverOptions = field(default_factory=SolverOptions)

    def __post_init__(self):
        for key, choices in _CHOICES.items():
            if getattr(self, key) not in choices:
                raise ValueError(f"{key}: unknown {key} {getattr(self, key)!r}; expected one of {choices}")

    def replace(self, **kw) -> "StudyConfig":
        from dataclasses import replace

        return replace(self, **kw)


STUDIES = ("opf", "scopf", "sweep-nb", "nls")
# fields whose value comes from a fixed set; each set is defined where it is used
_CHOICES = {"study": STUDIES, "strategy": STRATEGIES}


def _integer(path: str, value) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise GridSchemaError(path, f"must be an integer, not {value!r}")
    return value


def _number(path: str, value) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise GridSchemaError(path, f"must be a number, not {value!r}")
    if not abs(value) <= sys.float_info.max:  # JSON parsing admits NaN, Infinity and huge integers
        raise GridSchemaError(path, f"must be finite, not {value!r}")
    return float(value)


def _boolean(path: str, value) -> bool:
    if not isinstance(value, bool):
        raise GridSchemaError(path, f"must be true or false, not {value!r}")
    return value


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


def _member_of(enum: type[Enum]):
    label = re.sub(r"(?<=[a-z])(?=[A-Z])", " ", enum.__name__).lower()  # NodeKind -> "node kind"
    members = {member.value: member for member in enum}

    def checked(path: str, value) -> Enum:
        if isinstance(value, str) and value in members:
            return members[value]
        raise GridSchemaError(path, f"unknown {label} {value!r}; expected one of {tuple(members)}")

    return checked


# value check and conversion for each scalar field type
_CHECKS = {int: _integer, float: _number, bool: _boolean, str: _string}


def _check(tp):
    """Value check and conversion for a field of type `tp`."""
    if tp in _CHECKS:
        return _CHECKS[tp]
    args = get_args(tp)
    if get_origin(tp) is tuple:  # tuple[X, ...]
        return _list_of(_check(args[0]))
    if type(None) in args:  # X | None
        return _optional(_check(args[0]))
    if isinstance(tp, type) and issubclass(tp, Enum):
        return _member_of(tp)
    if is_dataclass(tp):
        return lambda path, value: _from_doc(tp, value, path)
    raise TypeError(f"no file check for field type {tp!r}")


@cache
def _plan(cls) -> dict[str, tuple[object, bool]]:
    """Field name (also its file key) -> (value check, whether a file must list it) for dataclass `cls`.

    A file may leave out exactly the fields with a dataclass default, which
    then applies.
    """
    types = get_type_hints(cls)
    return {f.name: (_check(types[f.name]), f.default is MISSING and f.default_factory is MISSING)
            for f in fields(cls) if f.init}


def _from_doc(cls, doc, path: str):
    """Dataclass `cls` read from the JSON object `doc` found at `path`.

    A `ValueError` of the dataclass's own checks becomes a `GridSchemaError`
    at `path`, or at the field its message starts with ("<field>: ...").
    """
    if not isinstance(doc, dict):
        raise GridSchemaError(path, f"must be an object, not {doc!r}")
    plan = _plan(cls)
    values = {}
    for key, value in doc.items():
        if key not in plan:
            raise GridSchemaError(f"{path}.{key}", "unknown field")
        values[key] = plan[key][0](f"{path}.{key}", value)
    for key, (_, required) in plan.items():
        if required and key not in doc:
            raise GridSchemaError(f"{path}.{key}", "missing required field")
    try:
        return cls(**values)
    except ValueError as exc:
        target, _, message = str(exc).partition(": ")
        if target in plan and message:
            raise GridSchemaError(f"{path}.{target}", message) from None
        raise GridSchemaError(path, str(exc)) from None


def _to_doc(value):
    """JSON value of a dataclass read by `_from_doc`, or of one of its field values."""
    if isinstance(value, Enum):
        return value.value
    if value is None or isinstance(value, (str, int, float)):
        return value
    if isinstance(value, tuple):
        return [_to_doc(v) for v in value]
    return {key: _to_doc(getattr(value, key)) for key in _plan(type(value))}


def _read(cls, path: str | Path, version: int):
    """Dataclass `cls` read from the JSON file at `path`, whose `schema_version` must be `version`."""
    p = Path(path)
    try:
        text = p.read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise GridSchemaError(str(p), f"cannot read file: {exc}") from exc
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise GridSchemaError(f"{p}:{exc.lineno}:{exc.colno}", f"invalid JSON: {exc.msg}") from exc
    if not isinstance(doc, dict):
        raise GridSchemaError(str(p), "top-level document must be an object")
    origin = str(path)
    if "schema_version" not in doc:
        raise GridSchemaError(f"{origin}.schema_version", "missing required field")
    found = _integer(f"{origin}.schema_version", doc.pop("schema_version"))
    if found != version:
        raise GridSchemaError(f"{origin}.schema_version", f"unsupported version {found!r}")
    return _from_doc(cls, doc, origin)


def load_grid(path: str | Path) -> Grid:
    grid = _read(Grid, path, GRID_SCHEMA_VERSION)
    problems = validate(grid)
    if problems:
        raise GridSchemaError(str(path), "grid validation failed: " + "; ".join(map(str, problems)))
    return grid


def grid_to_doc(grid: Grid) -> dict:
    return {"schema_version": GRID_SCHEMA_VERSION, **_to_doc(grid)}


def save_grid(grid: Grid, path: str | Path) -> None:
    Path(path).write_text(json.dumps(grid_to_doc(grid), indent=2, sort_keys=False) + "\n")


def builtin_case_path() -> Path:
    """Path to the shipped desk-scale test system (CIGRE-B4-shaped reconstruction)."""
    return Path(str(resources.files("hvdcopf.data") / "cigre_b4.json"))


def load_builtin_case() -> Grid:
    return load_grid(builtin_case_path())


def load_config(path: str | Path) -> StudyConfig:
    return _read(StudyConfig, path, CONFIG_SCHEMA_VERSION)
