"""Study runners: end-to-end procedures behind the report tables.

Each runner drives the discrete layer over the shipped (or user) grid and
writes plot-ready CSV tables plus a run manifest.  Output is deterministic:
identical inputs produce byte-identical CSV files.
"""

from __future__ import annotations

import csv
import hashlib
import json
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path

from . import __version__, naming as nm
from .builder import OpfOptions, ProgramTemplate, compile_program, objective_in_currency, reserve_cost_in_currency
from .builder import build_opf, build_scopf  # noqa: F401  (bench/tracing.py patches these names here)
from .converters import neutral_offsets
from .engine import ENUMERATION_CAP, SCOPF_ENUMERATION_CAP, EnumerationCapExceeded, MinlpSolution, solve_minlp
from .grid import Grid
from .io import StudyConfig, grid_to_doc


class StudyError(RuntimeError):
    pass


_STATUS_RANK = ("optimal", "infeasible", "iteration-limit")  # best first; a study reports its worst case


@dataclass
class StudyReport:
    study: str
    status: str  # of its worst case, ranked as in `_STATUS_RANK`
    rows: list[dict] = field(default_factory=list)
    files: list[Path] = field(default_factory=list)
    diagnostics: list[str] = field(default_factory=list)  # each search's non-empty `diagnostics`, in case order


def _fmt(v) -> str:
    if v is None:
        return ""
    if isinstance(v, float):
        return f"{v:.10g}"
    return str(v)


def _write_csv(path: Path, header: list[str], rows: list[dict]) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(header)
        for row in rows:
            w.writerow([_fmt(row.get(h)) for h in header])


def _write_manifest(out_dir: Path, grid: Grid, cfg: StudyConfig, extra: dict) -> Path:
    doc = json.dumps(grid_to_doc(grid), sort_keys=True).encode()
    manifest = {
        "package": "hvdcopf",
        "version": __version__,
        "grid_name": grid.name,
        "grid_sha256": hashlib.sha256(doc).hexdigest(),
        "study": cfg.study,
        "options": {key: value for key, value in asdict(cfg).items() if key != "out_dir"},
        **extra,
    }
    path = out_dir / "manifest.json"  # in the directory the study's table was written to
    path.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    return path


def _minlp(template: ProgramTemplate, cfg: StudyConfig, cap: int) -> MinlpSolution:
    """The search of `cfg.strategy`; past `cap` joint assignments, branch-and-bound, which its diagnostics say."""
    factory, cat = template.program, template.catalogue
    try:
        return solve_minlp(factory, cat, strategy=cfg.strategy, solver_options=cfg.solver, cap=cap)
    except EnumerationCapExceeded as exc:
        res = solve_minlp(factory, cat, strategy="branch-and-bound", solver_options=cfg.solver)
        switched = f"{exc.args[1]}: searched by branch-and-bound"
        return replace(res, diagnostics="; ".join(filter(None, (switched, res.diagnostics))))


def _solve_cases(grid: Grid, cfg: StudyConfig, cases, contingencies=None) -> list[MinlpSolution]:
    """The MINLP of each case, in order; every case compiles before any solve, so input errors come first."""
    templates = [compile_program(grid, opts, contingencies) for opts in cases]
    cap = ENUMERATION_CAP if contingencies is None else SCOPF_ENUMERATION_CAP
    return [replace(_minlp(template, cfg, cap), pole_mirror=template.mirror is not None) for template in templates]


def _worst(statuses) -> str:
    return max(statuses, key=_STATUS_RANK.index, default="optimal")


def _search(res: MinlpSolution, **case) -> dict:
    """Manifest entry of one MINLP: its case, the strategy that ran, whether the pole mirror held, what the search did."""
    return {**case, "strategy": res.strategy, "pole_mirror": res.pole_mirror, **res.search_counts(),
            "diagnostics": res.diagnostics}


def _result_fields(res: MinlpSolution, offsets: list[dict]) -> dict:
    if res.solution is None:
        return {"status": res.status, "objective_eur": None, "kkt": None,
                "asym_stations": "", "open_lines": "", "max_offset_kv": None, "reserve_cost_eur": None}
    max_off = max((abs(row["offset_kv"]) for row in offsets), default=0.0)
    zeros = lambda kind: sorted({name for (_, kd, name), v in res.assignment.values if kd == kind and v == 0})
    asym, opened = zeros("beta"), zeros("gamma")
    return {
        "status": res.status,
        "objective_eur": objective_in_currency(res.solution.problem, res.objective),
        "kkt": res.solution.kkt.max_residual,
        "asym_stations": "|".join(asym),
        "open_lines": "|".join(opened),
        "max_offset_kv": max_off,
        "reserve_cost_eur": reserve_cost_in_currency(res.solution.problem, res.solution.x),
    }


def _solved(grid: Grid, res: MinlpSolution) -> tuple[dict[str, float], list[dict]]:
    """The chosen solution's variable values and each state's neutral offset at each station
    with a neutral (the rows of `offsets.csv`), built once per result; empty without a solution."""
    if res.solution is None:
        return {}, []
    values = res.solution.values()
    rows = [{"scenario": label, "station": station, "u_neutral_pu": u, "offset_kv": kv}
            for k, label in enumerate(res.solution.problem.meta["scenarios"])
            for station, (u, kv) in neutral_offsets(grid, values, k).items()]
    return values, rows


def _write_solution_detail(out_dir: Path, grid: Grid, res: MinlpSolution, values: dict[str, float],
                           offsets: list[dict]) -> list[Path]:
    if res.solution is None:
        return []
    station_rows = []
    for k, label in enumerate(res.solution.problem.meta["scenarios"]):
        for cs in grid.converter_stations:
            for cv in cs.pole_converters:
                station_rows.append(
                    {
                        "scenario": label,
                        "station": cs.id,
                        "converter": cv.id,
                        "i1_pu": values[nm.conv_i(cs.id, cv.id, 1, k)],
                        "i2_pu": values[nm.conv_i(cs.id, cv.id, 2, k)],
                        "p_pu": values[nm.conv_p(cs.id, cv.id, k)],
                        "u1_pu": values[nm.nodal_u(cv.dc_terminal_1, k)],
                    }
                )
    p1 = out_dir / "stations.csv"
    _write_csv(p1, ["scenario", "station", "converter", "i1_pu", "i2_pu", "p_pu", "u1_pu"], station_rows)
    p2 = out_dir / "offsets.csv"
    _write_csv(p2, ["scenario", "station", "u_neutral_pu", "offset_kv"], offsets)
    p3 = out_dir / "solver.log"
    p3.write_text("\n".join(res.solution.log) + "\n")
    return [p1, p2, p3]


def _write_assignment_table(out_dir: Path, res: MinlpSolution) -> Path:
    rows = [
        {
            "assignment": rec.assignment.label(),
            "status": rec.status,
            "objective": rec.objective,
            "solved": int(rec.solved),
        }
        for rec in res.table
    ]
    path = out_dir / "assignments.csv"
    _write_csv(path, ["assignment", "status", "objective", "solved"], rows)
    return path


def _report(study: str, grid: Grid, cfg: StudyConfig, results: list[MinlpSolution], table: str, header: list[str],
            rows: list[dict], manifest: dict, detail=()) -> StudyReport:
    """The report of a study whose worst case is its status: its CSV `table`, the `detail` files, then the manifest."""
    out = Path(cfg.out_dir)
    _write_csv(out / table, header, rows)
    return StudyReport(study, _worst(res.status for res in results), rows,
                       [out / table, *detail, _write_manifest(out, grid, cfg, manifest)],
                       [res.diagnostics for res in results if res.diagnostics])


def _opf_opts(cfg: StudyConfig, n_b: int, offset_limit, nls) -> OpfOptions:
    return OpfOptions(n_b=n_b, offset_limit_kv=offset_limit, nls_candidates=tuple(nls), outage=cfg.outage)


def run_opf(grid: Grid, cfg: StudyConfig) -> StudyReport:
    """Single OPF (optionally post-contingency) with station selection."""
    out = Path(cfg.out_dir)
    (res,) = _solve_cases(grid, cfg, [_opf_opts(cfg, cfg.n_b, cfg.offset_limit_kv, cfg.nls_candidates)])
    solved = _solved(grid, res)
    row = {"n_b": cfg.n_b, "outage": cfg.outage or "", **_result_fields(res, solved[1])}
    header = ["n_b", "outage", "status", "objective_eur", "kkt", "asym_stations", "open_lines", "max_offset_kv"]
    detail = [*_write_solution_detail(out, grid, res, *solved), _write_assignment_table(out, res)]
    return _report("opf", grid, cfg, [res], "summary.csv", header, [row], {"minlp": [_search(res)]}, detail)


def run_nb_sweep(grid: Grid, cfg: StudyConfig) -> StudyReport:
    """Post-contingency cost versus the imposed symmetric-station count."""
    if cfg.outage is None:
        raise StudyError("sweep-nb needs an outage")
    nb_values = cfg.nb_values or tuple(range(len(grid.bipolar_stations()) - 1, -1, -1))
    cases = [_opf_opts(cfg, n_b, cfg.offset_limit_kv, cfg.nls_candidates) for n_b in nb_values]
    results = _solve_cases(grid, cfg, cases)
    rows = [{"n_b": n_b, "outage": cfg.outage, **_result_fields(res, _solved(grid, res)[1])}
            for n_b, res in zip(nb_values, results)]
    header = ["n_b", "outage", "status", "objective_eur", "kkt", "asym_stations", "max_offset_kv"]
    searches = [_search(res, n_b=n_b) for n_b, res in zip(nb_values, results)]
    return _report("sweep-nb", grid, cfg, results, "sweep_nb.csv", header, rows,
                   {"nb_values": list(nb_values), "minlp": searches})


def run_scopf(grid: Grid, cfg: StudyConfig) -> StudyReport:
    """Reserve-coupled SCOPF totals per symmetric-station budget; the detail files are of the last budget."""
    contingencies = cfg.contingencies or grid.pole_converter_ids()
    nb_values = cfg.nb_values or (cfg.n_b,)
    cases = [_opf_opts(cfg, n_b, cfg.offset_limit_kv, cfg.nls_candidates) for n_b in nb_values]
    results = _solve_cases(grid, cfg, cases, contingencies)
    solved = [_solved(grid, res) for res in results]
    rows = [{"n_b": n_b, "n_contingencies": len(contingencies), **_result_fields(res, offsets)}
            for n_b, res, (_, offsets) in zip(nb_values, results, solved)]
    header = ["n_b", "n_contingencies", "status", "objective_eur", "reserve_cost_eur", "kkt", "asym_stations", "max_offset_kv"]
    searches = [_search(res, n_b=n_b) for n_b, res in zip(nb_values, results)]
    return _report("scopf", grid, cfg, results, "scopf.csv", header, rows,
                   {"contingencies": list(contingencies), "minlp": searches},
                   _write_solution_detail(Path(cfg.out_dir), grid, results[-1], *solved[-1]))


def run_nls(grid: Grid, cfg: StudyConfig) -> StudyReport:
    """Offset-limit cost table with and without neutral line switching.

    With an empty candidate set the switching column degenerates to the
    base column (switching nothing is the only plan).
    """
    plans = [(None, ())] + [(limit, nls) for limit in cfg.offset_limits_kv for nls in ((), cfg.nls_candidates)]
    results = _solve_cases(grid, cfg, [_opf_opts(cfg, cfg.n_b, limit, nls) for limit, nls in plans])
    f_u, *limited = [_result_fields(res, _solved(grid, res)[1]) for res in results]
    rows = [{"offset_limit_kv": "unrestricted", "objective_base_eur": f_u["objective_eur"], "objective_nls_eur": None,
             "lines_disconnected": "", "status": f_u["status"], "kkt": f_u["kkt"], "max_offset_kv": f_u["max_offset_kv"]}]
    for limit, f_b, f_n in zip(cfg.offset_limits_kv, limited[::2], limited[1::2]):
        rows.append(
            {
                "offset_limit_kv": limit,
                "objective_base_eur": f_b["objective_eur"],
                "objective_nls_eur": f_n["objective_eur"],
                "lines_disconnected": f_n["open_lines"],
                "status": _worst((f_b["status"], f_n["status"])),
                "kkt": max((v for v in (f_b["kkt"], f_n["kkt"]) if v is not None), default=None),
                "max_offset_kv": f_n["max_offset_kv"],
            }
        )
    header = ["offset_limit_kv", "objective_base_eur", "objective_nls_eur", "lines_disconnected", "status", "kkt",
              "max_offset_kv"]
    searches = [_search(res, offset_limit_kv=limit, nls=bool(nls)) for (limit, nls), res in zip(plans, results)]
    return _report("nls", grid, cfg, results, "nls.csv", header, rows, {"minlp": searches})


_UNREAD = {  # the StudyConfig fields a study does not read; run_study rejects them unless at their defaults
    "opf": ("nb_values", "contingencies", "offset_limits_kv"),
    "sweep-nb": ("n_b", "contingencies", "offset_limits_kv"),
    "scopf": ("outage", "offset_limits_kv"),
    "nls": ("nb_values", "contingencies", "offset_limit_kv"),
}


def run_study(grid: Grid, cfg: StudyConfig) -> StudyReport:
    runner = {"opf": run_opf, "sweep-nb": run_nb_sweep, "scopf": run_scopf, "nls": run_nls}[cfg.study]
    default = StudyConfig(cfg.study)
    unread = _UNREAD[cfg.study] + (("n_b",) if cfg.study == "scopf" and cfg.nb_values else ())
    for name in unread:
        if getattr(cfg, name) != getattr(default, name):
            raise StudyError(f"{name}: the {cfg.study} study does not read it; leave it at {getattr(default, name)!r}")
    return runner(grid, cfg)
