"""Study runners: end-to-end procedures behind the report tables.

Each runner drives the discrete layer over the shipped (or user) grid and
writes plot-ready CSV tables plus a run manifest.  Output is deterministic:
identical inputs produce byte-identical CSV files.
"""

from __future__ import annotations

import csv
import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path

from . import __version__, naming as nm
from .builder import OpfOptions, binary_catalogue, build_opf, build_scopf, objective_in_currency
from .converters import neutral_offsets
from .engine import ENUMERATION_CAP, EnumerationCapExceeded, MinlpSolution, solve_minlp
from .grid import Grid
from .io import StudyConfig, grid_to_doc


class StudyError(RuntimeError):
    pass


@dataclass
class StudyReport:
    study: str
    status: str  # worst underlying solve status
    rows: list[dict] = field(default_factory=list)
    files: list[Path] = field(default_factory=list)


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
        "options": {
            "n_b": cfg.n_b,
            "nb_values": list(cfg.nb_values),
            "nb_mode": cfg.nb_mode,
            "outage": cfg.outage,
            "contingencies": list(cfg.contingencies),
            "offset_limit_kv": cfg.offset_limit_kv,
            "offset_limits_kv": list(cfg.offset_limits_kv),
            "nls_candidates": list(cfg.nls_candidates),
            "strategy": cfg.strategy,
        },
        **extra,
    }
    path = out_dir / "manifest.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    return path


def _minlp(grid, cfg, opts, contingencies=None) -> MinlpSolution:
    cat = binary_catalogue(grid, opts, contingencies)
    if contingencies is None:
        factory = lambda a: build_opf(grid, opts, binaries=a.state_binaries(0))[0]
        cap = ENUMERATION_CAP
    else:
        factory = lambda a: build_scopf(grid, contingencies, opts, binaries=a.binaries())[0]
        # coupled multi-state solves are expensive; hand large joint
        # assignment spaces to branch-and-bound early
        cap = 64
    try:
        return solve_minlp(factory, grid, cat, strategy=cfg.strategy, solver_options=cfg.solver, cap=cap)
    except EnumerationCapExceeded:
        return solve_minlp(factory, grid, cat, strategy="branch-and-bound", solver_options=cfg.solver)


def _result_fields(grid: Grid, res: MinlpSolution, scenarios: list[int]) -> dict:
    if res.solution is None:
        return {"status": res.status, "objective_eur": None, "kkt": None,
                "asym_stations": "", "open_lines": "", "max_offset_kv": None, "reserve_cost_eur": None}
    problem = res.problem
    values = res.solution.values(problem)
    offs: dict[str, float] = {}
    for k in scenarios:
        for st, off in neutral_offsets(grid, values, k).items():
            offs[f"{st}@{k}"] = off
    max_off = max((abs(v) for v in offs.values()), default=0.0)
    reserve = None
    if any(name.startswith("rup.") for name in problem.var_names):
        reserve = sum(
            (g.reserve_cost_up * values[nm.reserve_up(g.id)]
             + g.reserve_cost_down * values[nm.reserve_down(g.id)]) * grid.base_mw
            for g in grid.generators
        )
    beta0 = res.assignment.beta_map()
    asym = sorted({st for kv in beta0.values() for st, v in kv.items() if v == 0})
    gam = res.assignment.gamma_map()
    opened = sorted({bd for kv in gam.values() for bd, v in kv.items() if v == 0})
    return {
        "status": res.status,
        "objective_eur": objective_in_currency(problem, res.objective),
        "kkt": max(res.solution.kkt_residuals.values()),
        "asym_stations": "|".join(asym),
        "open_lines": "|".join(opened),
        "max_offset_kv": max_off,
        "reserve_cost_eur": reserve,
    }


def _write_solution_detail(out_dir: Path, grid: Grid, res: MinlpSolution, scenarios, labels) -> list[Path]:
    if res.solution is None:
        return []
    values = res.solution.values(res.problem)
    station_rows = []
    offset_rows = []
    for k in scenarios:
        for cs in grid.converter_stations:
            for cv in cs.pole_converters:
                station_rows.append(
                    {
                        "scenario": labels[k],
                        "station": cs.id,
                        "converter": cv.id,
                        "i1_pu": values[nm.conv_i(cs.id, cv.id, 1, k)],
                        "i2_pu": values[nm.conv_i(cs.id, cv.id, 2, k)],
                        "p_pu": values[nm.conv_p(cs.id, cv.id, k)],
                        "u1_pu": values[nm.nodal_u(cv.dc_terminal_1, k)],
                    }
                )
            if cs.neutral_node is not None:
                u = values[nm.nodal_u(cs.neutral_node, k)]
                offset_rows.append(
                    {
                        "scenario": labels[k],
                        "station": cs.id,
                        "u_neutral_pu": u,
                        "offset_kv": u * grid.node(cs.neutral_node).base_kv,
                    }
                )
    p1 = out_dir / "stations.csv"
    _write_csv(p1, ["scenario", "station", "converter", "i1_pu", "i2_pu", "p_pu", "u1_pu"], station_rows)
    p2 = out_dir / "offsets.csv"
    _write_csv(p2, ["scenario", "station", "u_neutral_pu", "offset_kv"], offset_rows)
    p3 = out_dir / "solver.log"
    p3.write_text("\n".join(res.solution.log) + "\n")
    return [p1, p2, p3]


def _write_assignment_table(out_dir: Path, res: MinlpSolution) -> Path:
    rows = [
        {
            "assignment": rec.assignment.label(),
            "status": rec.status,
            "objective": rec.objective,
        }
        for rec in res.table
    ]
    path = out_dir / "assignments.csv"
    _write_csv(path, ["assignment", "status", "objective"], rows)
    return path


def _opf_opts(cfg: StudyConfig, n_b: int, offset_limit=None, nls=()) -> OpfOptions:
    return OpfOptions(
        n_b=n_b,
        nb_mode=cfg.nb_mode,
        offset_limit_kv=offset_limit,
        nls_candidates=tuple(nls),
        outage=cfg.outage,
    )


def run_opf(grid: Grid, cfg: StudyConfig) -> StudyReport:
    """Single OPF (optionally post-contingency) with station selection."""
    out = Path(cfg.out_dir)
    opts = _opf_opts(cfg, cfg.n_b, cfg.offset_limit_kv, cfg.nls_candidates)
    res = _minlp(grid, cfg, opts)
    fields = _result_fields(grid, res, [0])
    row = {"n_b": cfg.n_b, "outage": cfg.outage or "", **fields}
    report = StudyReport("opf", res.status, [row])
    p = out / "summary.csv"
    _write_csv(p, ["n_b", "outage", "status", "objective_eur", "kkt", "asym_stations", "open_lines", "max_offset_kv"], [row])
    report.files.append(p)
    report.files.extend(_write_solution_detail(out, grid, res, [0], {0: cfg.outage or "base"}))
    report.files.append(_write_assignment_table(out, res))
    report.files.append(_write_manifest(out, grid, cfg, {"explored": res.explored}))
    return report


def run_nb_sweep(grid: Grid, cfg: StudyConfig) -> StudyReport:
    """Post-contingency cost versus the imposed symmetric-station count."""
    if cfg.outage is None:
        raise StudyError("sweep-nb needs an outage")
    nb_values = cfg.nb_values or tuple(range(len(grid.bipolar_stations()) - 1, -1, -1))
    rows = []
    worst = "optimal"
    out = Path(cfg.out_dir)
    for n_b in nb_values:
        opts = _opf_opts(cfg, n_b, cfg.offset_limit_kv, cfg.nls_candidates)
        res = _minlp(grid, cfg, opts)
        fields = _result_fields(grid, res, [0])
        rows.append({"n_b": n_b, "outage": cfg.outage, **fields})
        if res.status != "optimal":
            worst = res.status
    p = out / "sweep_nb.csv"
    _write_csv(p, ["n_b", "outage", "status", "objective_eur", "kkt", "asym_stations", "max_offset_kv"], rows)
    report = StudyReport("sweep-nb", worst, rows, [p])
    report.files.append(_write_manifest(out, grid, cfg, {"nb_values": list(nb_values)}))
    return report


def run_scopf(grid: Grid, cfg: StudyConfig) -> StudyReport:
    """Reserve-coupled SCOPF totals per symmetric-station budget."""
    contingencies = cfg.contingencies or grid.pole_converter_ids()
    nb_values = cfg.nb_values or (cfg.n_b,)
    rows = []
    worst = "optimal"
    out = Path(cfg.out_dir)
    last_detail = None
    for n_b in nb_values:
        opts = _opf_opts(cfg, n_b, cfg.offset_limit_kv, cfg.nls_candidates)
        res = _minlp(grid, cfg, opts, contingencies=contingencies)
        scen_ids = list(range(len(contingencies) + 1))
        fields = _result_fields(grid, res, scen_ids)
        rows.append({"n_b": n_b, "n_contingencies": len(contingencies), **fields})
        if res.status != "optimal":
            worst = res.status
        labels = {0: "base", **{k + 1: c for k, c in enumerate(contingencies)}}
        last_detail = (res, scen_ids, labels)
    p = out / "scopf.csv"
    _write_csv(
        p,
        ["n_b", "n_contingencies", "status", "objective_eur", "reserve_cost_eur", "kkt", "asym_stations", "max_offset_kv"],
        rows,
    )
    report = StudyReport("scopf", worst, rows, [p])
    if last_detail is not None:
        report.files.extend(_write_solution_detail(out, grid, *last_detail))
    report.files.append(_write_manifest(out, grid, cfg, {"contingencies": list(contingencies)}))
    return report


def run_nls(grid: Grid, cfg: StudyConfig) -> StudyReport:
    """Offset-limit cost table with and without neutral line switching.

    With an empty candidate set the switching column degenerates to the
    base column (switching nothing is the only plan).
    """
    out = Path(cfg.out_dir)
    rows = []
    worst = "optimal"

    def one(limit, candidates):
        opts = _opf_opts(cfg, cfg.n_b, limit, candidates)
        res = _minlp(grid, cfg, opts)
        return res, _result_fields(grid, res, [0])

    res_u, f_u = one(None, ())
    rows.append(
        {
            "offset_limit_kv": "unrestricted",
            "objective_base_eur": f_u["objective_eur"],
            "objective_nls_eur": None,
            "lines_disconnected": "",
            "status": f_u["status"],
            "kkt": f_u["kkt"],
            "max_offset_kv": f_u["max_offset_kv"],
        }
    )
    if res_u.status != "optimal":
        worst = res_u.status
    for limit in cfg.offset_limits_kv:
        res_b, f_b = one(limit, ())
        res_n, f_n = one(limit, cfg.nls_candidates)
        rows.append(
            {
                "offset_limit_kv": limit,
                "objective_base_eur": f_b["objective_eur"],
                "objective_nls_eur": f_n["objective_eur"],
                "lines_disconnected": f_n["open_lines"],
                "status": f_n["status"] if f_b["status"] == "optimal" else f_b["status"],
                "kkt": max((v for v in (f_b["kkt"], f_n["kkt"]) if v is not None), default=None),
                "max_offset_kv": f_n["max_offset_kv"],
            }
        )
        for r in (res_b, res_n):
            if r.status != "optimal":
                worst = r.status
    p = out / "nls.csv"
    _write_csv(
        p,
        ["offset_limit_kv", "objective_base_eur", "objective_nls_eur", "lines_disconnected", "status", "kkt", "max_offset_kv"],
        rows,
    )
    report = StudyReport("nls", worst, rows, [p])
    report.files.append(_write_manifest(out, grid, cfg, {}))
    return report


def run_study(grid: Grid, cfg: StudyConfig) -> StudyReport:
    runner = {"opf": run_opf, "sweep-nb": run_nb_sweep, "scopf": run_scopf, "nls": run_nls}.get(cfg.study)
    if runner is None:
        raise StudyError(f"unknown study {cfg.study!r}")
    return runner(grid, cfg)
