"""Command-line front end for the study procedures.

Exit codes: 0 optimal, 2 infeasible, 3 iteration limit, 4 input error.
Command-line flags override the config file.
"""

from __future__ import annotations

import argparse
import sys

from .grid import Grid
from .io import STUDIES, GridSchemaError, StudyConfig, load_builtin_case, load_config, load_grid
from .studies import StudyError, run_study

EXIT_OK = 0
EXIT_INFEASIBLE = 2
EXIT_ITERATION_LIMIT = 3
EXIT_INPUT = 4


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="hvdcopf",
        description="OPF/SCOPF studies on multi-conductor bipolar HVDC grids",
    )
    p.add_argument("--grid", help="grid JSON file (default: shipped test system)")
    p.add_argument("--config", help="study config JSON file")
    p.add_argument("--study", choices=STUDIES, help="study to run")
    p.add_argument("--nb", dest="n_b", metavar="NB", type=int, help="number of symmetric bipolar stations N_b")
    p.add_argument("--outage", help="pole converter outage id, e.g. Cb-A1.a")
    p.add_argument("--offset-limit-kv", type=float, help="neutral-bus voltage offset limit")
    p.add_argument("--out-dir", help="report output directory")
    return p


def resolve_config(args: argparse.Namespace) -> StudyConfig:
    if args.config:
        cfg = load_config(args.config)
    elif args.study:
        cfg = StudyConfig(study=args.study)
    else:
        raise GridSchemaError("<args>", "either --config or --study is required")
    # every flag but --grid and --config is named after the StudyConfig field it overrides
    overrides = {key: value for key, value in vars(args).items() if key not in ("grid", "config") and value is not None}
    return cfg.replace(**overrides) if overrides else cfg


def load_inputs(args: argparse.Namespace) -> tuple[Grid, StudyConfig]:
    cfg = resolve_config(args)
    grid = load_grid(args.grid) if args.grid else load_builtin_case()
    return grid, cfg


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        grid, cfg = load_inputs(args)
    except GridSchemaError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    try:
        report = run_study(grid, cfg)
    except (StudyError, ValueError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    for row in report.rows:
        keys = [k for k in ("n_b", "outage", "offset_limit_kv") if row.get(k) not in (None, "")]
        tag = " ".join(f"{k}={row[k]}" for k in keys)
        obj = row.get("objective_eur")
        if obj is None:
            obj = row.get("objective_base_eur")
        obj_txt = f"{obj:,.0f} {grid.currency}/h" if obj is not None else "-"
        print(f"[{report.study}] {tag} status={row['status']} objective={obj_txt}")
    for f in report.files:
        print(f"wrote {f}")
    if report.status == "optimal":
        return EXIT_OK
    if report.status == "infeasible":
        return EXIT_INFEASIBLE
    return EXIT_ITERATION_LIMIT


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
