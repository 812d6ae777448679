"""OPF/SCOPF engine for meshed bipolar HVDC grids.

Sparse-tableau network model with per-conductor DC representation,
converter-station constraint sets (bipolar with metallic return,
symmetric monopole, DC-DC), an interior-point NLP solver, and a discrete
layer selecting asymmetric stations and neutral-line switching actions
per post-contingency state.
"""

__version__ = "0.1.0"

from .builder import (OpfOptions, Scenario, StateBinaries, binary_catalogue, build_opf, build_scopf,
                      objective_in_currency)
from .converters import (
    bipolar_constraints,
    dcdc_constraints,
    monopole_constraints,
    neutral_offset_kv,
    neutral_offsets,
    symmetric_count_constraint,
)
from .engine import (
    BinaryAssignment,
    MinlpSolution,
    enumerate_assignments,
    nls_guard,
    solve_minlp,
)
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
from .io import StudyConfig, load_builtin_case, load_config, load_grid, save_grid
from .ipm import KktReport, Solution, SolverOptions, check_kkt, solve
from .nlp import NlpProblem, ProblemBuilder
from .studies import run_nb_sweep, run_nls, run_opf, run_scopf, run_study
from .tableau import (
    ElementStamp,
    TableauSystem,
    assemble_incidence,
    assemble_tableau,
    dump_tableau,
    solve_tableau,
    stamp_dc_line,
    stamp_dc_switch,
    tableau_residual,
)
from .units import from_per_unit, per_unit
