import sys
from pathlib import Path

import pytest

from hvdcopf.grid import (
    ConductorRole,
    ConverterStation,
    DcLine,
    DcNode,
    Demand,
    Generator,
    Grid,
    NodeKind,
    PoleConverter,
    StationConfig,
)
from hvdcopf.io import load_builtin_case


def bipolar_station(sid, bus, neutral, pos, neg, ilim=1.05, plim=1.0):
    return ConverterStation(
        sid,
        StationConfig.BIPOLAR,
        (
            PoleConverter("a", pos, neutral, ilim, plim, bus),
            PoleConverter("b", neg, neutral, ilim, plim, bus),
        ),
        neutral_node=neutral,
    )


def two_station_grid(
    r_dmr=0.04,
    ground_p=True,
    ground_q=True,
    r_ground=1.6,
    demand_p=800.0,
    wind_q=1000.0,
    gen_p_cost=80.0,
) -> Grid:
    """Minimal bipole pair: importer station P fed by wind station Q."""
    nodes = [
        DcNode("Pp", NodeKind.POSITIVE, 400.0, vmin_pu=0.9, vmax_pu=1.1),
        DcNode("Pm", NodeKind.NEUTRAL, 400.0, grounded=ground_p, grounding_ohm=r_ground if ground_p else None),
        DcNode("Pn", NodeKind.NEGATIVE, -400.0, vmin_pu=0.9, vmax_pu=1.1),
        DcNode("Qp", NodeKind.POSITIVE, 400.0, vmin_pu=0.9, vmax_pu=1.1),
        DcNode("Qm", NodeKind.NEUTRAL, 400.0, grounded=ground_q, grounding_ohm=r_ground if ground_q else None),
        DcNode("Qn", NodeKind.NEGATIVE, -400.0, vmin_pu=0.9, vmax_pu=1.1),
    ]
    lines = [
        DcLine("L-p", "Pp", "Qp", 0.01, ConductorRole.POLE),
        DcLine("L-m", "Pm", "Qm", r_dmr, ConductorRole.NEUTRAL, switchable=True),
        DcLine("L-n", "Pn", "Qn", 0.01, ConductorRole.POLE),
    ]
    stations = [
        bipolar_station("St-P", "P.ac", "Pm", "Pp", "Pn"),
        bipolar_station("St-Q", "Q.ac", "Qm", "Qp", "Qn"),
    ]
    gens = [
        Generator("G-P", "P.ac", gen_p_cost, 18.0, 4.0, 1200.0),
        Generator("W-Q", "Q.ac", 0.0, 0.0, 0.0, wind_q, is_wind=True),
    ]
    demands = [Demand("D-P", "P.ac", demand_p)]
    return Grid(
        name="two-station",
        base_mw=1000.0,
        dc_nodes=tuple(nodes),
        dc_lines=tuple(lines),
        dc_switches=(),
        converter_stations=tuple(stations),
        generators=tuple(gens),
        demands=tuple(demands),
    )


@pytest.fixture(scope="session")
def builtin_grid() -> Grid:
    return load_builtin_case()


@pytest.fixture()
def pair_grid() -> Grid:
    return two_station_grid()


@pytest.fixture(scope="session")
def meshed_bipolar_grid():
    """The seeded meshed-grid generator of `bench/gridgen.py` (one copy, shared with the benchmark)."""
    bench = str(Path(__file__).resolve().parents[1] / "bench")
    sys.path.insert(0, bench)
    try:
        from gridgen import meshed_bipolar_grid
    finally:
        sys.path.remove(bench)
    return meshed_bipolar_grid
