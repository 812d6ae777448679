import dataclasses

import pytest

from hvdcopf.grid import (
    ConductorRole,
    DcLine,
    DcNode,
    NodeKind,
    ungrounded_neutral_groups,
    validate,
)

from conftest import two_station_grid


def test_well_formed_grid_validates(builtin_grid):
    assert validate(builtin_grid) == []


def test_validate_is_pure(builtin_grid):
    assert validate(builtin_grid) == validate(builtin_grid)


def _with_line(grid, line):
    return dataclasses.replace(grid, dc_lines=grid.dc_lines + (line,))


def test_negative_resistance_flagged(pair_grid):
    bad = _with_line(pair_grid, DcLine("L-bad", "Pp", "Qp", -0.01, ConductorRole.POLE))
    violations = validate(bad)
    assert any(v.entity == "L-bad" and "resistance" in v.rule for v in violations)


def test_pole_terminal_kind_mismatch():
    grid = two_station_grid()
    # point the positive-pole converter's return terminal at a pole node
    st = grid.converter_stations[0]
    cva = dataclasses.replace(st.pole_converters[0], dc_terminal_2="Pp")
    st_bad = dataclasses.replace(st, pole_converters=(cva, st.pole_converters[1]))
    bad = dataclasses.replace(grid, converter_stations=(st_bad,) + grid.converter_stations[1:])
    violations = validate(bad)
    assert any("terminal-2" in v.rule for v in violations)


def test_negative_pole_positive_base_flagged(pair_grid):
    nodes = tuple(
        dataclasses.replace(n, base_kv=400.0) if n.id == "Pn" else n for n in pair_grid.dc_nodes
    )
    bad = dataclasses.replace(pair_grid, dc_nodes=nodes)
    assert any(v.entity == "Pn" for v in validate(bad))


def test_mixed_polarity_line_flagged(pair_grid):
    bad = _with_line(pair_grid, DcLine("L-x", "Pp", "Qn", 0.01, ConductorRole.POLE))
    assert any(v.entity == "L-x" for v in validate(bad))


def test_ungrounded_neutral_group_detected():
    grid = two_station_grid(ground_p=False, ground_q=False)
    violations = validate(grid)
    assert any("no grounded node" in v.rule for v in violations)


def test_ungrounded_groups_with_topology_override():
    # one shared ground: opening the DMR strands the far station's neutral
    grid = two_station_grid(ground_p=False, ground_q=True)
    assert ungrounded_neutral_groups(grid) == []
    bad = ungrounded_neutral_groups(grid, {"L-m": 0})
    assert bad and "Pm" in bad[0]


def test_isolated_neutral_without_station_is_fine(pair_grid):
    extra = DcNode("spare-m", NodeKind.NEUTRAL, 400.0)
    grid = dataclasses.replace(pair_grid, dc_nodes=pair_grid.dc_nodes + (extra,))
    assert ungrounded_neutral_groups(grid) == []


def test_wind_with_cost_flagged(pair_grid):
    gens = tuple(
        dataclasses.replace(g, cost=5.0) if g.is_wind else g for g in pair_grid.generators
    )
    bad = dataclasses.replace(pair_grid, generators=gens)
    assert any("wind" in v.rule for v in validate(bad))


@pytest.mark.parametrize("base_mw", [0.0, -1000.0])
def test_nonpositive_power_base_flagged(pair_grid, base_mw):
    bad = dataclasses.replace(pair_grid, base_mw=base_mw)
    assert any("base_mw" in v.rule for v in validate(bad))


@pytest.mark.parametrize("vmin,vmax,flagged", [(1.2, 0.8, True), (1.0, 1.0, False), (1.2, None, False)])
def test_empty_voltage_box_flagged(pair_grid, vmin, vmax, flagged):
    nodes = tuple(
        dataclasses.replace(n, vmin_pu=vmin, vmax_pu=vmax) if n.id == "Pp" else n for n in pair_grid.dc_nodes
    )
    bad = dataclasses.replace(pair_grid, dc_nodes=nodes)
    assert any(v.entity == "Pp" and "vmin_pu > vmax_pu" in v.rule for v in validate(bad)) == flagged


def _with_ac_terminals(grid, station_id, terminals):
    stations = tuple(
        dataclasses.replace(cs, pole_converters=tuple(
            dataclasses.replace(cv, ac_terminal=bus) for cv, bus in zip(cs.pole_converters, terminals)
        )) if cs.id == station_id else cs
        for cs in grid.converter_stations
    )
    return dataclasses.replace(grid, converter_stations=stations)


def test_converter_alone_on_its_ac_bus_flagged(pair_grid):
    # a misspelt terminal islands the converter; the grid would solve without it
    typo = _with_ac_terminals(pair_grid, "St-P", ("P.ac-typo", "P.ac"))
    assert [(v.entity, v.rule) for v in validate(typo)] == [
        ("St-P.a", "AC terminal 'P.ac-typo' has no generator, demand or other converter")
    ]
    # a bus both poles of a station share is a valid AC node without generation
    shared = _with_ac_terminals(pair_grid, "St-Q", ("Q2.ac", "Q2.ac"))
    assert validate(shared) == []
