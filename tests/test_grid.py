import dataclasses

import pytest

from hvdcopf.grid import (
    ConductorRole,
    DcLine,
    DcNode,
    DcSwitch,
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


def _node(grid, node_id, **changes):
    nodes = tuple(dataclasses.replace(n, **changes) if n.id == node_id else n for n in grid.dc_nodes)
    return dataclasses.replace(grid, dc_nodes=nodes)


def _station(grid, station_id, **changes):
    stations = tuple(
        dataclasses.replace(cs, **changes) if cs.id == station_id else cs for cs in grid.converter_stations
    )
    return dataclasses.replace(grid, converter_stations=stations)


def _converter(grid, station_id, conv_id, **changes):
    converters = grid.station(station_id).pole_converters
    converters = tuple(dataclasses.replace(cv, **changes) if cv.id == conv_id else cv for cv in converters)
    return _station(grid, station_id, pole_converters=converters)


def _converters(grid, station_id, count):
    """The station with its first converter repeated or cut to `count` converters."""
    converters = grid.station(station_id).pole_converters
    return _station(grid, station_id, pole_converters=(converters + converters)[:count])


def _added(grid, part, item):
    return dataclasses.replace(grid, **{part: getattr(grid, part) + (item,)})


# one mutation of the shipped grid per rule of `validate`, with the entity and message it must report
_RULES = {
    "duplicate node id": (lambda g: _added(g, "dc_nodes", g.node("A1p")), "A1p", "duplicate DC node id"),
    "reserved earth id": (
        lambda g: _added(g, "dc_nodes", DcNode("earth", NodeKind.NEUTRAL, 400.0)),
        "earth", "node id 'earth' is reserved for the ground reference",
    ),
    "neutral base": (
        lambda g: _node(g, "A1m", base_kv=-400.0), "A1m", "positive-pole/neutral nodes need a positive voltage base",
    ),
    "grounding resistance": (
        lambda g: _node(g, "A1m", grounding_ohm=None), "A1m", "grounded node needs a finite grounding resistance >= 0",
    ),
    "duplicate line id": (
        lambda g: _added(g, "dc_lines", DcLine("LD-1", "C2p", "D1p", 0.01, ConductorRole.POLE)),
        "LD-1", "duplicate element id",
    ),
    "missing line endpoint": (
        lambda g: _added(g, "dc_lines", DcLine("L-x", "A1p", "Zp", 0.01, ConductorRole.POLE)),
        "L-x", "endpoint(s) not in grid: ['Zp']",
    ),
    "line endpoint kinds": (
        lambda g: _added(g, "dc_lines", DcLine("L-x", "A1p", "C2p", 0.01, ConductorRole.NEUTRAL)),
        "L-x", "endpoint kinds incompatible with conductor role",
    ),
    "duplicate switch id": (
        lambda g: _added(g, "dc_switches", DcSwitch("LD-1", "C2p", "D1p")), "LD-1", "duplicate element id",
    ),
    "missing switch endpoint": (
        lambda g: _added(g, "dc_switches", DcSwitch("S-x", "Zm", "A1m")), "S-x", "endpoint(s) not in grid: ['Zm']",
    ),
    "switch endpoint kinds": (
        lambda g: _added(g, "dc_switches", DcSwitch("S-x", "A1p", "A1m")),
        "S-x", "switch endpoints must share the same node kind",
    ),
    "duplicate station id": (
        lambda g: _added(g, "converter_stations", g.station("Cd-E1")), "Cd-E1", "duplicate station id",
    ),
    "missing converter terminal": (
        lambda g: _converter(g, "Cm-F1", "m", dc_terminal_1="Zp"), "Cm-F1.m", "DC terminal 'Zp' not in grid",
    ),
    "converter limits": (
        lambda g: _converter(g, "Cb-A1", "a", current_limit_pu=0.0), "Cb-A1.a", "converter limits must be positive",
    ),
    "finite converter limits": (
        lambda g: _converter(g, "Cb-A1", "a", current_limit_pu=float("nan")), "Cb-A1.a",
        "current_limit_pu must be finite",
    ),
    "finite voltage base": (lambda g: _node(g, "A1p", base_kv=float("inf")), "A1p", "base_kv must be finite"),
    "finite voltage limits": (
        lambda g: _node(g, "A1p", vmax_pu=float("nan")), "A1p", "vmax_pu must be finite",
    ),
    "bipolar converter count": (
        lambda g: _converters(g, "Cb-A1", 1), "Cb-A1", "bipolar station needs exactly two pole converters",
    ),
    "bipolar neutral node": (
        lambda g: _station(g, "Cb-A1", neutral_node=None), "Cb-A1", "bipolar station needs a neutral node",
    ),
    "bipolar neutral kind": (
        lambda g: _station(g, "Cb-A1", neutral_node="A1p"), "Cb-A1", "station neutral node must be of neutral kind",
    ),
    "bipolar terminal 1": (
        lambda g: _converter(g, "Cb-A1", "a", dc_terminal_1="A1n"), "Cb-A1.a", "terminal-1 node must be positive-pole",
    ),
    "bipolar terminal 2": (
        lambda g: _converter(g, "Cb-A1", "b", dc_terminal_2="B1m"),
        "Cb-A1.b", "terminal-2 must be the station neutral node",
    ),
    "bipolar terminal 2 kind": (
        lambda g: _converter(g, "Cb-A1", "b", dc_terminal_2="A1n"),
        "Cb-A1.b", "terminal-2 node kind mismatch: expected neutral",
    ),
    "bipolar AC terminal": (
        lambda g: _converter(g, "Cb-A1", "a", ac_terminal=None),
        "Cb-A1.a", "bipolar pole converter needs an AC terminal",
    ),
    "monopole converter count": (
        lambda g: _converters(g, "Cm-F1", 2), "Cm-F1", "symmetric monopole station has exactly one converter",
    ),
    "monopole terminals": (
        lambda g: _converter(g, "Cm-F1", "m", dc_terminal_1="F1n", dc_terminal_2="F1p"),
        "Cm-F1.m", "monopole terminals must be (positive, negative) pole nodes",
    ),
    "monopole AC terminal": (
        lambda g: _converter(g, "Cm-F1", "m", ac_terminal=None), "Cm-F1.m", "monopole converter needs an AC terminal",
    ),
    "dc-dc side count": (lambda g: _converters(g, "Cd-E1", 1), "Cd-E1", "dc-dc converter has exactly two sides"),
    "dc-dc terminals": (
        lambda g: _converter(g, "Cd-E1", "B", dc_terminal_2="E1p"),
        "Cd-E1.B", "dc-dc side terminals must be (positive, negative) pole nodes",
    ),
    "dc-dc AC terminal": (
        lambda g: _converter(g, "Cd-E1", "A", ac_terminal="B1.ac"), "Cd-E1.A", "dc-dc sides have no AC terminal",
    ),
    "duplicate pole converter id": (
        lambda g: _converter(g, "Cb-B1", "b", id="a"), "Cb-B1.a", "duplicate pole converter id in the station",
    ),
    "duplicate dc-dc side id": (
        lambda g: _converter(g, "Cd-E1", "B", id="A"), "Cd-E1.A", "duplicate pole converter id in the station",
    ),
    "duplicate generator id": (
        lambda g: _added(g, "generators", g.generators[0]), "G-A1", "duplicate generator id",
    ),
    "duplicate demand id": (lambda g: _added(g, "demands", g.demands[0]), "D-A1", "duplicate demand id"),
    "generator limits": (
        lambda g: dataclasses.replace(g, generators=tuple(
            dataclasses.replace(gen, p_min_mw=2000.0) if gen.id == "G-A1" else gen for gen in g.generators
        )),
        "G-A1", "generator limits must satisfy 0 <= p_min <= p_max",
    ),
}


@pytest.mark.parametrize("rule", _RULES)
def test_each_rule_reports_its_entity(builtin_grid, rule):
    mutate, entity, message = _RULES[rule]
    assert (entity, message) in [(v.entity, v.rule) for v in validate(mutate(builtin_grid))]
