"""Deterministic generator of meshed bipolar HVDC grids for the benchmark.

`meshed_bipolar_grid(n, seed)` returns a `Grid` with n bipolar +/-400 kV
stations, each with a grounded neutral, joined by a ring of corridors plus
seeded chords. Every corridor carries a positive pole line, a negative pole
line and a switchable dedicated metallic return (DMR). Even stations are
onshore (demand plus a thermal unit that can cover it alone); odd stations
are offshore wind farms. The same (n, seed) gives the same grid, down to the
bytes of `grid_to_doc`.
"""

from __future__ import annotations

import random

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

BASE_KV = 400.0


def _corridors(n: int, rng: random.Random) -> list[tuple[int, int]]:
    ring = [(i, (i + 1) % n) for i in range(n)] if n > 2 else [(0, 1)]
    chords = [(i, i + n // 2) for i in range(n // 2)] if n >= 4 else []
    picked = sorted(rng.sample(chords, k=max(1, len(chords) // 2))) if chords else []
    return ring + picked


def meshed_bipolar_grid(n: int, seed: int) -> Grid:
    """n-station meshed bipolar grid with DMR per corridor, seeded parameters."""
    if n < 2:
        raise ValueError("a meshed grid needs at least two stations")
    rng = random.Random(seed)
    u = lambda lo, hi, nd=4: round(rng.uniform(lo, hi), nd)

    nodes: list[DcNode] = []
    stations: list[ConverterStation] = []
    gens: list[Generator] = []
    demands: list[Demand] = []
    for i in range(n):
        p, m, q, bus = f"S{i}p", f"S{i}m", f"S{i}n", f"S{i}.ac"
        nodes += [
            DcNode(p, NodeKind.POSITIVE, BASE_KV, vmin_pu=0.9, vmax_pu=1.1),
            DcNode(m, NodeKind.NEUTRAL, BASE_KV, grounded=True, grounding_ohm=u(0.5, 40.0, 2)),
            DcNode(q, NodeKind.NEGATIVE, -BASE_KV, vmin_pu=0.9, vmax_pu=1.1),
        ]
        plim = u(0.4, 1.0, 2)
        ilim = round(1.05 * plim, 4)
        stations.append(
            ConverterStation(
                f"Cb-S{i}",
                StationConfig.BIPOLAR,
                (PoleConverter("a", p, m, ilim, plim, bus), PoleConverter("b", q, m, ilim, plim, bus)),
                neutral_node=m,
            )
        )
        if i % 2 == 0:
            load = u(300.0, 1200.0, 1)
            demands.append(Demand(f"D-S{i}", bus, load))
            gens.append(
                Generator(f"G-S{i}", bus, u(40.0, 90.0, 2), u(5.0, 20.0, 2), u(1.0, 5.0, 2),
                          round(load * u(1.2, 1.6), 1))
            )
        else:
            gens.append(Generator(f"W-S{i}", bus, 0.0, 0.0, 0.0, u(300.0, 1000.0, 1), is_wind=True))

    lines: list[DcLine] = []
    for c, (a, b) in enumerate(_corridors(n, rng)):
        r_pole = u(0.005, 0.02)
        lines += [
            DcLine(f"L{c}-p", f"S{a}p", f"S{b}p", r_pole, ConductorRole.POLE),
            DcLine(f"L{c}-m", f"S{a}m", f"S{b}m", u(0.04, 0.12), ConductorRole.NEUTRAL, switchable=True),
            DcLine(f"L{c}-n", f"S{a}n", f"S{b}n", r_pole, ConductorRole.POLE),
        ]

    return Grid(
        name=f"synth-meshed-n{n}-seed{seed}",
        base_mw=1000.0,
        dc_nodes=tuple(nodes),
        dc_lines=tuple(lines),
        dc_switches=(),
        converter_stations=tuple(stations),
        generators=tuple(gens),
        demands=tuple(demands),
        notes=f"generated by bench/gridgen.py: n={n}, seed={seed}",
    )
