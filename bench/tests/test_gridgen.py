import json

import pytest

from gridgen import meshed_bipolar_grid
from hvdcopf.grid import ConductorRole, StationConfig, validate
from hvdcopf.io import grid_to_doc


@pytest.mark.parametrize("n", [2, 3, 4, 8, 16, 32])
@pytest.mark.parametrize("seed", [0, 1, 7])
def test_generated_grid_validates(n, seed):
    grid = meshed_bipolar_grid(n, seed)
    assert validate(grid) == []
    assert len(grid.bipolar_stations()) == n
    assert all(cs.config is StationConfig.BIPOLAR for cs in grid.converter_stations)
    assert all(grid.node(cs.neutral_node).grounded for cs in grid.converter_stations)
    dmrs = grid.neutral_lines()
    assert dmrs and all(bd.switchable for bd in dmrs)
    assert len(grid.dc_lines) == 3 * len(dmrs)  # two poles and a DMR per corridor
    assert any(g.is_wind for g in grid.generators) and any(not g.is_wind for g in grid.generators)


def test_meshed_beyond_a_ring():
    grid = meshed_bipolar_grid(8, 0)
    assert len(grid.neutral_lines()) > 8


@pytest.mark.parametrize("n,seed", [(4, 3), (8, 7), (16, 11)])
def test_same_inputs_give_identical_documents(n, seed):
    first = json.dumps(grid_to_doc(meshed_bipolar_grid(n, seed)), sort_keys=True)
    second = json.dumps(grid_to_doc(meshed_bipolar_grid(n, seed)), sort_keys=True)
    assert first == second
    assert first != json.dumps(grid_to_doc(meshed_bipolar_grid(n, seed + 1)), sort_keys=True)


def test_too_small_rejected():
    with pytest.raises(ValueError):
        meshed_bipolar_grid(1, 0)
