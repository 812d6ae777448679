import itertools
import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from hvdcopf import naming as nm
from hvdcopf.converters import (
    SymmetricCountConstraint,
    neutral_offset_kv,
    neutral_offsets,
    station_constraints,
    symmetric_count_constraint,
    symmetric_row,
)
from hvdcopf.grid import ConverterStation, PoleConverter, StationConfig

from conftest import bipolar_station
from oracles import station_current_identity


@pytest.fixture()
def station():
    return bipolar_station("St", "St.ac", "Sm", "Sp", "Sn")


def _row(cons, name):
    for r in cons.rows:
        if r.name == name:
            return r
    raise AssertionError(f"no row {name}; have {[r.name for r in cons.rows]}")


def _state(cons, **kw):
    state = {v: 0.0 for v in cons.variables}
    state.update({"U.Sp@0": 0.0, "U.Sn@0": 0.0, "U.Sm@0": 0.0})
    state.update(kw)
    return state


class TestBipolar:
    def test_symmetric_relations(self, station):
        cons = station_constraints(station)
        st = _state(
            cons,
            **{
                nm.conv_i("St", "a", 1): 1.0,
                nm.conv_i("St", "a", 2): -1.0,
                nm.conv_i("St", "b", 1): 1.0,
                nm.conv_i("St", "b", 2): 1.0,
                nm.dmr_i("St"): 0.0,
            },
        )
        for name in ("cv.St.a.cur@0", "cv.St.b.cur@0", "cv.St.dmr@0"):
            assert _row(cons, name).evaluate(st) == pytest.approx(0.0)
        assert "sym.St@0" not in {r.name for r in cons.rows}  # the builder adds it where beta = 1
        assert symmetric_row(station).evaluate(st) == pytest.approx(0.0)

    def test_variables_in_column_order(self, station):
        cons = station_constraints(station, 2)
        currents = [nm.conv_i("St", cv, t, 2) for cv in ("a", "b") for t in (1, 2)]
        assert list(cons.variables) == currents + [nm.conv_p("St", "a", 2), nm.conv_p("St", "b", 2), nm.dmr_i("St", 2)]
        assert cons.variables[nm.dmr_i("St", 2)] == (-math.inf, math.inf)

    def test_outage_all_return_through_neutral(self, station):
        # positive pole out, healthy pole at 0.8: the full return shows on the DMR
        cons = station_constraints(station)
        st = _state(
            cons,
            **{
                nm.conv_i("St", "b", 1): 0.8,
                nm.conv_i("St", "b", 2): 0.8,
                nm.dmr_i("St"): 0.8,
            },
        )
        assert _row(cons, "cv.St.dmr@0").evaluate(st) == pytest.approx(0.0)
        assert "sym.St@0" not in {r.name for r in cons.rows}

    def test_power_row_zero_neutral_voltage(self, station):
        cons = station_constraints(station)
        st = _state(
            cons,
            **{
                "U.Sp@0": 1.0,
                nm.conv_i("St", "a", 1): 1.0,
                nm.conv_p("St", "a"): 1.0,
            },
        )
        assert _row(cons, "cv.St.a.pwr@0").evaluate(st) == pytest.approx(0.0)

    def test_current_identity_helper(self, station):
        values = {
            nm.dmr_i("St"): 0.25,
            nm.conv_i("St", "a", 2): -0.5,
            nm.conv_i("St", "b", 2): 0.75,
        }
        assert station_current_identity(values, station) == pytest.approx(0.0)


class TestMonopole:
    @pytest.fixture()
    def mono(self):
        return ConverterStation(
            "M", StationConfig.MONOPOLE,
            (PoleConverter("m", "Xp", "Xn", 0.5, 0.9, "M.ac"),),
        )

    def test_equal_voltage_power(self, mono):
        cons = station_constraints(mono)
        st = {
            "U.Xp@0": 1.0, "U.Xn@0": 1.0,
            nm.conv_i("M", "m", 1): 0.5, nm.conv_i("M", "m", 2): 0.5,
            nm.conv_p("M", "m"): 1.0,
        }
        assert _row(cons, "cv.M.pwr@0").evaluate(st) == pytest.approx(0.0)
        assert _row(cons, "cv.M.cur@0").evaluate(st) == pytest.approx(0.0)

    def test_zero_current_zero_power(self, mono):
        cons = station_constraints(mono)
        st = {"U.Xp@0": 1.0, "U.Xn@0": 1.0, nm.conv_i("M", "m", 1): 0.0,
              nm.conv_i("M", "m", 2): 0.0, nm.conv_p("M", "m"): 0.0}
        assert _row(cons, "cv.M.pwr@0").evaluate(st) == pytest.approx(0.0)

    def test_unequal_voltages(self, mono):
        cons = station_constraints(mono)
        st = {"U.Xp@0": 1.0, "U.Xn@0": 0.98, nm.conv_i("M", "m", 1): 0.5,
              nm.conv_i("M", "m", 2): 0.5, nm.conv_p("M", "m"): 0.99}
        assert _row(cons, "cv.M.pwr@0").evaluate(st) == pytest.approx(0.0)


class TestDcDc:
    @pytest.fixture()
    def dcdc(self):
        return ConverterStation(
            "D", StationConfig.DCDC,
            (
                PoleConverter("A", "Xp", "Xn", 0.3, 0.5),
                PoleConverter("B", "Yp", "Yn", 0.3, 0.5),
            ),
        )

    def test_lossless_transfer(self, dcdc):
        cons = station_constraints(dcdc)
        st = {nm.conv_p("D", "A"): 1.0, nm.conv_p("D", "B"): -1.0}
        assert _row(cons, "cv.D.lossless@0").evaluate(st) == pytest.approx(0.0)

    def test_zero_current_zero_power(self, dcdc):
        cons = station_constraints(dcdc)
        st = {"U.Xp@0": 1.0, "U.Xn@0": 1.0, nm.conv_i("D", "A", 1): 0.0,
              nm.conv_i("D", "A", 2): 0.0, nm.conv_p("D", "A"): 0.0}
        assert _row(cons, "cv.D.A.pwr@0").evaluate(st) == pytest.approx(0.0)

    def test_rating_bounds_present(self, dcdc):
        cons = station_constraints(dcdc)
        assert cons.variables[nm.conv_i("D", "A", 1)] == (-0.3, 0.3)
        assert cons.variables[nm.conv_p("D", "B")] == (-0.5, 0.5)

    def test_per_side_current_symmetry(self, dcdc):
        cons = station_constraints(dcdc)
        st = {nm.conv_i("D", "B", 1): 0.2, nm.conv_i("D", "B", 2): 0.2}
        assert _row(cons, "cv.D.B.cur@0").evaluate(st) == pytest.approx(0.0)


class TestSymmetricCount:
    def test_exact_forced_assignment(self, station):
        stations = [bipolar_station(f"S{k}", "b", "Sm", "Sp", "Sn") for k in range(4)]
        rule = symmetric_count_constraint(stations, 4)
        assert rule.admissible({f"S{k}": 1 for k in range(4)})
        assert not rule.admissible({"S0": 0, "S1": 1, "S2": 1, "S3": 1})

    def test_zero_budget(self):
        stations = [bipolar_station(f"S{k}", "b", "Sm", "Sp", "Sn") for k in range(4)]
        rule = symmetric_count_constraint(stations, 0)
        assert rule.admissible({f"S{k}": 0 for k in range(4)})

    def test_counting(self):
        stations = [bipolar_station(f"S{k}", "b", "Sm", "Sp", "Sn") for k in range(4)]
        rule = symmetric_count_constraint(stations, 3)
        assert rule.admissible({"S0": 0, "S1": 1, "S2": 1, "S3": 1})
        assert not rule.admissible({f"S{k}": 1 for k in range(4)})

    def test_out_of_range_rejected(self):
        stations = [bipolar_station("S0", "b", "Sm", "Sp", "Sn")]
        with pytest.raises(ValueError):
            symmetric_count_constraint(stations, 2)

    def test_forced_stations_beyond_the_budget_have_no_completion(self):
        rule = SymmetricCountConstraint(("S0", "S1", "S2"), 2)
        assert rule.completions(("S0", "S1")) == []
        assert rule.propagate({"S0": 0, "S1": 0, "S2": None}) is None

    @given(data=st.data())
    def test_propagation_and_completions_match_brute_force(self, data):
        ids = tuple(sorted(data.draw(st.sets(st.sampled_from("ABCDEFGH"), min_size=1, max_size=6))))
        n_b = data.draw(st.integers(0, len(ids)))
        rule = SymmetricCountConstraint(ids, n_b)
        forced_zero = data.draw(st.sets(st.sampled_from(ids)))
        partial = data.draw(st.fixed_dictionaries({s: st.sampled_from((0, 1, None)) for s in ids}))

        def admissible_completions(fixed):
            vectors = (dict(zip(ids, bits)) for bits in itertools.product((0, 1), repeat=len(ids)))
            return [b for b in vectors if rule.admissible(b) and all(b[s] == v for s, v in fixed.items())]

        def asym(beta):
            return tuple(s for s in ids if beta[s] == 0)

        expected = sorted(admissible_completions({s: 0 for s in forced_zero}), key=asym)
        assert rule.completions(forced_zero) == expected

        completions = admissible_completions({s: v for s, v in partial.items() if v is not None})
        propagated = rule.propagate(partial)
        if not completions:
            assert propagated is None
            return
        for s in ids:
            agreed = {c[s] for c in completions}
            assert propagated[s] == (agreed.pop() if len(agreed) == 1 else None)
        # either value of a selector propagation leaves undecided has a completion: no B&B child dead-ends
        decided = {s: v for s, v in propagated.items() if v is not None}
        undecided = [s for s in ids if propagated[s] is None]
        assert all(admissible_completions({**decided, s: value}) for s in undecided for value in (0, 1))

    @given(data=st.data())
    def test_rounding_matches_brute_force(self, data):
        ids = tuple(sorted(data.draw(st.sets(st.sampled_from("ABCDEFGH"), min_size=1, max_size=6))))
        n_b = data.draw(st.integers(0, len(ids)))
        rule = SymmetricCountConstraint(ids, n_b)
        forced_zero = data.draw(st.sets(st.sampled_from(ids)))
        partial = {s: 0 if s in forced_zero else data.draw(st.sampled_from((0, 1, None))) for s in ids}
        # few distinct values, so that ties between scores are common
        scores = {s: data.draw(st.sampled_from((0.0, 0.5, 1.0, 2.0))) for s in ids if partial[s] is None}
        decided = {s: v for s, v in partial.items() if v is not None}

        vectors = (dict(zip(ids, bits)) for bits in itertools.product((0, 1), repeat=len(ids)))
        completions = [b for b in vectors if rule.admissible(b) and all(b[s] == v for s, v in decided.items())]
        rounded = rule.rounded(partial, scores)
        if not completions:
            assert rounded is None
            return
        assert rule.admissible(rounded) and all(rounded[s] == v for s, v in decided.items())

        # the smallest scores run symmetric, ties by id
        def symmetric_scores(beta):
            return sorted((scores[s], s) for s in ids if partial[s] is None and beta[s] == 1)

        assert rounded == min(completions, key=symmetric_scores)


def test_neutral_offsets_of_each_station_neutral(builtin_grid):
    stations = [cs for cs in builtin_grid.converter_stations if cs.neutral_node is not None]
    assert 0 < len(stations) < len(builtin_grid.converter_stations)  # a station without a neutral is left out
    u = {cs.id: 0.01 * (i + 1) for i, cs in enumerate(stations)}
    values = {nm.nodal_u(cs.neutral_node, 2): u[cs.id] for cs in stations}
    offsets = neutral_offsets(builtin_grid, values, 2)
    assert list(offsets) == [cs.id for cs in stations]
    for cs in stations:
        assert offsets[cs.id] == (u[cs.id], neutral_offset_kv(u[cs.id], builtin_grid.node(cs.neutral_node).base_kv))


def test_neutral_offset_conversion():
    assert neutral_offset_kv(0.0363, 400.0) == pytest.approx(14.52)
    assert neutral_offset_kv(0.0, 400.0) == 0.0
