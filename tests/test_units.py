import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from hvdcopf.converters import neutral_offset_kv
from hvdcopf.units import per_unit, resistance_base_ohm


def test_sign_convention_identity():
    assert per_unit(-400.0, -400.0) == 1.0
    assert per_unit(400.0, 400.0) == 1.0


def test_neutral_offset_fraction():
    # 14.52 kV on a 400 kV neutral base is about 3.63 percent
    assert per_unit(14.52, 400.0) == pytest.approx(0.0363, rel=1e-4)


def test_zero_base_rejected():
    with pytest.raises(ZeroDivisionError):
        per_unit(1.0, 0.0)
    with pytest.raises(ZeroDivisionError, match="power base"):
        resistance_base_ohm(0.0, 400.0)


finite = st.floats(
    allow_nan=False, allow_infinity=False, min_value=-1e12, max_value=1e12
)
bases = finite.filter(lambda b: abs(b) > 1e-6)


@given(x=finite, base=bases)
def test_round_trip(x, base):
    assert neutral_offset_kv(per_unit(x, base), base) == pytest.approx(x, rel=1e-12, abs=1e-12)


def test_resistance_base_positive_for_either_pole():
    assert resistance_base_ohm(1000.0, 400.0) == pytest.approx(160.0)
    assert resistance_base_ohm(1000.0, -400.0) == pytest.approx(160.0)
    assert math.isclose(resistance_base_ohm(1000.0, 200.0), 40.0)
