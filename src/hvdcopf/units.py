"""Per-unit conversions for the multi-conductor DC grid.

The normalization uses a single system power base (MW) and a signed voltage
base per DC node: positive-pole and neutral nodes carry the positive rated
pole voltage, negative-pole nodes carry its negative.  With signed bases a
healthy bipole has per-unit voltage +1.0 on *both* poles, and the return
current of the negative-pole converter has the same per-unit sign as its
pole current.
"""

from __future__ import annotations


def per_unit(value: float, base: float) -> float:
    """Convert a physical quantity to per-unit on the given (signed) base."""
    if base == 0.0:
        raise ZeroDivisionError("per-unit base must be nonzero")
    return value / base


def resistance_base_ohm(base_mw: float, base_kv: float) -> float:
    """Resistance base V_base^2 / S_base; positive for either base sign."""
    if base_mw == 0.0:
        raise ZeroDivisionError("power base must be nonzero")
    return (base_kv * 1e3) ** 2 / (base_mw * 1e6)
