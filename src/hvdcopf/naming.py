"""Canonical variable/constraint names shared by builder, converters and reports.

Every per-state quantity carries an ``@k`` scenario suffix (k = 0 is the
base / single OPF state); reserve variables are global.
"""

from __future__ import annotations


def nodal_u(node: str, k: int = 0) -> str:
    return f"U.{node}@{k}"


def port_u(element: str, end: str, k: int = 0) -> str:
    return f"u.{element}.{end}@{k}"


def port_i(element: str, end: str, k: int = 0) -> str:
    return f"i.{element}.{end}@{k}"


def injection(node: str, k: int = 0) -> str:
    return f"Inj.{node}@{k}"


def conv_i(station: str, conv: str, terminal: int, k: int = 0) -> str:
    return f"icv.{station}.{conv}.{terminal}@{k}"


def conv_p(station: str, conv: str, k: int = 0) -> str:
    return f"pcv.{station}.{conv}@{k}"


def dmr_i(station: str, k: int = 0) -> str:
    return f"idmr.{station}@{k}"


def symmetric_row(station: str, k: int = 0) -> str:
    """The row i_a2 + i_b2 = 0 that symmetric operation (beta = 1) adds to a bipolar station."""
    return f"sym.{station}@{k}"


def gen_p(gen: str, k: int = 0) -> str:
    return f"pg.{gen}@{k}"


def reserve_up(gen: str) -> str:
    return f"rup.{gen}"


def reserve_down(gen: str) -> str:
    return f"rdn.{gen}"
