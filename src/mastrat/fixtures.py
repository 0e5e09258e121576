"""Bundled reference designs and unit-structure tables."""

from __future__ import annotations

from importlib import resources

import numpy as np

from .blocks import BlockStructure

_DATA = resources.files(__package__) / "data"


def _read_csv(name: str) -> tuple[list[str], np.ndarray]:
    text = (_DATA / name).read_text().strip().splitlines()
    header = [h.strip() for h in text[0].split(",")]
    rows = [[int(v) for v in line.split(",")] for line in text[1:]]
    return header, np.array(rows, dtype=np.int64)


def oa8_m() -> np.ndarray:
    """Strength-2 OA(8, 2^6, 2)."""
    return _read_csv("m_oa8.csv")[1]


def pb8() -> np.ndarray:
    """The 8-run Plackett-Burman design, 7 factors."""
    return _read_csv("pb8.csv")[1]


def latin16_structure() -> BlockStructure:
    """16 units in a 4x4 Latin square: factors U, R, C, L, E."""
    header, table = _read_csv("latin16.txt")
    return BlockStructure.from_class_table(table.tolist(), header)


def d3_star() -> np.ndarray:
    """OA(16, 2^6, 2) arranged on the Latin-square units."""
    return _read_csv("d3star.csv")[1]


def d4_star() -> np.ndarray:
    """d3* with the first and ninth runs exchanged."""
    d = d3_star().copy()
    d[[0, 8]] = d[[8, 0]]
    return d
