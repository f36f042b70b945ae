"""Uniform grid-bucket spatial index over node positions.

The medium's receiver-candidate pruning needs one query answered fast:
*which nodes sit within ``radius`` metres of this position?*  A uniform
grid whose cell size matches the query radius answers it by scanning the
cells under the query disk's bounding box (usually 3×3 when the radius
is one cell) and applying the exact Euclidean filter — O(local density)
per query instead of O(all nodes), with no rebalancing and O(1)
incremental updates when a node attaches or moves (only the affected
buckets change).

Determinism contract: :meth:`SpatialGrid.within` returns node ids
**sorted ascending** and filters with an *inclusive* ``distance <=
radius`` comparison, so a node exactly on the query circle (or exactly
on a bucket boundary) is always a candidate — the conservative side.
The property tests in ``tests/radio/test_spatial.py`` hold the grid to
exact equality with the brute-force in-range set.
"""

from __future__ import annotations

import math

__all__ = ["SpatialGrid"]

#: Relative widening of the scanned bounding box.  A point passing the
#: float predicate lies within ``radius * (1 + 3 ulp)`` of the query, and
#: the box edge ``x - reach`` rounds by about one ulp of ``|x| + reach``;
#: about 8 ulp (~1e-15) would cover both, and 1e-12 leaves a wide margin
#: while moving the edge by nanometres on city-sized coordinates.
_GUARD_REL = 1e-12
#: Absolute widening: a radius whose square underflows to zero still
#: admits points within ~1.5e-162 of the query.
_GUARD_ABS = 1e-150


class SpatialGrid:
    """Point set with grid-bucket range queries.

    ``cell_size`` should match the dominant query radius (queries with a
    larger radius still work — the scan widens to the needed cell span).
    """

    __slots__ = ("cell_size", "_cells", "_pos")

    def __init__(self, cell_size: float) -> None:
        if not cell_size > 0:
            raise ValueError(f"cell size must be positive, got {cell_size}")
        self.cell_size = float(cell_size)
        #: (cx, cy) -> {node_id: (x, y)}
        self._cells: dict[tuple[int, int], dict[int, tuple[float, float]]] = {}
        self._pos: dict[int, tuple[float, float]] = {}

    # -- maintenance ---------------------------------------------------------

    def _cell_of(self, pos: tuple[float, float]) -> tuple[int, int]:
        return (math.floor(pos[0] / self.cell_size),
                math.floor(pos[1] / self.cell_size))

    def insert(self, node_id: int, pos: tuple[float, float]) -> None:
        """Add a node (it must not already be present)."""
        if node_id in self._pos:
            raise ValueError(f"node {node_id} already in the grid")
        pos = (float(pos[0]), float(pos[1]))
        self._pos[node_id] = pos
        self._cells.setdefault(self._cell_of(pos), {})[node_id] = pos

    def remove(self, node_id: int) -> None:
        """Drop a node (KeyError if absent)."""
        pos = self._pos.pop(node_id)
        cell = self._cell_of(pos)
        bucket = self._cells[cell]
        del bucket[node_id]
        if not bucket:
            del self._cells[cell]

    def move(self, node_id: int, pos: tuple[float, float]) -> None:
        """Reposition a node, touching only the two affected buckets."""
        self.remove(node_id)
        self.insert(node_id, pos)

    def __len__(self) -> int:
        return len(self._pos)

    def __contains__(self, node_id: int) -> bool:
        return node_id in self._pos

    def position(self, node_id: int) -> tuple[float, float]:
        return self._pos[node_id]

    # -- queries -------------------------------------------------------------

    def within(self, pos: tuple[float, float], radius: float) -> list[int]:
        """Ids of all nodes with ``distance(pos, node) <= radius``, sorted
        ascending (the medium's draw-order contract).

        The containment test is the *float-evaluated* inclusive
        predicate ``dx*dx + dy*dy <= radius*radius``, and rounding can
        let a point a few ulps outside the true disk pass it.  The scan
        covers the cells under the disk's bounding box widened by
        :data:`_GUARD_REL` of the coordinates' magnitude (the subtraction
        ``px - x`` rounds relative to them) plus :data:`_GUARD_ABS` (the
        squares underflow for radii below ~1e-154), so the scanned cells
        stay a strict superset of every point that can pass the
        predicate.  Found by the property tests: a node at
        ``x = -1e-62`` queried from ``(50, 50)`` at radius 50 rounds to
        distance exactly 50.
        """
        if radius < 0:
            return []
        x, y = float(pos[0]), float(pos[1])
        reach = (radius + (abs(x) + abs(y) + radius) * _GUARD_REL
                 + _GUARD_ABS)
        size = self.cell_size
        x_lo = math.floor((x - reach) / size)
        x_hi = math.floor((x + reach) / size)
        y_lo = math.floor((y - reach) / size)
        y_hi = math.floor((y + reach) / size)
        r2 = radius * radius
        cells = self._cells
        out: list[int] = []
        for gx in range(x_lo, x_hi + 1):
            for gy in range(y_lo, y_hi + 1):
                bucket = cells.get((gx, gy))
                if bucket is None:
                    continue
                for nid, (px, py) in bucket.items():
                    dx = px - x
                    dy = py - y
                    if dx * dx + dy * dy <= r2:
                        out.append(nid)
        out.sort()
        return out
