"""SpatialGrid held to *exact* equality with brute force.

The medium trusts :meth:`SpatialGrid.within` to return precisely the
inclusive in-range id set, sorted ascending — candidate enumeration
order feeds the RNG draw order, so an off-by-one at a bucket boundary
would silently change simulation bytes.  These property tests therefore
compare against a brute-force scan using the *same* float arithmetic,
with strategies biased toward nodes and queries sitting exactly on cell
boundaries, and re-check after ``move`` rewrites buckets.
"""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.radio import SpatialGrid

CELL = 50.0

#: Arbitrary coordinates mixed with exact cell-size multiples, so points
#: precisely on a bucket edge are drawn often instead of almost never.
coordinate = st.one_of(
    st.floats(min_value=-400.0, max_value=400.0,
              allow_nan=False, allow_infinity=False),
    st.integers(min_value=-8, max_value=8).map(lambda k: k * CELL),
)
position = st.tuples(coordinate, coordinate)

#: Radii beyond the 3x3 neighborhood (> 2 cells) exercise the widened
#: scan; exact multiples of the cell size sit on the inclusive edge.
radius = st.one_of(
    st.floats(min_value=0.0, max_value=300.0,
              allow_nan=False, allow_infinity=False),
    st.integers(min_value=0, max_value=6).map(lambda k: k * CELL),
)


def brute_force(points: dict, pos: tuple, r: float) -> list[int]:
    """The specification: inclusive Euclidean filter, ascending ids,
    written with the exact same float expression the grid uses."""
    x, y = float(pos[0]), float(pos[1])
    r2 = r * r
    out = []
    for nid, (px, py) in points.items():
        dx = px - x
        dy = py - y
        if dx * dx + dy * dy <= r2:
            out.append(nid)
    out.sort()
    return out


def populated(points: list) -> tuple[SpatialGrid, dict]:
    grid = SpatialGrid(CELL)
    table = {}
    for i, pos in enumerate(points):
        grid.insert(i, pos)
        table[i] = grid.position(i)
    return grid, table


@settings(deadline=None)
@given(points=st.lists(position, max_size=40), query=position, r=radius)
# Rounds onto the circle from a cell the bare bounding box misses.
@example(points=[(-1e-62, 50.0)], query=(50.0, 50.0), r=50.0)
# Squares underflow: radius 0 still admits a point 1e-170 away.
@example(points=[(-1e-170, 0.0)], query=(0.0, 0.0), r=0.0)
def test_within_matches_brute_force(points, query, r):
    grid, table = populated(points)
    assert grid.within(query, r) == brute_force(table, query, r)


@settings(deadline=None)
@given(points=st.lists(position, min_size=1, max_size=25),
       moves=st.lists(st.tuples(st.integers(min_value=0, max_value=24),
                                position), max_size=25),
       query=position, r=radius)
def test_within_matches_brute_force_after_moves(points, moves, query, r):
    grid, table = populated(points)
    for raw, pos in moves:
        nid = raw % len(points)
        grid.move(nid, pos)
        table[nid] = grid.position(nid)
    assert grid.within(query, r) == brute_force(table, query, r)


@settings(deadline=None)
@given(points=st.lists(position, min_size=1, max_size=25),
       removals=st.lists(st.integers(min_value=0, max_value=24),
                         max_size=25),
       query=position, r=radius)
def test_within_matches_brute_force_after_removals(points, removals,
                                                   query, r):
    grid, table = populated(points)
    for raw in removals:
        nid = raw % len(points)
        if nid in grid:
            grid.remove(nid)
            del table[nid]
    assert len(grid) == len(table)
    assert grid.within(query, r) == brute_force(table, query, r)


#: Per-step displacements small relative to the cell size, so a
#: drifting node needs several steps to cross a bucket boundary — the
#: regime continuous mobility produces, and the one most likely to
#: expose a stale-bucket bug: most steps leave the bucket unchanged,
#: then one boundary crossing must rewrite it.
step = st.tuples(
    st.floats(min_value=-30.0, max_value=30.0,
              allow_nan=False, allow_infinity=False),
    st.floats(min_value=-30.0, max_value=30.0,
              allow_nan=False, allow_infinity=False),
)


@settings(deadline=None)
@given(points=st.lists(position, min_size=2, max_size=20),
       mover=st.integers(min_value=0, max_value=19),
       steps=st.lists(step, min_size=1, max_size=40),
       r=radius)
def test_drift_trajectory_stays_exact_at_every_step(points, mover, steps, r):
    """A continuous trajectory — many small moves, a few of which cross
    cell boundaries — keeps ``within`` exact after *every* step, queried
    from the moving node itself (exactly how the medium queries around a
    repositioned sender to find its affected neighbors)."""
    grid, table = populated(points)
    nid = mover % len(points)
    for dx, dy in steps:
        x, y = table[nid]
        grid.move(nid, (x + dx, y + dy))
        table[nid] = grid.position(nid)
        assert grid.within(table[nid], r) == \
            brute_force(table, table[nid], r)


@settings(deadline=None)
@given(points=st.lists(position, min_size=1, max_size=12),
       velocities=st.lists(step, min_size=1, max_size=12),
       n_steps=st.integers(min_value=1, max_value=25),
       query=position, r=radius)
def test_concurrent_drift_keeps_fixed_query_exact(points, velocities,
                                                  n_steps, query, r):
    """Every node drifting at once at its own constant velocity, so
    trajectories cross cell boundaries on different steps — a fixed
    observer query must stay exact after every tick (the guard ring may
    never lag a re-bucketed neighbor)."""
    grid, table = populated(points)
    for _ in range(n_steps):
        for nid in sorted(table):
            vx, vy = velocities[nid % len(velocities)]
            x, y = table[nid]
            grid.move(nid, (x + vx, y + vy))
            table[nid] = grid.position(nid)
        assert grid.within(query, r) == brute_force(table, query, r)


def test_boundary_riding_drift_is_exact():
    """A mover sliding exactly along a bucket edge (y == CELL) lands on
    a boundary lattice point every other step; the ring query around it
    must stay exact through each re-bucketing."""
    grid = SpatialGrid(CELL)
    table = {}
    lattice = [(i, (ix * CELL, iy * CELL))
               for i, (ix, iy) in enumerate(
                   (ix, iy) for ix in range(-1, 8) for iy in range(-1, 3))]
    for nid, pos in lattice:
        grid.insert(nid, pos)
        table[nid] = grid.position(nid)
    mover = len(lattice)
    grid.insert(mover, (0.0, CELL))
    table[mover] = grid.position(mover)
    for k in range(1, 13):  # six full cells, half a cell per step
        grid.move(mover, (k * CELL / 2.0, CELL))
        table[mover] = grid.position(mover)
        got = grid.within(table[mover], CELL)
        assert got == brute_force(table, table[mover], CELL)
        assert mover in got  # inclusive of itself at radius >= 0


def test_node_exactly_on_query_circle_is_included():
    grid = SpatialGrid(CELL)
    grid.insert(1, (CELL, 0.0))
    grid.insert(2, (CELL + 1e-9, 0.0))
    assert grid.within((0.0, 0.0), CELL) == [1]


def test_duplicate_insert_rejected():
    grid = SpatialGrid(CELL)
    grid.insert(1, (0.0, 0.0))
    with pytest.raises(ValueError):
        grid.insert(1, (10.0, 10.0))


def test_remove_and_membership():
    grid = SpatialGrid(CELL)
    grid.insert(7, (3.0, 4.0))
    assert 7 in grid and len(grid) == 1
    grid.remove(7)
    assert 7 not in grid and len(grid) == 0
    assert grid.within((3.0, 4.0), 10.0) == []
    with pytest.raises(KeyError):
        grid.remove(7)


def test_negative_radius_and_bad_cell_size():
    grid = SpatialGrid(CELL)
    grid.insert(1, (0.0, 0.0))
    assert grid.within((0.0, 0.0), -1.0) == []
    with pytest.raises(ValueError):
        SpatialGrid(0.0)
