"""Topology generators: node placements for testbeds.

All generators return position lists; the ``build_*`` helpers wrap them
into ready :class:`~repro.kernel.testbed.Testbed` instances with the
paper's IP-convention node names ("we assign names following IP
conventions to each node").
"""

from __future__ import annotations

import typing as _t

import numpy as np

from repro.kernel.testbed import Testbed
from repro.sim.rng import RngRegistry

__all__ = [
    "chain_positions",
    "grid_positions",
    "random_disk_positions",
    "city_positions",
    "ip_names",
    "build_chain",
    "build_grid",
    "build_random_field",
    "build_city",
]

#: Default adjacent-node spacing (metres) tuned so, at full power with the
#: default propagation model, adjacent links are strong (~ -93 dBm,
#: SNR ≈ 5 dB) while two-hop links sit below the routing quality filter —
#: which is what forces genuinely multi-hop paths, as in the paper's
#: eight-hop testbed.
DEFAULT_SPACING = 60.0


def chain_positions(n_nodes: int,
                    spacing: float = DEFAULT_SPACING
                    ) -> list[tuple[float, float]]:
    """``n_nodes`` in a straight line, ``spacing`` metres apart."""
    if n_nodes < 1:
        raise ValueError("need at least one node")
    return [(i * spacing, 0.0) for i in range(n_nodes)]


def grid_positions(rows: int, cols: int,
                   spacing: float = DEFAULT_SPACING,
                   jitter: float = 0.0,
                   rng: RngRegistry | None = None
                   ) -> list[tuple[float, float]]:
    """A rows×cols lattice with optional uniform position jitter."""
    if rows < 1 or cols < 1:
        raise ValueError("grid needs positive dimensions")
    if jitter and rng is None:
        raise ValueError("jitter needs an RngRegistry")
    stream = rng.stream("topology.grid") if rng else None
    positions = []
    for r in range(rows):
        for c in range(cols):
            x, y = c * spacing, r * spacing
            if stream is not None and jitter > 0:
                x += float(stream.uniform(-jitter, jitter))
                y += float(stream.uniform(-jitter, jitter))
            positions.append((x, y))
    return positions


def random_disk_positions(n_nodes: int, radius: float,
                          rng: RngRegistry,
                          min_separation: float = 5.0,
                          max_tries: int = 10_000
                          ) -> list[tuple[float, float]]:
    """Uniform placements in a disk with a minimum pairwise separation."""
    if n_nodes < 1:
        raise ValueError("need at least one node")
    stream = rng.stream("topology.disk")
    positions: list[tuple[float, float]] = []
    tries = 0
    while len(positions) < n_nodes:
        tries += 1
        if tries > max_tries:
            raise RuntimeError(
                f"could not place {n_nodes} nodes with separation "
                f"{min_separation} in radius {radius}"
            )
        r = radius * float(np.sqrt(stream.uniform(0, 1)))
        theta = float(stream.uniform(0, 2 * np.pi))
        candidate = (r * float(np.cos(theta)), r * float(np.sin(theta)))
        if all((candidate[0] - p[0]) ** 2 + (candidate[1] - p[1]) ** 2
               >= min_separation ** 2 for p in positions):
            positions.append(candidate)
    return positions


def city_positions(districts_x: int, districts_y: int, per_district: int,
                   *, rng: RngRegistry, pitch: float = 1500.0,
                   spacing: float = 45.0) -> list[tuple[float, float]]:
    """A city-scale deployment: dense districts, sparse bridges.

    ``districts_x × districts_y`` clustered districts of ``per_district``
    nodes each (sub-grids at ``spacing``, each position jittered by up to
    15% of ``spacing`` from ``rng``), their origins
    ``pitch`` metres apart — far enough that, under the realistic
    propagation model, no node in one district can hear any node in the
    next.  A relay node sits at the midpoint of every adjacent district
    pair, stitching the city into one connected network.

    Order is deterministic: districts row-major, nodes within a district
    row-major, then all bridge relays (horizontal sweeps before vertical).
    """
    if districts_x < 1 or districts_y < 1:
        raise ValueError("city needs positive district dimensions")
    if per_district < 1:
        raise ValueError("districts need at least one node")
    jitter = spacing * 0.15
    stream = rng.stream("topology.city")

    rows = max(1, int(np.sqrt(per_district)))
    cols = -(-per_district // rows)  # ceil
    extent_x = (cols - 1) * spacing
    extent_y = (rows - 1) * spacing

    def jittered(x: float, y: float) -> tuple[float, float]:
        if jitter > 0:
            x += float(stream.uniform(-jitter, jitter))
            y += float(stream.uniform(-jitter, jitter))
        return (x, y)

    positions: list[tuple[float, float]] = []
    for dy in range(districts_y):
        for dx in range(districts_x):
            ox, oy = dx * pitch, dy * pitch
            placed = 0
            for r in range(rows):
                for c in range(cols):
                    if placed == per_district:
                        break
                    positions.append(jittered(ox + c * spacing,
                                              oy + r * spacing))
                    placed += 1
    # Relays at the midpoints of adjacent district *centers*: close enough
    # to both districts' fringes to carry traffic between them, and to
    # nothing else.
    cx_of = [dx * pitch + extent_x / 2.0 for dx in range(districts_x)]
    cy_of = [dy * pitch + extent_y / 2.0 for dy in range(districts_y)]
    for dy in range(districts_y):
        for dx in range(districts_x - 1):
            positions.append(jittered(
                (cx_of[dx] + cx_of[dx + 1]) / 2.0, cy_of[dy]))
    for dy in range(districts_y - 1):
        for dx in range(districts_x):
            positions.append(jittered(
                cx_of[dx], (cy_of[dy] + cy_of[dy + 1]) / 2.0))
    return positions


def ip_names(count: int) -> list[str]:
    """IP-convention node names in ``192.168.0``, as in the paper's testbed.

    Past 254 hosts the subnet's third octet rolls over (``192.168.0.254``
    is followed by ``192.168.1.1``), keeping the names IP-plausible for
    the 1k-node city tier.
    """
    return [f"192.168.{i // 254}.{i % 254 + 1}" for i in range(count)]


def _populate(testbed: Testbed,
              positions: _t.Sequence[tuple[float, float]]) -> Testbed:
    for name, pos in zip(ip_names(len(positions)), positions):
        testbed.add_node(name, pos)
    return testbed


def build_chain(n_nodes: int, *, spacing: float = DEFAULT_SPACING,
                seed: int = 1,
                propagation_kwargs: dict | None = None) -> Testbed:
    """A chain testbed (n_nodes - 1 hops end to end)."""
    testbed = Testbed(seed=seed, propagation_kwargs=propagation_kwargs)
    return _populate(testbed, chain_positions(n_nodes, spacing))


def build_grid(rows: int, cols: int, *, spacing: float = DEFAULT_SPACING,
               jitter: float = 0.0, seed: int = 1,
               propagation_kwargs: dict | None = None) -> Testbed:
    """A grid testbed, optionally position-jittered."""
    testbed = Testbed(seed=seed, propagation_kwargs=propagation_kwargs)
    positions = grid_positions(rows, cols, spacing, jitter, testbed.rng)
    return _populate(testbed, positions)


def build_random_field(n_nodes: int, radius: float, *, seed: int = 1,
                       min_separation: float = 20.0,
                       propagation_kwargs: dict | None = None) -> Testbed:
    """Nodes scattered uniformly in a disk."""
    testbed = Testbed(seed=seed, propagation_kwargs=propagation_kwargs)
    positions = random_disk_positions(
        n_nodes, radius, testbed.rng, min_separation
    )
    return _populate(testbed, positions)


def build_city(districts_x: int, districts_y: int, per_district: int, *,
               pitch: float = 1500.0, spacing: float = 45.0, seed: int = 1,
               propagation_kwargs: dict | None = None) -> Testbed:
    """A city testbed (see :func:`city_positions`)."""
    testbed = Testbed(seed=seed, propagation_kwargs=propagation_kwargs)
    positions = city_positions(
        districts_x, districts_y, per_district,
        pitch=pitch, spacing=spacing, rng=testbed.rng,
    )
    return _populate(testbed, positions)
