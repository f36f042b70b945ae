"""Named, seeded random streams.

Every stochastic component in the simulator (shadowing, packet loss,
backoff jitter, ...) draws from its own named stream derived from a single
master seed.  Two properties follow:

* **Reproducibility** — the same master seed regenerates the exact same
  world, so benches and examples are deterministic.
* **Insensitivity to call order** — adding draws to one subsystem does not
  perturb any other subsystem's sequence, because streams are independent
  generators rather than interleaved consumers of one generator.

Streams are derived with :class:`numpy.random.SeedSequence` keyed by a
stable CRC32 of the stream name (Python's ``hash`` is salted per process
and therefore unusable here).
"""

from __future__ import annotations

import zlib

import numpy as np

__all__ = ["RngRegistry", "stable_hash"]


def stable_hash(name: str) -> int:
    """A process-stable 32-bit hash of ``name`` (CRC32)."""
    return zlib.crc32(name.encode("utf-8")) & 0xFFFFFFFF


class RngRegistry:
    """Factory and cache for named :class:`numpy.random.Generator` streams."""

    def __init__(self, master_seed: int = 0):
        if master_seed < 0:
            raise ValueError(f"master seed must be >= 0, got {master_seed}")
        self.master_seed = int(master_seed)
        self._streams: dict[str, np.random.Generator] = {}

    def stream(self, name: str) -> np.random.Generator:
        """The generator for ``name`` (created on first use, then cached)."""
        gen = self._streams.get(name)
        if gen is None:
            seq = np.random.SeedSequence(
                entropy=self.master_seed, spawn_key=(stable_hash(name),)
            )
            gen = np.random.default_rng(seq)
            self._streams[name] = gen
        return gen

    def names(self) -> list[str]:
        """Names of streams that have been materialised so far."""
        return sorted(self._streams)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<RngRegistry seed={self.master_seed} "
            f"streams={len(self._streams)}>"
        )
