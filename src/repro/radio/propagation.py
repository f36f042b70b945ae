"""Radio propagation: log-distance path loss with static per-link shadowing.

The received power of a transmission from *a* to *b* is

    P_rx = P_tx - [ PL(d0) + 10 n log10(d/d0) + X_ab + F ]

where ``X_ab`` is a *static*, per-directed-link log-normal shadowing term
and ``F`` a small per-packet fading draw.  Two modelling choices matter to
the paper's experiments:

* **Directionality** — ``X_ab`` and ``X_ba`` are drawn independently, which
  produces the asymmetric links Figure 6 shows (forward and backward RSSI
  curves differ) and which the abstract calls out as a diagnosis target.
* **Staticness** — ``X_ab`` is drawn once per link, so link quality is a
  stable property of a deployment that probing can actually characterise;
  per-packet variation comes only from the smaller fading term.

The medium evaluates deterministic loss one sender's candidate vector at
a time; the all-pairs :meth:`~LogDistancePropagation.loss_matrix` serves
only whole-network planning (``repro.analysis.connectivity``).
"""

from __future__ import annotations

import numpy as np

from repro.sim.rng import RngRegistry

__all__ = ["LogDistancePropagation", "distance_matrix", "link_key",
           "MAX_NODE_ID"]

#: Largest node id a medium accepts.  Packet headers carry addresses in
#: 16 bits, and 0xFFFF is the broadcast address (``mac.frame.BROADCAST``,
#: ``net.packet.ANY_NODE``), which no node may own.
MAX_NODE_ID = 0xFFFE


def link_key(src: int, dst: int) -> int:
    """The per-link tables' key for the directed link src→dst: one int,
    not a tuple.  Distinct for every pair of ids that fit 16 bits."""
    return src << 16 | dst


def distance_matrix(positions: np.ndarray) -> np.ndarray:
    """Pairwise Euclidean distances for an (N, 2) position array."""
    positions = np.asarray(positions, dtype=float)
    if positions.ndim != 2 or positions.shape[1] != 2:
        raise ValueError(f"positions must be (N, 2), got {positions.shape}")
    deltas = positions[:, None, :] - positions[None, :, :]
    return np.sqrt((deltas ** 2).sum(axis=-1))


class LogDistancePropagation:
    """Log-distance path loss + static directed shadowing + fading.

    Parameters
    ----------
    rng:
        Registry supplying the ``shadowing`` and ``fading`` streams.
    reference_loss_db:
        Path loss at the reference distance (default 40 dB at 1 m, a
        common 2.4 GHz indoor/outdoor-ground value).
    exponent:
        Path-loss exponent ``n`` (3.0 suits near-ground sensor nodes).
    shadowing_sigma_db:
        Standard deviation of the static per-link shadowing term.
    fading_sigma_db:
        Standard deviation of the per-packet fading term.
    """

    def __init__(
        self,
        rng: RngRegistry,
        *,
        reference_loss_db: float = 40.0,
        reference_distance_m: float = 1.0,
        exponent: float = 3.0,
        shadowing_sigma_db: float = 4.0,
        fading_sigma_db: float = 1.0,
    ) -> None:
        if reference_distance_m <= 0:
            raise ValueError("reference distance must be positive")
        if exponent <= 0:
            raise ValueError("path-loss exponent must be positive")
        if shadowing_sigma_db < 0 or fading_sigma_db < 0:
            raise ValueError("sigmas must be non-negative")
        self.reference_loss_db = float(reference_loss_db)
        self.reference_distance_m = float(reference_distance_m)
        self.exponent = float(exponent)
        self.shadowing_sigma_db = float(shadowing_sigma_db)
        self.fading_sigma_db = float(fading_sigma_db)
        self._shadow_rng = rng.stream("propagation.shadowing")
        self._fading_rng = rng.stream("propagation.fading")
        #: Static shadowing per directed link, keyed by :func:`link_key`.
        self._shadowing: dict[int, float] = {}
        #: Fault-injection overlay: extra loss (dB) per directed link,
        #: added on top of path loss and shadowing.  Empty outside fault
        #: plans, so the untouched case costs one falsy check.
        self._penalties: dict[int, float] = {}
        #: Bumped whenever an *existing* link's loss can change: a pinned
        #: shadowing value or an injected penalty.  The medium keys its
        #: cached per-sender mean-loss rows on this.  A lazy draw does not
        #: bump it: it fills a link no cached row holds yet (a row draws
        #: every link it covers when it is built), so no row goes stale.
        self.link_epoch = 0
        #: The most *favorable* (negative) loss adjustment ever pinned or
        #: injected, in dB — never positive, never relaxes.  The medium's
        #: spatial index folds it into its conservative range bound so a
        #: test or fault plan that pins a link 40 dB *better* than the
        #: path-loss model cannot make the bound prune an audible node.
        #: Lazily *drawn* shadowing does not move it: the statistical
        #: margin already covers draws out to many sigma.
        self.pinned_floor_db = 0.0

    # -- deterministic component -------------------------------------------

    def deterministic_loss_db(self, distance_m: float | np.ndarray
                              ) -> float | np.ndarray:
        """Pure log-distance loss, no shadowing or fading.

        Distances below the reference distance clamp to the reference loss
        (the model is not meant for near-field geometry).
        """
        d = np.maximum(np.asarray(distance_m, dtype=float),
                       self.reference_distance_m)
        loss = self.reference_loss_db + 10.0 * self.exponent * np.log10(
            d / self.reference_distance_m
        )
        return float(loss) if np.isscalar(distance_m) else loss

    def loss_matrix(self, positions: np.ndarray) -> np.ndarray:
        """Vectorised all-pairs deterministic loss (diagonal = 0 distance
        clamps to the reference loss; callers never use self-links)."""
        return self.deterministic_loss_db(distance_matrix(positions))

    def range_for_budget_m(self, link_budget_db: float) -> float:
        """The distance at which deterministic loss consumes the budget.

        Inverts :meth:`deterministic_loss_db`; never below the reference
        distance (inside which the loss clamps).  The medium derives its
        spatial-index radius from this with a conservative stochastic
        margin on top — see :func:`repro.radio.medium.range_bound_m`.
        """
        d = self.reference_distance_m * 10.0 ** (
            (link_budget_db - self.reference_loss_db)
            / (10.0 * self.exponent)
        )
        return max(float(d), self.reference_distance_m)

    # -- stochastic components -------------------------------------------------

    def link_shadowing_db(self, src: int, dst: int) -> float:
        """The static shadowing of the *directed* link src→dst.

        Drawn lazily on first use and cached for the lifetime of the
        model, so a link's character is stable across the whole run.
        """
        key = link_key(src, dst)
        value = self._shadowing.get(key)
        if value is None:
            value = float(
                self._shadow_rng.normal(0.0, self.shadowing_sigma_db)
            )
            self._shadowing[key] = value
        return value

    def expected_shadowing_db(self, src: int, dst: int) -> float:
        """src→dst's shadowing if drawn or pinned, else the 0 dB mean: a
        read that draws nothing, for planners that must not change the
        world they plan."""
        return self._shadowing.get(link_key(src, dst), 0.0)

    def set_link_shadowing_db(self, src: int, dst: int, value: float) -> None:
        """Pin a link's shadowing (used by tests and fault injection —
        e.g. forcing a broken or strongly asymmetric link)."""
        self._shadowing[link_key(src, dst)] = float(value)
        if value < self.pinned_floor_db:
            self.pinned_floor_db = float(value)
        self.link_epoch += 1

    # -- fault-injection overlay ------------------------------------------------

    def link_penalty_db(self, src: int, dst: int) -> float:
        """Injected extra loss on the directed link src→dst (0 when sound)."""
        return self._penalties.get(link_key(src, dst), 0.0)

    def set_link_penalty_db(self, src: int, dst: int, value: float) -> None:
        """Set the injected extra loss on src→dst (``0`` removes it).

        The fault engine's ``link_degrade`` hook.  Penalties live apart
        from the shadowing table so they can ramp, stack and clear
        without consuming or disturbing any RNG stream; the
        :attr:`link_epoch` bump makes the medium rebuild its cached
        mean-loss rows.
        """
        key = link_key(src, dst)
        if value:
            self._penalties[key] = float(value)
            if value < self.pinned_floor_db:
                self.pinned_floor_db = float(value)
        else:
            self._penalties.pop(key, None)
        self.link_epoch += 1

    def shadowing_row(self, src: int, dst_ids: np.ndarray) -> np.ndarray:
        """Shadowing of every directed link ``src -> dst_ids[i]``.

        Missing links are drawn in ``dst_ids`` order as one batched call;
        a numpy Generator fills arrays element-by-element from the same
        bitstream as repeated scalar draws, so the stream consumed here is
        identical to the per-link lazy path.  Callers must pass ``dst_ids``
        sorted ascending (the medium's draw-order contract).
        """
        table = self._shadowing
        base = src << 16  # link_key, with the shift made once per row
        keys = [base | dst for dst in dst_ids.tolist()]
        out = np.empty(len(keys), dtype=float)
        missing: list[tuple[int, int]] = []
        for i, key in enumerate(keys):
            value = table.get(key)
            if value is None:
                missing.append((i, key))
            else:
                out[i] = value
        if missing:
            draws = self._shadow_rng.normal(
                0.0, self.shadowing_sigma_db, size=len(missing)
            )
            for (i, key), draw in zip(missing, draws):
                value = float(draw)
                table[key] = value
                out[i] = value
        if self._penalties:
            penalties = self._penalties
            for i, key in enumerate(keys):
                out[i] += penalties.get(key, 0.0)
        return out

    def fading_row(self, count: int) -> np.ndarray:
        """``count`` per-packet fading draws as one batched call.

        Stream-equivalent to ``count`` scalar draws (see
        :meth:`shadowing_row`); only meaningful when ``fading_sigma_db``
        is positive — callers gate on that.
        """
        return self._fading_rng.normal(0.0, self.fading_sigma_db, size=count)

    def mean_received_power_dbm(self, tx_power_dbm: float, src: int, dst: int,
                                distance_m: float) -> float:
        """Expected received power (no fading draw) — used for planning."""
        return tx_power_dbm - (
            self.deterministic_loss_db(distance_m)
            + self.link_shadowing_db(src, dst)
            + (self._penalties.get(link_key(src, dst), 0.0)
               if self._penalties else 0.0)
        )
