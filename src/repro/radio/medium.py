"""The shared radio medium: who hears whom, and how well.

:class:`RadioMedium` is the single point through which every frame in the
simulated testbed flows.  For each transmission it:

1. draws the per-receiver received power from the propagation model
   (static directed shadowing gives stable, possibly asymmetric links);
2. tracks concurrent transmissions so interference and half-duplex
   conflicts produce collisions, and so CCA (carrier sense) works;
3. at end-of-frame, converts SINR to a reception probability via the
   802.15.4 link model and delivers the frame — intact, corrupted (the
   stack's CRC checker then discards it), or not at all;
4. stamps each delivery with the receiver-side observables LiteView
   collects: RSSI register reading and LQI, and hands a frame's
   deliveries up the receive layers as one :class:`FrameBatch`; and
5. logs every transmission to the monitor (Figure 7 counts these).

Hot-path design
---------------
Every transmission used to walk all attached transceivers and make a
per-receiver chain of scalar propagation and RNG calls; at 100 nodes that
is the whole simulation's wall clock, and a dense all-pairs distance
matrix put a hard O(N²) memory floor under larger fields.  The medium now
keeps

* a :class:`~repro.radio.spatial.SpatialGrid` over node positions, cell
  size = the conservative maximum radio range, maintained incrementally
  (attach inserts, a ``Transceiver.position`` assignment moves one
  bucket entry);
* a per-sender *candidate index* — the id-sorted in-range receivers on
  the sender's channel, found by one grid query — so per-transmission
  work is O(in-range contenders), not O(N), and no pairwise matrix
  exists at all (rows are materialized per sender, lazily);
* a per-(sender, channel) mean-loss row — deterministic path loss plus
  static shadowing — invalidated by the propagation model's
  ``link_epoch``, so pinned links and injected penalties take effect;

and draws fading, reception, RSSI, and LQI as *batched* RNG calls.  A
numpy Generator fills an array from the same bitstream as repeated scalar
draws, and the batches run in the same sorted-id order the scalar loops
used, so seeded runs stay bit-for-bit identical — the determinism tests
hold golden counters captured before this rewrite.

Time-varying geometry
---------------------
A move is *patched* into the caches it touches, not rebuilt.  A
``Transceiver.position`` assignment moves one grid bucket entry and
adds the mover to the *pending-mover set* of exactly the senders whose
candidates it could have changed: those within the conservative range
bound of the old **or** the new position (two grid queries, so the work
is O(local density), independent of the total node count — the contract
``benchmarks/bench_mobility.py`` holds).  At its next transmission a
sender applies only its pending movers: each is re-tested with the
grid's exact predicate plus the channel check, so the patched index is
the one a fresh grid query would build.  If the members are unchanged,
the row recomputes its distance term and reuses its cached
shadowing-plus-penalty part; if a mover entered or left, the id list is
spliced and the row rebuilt.  Patches build a new index object, so an
in-flight frame keeps its start-of-frame snapshot.  Only the mover
itself, or a global change (attach, channel hop, range change, a move
before the grid exists), rebuilds from a grid query.  A row rebuild
draws shadowing only for links never seen before (see
:meth:`LogDistancePropagation.shadowing_row`), in id order, exactly as
a full rebuild would, so patching cannot shift any stream — continuous
mobility stays byte-identical to a per-frame scalar walk.  The
``medium.repositions`` counter, the ``medium.idx.rebuilds`` /
``medium.rows.rebuilt`` gauges (full rebuilds) and the
``medium.idx.patched`` gauge (shell: ``stats medium.``) account for the
moves and the work they cause.

Pruning vs determinism
----------------------
The model has one cut-off rule: a frame's energy reaches only the radios
on its channel inside the sender's conservative range bound at
start-of-frame (:func:`range_bound_m`).  The bound is the distance at
which deterministic path loss alone consumes ``max attached tx power −
SENSITIVITY_DBM`` **plus** a margin of ``RANGE_MARGIN_SIGMAS`` standard
deviations of (shadowing + fading), floored at
``RANGE_MARGIN_FLOOR_DB``, **plus** any pinned negative loss adjustment
(:attr:`LogDistancePropagation.pinned_floor_db`).  A radio beyond it
would fail the sensitivity check with overwhelming probability, and its
mean received power sits at least 20 dB under the noise floor, so
leaving it out of SINR, CCA and ambient-energy sums changes nothing a
receiver could measure.  Everything else is exact: candidates are
enumerated sorted by id, so every stream is consumed in the order of a
per-receiver scalar loop.  ``tests/radio/reference_medium.py`` is that
loop — the cut-off rule and nothing else, one scalar draw per receiver
— and the parity suites hold this medium byte-identical to it.
"""

from __future__ import annotations

import math
import typing as _t

import numpy as np

from repro.errors import RadioError
from repro.radio.cc2420 import (
    CCA_THRESHOLD_DBM,
    NOISE_FLOOR_DBM,
    SENSITIVITY_DBM,
    RadioConfig,
)
from repro.radio.lqi import LqiModel
from repro.radio.modulation import reception_decisions
from repro.radio.propagation import MAX_NODE_ID, LogDistancePropagation
from repro.radio.rssi import RssiModel
from repro.radio.spatial import SpatialGrid
from repro.sim.engine import Environment
from repro.sim.events import Event
from repro.sim.monitor import Monitor, PacketRecord
from repro.sim.rng import RngRegistry
from repro.units import dbm_sum

if _t.TYPE_CHECKING:  # pragma: no cover
    from repro.mac.frame import Frame

__all__ = ["FrameArrival", "FrameBatch", "Transceiver", "RadioMedium",
           "CAPTURE_THRESHOLD_DB", "RANGE_MARGIN_SIGMAS",
           "RANGE_MARGIN_FLOOR_DB", "CORRUPT_DELIVERY_FRACTION",
           "range_bound_m", "flip_bits"]

#: Minimum SINR for decoding *in the presence of an overlapping frame*.
#: The analytic PRR curve assumes Gaussian noise; a co-channel 802.15.4
#: frame is not Gaussian, and real correlators cannot separate two
#: overlapping signals of comparable strength.  A ~4 dB capture margin is
#: the standard fix (cf. the capture-effect literature for CC2420).
CAPTURE_THRESHOLD_DB = 4.0

#: How many standard deviations of (shadowing + fading) the spatial-index
#: range bound adds to the deterministic link budget.  8σ puts the
#: probability that a pruned receiver would actually have passed the
#: sensitivity check around 1e-15 per draw — zero in any feasible run —
#: while keeping the bound tight enough that a 1k-node district field
#: prunes >90% of receivers per transmission.
RANGE_MARGIN_SIGMAS = 8.0

#: The least stochastic margin the range bound adds, in dB.  With little
#: or no shadowing and fading the sigma margin shrinks to nothing and the
#: bound would sit at the sensitivity distance — where a transmitter is
#: still only 3 dB under the noise floor, loud enough to move an SINR.
#: This floor keeps the mean power of every pruned transmitter at least
#: 20 dB under ``NOISE_FLOOR_DBM``.
RANGE_MARGIN_FLOOR_DB = SENSITIVITY_DBM - NOISE_FLOOR_DBM + 20.0

#: Fraction of failed receptions delivered as corrupted bytes (so the
#: stack's CRC checker sees real work) rather than silence.
CORRUPT_DELIVERY_FRACTION = 0.3


def range_bound_m(propagation: LogDistancePropagation,
                  max_tx_dbm: float) -> float:
    """The conservative maximum radio range: beyond it no frame sent at
    ``max_tx_dbm`` or less reaches any radio (the cut-off rule)."""
    margin = max(RANGE_MARGIN_SIGMAS * (propagation.shadowing_sigma_db
                                        + propagation.fading_sigma_db),
                 RANGE_MARGIN_FLOOR_DB)
    budget = (max_tx_dbm - SENSITIVITY_DBM + margin
              - min(0.0, propagation.pinned_floor_db))
    return propagation.range_for_budget_m(budget)


def flip_bits(payload: bytes, rng: np.random.Generator) -> bytes:
    """A CRC-breaking copy of ``payload``: 1-3 random bit flips, every
    draw from ``rng`` (the caller's own stream)."""
    data = bytearray(payload)
    for _ in range(int(rng.integers(1, 4))):
        idx = int(rng.integers(0, len(data)))
        bit = int(rng.integers(0, 8))
        data[idx] ^= 1 << bit
    return bytes(data)


#: ``dbm_sum(NOISE_FLOOR_DBM)`` with no interferers round-trips to exactly
#: the noise floor; precomputing it keeps the no-interference SINR
#: identical to the historical per-receiver call while skipping it.
_NOISE_ONLY_DBM = dbm_sum(NOISE_FLOOR_DBM)

# Per-receiver outcome codes used inside RadioMedium._complete: the two
# deliveries, then the drops, each drop's trace reason at its code.
_OK, _CORRUPT, _LOST, _COLLIDED, _OFF, _RANGE, _HD = range(7)
_DROP_REASONS = (None, None, "channel_loss", "collision", "radio_off",
                 "out_of_range", "half_duplex")


@_t.final
class FrameArrival:
    """A frame as seen by one receiver, with PHY observables attached."""

    __slots__ = (
        "frame", "payload", "sender", "receiver", "channel",
        "rx_power_dbm", "sinr_db", "rssi", "lqi", "crc_ok", "time",
    )

    def __init__(self, frame: "Frame", payload: bytes, sender: int,
                 receiver: int, channel: int, rx_power_dbm: float,
                 sinr_db: float, rssi: int, lqi: int, crc_ok: bool,
                 time: float) -> None:
        self.frame = frame
        self.payload = payload          # possibly corrupted copy
        self.sender = sender
        self.receiver = receiver
        self.channel = channel
        self.rx_power_dbm = rx_power_dbm
        self.sinr_db = sinr_db
        self.rssi = rssi                # RSSI register reading
        self.lqi = lqi                  # LQI correlator value
        self.crc_ok = crc_ok            # whether the payload survived
        self.time = time

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"FrameArrival(sender={self.sender}, receiver={self.receiver}, "
            f"channel={self.channel}, rssi={self.rssi}, lqi={self.lqi}, "
            f"crc_ok={self.crc_ok}, time={self.time})"
        )


#: One delivery of a :class:`FrameBatch`: ``(transceiver, payload,
#: crc_ok, rssi, lqi, sinr_db, rx_power_dbm)``.  ``payload`` is the
#: frame's own bytes when ``crc_ok``, else that receiver's corrupted copy.
Row = tuple["Transceiver", bytes, bool, int, int, float, float]


@_t.final
class FrameBatch:
    """One transmission as its receivers got it, handed up once.

    The medium builds one batch per frame at end-of-air: the frame, its
    sender, channel and time, and one :data:`Row` per delivery in
    receiver-id order.  Each receive layer takes the whole batch in one
    call (the radio filters it, the stack parses the clean payload once,
    the neighbor service decodes a beacon once) instead of one call per
    receiver.  A handler that wants one receiver's view asks for
    :meth:`arrival`.
    """

    __slots__ = ("frame", "sender", "channel", "time", "rows")

    def __init__(self, frame: "Frame", sender: int, channel: int,
                 time: float, rows: list[Row]) -> None:
        self.frame = frame
        self.sender = sender
        self.channel = channel
        self.time = time
        self.rows = rows

    def arrival(self, row: Row) -> FrameArrival:
        """The :class:`FrameArrival` of one row, built for it alone."""
        xcvr, payload, crc_ok, rssi, lqi, sinr_db, rx_power_dbm = row
        return FrameArrival(self.frame, payload, self.sender, xcvr.node_id,
                            self.channel, rx_power_dbm, sinr_db, rssi, lqi,
                            crc_ok, self.time)


class Transceiver:
    """One node's radio front end, attached to the shared medium."""

    __slots__ = ("medium", "node_id", "_position", "config", "enabled",
                 "address_recognition", "_receive_handler", "upper",
                 "_transmitting_until")

    def __init__(self, medium: "RadioMedium", node_id: int,
                 position: tuple[float, float], config: RadioConfig):
        self.medium = medium
        self.node_id = node_id
        self._position = (float(position[0]), float(position[1]))
        self.config = config
        #: Radio on/off; an off radio neither receives nor carrier-senses.
        self.enabled = True
        #: The CC2420's hardware address recognition, which the MAC turns
        #: on: a unicast frame for another node stops at the radio, and
        #: the MAC's receive counters are kept here.
        self.address_recognition = False
        self._receive_handler: _t.Callable[[FrameBatch], None] | None = None
        #: The per-node object the receive handler serves (the node's
        #: communication stack), which a shared handler reaches per row.
        self.upper: _t.Any = None
        self._transmitting_until = -1.0

    @property
    def position(self) -> tuple[float, float]:
        return self._position

    @position.setter
    def position(self, value: tuple[float, float]) -> None:
        self._position = (float(value[0]), float(value[1]))
        # Moving a node changes only the pairwise distances through it;
        # the medium updates the affected spatial-index buckets and marks
        # the move pending for the senders near the old and new position.
        self.medium._reposition(self.node_id, self._position)

    def set_receive_handler(
        self, handler: _t.Callable[[FrameBatch], None] | None,
        upper: _t.Any = None,
    ) -> None:
        """Install the delivery callback: ``handler(batch)`` gets this
        radio's rows of each :class:`FrameBatch`, together with the rows
        of any radio next to it in id order that shares the handler.
        ``upper`` is the per-node object the handler reaches per row as
        ``row[0].upper``."""
        self._receive_handler = handler
        self.upper = upper

    @property
    def is_transmitting(self) -> bool:
        """True while a frame of ours is on the air."""
        return self._transmitting_until > self.medium.env.now

    @staticmethod
    def deliver(batch: FrameBatch) -> None:
        """The radios' receive entry, one call per transmission.

        Rows whose radio is off go no further.  A radio with address
        recognition on drops a unicast frame for another node
        (``mac.filtered_frames``) and takes the rest
        (``mac.received_frames``), both counted once per batch.  The
        kept rows go up in id order, one handler call per run of
        consecutive rows that share a handler: every node of a testbed
        shares its stack's, so a frame goes up in one call.

        Static, and called through the class, so that a span wrapped
        around the class attribute sees every batch.
        """
        frame = batch.frame
        dst = None if frame.is_broadcast else frame.dst
        filtered = received = 0
        runs: list[tuple[_t.Callable[[FrameBatch], None], list[Row]]] = []
        handler = None
        kept: list[Row] = []
        for row in batch.rows:
            xcvr = row[0]
            if not xcvr.enabled:
                continue
            if xcvr.address_recognition:
                if dst is not None and xcvr.node_id != dst:
                    filtered += 1
                    continue
                received += 1
            h = xcvr._receive_handler
            if h is None:
                continue
            if h is not handler:
                handler = h
                kept = []
                runs.append((h, kept))
            kept.append(row)
        if filtered or received:
            monitor = batch.rows[0][0].medium.monitor
            if filtered:
                monitor.count("mac.filtered_frames", filtered)
            if received:
                monitor.count("mac.received_frames", received)
        for h, rows in runs:
            if len(rows) == len(batch.rows):
                h(batch)
            else:
                h(FrameBatch(frame, batch.sender, batch.channel, batch.time,
                             rows))


class _CandidateIndex:
    """Snapshot of one sender's receiver candidates on one channel.

    ``ids`` is sorted ascending (the medium's draw-order contract),
    includes the sender, and holds only nodes within the conservative
    maximum radio range of the sender.  ``positions`` carries the
    members' coordinates so loss rows materialize without any global
    matrix.
    """

    __slots__ = ("channel", "token", "ids", "id_arr", "offset_of",
                 "xcvrs", "positions")

    def __init__(self, channel: int, token: tuple, ids: list[int],
                 xcvrs: list[Transceiver], positions: np.ndarray) -> None:
        self.channel = channel
        self.token = token
        self.ids = ids
        self.id_arr = np.array(ids, dtype=np.int64)
        self.offset_of = {nid: off for off, nid in enumerate(ids)}
        self.xcvrs = xcvrs
        self.positions = positions

    def moved(self, positions: np.ndarray) -> "_CandidateIndex":
        """A new snapshot with the same members at updated ``positions``.

        The membership fields are shared, not copied: they are never
        mutated, and the shared ``ids`` list is how the mean-loss row
        recognises a same-membership patch (see
        ``RadioMedium._mean_loss_row``).
        """
        new = object.__new__(_CandidateIndex)
        new.channel = self.channel
        new.token = self.token
        new.ids = self.ids
        new.id_arr = self.id_arr
        new.offset_of = self.offset_of
        new.xcvrs = self.xcvrs
        new.positions = positions
        return new


class _ActiveTransmission:
    """Bookkeeping for one in-flight frame."""

    __slots__ = ("sender", "channel", "tx_power_dbm", "start", "end",
                 "index", "rx_list", "audible", "overlapping",
                 "overlap_senders", "pos", "gate_m", "move_serial")

    def __init__(self, sender: int, channel: int, tx_power_dbm: float,
                 start: float, end: float, index: _CandidateIndex,
                 rx_list: list[float], audible: list[int],
                 pos: tuple[float, float], gate_m: float,
                 move_serial: int) -> None:
        self.sender = sender
        self.channel = channel
        self.tx_power_dbm = tx_power_dbm
        self.start = start
        self.end = end
        #: Sender position and candidate radius at start-of-frame.  Two
        #: transmissions farther apart than the sum of their radii have
        #: disjoint candidate disks, so neither can interfere with (or
        #: half-duplex-mute) any receiver of the other — the overlap
        #: bookkeeping skips such pairs entirely, unless a node moved in
        #: between (it can leave one disk for the other mid-frame), which
        #: ``move_serial`` — the medium's move count at start — tells.
        self.pos = pos
        self.gate_m = gate_m
        self.move_serial = move_serial
        #: Candidate membership and received powers, snapshotted at
        #: start-of-frame (a receiver hopping away mid-frame still gets
        #: the frame; one hopping in never does — as before).  Kept as a
        #: plain list: the hot paths index it scalar-wise, and numpy
        #: round-trips on ~40-element arrays dominate small-frame cost.
        self.index = index
        self.rx_list = rx_list
        #: Ascending offsets of the candidates whose start-of-frame power
        #: reaches ``SENSITIVITY_DBM``: the only receivers end-of-frame
        #: can deliver to.  The others stay in ``rx_list`` as energy.
        self.audible = audible
        #: Same-channel transmissions whose airtime overlaps ours
        #: (interference), and the senders of *any* overlapping
        #: transmission (half-duplex: a transmitting radio cannot hear).
        self.overlapping: list["_ActiveTransmission"] = []
        self.overlap_senders: set[int] = set()

    def power_at(self, rid: int) -> float | None:
        """Received power drawn for ``rid``, or None if it was not a
        candidate at start-of-frame (or is the sender itself)."""
        if rid == self.sender:
            return None
        off = self.index.offset_of.get(rid)
        if off is None:
            return None
        return self.rx_list[off]


class RadioMedium:
    """The shared wireless channel for one simulated testbed."""

    def __init__(
        self,
        env: Environment,
        rng: RngRegistry,
        monitor: Monitor,
        propagation: LogDistancePropagation,
    ) -> None:
        self.env = env
        self.monitor = monitor
        self.tracer = env.tracer
        self.propagation = propagation
        self.rssi_model = RssiModel(rng)
        self.lqi_model = LqiModel(rng)
        self._loss_rng = rng.stream("medium.reception")
        self._corrupt_rng = rng.stream("medium.corruption")
        self._xcvrs: dict[int, Transceiver] = {}
        self._active: list[_ActiveTransmission] = []
        #: Fault-injection hooks (:class:`repro.faults.FaultInjector`),
        #: attached by ``install_faults``.  ``None`` — the default — keeps
        #: every hot-path check to one attribute read.
        self.faults: "_t.Any | None" = None
        #: Cumulative receiver-candidate accounting: how many same-channel
        #: receivers were actually evaluated vs skipped by the spatial
        #: bound.  Mirrored into the ``medium.candidates.considered`` /
        #: ``medium.candidates.pruned`` gauges (gauges, not counters, so
        #: golden counter fixtures are untouched by pruning bookkeeping).
        self.candidates_considered = 0
        self.candidates_pruned = 0
        self._gauge_considered = monitor.registry.gauge(
            "medium.candidates.considered")
        self._gauge_pruned = monitor.registry.gauge(
            "medium.candidates.pruned")
        #: Per-move invalidation fallout: how many candidate indexes and
        #: mean-loss rows were rebuilt from scratch, and how many indexes
        #: were patched in place of a rebuild.  Gauges, not counters, so
        #: golden counter fixtures are untouched by the bookkeeping (the
        #: same choice the candidate gauges made).
        self._gauge_idx_rebuilds = monitor.registry.gauge(
            "medium.idx.rebuilds")
        self._gauge_idx_patched = monitor.registry.gauge(
            "medium.idx.patched")
        self._gauge_rows_rebuilt = monitor.registry.gauge(
            "medium.rows.rebuilt")
        # Lazily bound handles for the per-frame and per-move counters
        # (created on first increment so untouched counters stay out of
        # snapshots).
        self._c_tx = None
        self._c_repositions = None
        #: Every reposition ever applied; the overlap gate in
        #: :meth:`transmit` holds only between frames no move separates.
        self._move_serial = 0
        # -- cached vectorized state (see module docstring) -------------
        #: Global geometry epoch: bumped on attach and on any move the
        #: grid cannot localize (grid not built yet).  A *localized* move
        #: only records the mover in ``_pending``.
        self._geom_epoch = 0
        #: Per-sender pending movers: the nodes that moved within range
        #: of this sender (old or new position) since its cached
        #: candidate index was built.  Present exactly for the senders
        #: that hold a spatial index; applied at their next transmission.
        self._pending: dict[int, set[int]] = {}
        self._chan_version = 0       # bumped on any channel change
        self._power_version = 0      # bumped on any PA-level change
        self._member_epoch = 0       # bumped on attach only
        self._grid: SpatialGrid | None = None
        self._range_m = 0.0
        self._range_version = 0
        self._range_key: tuple | None = None
        self._power_key: tuple | None = None
        self._max_tx_dbm = 0.0
        #: Spatial candidate indexes, one per sender (an index on any
        #: other channel than the sender's is stale: a hop bumps
        #: ``_chan_version``).
        self._idx_cache: dict[int, _CandidateIndex] = {}
        self._pop_cache: dict[int, tuple[tuple[int, int], int]] = {}
        self._row_cache: dict[
            tuple[int, int],
            tuple[_CandidateIndex, int, np.ndarray, np.ndarray, np.ndarray],
        ] = {}

    # -- membership --------------------------------------------------------

    def attach(self, node_id: int, position: tuple[float, float],
               config: RadioConfig | None = None) -> Transceiver:
        """Register a node's radio at ``position``.

        ``node_id`` must lie in ``0..MAX_NODE_ID``: a 16-bit address that
        is not the broadcast address, so no two links share a
        :func:`~repro.radio.propagation.link_key`."""
        if not 0 <= node_id <= MAX_NODE_ID:
            raise RadioError(f"node id {node_id} outside 0..{MAX_NODE_ID}")
        if node_id in self._xcvrs:
            raise RadioError(f"node {node_id} already attached to the medium")
        xcvr = Transceiver(self, node_id, position, config or RadioConfig())
        self._xcvrs[node_id] = xcvr
        xcvr.config._listener = self._invalidate_channels
        xcvr.config._power_listener = self._invalidate_power
        self._member_epoch += 1
        self._geom_epoch += 1
        if self._grid is not None:
            # Keep the grid warm: an attach touches one bucket.
            self._grid.insert(node_id, xcvr._position)
        return xcvr

    def transceiver(self, node_id: int) -> Transceiver:
        """Look up an attached transceiver by node id."""
        try:
            return self._xcvrs[node_id]
        except KeyError:
            raise RadioError(f"node {node_id} not attached") from None

    def distance(self, a: int, b: int) -> float:
        """Euclidean distance between two attached nodes."""
        pa = self._xcvrs[a]._position
        pb = self._xcvrs[b]._position
        dx = pa[0] - pb[0]
        dy = pa[1] - pb[1]
        return math.sqrt(dx * dx + dy * dy)

    def node_ids(self) -> list[int]:
        """Sorted ids of all attached nodes."""
        return sorted(self._xcvrs)

    # -- cache maintenance -------------------------------------------------

    def _reposition(self, node_id: int, position: tuple[float, float]) -> None:
        """A node moved: update its spatial-index bucket and tell only the
        senders whose cached index the move could have touched.

        The mover can be (or become) a candidate of a sender ``S`` only if
        ``S`` sits within the range bound of the mover's old *or* new
        position (the float predicate is symmetric: ``px - sx`` and
        ``sx - px`` round to the same magnitude).  Two grid queries find
        exactly those senders, and the mover joins each one's pending
        set; everyone else keeps their cached index and mean-loss row.
        Without a warm grid (nothing has transmitted yet, or a range
        change just dropped it) there is no cheap neighborhood test, so
        the move falls back to the global epoch — correct, and free,
        because no cache is warm in that state.
        """
        c = self._c_repositions
        if c is None:
            c = self._c_repositions = self.monitor.registry.counter(
                "medium.repositions")
        c.value += 1
        self._move_serial += 1
        grid = self._grid
        if grid is None or node_id not in grid or self._range_m <= 0.0:
            self._geom_epoch += 1
            return
        old = grid.position(node_id)
        grid.move(node_id, position)
        pending = self._pending
        radius = self._range_m
        for near in (grid.within(old, radius), grid.within(position, radius)):
            for nid in near:
                movers = pending.get(nid)
                if movers is not None:
                    movers.add(node_id)

    def _invalidate_channels(self) -> None:
        self._chan_version += 1

    def _invalidate_power(self) -> None:
        self._power_version += 1

    @property
    def max_range_m(self) -> float:
        """The conservative maximum radio range (the spatial-index query
        radius): beyond it no attached radio can detect any frame."""
        self._ensure_range()
        return self._range_m

    def _ensure_range(self) -> None:
        """Recompute the range bound if power levels or the propagation
        model's pinned floor changed (lazy shadowing draws do not — the
        statistical margin covers them)."""
        pkey = (self._member_epoch, self._power_version)
        if pkey != self._power_key:
            self._power_key = pkey
            self._max_tx_dbm = max(
                (x.config._tx_power_dbm for x in self._xcvrs.values()),
                default=0.0,
            )
        prop = self.propagation
        rkey = (self._max_tx_dbm, prop.pinned_floor_db,
                prop.shadowing_sigma_db, prop.fading_sigma_db)
        if rkey != self._range_key:
            self._range_key = rkey
            new_range = range_bound_m(prop, self._max_tx_dbm)
            if new_range != self._range_m:
                self._range_m = new_range
                self._range_version += 1
                self._grid = None  # cell size is stale

    def _ensure_grid(self) -> SpatialGrid:
        grid = self._grid
        if grid is None:
            grid = SpatialGrid(self._range_m)
            for nid, xcvr in self._xcvrs.items():
                grid.insert(nid, xcvr._position)
            self._grid = grid
        return grid

    def _cand_index(self, sender_id: int, channel: int) -> _CandidateIndex:
        """The receiver-candidate snapshot for one sender on one channel.

        A cached index survives moves: the sender's pending movers are
        patched in (:meth:`_patch_index`).  It is rebuilt from a grid
        query only on first use, when the sender itself moved, or when a
        global token moved (attach, channel hop, range change, cold
        move).
        """
        self._ensure_range()
        xcvrs_by_id = self._xcvrs
        token = (self._geom_epoch, self._chan_version, self._range_version)
        idx = self._idx_cache.get(sender_id)
        if idx is not None and idx.token == token and idx.channel == channel:
            movers = self._pending[sender_id]
            if not movers:
                return idx
            if sender_id not in movers:
                return self._patch_index(sender_id, idx, movers)
        near = self._ensure_grid().within(xcvrs_by_id[sender_id]._position,
                                          self._range_m)
        idx = self._new_index(
            channel, token,
            [nid for nid in near
             if xcvrs_by_id[nid].config.channel == channel])
        self._idx_cache[sender_id] = idx
        self._pending[sender_id] = set()
        self._gauge_idx_rebuilds.value += 1
        return idx

    def _new_index(self, channel: int, token: tuple,
                   members: list[int]) -> _CandidateIndex:
        xcvrs = [self._xcvrs[nid] for nid in members]
        if members:
            positions = np.array([x._position for x in xcvrs], dtype=float)
        else:
            positions = np.zeros((0, 2))
        return _CandidateIndex(channel, token, members, xcvrs, positions)

    def _patch_index(self, sender_id: int, idx: _CandidateIndex,
                     movers: set[int]) -> _CandidateIndex:
        """Apply a sender's pending movers to its cached index.

        Each mover is tested with :meth:`SpatialGrid.within`'s exact
        predicate (same operands, same order) plus the channel check, so
        the result equals a fresh grid query.  The old index is never
        mutated — an in-flight transmission keeps the snapshot it started
        with.  Same members: a copy with the moved positions (the
        mean-loss row then recomputes only its distance term).  Changed
        members: a new spliced index (its row is rebuilt, drawing any
        never-seen link's shadowing in id order as a full rebuild would).
        """
        xcvrs_by_id = self._xcvrs
        sx, sy = xcvrs_by_id[sender_id]._position
        r2 = self._range_m * self._range_m
        channel = idx.channel
        offset_of = idx.offset_of
        moved: list[tuple[int, tuple[float, float]]] = []
        joined: list[int] = []
        left: set[int] = set()
        for nid in movers:
            xcvr = xcvrs_by_id[nid]
            pos = xcvr._position
            dx = pos[0] - sx
            dy = pos[1] - sy
            inside = (dx * dx + dy * dy <= r2
                      and xcvr.config.channel == channel)
            off = offset_of.get(nid)
            if off is None:
                if inside:
                    joined.append(nid)
            elif inside:
                moved.append((off, pos))
            else:
                left.add(nid)
        movers.clear()
        if joined or left:
            members = [nid for nid in idx.ids if nid not in left]
            members.extend(joined)
            members.sort()
            idx = self._new_index(channel, idx.token, members)
        elif moved:
            positions = idx.positions.copy()
            for off, pos in moved:
                positions[off] = pos
            idx = idx.moved(positions)
        else:
            return idx  # the movers passed by without entering the disk
        self._idx_cache[sender_id] = idx
        self._gauge_idx_patched.value += 1
        return idx

    def _channel_population(self, channel: int) -> int:
        """How many attached radios sit on ``channel`` right now (the
        denominator of the pruning ratio)."""
        token = (self._member_epoch, self._chan_version)
        cached = self._pop_cache.get(channel)
        if cached is not None and cached[0] == token:
            return cached[1]
        n = sum(1 for x in self._xcvrs.values()
                if x.config.channel == channel)
        self._pop_cache[channel] = (token, n)
        return n

    def _mean_loss_row(
        self, src: int, idx: _CandidateIndex
    ) -> tuple[np.ndarray, np.ndarray]:
        """Deterministic loss + static shadowing from ``src`` to every
        other candidate, plus those candidates' offsets in ``idx``.

        Cached per (sender, channel) with its shadowing-plus-penalty
        part.  The propagation model's ``link_epoch`` in the key means a
        pin or penalty rebuilds the row; lazy draws elsewhere cannot
        change any value it holds.  An index patched with the same
        members (it shares ``ids`` with the cached row's index) costs
        only the distance term: the cached shadowing is reused, with no
        walk of the shadowing table.  A rebuild draws shadowing only for
        never-seen links, in id order, so caching cannot shift the
        stream.  Distances materialize from the index's own positions —
        one small vector per sender, never an all-pairs matrix.
        """
        prop = self.propagation
        key = (src, idx.channel)
        cached = self._row_cache.get(key)
        if cached is not None and cached[1] == prop.link_epoch:
            if cached[0] is idx:
                return cached[2], cached[3]
            if cached[0].ids is idx.ids:
                sub_offsets, shadow = cached[3], cached[4]
                mean = prop.deterministic_loss_db(
                    self._row_distances(src, idx, sub_offsets)) + shadow
                self._row_cache[key] = (idx, cached[1], mean, sub_offsets,
                                        shadow)
                return mean, sub_offsets
        src_off = idx.offset_of[src]
        sub_offsets = np.delete(np.arange(len(idx.ids), dtype=np.intp),
                                src_off)
        sub_ids = np.delete(idx.id_arr, src_off)
        # Same association order as the scalar path: (det + shadow),
        # fading added later by the caller.
        dists = self._row_distances(src, idx, sub_offsets)
        shadow = prop.shadowing_row(src, sub_ids)
        mean = prop.deterministic_loss_db(dists) + shadow
        self._row_cache[key] = (idx, prop.link_epoch, mean, sub_offsets,
                                shadow)
        self._gauge_rows_rebuilt.value += 1
        return mean, sub_offsets

    @staticmethod
    def _row_distances(src: int, idx: _CandidateIndex,
                       sub_offsets: np.ndarray) -> np.ndarray:
        positions = idx.positions
        deltas = positions[sub_offsets] - positions[idx.offset_of[src]]
        return np.sqrt((deltas ** 2).sum(axis=-1))

    # -- carrier sense ---------------------------------------------------------

    def cca_busy(self, xcvr: Transceiver) -> bool:
        """Clear-channel assessment: is detectable energy on the air?"""
        now = self.env.now
        if xcvr._transmitting_until > now:
            return True
        self._prune(now)
        rid = xcvr.node_id
        channel = xcvr.config.channel
        faults = self.faults
        if (faults is not None
                and NOISE_FLOOR_DBM + faults.noise_offset_dbm(channel)
                >= CCA_THRESHOLD_DBM):
            # An injected interference burst raises the energy-detect
            # reading above the CCA threshold: the channel reads busy
            # even with no frame on the air (congestion as CSMA sees it).
            return True
        for tx in self._active:
            if tx.channel != channel:
                continue
            power = tx.power_at(rid)
            if power is not None and power >= CCA_THRESHOLD_DBM:
                return True
        return False

    def ambient_power_dbm(self, xcvr: Transceiver) -> float:
        """Instantaneous RF energy at a node on its current channel.

        This is what the CC2420's RSSI register reports when no frame is
        being received: the noise floor plus whatever concurrent
        transmissions leak in.  The channel-scan utility samples it per
        channel to find quiet spectrum.
        """
        now = self.env.now
        self._prune(now)
        rid = xcvr.node_id
        channel = xcvr.config.channel
        powers = []
        for tx in self._active:
            if tx.channel != channel or tx.sender == rid:
                continue
            power = tx.power_at(rid)
            if power is None:
                # The sampler was not a candidate at start-of-frame: it
                # hopped onto this channel, or moved, since.  The cut-off
                # rule applies to where it is now — beyond the bound the
                # leakage is inaudible (and skipping it keeps the
                # shadowing stream untouched); inside, its mean power is
                # computed on the fly.
                distance = self.distance(tx.sender, rid)
                if distance > self.max_range_m:
                    continue
                power = self.propagation.mean_received_power_dbm(
                    tx.tx_power_dbm, tx.sender, rid, distance)
            powers.append(power)
        floor = NOISE_FLOOR_DBM
        faults = self.faults
        if faults is not None:
            floor += faults.noise_offset_dbm(channel)
        return dbm_sum(floor, *powers)

    # -- transmission ------------------------------------------------------------

    def transmit(self, xcvr: Transceiver, frame: "Frame") -> Event:
        """Put ``frame`` on the air; the returned event fires at end-of-air.

        Reception outcomes for every candidate receiver are evaluated at
        end-of-frame so that interference from transmissions starting
        mid-frame is accounted for.
        """
        if not xcvr.enabled:
            raise RadioError(f"node {xcvr.node_id}: radio is off")
        now = self.env.now
        self._prune(now)
        sender_id = xcvr.node_id
        channel = xcvr.config.channel
        tx_power = xcvr.config._tx_power_dbm
        airtime = frame.airtime

        # Received power at every in-range same-channel transceiver, one
        # vector op per stochastic term, draws in sorted-id order.
        idx = self._cand_index(sender_id, channel)
        mean, sub_offsets = self._mean_loss_row(sender_id, idx)
        count = len(sub_offsets)
        pruned = self._channel_population(channel) - 1 - count
        self.candidates_considered += count
        self.candidates_pruned += pruned
        self._gauge_considered.value += count
        self._gauge_pruned.value += pruned
        prop = self.propagation
        if count and prop.fading_sigma_db > 0:
            loss = mean + prop.fading_row(count)
        else:
            loss = mean
        # sub_offsets is always arange-minus-sender, so inserting the
        # sender's -inf at its own offset rebuilds the full id-ordered
        # row without a numpy scatter (values bit-identical).
        if count:
            rx = tx_power - loss
            rx_list: list[float] = rx.tolist()
            # No NaN in ``rx``, so ``>=`` is the exact complement of the
            # per-receiver ``rx < SENSITIVITY_DBM`` test.
            audible: list[int] = sub_offsets[rx >= SENSITIVITY_DBM].tolist()
        else:
            rx_list = []
            audible = []
        rx_list.insert(idx.offset_of[sender_id], float("-inf"))

        gate_m = self._range_m
        serial = self._move_serial
        tx = _ActiveTransmission(
            sender_id, channel, tx_power, now, now + airtime, idx, rx_list,
            audible, xcvr._position, gate_m, serial
        )
        sx, sy = tx.pos
        for other in self._active:
            # Disjoint candidate disks: no receiver of either frame can
            # see the other, so the cross-links would never be consulted.
            if other.move_serial == serial:
                lim = gate_m + other.gate_m
                dx = sx - other.pos[0]
                dy = sy - other.pos[1]
                if dx * dx + dy * dy > lim * lim:
                    continue
            other.overlap_senders.add(sender_id)
            tx.overlap_senders.add(other.sender)
            if other.channel == channel:
                other.overlapping.append(tx)
                tx.overlapping.append(other)
        self._active.append(tx)
        xcvr._transmitting_until = tx.end

        done = self.env.timeout(airtime)
        done.add_callback(lambda _ev: self._complete(xcvr, frame, tx))
        return done

    # -- internals ---------------------------------------------------------------

    def _prune(self, now: float) -> None:
        active = self._active
        for tx in active:
            if tx.end <= now:
                break
        else:
            return
        keep = []
        for tx in active:
            if tx.end > now:
                keep.append(tx)
            elif tx.end < now:
                # Its completion callback has run; drop the cross-links
                # so finished transmissions don't keep their overlap
                # peers (and transitively the whole busy period) alive.
                tx.overlapping.clear()
                tx.overlap_senders.clear()
        self._active = keep

    def _complete(self, sender: Transceiver, frame: "Frame",
                  tx: _ActiveTransmission) -> None:
        """End-of-frame: decide every receiver's outcome and deliver.

        When tracing is enabled, the outcome *at the frame's addressed
        destination* is recorded — including the drop reason when the
        frame dies in the air, which is the "where did my packet go"
        answer the lifecycle trace exists to give.  Broadcast frames
        record only actual receptions (a per-absent-listener drop event
        for every distant node would bury the timeline).

        Only the audible candidates (``tx.audible``: start-of-frame power
        at or above sensitivity) can receive, so the walk visits only
        them, in id order, in RNG-ordered passes.  Every stream is
        consumed in the same sorted-id order as the historical scalar
        loop, while the draws themselves are batched:

        1. classify each audible receiver (off / half-duplex /
           candidate) and compute SINR + capture — no RNG;
        2. one batched reception draw over the captured candidates,
           settled by :func:`reception_decisions`;
        3. scalar corruption draws for the failures (interleaved
           random()/integers() calls cannot batch);
        4. batched RSSI and LQI draws over the deliveries, and their
           rows;
        5. the rows handed up as one :class:`FrameBatch` — or, with the
           tracer on, a walk in id order that emits each receiver's
           events and hands its row up alone — then the outcome
           counters, raised once.

        With the tracer on, an addressed destination the walk would skip
        (a member that is not audible, off or half-duplex) joins pass 5
        at its id-order position, so its ``radio.drop`` lands where a
        walk over every member put it.
        """
        idx = tx.index
        ids = idx.ids
        xcvrs = idx.xcvrs
        rx_list = tx.rx_list
        sender_id = tx.sender
        overlapping = tx.overlapping
        overlap_senders = tx.overlap_senders
        frame_bytes = frame.size_bytes

        # Fault-injection overlay: an interference burst raises this
        # channel's noise floor for the whole frame; a packet_corrupt
        # window flips bits in otherwise-successful deliveries.  Both
        # draw nothing from the medium's own streams, so an inert
        # injector (or none) leaves the run bit-for-bit unchanged.
        faults = self.faults
        noise_floor = NOISE_FLOOR_DBM
        noise_only = _NOISE_ONLY_DBM
        fault_corrupt_on = False
        if faults is not None:
            extra_noise = faults.noise_offset_dbm(tx.channel)
            if extra_noise:
                noise_floor = NOISE_FLOOR_DBM + extra_noise
                noise_only = dbm_sum(noise_floor)
            fault_corrupt_on = faults.corrupt_active

        # Pass 1: classification (no RNG), radio on/off first, then half
        # duplex, then SINR and capture.  Every candidate starts as a
        # loss; pass 3 turns the receptions into deliveries.
        outcome = [_LOST] * len(ids)
        sinr_of = [0.0] * len(ids)
        cand_offs: list[int] = []
        captured_sinrs: list[float] = []
        halfduplex = interfered = 0
        for off in tx.audible:
            if not xcvrs[off].enabled:
                continue
            rid = ids[off]
            # Half-duplex: a node that transmitted during our airtime
            # cannot have received us.
            if overlap_senders and rid in overlap_senders:
                halfduplex += 1
                continue
            rx_power = rx_list[off]
            captured = True
            if overlapping:
                interference = [
                    p for o in overlapping
                    if (p := o.power_at(rid)) is not None
                ]
                if interference:
                    interfered += 1
                    sinr = rx_power - dbm_sum(noise_floor, *interference)
                    # Capture gates on the signal-to-*interference* ratio:
                    # a correlator cannot separate two comparable
                    # overlapping frames, but interference well below the
                    # signal is just extra noise, which the PRR curve
                    # already accounts for via the SINR.
                    sir = rx_power - dbm_sum(*interference)
                    captured = sir >= CAPTURE_THRESHOLD_DB
                else:
                    sinr = rx_power - noise_only
            else:
                sinr = rx_power - noise_only
            sinr_of[off] = sinr
            cand_offs.append(off)
            if captured:
                captured_sinrs.append(sinr)
            else:
                outcome[off] = _COLLIDED

        # Pass 2: one reception draw per *captured* candidate, id order
        # (the scalar loop short-circuited the draw for uncaptured ones).
        won = iter(reception_decisions(
            captured_sinrs,
            self._loss_rng.random(size=len(captured_sinrs)).tolist(),
            frame_bytes) if captured_sinrs else ())

        # Pass 3: corruption decisions for the failures, id order.  These
        # stay scalar: each corrupted delivery interleaves a uniform with
        # a variable number of integer draws on the same stream.
        payload0 = frame.payload
        fraction = CORRUPT_DELIVERY_FRACTION
        corrupt_rng = self._corrupt_rng
        payload_of: dict[int, bytes] = {}
        deliver_offs: list[int] = []
        lost = 0
        for off in cand_offs:
            if outcome[off] == _LOST and next(won):
                # Fault-injected corruption converts a clean reception
                # into a CRC-failing delivery; its draws come from the
                # injector's dedicated stream, and the medium's own
                # corruption stream is consulted exactly as often as
                # without the fault (only for failed receptions).
                if (fault_corrupt_on and payload0
                        and faults.corrupt_roll(ids[off])):
                    outcome[off] = _CORRUPT
                    payload_of[off] = faults.corrupt_payload(payload0)
                else:
                    outcome[off] = _OK
                deliver_offs.append(off)
            elif (corrupt_rng.random() >= fraction) or not payload0:
                lost += 1
            else:
                outcome[off] = _CORRUPT
                payload_of[off] = flip_bits(payload0, corrupt_rng)
                deliver_offs.append(off)

        # Pass 4: PHY observables for every delivery, one batched draw
        # per stream, id order.  Drawn exactly once so the trace path can
        # reuse them — enabling tracing must not shift the streams.  The
        # LQI histogram appears with the medium's first delivery.
        rows: list[Row] = []
        if deliver_offs:
            rssi_of = self.rssi_model.readings(
                [rx_list[off] for off in deliver_offs])
            lqi_of = self.lqi_model.readings(
                [sinr_of[off] for off in deliver_offs])
            observe = self.monitor.registry.histogram("radio.lqi").observe
            for lqi in lqi_of:
                observe(lqi)
            rows = [(xcvrs[off], payload_of.get(off, payload0),
                     off not in payload_of, rssi, lqi, sinr_of[off],
                     rx_list[off])
                    for off, rssi, lqi in zip(deliver_offs, rssi_of, lqi_of)]

        # Pass 5: hand the rows up.  Untraced, they go up as one batch.
        # With the tracer on, the walk takes every candidate in id order
        # (and an owed destination drop), emitting what the scalar loop
        # emitted for each, and each row goes up as its own batch right
        # after its ``radio.rx``, so the lifecycle timeline keeps
        # everything done for one receiver before the next.
        env_now = self.env.now
        tracer = self.tracer
        trace_on = tracer.enabled
        monitor = self.monitor
        dst = frame.dst
        is_broadcast = frame.is_broadcast
        channel = tx.channel
        if trace_on:
            walk = cand_offs
            dst_off = idx.offset_of.get(dst)
            if (dst_off is not None and dst != sender_id
                    and dst_off not in cand_offs):
                if not xcvrs[dst_off].enabled:
                    outcome[dst_off] = _OFF
                elif rx_list[dst_off] < SENSITIVITY_DBM:
                    outcome[dst_off] = _RANGE
                else:
                    outcome[dst_off] = _HD
                walk = sorted([*cand_offs, dst_off])
            rows_left = iter(rows)
            for off in walk:
                code = outcome[off]
                rid = ids[off]
                if code >= _LOST:
                    if rid == dst:
                        if code == _RANGE:
                            extra = {"rx_power_dbm": round(rx_list[off], 3)}
                        elif code <= _COLLIDED:
                            extra = {"sinr_db": round(sinr_of[off], 3)}
                        else:
                            extra = {}
                        tracer.emit("radio.drop", env_now, node=rid,
                                    packet=frame.trace_id,
                                    reason=_DROP_REASONS[code],
                                    sender=sender_id, **extra)
                    continue
                row = next(rows_left)
                if rid == dst or is_broadcast:
                    tracer.emit(
                        "radio.rx", env_now, node=rid,
                        packet=frame.trace_id, sender=sender_id,
                        crc_ok=row[2], rssi=row[3], lqi=row[4],
                        sinr_db=round(row[5], 3),
                    )
                Transceiver.deliver(FrameBatch(frame, sender_id, channel,
                                               env_now, [row]))
        elif rows:
            Transceiver.deliver(FrameBatch(frame, sender_id, channel,
                                           env_now, rows))

        # The outcome counters, once per frame (a count of zero creates
        # no counter).
        for name, n in (("medium.halfduplex_loss", halfduplex),
                        ("medium.interfered_receptions", interfered),
                        ("medium.lost_frames", lost),
                        ("medium.corrupted_frames", len(payload_of))):
            if n:
                monitor.count(name, n)

        # An addressed destination the spatial bound excluded never
        # appears in the loop above; its lifecycle trace still owes the
        # "where did my packet go" answer.  No RNG: the estimate is
        # deterministic loss only (a drawn value would differ by at most
        # the stochastic terms, both irrelevant this far below
        # sensitivity).
        if (trace_on and not is_broadcast and dst is not None
                and dst != sender_id and dst not in idx.offset_of):
            dxcvr = self._xcvrs.get(dst)
            if dxcvr is not None and dxcvr.config.channel == tx.channel:
                if not dxcvr.enabled:
                    tracer.emit("radio.drop", env_now, node=dst,
                                packet=frame.trace_id, reason="radio_off",
                                sender=sender_id)
                else:
                    est = tx.tx_power_dbm - self.propagation.deterministic_loss_db(
                        self.distance(sender_id, dst))
                    tracer.emit("radio.drop", env_now, node=dst,
                                packet=frame.trace_id, reason="out_of_range",
                                sender=sender_id,
                                rx_power_dbm=round(est, 3))

        if is_broadcast:
            delivered = _OK in outcome
        else:
            dst_off = idx.offset_of.get(dst)
            delivered = dst_off is not None and outcome[dst_off] == _OK
        monitor.log_packet(PacketRecord(
            time=tx.start,
            sender=sender_id,
            receiver=None if is_broadcast else dst,
            kind=frame.kind,
            port=frame.port,
            size_bytes=frame_bytes,
            delivered=delivered,
        ))
        c = self._c_tx
        if c is None:
            c = self._c_tx = monitor.registry.counter("medium.transmissions")
        c.value += 1
        # Our half of the overlap cross-links is no longer needed; peers
        # that outlive us only read our snapshot (index/rx), so clearing
        # here plus _prune's sweep bounds retention to the busy period.
        tx.overlapping.clear()
        tx.overlap_senders.clear()
