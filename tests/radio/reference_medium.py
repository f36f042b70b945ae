"""The scalar radio medium that :class:`repro.radio.medium.RadioMedium`
must agree with, kept as a test-only parity oracle.

This is the obviously-correct form of the model: for each frame, walk
every attached radio on the sender's channel in id order and make one
scalar propagation call and one scalar draw per stream per receiver —
no grid, no caches, no batching, no patching, no overlap gating.  It
states the model's one cut-off rule itself: a frame's energy reaches
only the radios inside its sender's range bound at start-of-frame, the
bound :func:`repro.radio.medium.range_bound_m` computes for production
too.  A radio that was not inside it at start-of-frame (it hopped onto
the channel, or moved, since) samples the frame's mean power in
``ambient_power_dbm`` only if it is inside the bound now.  Each delivery
goes up on its own, as a one-row :class:`~repro.radio.medium.FrameBatch`,
right after its reading and trace event.

Production must reproduce every arrival, reading, counter and packet
record of this class byte for byte.  Plug it into a full testbed with
``mock.patch.object(repro.kernel.testbed, "RadioMedium",
ReferenceMedium)``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from repro.errors import RadioError
from repro.radio.cc2420 import (
    CCA_THRESHOLD_DBM,
    NOISE_FLOOR_DBM,
    SENSITIVITY_DBM,
    RadioConfig,
)
from repro.radio.lqi import LqiModel
from repro.radio.medium import (
    CAPTURE_THRESHOLD_DB,
    FrameBatch,
    Transceiver,
    range_bound_m,
)
from repro.radio.modulation import packet_reception_ratio
from repro.radio.rssi import RssiModel
from repro.sim.monitor import PacketRecord
from repro.units import dbm_sum


@dataclass(eq=False)
class _Transmission:
    """One in-flight frame."""

    sender: int
    channel: int
    tx_power_dbm: float
    start: float
    end: float
    #: Received power at every radio inside the cut-off, drawn at start.
    rx_powers: dict[int, float]
    #: Every transmission whose airtime overlaps ours, any channel.
    overlapping: list["_Transmission"] = field(default_factory=list)


class ReferenceMedium:
    """Per-receiver scalar medium with the same constructor and surface
    as :class:`~repro.radio.medium.RadioMedium`."""

    def __init__(self, env, rng, monitor, propagation, *,
                 corrupt_delivery_fraction=0.3):
        self.env = env
        self.monitor = monitor
        self.tracer = env.tracer
        self.propagation = propagation
        self.rssi_model = RssiModel(rng)
        self.lqi_model = LqiModel(rng)
        self._loss_rng = rng.stream("medium.reception")
        self._corrupt_rng = rng.stream("medium.corruption")
        self._xcvrs: dict[int, Transceiver] = {}
        self._active: list[_Transmission] = []
        self.faults = None
        self.corrupt_delivery_fraction = float(corrupt_delivery_fraction)

    def attach(self, node_id, position, config=None):
        if node_id in self._xcvrs:
            raise RadioError(f"node {node_id} already attached to the medium")
        xcvr = Transceiver(self, node_id, position, config or RadioConfig())
        self._xcvrs[node_id] = xcvr
        return xcvr

    def distance(self, a, b):
        pa, pb = self._xcvrs[a].position, self._xcvrs[b].position
        dx = pa[0] - pb[0]
        dy = pa[1] - pb[1]
        return math.sqrt(dx * dx + dy * dy)

    def _reposition(self, node_id, position):
        self.monitor.count("medium.repositions")

    @property
    def max_range_m(self):
        max_tx = max((x.config.tx_power_dbm for x in self._xcvrs.values()),
                     default=0.0)
        return range_bound_m(self.propagation, max_tx)

    def cca_busy(self, xcvr):
        now = self.env.now
        if xcvr._transmitting_until > now:
            return True
        self._prune(now)
        channel = xcvr.config.channel
        faults = self.faults
        if (faults is not None
                and NOISE_FLOOR_DBM + faults.noise_offset_dbm(channel)
                >= CCA_THRESHOLD_DBM):
            return True
        for tx in self._active:
            if tx.channel != channel:
                continue
            power = tx.rx_powers.get(xcvr.node_id)
            if power is not None and power >= CCA_THRESHOLD_DBM:
                return True
        return False

    def ambient_power_dbm(self, xcvr):
        self._prune(self.env.now)
        rid = xcvr.node_id
        channel = xcvr.config.channel
        powers = []
        for tx in self._active:
            if tx.channel != channel or tx.sender == rid:
                continue
            power = tx.rx_powers.get(rid)
            if power is None:
                distance = self.distance(tx.sender, rid)
                if distance > self.max_range_m:
                    continue
                power = self.propagation.mean_received_power_dbm(
                    tx.tx_power_dbm, tx.sender, rid, distance)
            powers.append(power)
        floor = NOISE_FLOOR_DBM
        if self.faults is not None:
            floor += self.faults.noise_offset_dbm(channel)
        return dbm_sum(floor, *powers)

    def transmit(self, xcvr, frame):
        if not xcvr.enabled:
            raise RadioError(f"node {xcvr.node_id}: radio is off")
        now = self.env.now
        self._prune(now)
        sid = xcvr.node_id
        channel = xcvr.config.channel
        tx_power = xcvr.config.tx_power_dbm
        prop = self.propagation
        reach = self.max_range_m
        sx, sy = xcvr.position
        rx_powers: dict[int, float] = {}
        for rid in sorted(self._xcvrs):
            other = self._xcvrs[rid]
            if rid == sid or other.config.channel != channel:
                continue
            dx = other.position[0] - sx
            dy = other.position[1] - sy
            if dx * dx + dy * dy > reach * reach:
                continue  # the cut-off rule
            loss = prop.deterministic_loss_db(math.sqrt(dx * dx + dy * dy)) + (
                prop.link_shadowing_db(sid, rid)
                + prop.link_penalty_db(sid, rid))
            if prop.fading_sigma_db > 0:
                loss += float(prop._fading_rng.normal(
                    0.0, prop.fading_sigma_db))
            rx_powers[rid] = tx_power - loss
        tx = _Transmission(sid, channel, tx_power, now, now + frame.airtime,
                           rx_powers)
        tx.overlapping = list(self._active)
        for other_tx in self._active:
            other_tx.overlapping.append(tx)
        self._active.append(tx)
        xcvr._transmitting_until = tx.end
        done = self.env.timeout(frame.airtime)
        done.add_callback(lambda _ev: self._complete(frame, tx))
        return done

    def _prune(self, now):
        self._active = [t for t in self._active if t.end > now]

    def _complete(self, frame, tx):
        tracer = self.tracer
        trace_on = tracer.enabled
        now = self.env.now
        monitor = self.monitor
        faults = self.faults
        noise_floor = NOISE_FLOOR_DBM
        fault_corrupt_on = False
        if faults is not None:
            noise_floor += faults.noise_offset_dbm(tx.channel)
            fault_corrupt_on = faults.corrupt_active
        payload0 = frame.payload
        delivered_to_dst = False
        any_delivered = False

        def drop(rid, reason, **fields):
            if trace_on and rid == frame.dst:
                tracer.emit("radio.drop", now, node=rid,
                            packet=frame.trace_id, reason=reason,
                            sender=tx.sender, **fields)

        for rid in sorted(tx.rx_powers):
            receiver = self._xcvrs[rid]
            rx_power = tx.rx_powers[rid]
            if not receiver.enabled:
                drop(rid, "radio_off")
                continue
            if rx_power < SENSITIVITY_DBM:
                drop(rid, "out_of_range", rx_power_dbm=round(rx_power, 3))
                continue
            if any(o.sender == rid for o in tx.overlapping):
                monitor.count("medium.halfduplex_loss")
                drop(rid, "half_duplex")
                continue
            interference = [o.rx_powers[rid] for o in tx.overlapping
                            if o.channel == tx.channel and rid in o.rx_powers]
            sinr = rx_power - dbm_sum(noise_floor, *interference)
            captured = True
            if interference:
                monitor.count("medium.interfered_receptions")
                sir = rx_power - dbm_sum(*interference)
                captured = sir >= CAPTURE_THRESHOLD_DB
            prr = packet_reception_ratio(sinr, frame.size_bytes)
            success = captured and self._loss_rng.random() < prr
            payload = payload0
            crc_ok = True
            if success:
                if (fault_corrupt_on and payload0
                        and faults.corrupt_roll(rid)):
                    payload = faults.corrupt_payload(payload0)
                    crc_ok = False
            elif (self._corrupt_rng.random() >= self.corrupt_delivery_fraction
                    or not payload0):
                monitor.count("medium.lost_frames")
                drop(rid, "channel_loss" if captured else "collision",
                     sinr_db=round(sinr, 3))
                continue
            else:
                payload = self._corrupt(payload0)
                crc_ok = False
            if not crc_ok:
                monitor.count("medium.corrupted_frames")
            rssi = self.rssi_model.reading(rx_power)
            lqi = self.lqi_model.reading(sinr)
            monitor.observe("radio.lqi", lqi)
            if trace_on and (rid == frame.dst or frame.is_broadcast):
                tracer.emit("radio.rx", now, node=rid, packet=frame.trace_id,
                            sender=tx.sender, crc_ok=crc_ok, rssi=rssi,
                            lqi=lqi, sinr_db=round(sinr, 3))
            Transceiver.deliver(FrameBatch(
                frame, tx.sender, tx.channel, now,
                [(receiver, payload, crc_ok, rssi, lqi, sinr, rx_power)]))
            if crc_ok:
                any_delivered = True
                delivered_to_dst = delivered_to_dst or rid == frame.dst

        # An addressed destination outside the cut-off still gets its
        # "where did my packet go" answer, from deterministic loss only.
        dst = frame.dst
        if (trace_on and not frame.is_broadcast and dst is not None
                and dst != tx.sender and dst not in tx.rx_powers):
            dxcvr = self._xcvrs.get(dst)
            if dxcvr is not None and dxcvr.config.channel == tx.channel:
                if not dxcvr.enabled:
                    drop(dst, "radio_off")
                else:
                    est = tx.tx_power_dbm - self.propagation.deterministic_loss_db(
                        self.distance(tx.sender, dst))
                    drop(dst, "out_of_range", rx_power_dbm=round(est, 3))

        monitor.log_packet(PacketRecord(
            time=tx.start, sender=tx.sender,
            receiver=None if frame.is_broadcast else dst,
            kind=frame.kind, port=frame.port, size_bytes=frame.size_bytes,
            delivered=any_delivered if frame.is_broadcast else delivered_to_dst,
        ))
        monitor.count("medium.transmissions")

    def _corrupt(self, payload):
        data = bytearray(payload)
        flips = max(1, int(self._corrupt_rng.integers(1, 4)))
        for _ in range(flips):
            idx = int(self._corrupt_rng.integers(0, len(data)))
            bit = int(self._corrupt_rng.integers(0, 8))
            data[idx] ^= 1 << bit
        return bytes(data)
