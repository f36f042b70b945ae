"""Exception hierarchy for the LiteView reproduction.

Every error raised by :mod:`repro` derives from :class:`ReproError`, so
callers can catch the whole family with a single ``except`` clause while
still being able to discriminate by subsystem.
"""

from __future__ import annotations

__all__ = [
    "ReproError",
    "SimulationError",
    "ProcessInterrupt",
    "RadioError",
    "InvalidPowerLevel",
    "InvalidChannel",
    "PacketError",
    "CrcError",
    "HeaderError",
    "PaddingOverflow",
    "PortError",
    "PortInUse",
    "KernelError",
    "MemoryBudgetExceeded",
    "NoSuchNode",
    "NoSuchSyscall",
    "CommandError",
    "UnknownCommand",
    "ParameterError",
    "CommandTimeout",
    "ReliableTransferError",
    "PlanError",
]


class ReproError(Exception):
    """Base class for all errors raised by the ``repro`` package."""


# --------------------------------------------------------------------------
# Simulation substrate
# --------------------------------------------------------------------------

class SimulationError(ReproError):
    """Misuse of the discrete-event engine (double trigger, bad yield, ...)."""


class ProcessInterrupt(ReproError):
    """Thrown *into* a simulated process by :meth:`Process.interrupt`.

    The ``cause`` attribute carries the value passed to ``interrupt``.
    """

    def __init__(self, cause: object = None):
        super().__init__(cause)
        self.cause = cause


# --------------------------------------------------------------------------
# Radio / PHY
# --------------------------------------------------------------------------

class RadioError(ReproError):
    """Base class for PHY-level configuration or modelling errors."""


class InvalidPowerLevel(RadioError):
    """PA level outside the CC2420 register range 0..31."""


class InvalidChannel(RadioError):
    """Channel outside the 802.15.4 2.4 GHz range 11..26."""


# --------------------------------------------------------------------------
# Packets and the port-based stack
# --------------------------------------------------------------------------

class PacketError(ReproError):
    """Base class for packet construction / parsing errors."""


class CrcError(PacketError):
    """CRC check failed on a received packet."""


class HeaderError(PacketError):
    """Malformed or inconsistent packet header."""


class PaddingOverflow(PacketError):
    """Link-quality padding region exhausted (too many hops recorded)."""


class PortError(ReproError):
    """Base class for port-map errors."""


class PortInUse(PortError):
    """A subscription already exists for this port."""


# --------------------------------------------------------------------------
# Kernel (LiteOS model)
# --------------------------------------------------------------------------

class KernelError(ReproError):
    """Base class for kernel-level errors."""


class MemoryBudgetExceeded(KernelError):
    """Installing a command would exceed the node's flash/RAM budget."""


class NoSuchNode(KernelError):
    """A node name or address does not resolve in the testbed namespace."""


class NoSuchSyscall(KernelError):
    """A thread invoked an unregistered system call."""


# --------------------------------------------------------------------------
# LiteView commands
# --------------------------------------------------------------------------

class CommandError(ReproError):
    """Base class for command-interpreter errors."""


class UnknownCommand(CommandError):
    """The shell line does not name a registered command."""


class ParameterError(CommandError):
    """Bad or missing command parameter (e.g. ``round=abc``)."""


class CommandTimeout(CommandError):
    """A command did not complete within its response window."""


# --------------------------------------------------------------------------
# Reliable one-hop protocol (§IV-B)
# --------------------------------------------------------------------------

class ReliableTransferError(ReproError):
    """A reliable transfer exhausted its retry budget.

    Raised (never returned) so a dead link surfaces as a typed failure
    instead of a silent ``False`` — callers either translate it into
    their own timeout semantics or let it propagate loudly.

    Attributes
    ----------
    dest:
        The unreachable peer.
    attempts:
        Consecutive attempts made without progress before giving up.
    pending:
        Chunks still unacknowledged when the budget ran out.
    total:
        Total chunks in the transfer.
    backoff_delays:
        The ack deadline (seconds) used by each attempt, in order —
        monotone non-decreasing across a stall run by construction.
    """

    def __init__(self, dest: int, attempts: int, pending: int, total: int,
                 backoff_delays: tuple = ()):  # type: ignore[type-arg]
        super().__init__(
            f"reliable transfer to node {dest} abandoned after "
            f"{attempts} attempts ({pending}/{total} chunks outstanding)"
        )
        self.dest = dest
        self.attempts = attempts
        self.pending = pending
        self.total = total
        self.backoff_delays = tuple(backoff_delays)


# --------------------------------------------------------------------------
# Fault and mobility plans
# --------------------------------------------------------------------------

class PlanError(ReproError, ValueError):
    """A fault or mobility plan that cannot be decoded, or names a node
    the world lacks — raised before anything is scheduled."""
