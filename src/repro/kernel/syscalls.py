"""System calls and the parameter-passing buffer (§IV-C.4).

LiteOS "does not provide a mechanism for passing parameters to processes
by default", so the paper adds a kernel buffer plus a system call that
returns its address.  We model exactly that: commands are started with
their parameter string staged in a per-node :class:`ParameterBuffer`, and
the command process reads it back through the ``get_parameters`` syscall.
Per the paper, a buffer with no parameters "will start with a '\\0'", and
multiple parameters are space-separated.
"""

from __future__ import annotations

import typing as _t

from repro.errors import NoSuchSyscall

__all__ = ["SyscallTable", "ParameterBuffer", "PARAMETER_BUFFER_CHARS"]

#: Size of the kernel's parameter buffer: a fixed slice of mote RAM.
PARAMETER_BUFFER_CHARS = 64


class ParameterBuffer:
    """The kernel-held buffer commands read their runtime parameters from."""

    def __init__(self) -> None:
        self._content = "\0"

    def stage(self, parameters: str) -> None:
        """Place a parameter string for the next process to pick up.

        Raises :class:`ValueError` when the string exceeds the buffer —
        mote RAM is finite and the kernel cannot grow it.
        """
        if len(parameters) > PARAMETER_BUFFER_CHARS:
            raise ValueError(
                f"parameter string of {len(parameters)} chars exceeds the "
                f"{PARAMETER_BUFFER_CHARS}-char kernel buffer"
            )
        self._content = parameters if parameters else "\0"

    def clear(self) -> None:
        """Reset to the empty marker."""
        self._content = "\0"

    def read(self) -> str:
        """Raw buffer content ('\\0' marks "no parameters supplied")."""
        return self._content

    def argv(self) -> list[str]:
        """Parsed parameter list (space-separated, per the paper)."""
        if self._content.startswith("\0"):
            return []
        return [tok for tok in self._content.split(" ") if tok]


class SyscallTable:
    """Name → function registry modelling the kernel's syscall interface."""

    def __init__(self) -> None:
        self._calls: dict[str, _t.Callable[..., object]] = {}

    def register(self, name: str,
                 fn: _t.Callable[..., object]) -> None:
        """Expose ``fn`` as syscall ``name`` (later registration wins,
        like a kernel jump-table update)."""
        self._calls[name] = fn

    def invoke(self, name: str, /, *args: object, **kwargs: object) -> object:
        """Invoke a syscall; unknown names raise :class:`NoSuchSyscall`."""
        fn = self._calls.get(name)
        if fn is None:
            raise NoSuchSyscall(f"no syscall named {name!r}")
        return fn(*args, **kwargs)

    def names(self) -> list[str]:
        """Sorted names of registered syscalls."""
        return sorted(self._calls)
