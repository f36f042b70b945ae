"""Flash/RAM footprint accounting against MicaZ budgets.

The paper reports compiled image sizes — ping: 2148 B flash / 278 B RAM;
traceroute: 2820 B flash / 272 B RAM — and argues they are "well
acceptable even on the resource-constrained MicaZ nodes" (128 KB flash,
4 KB RAM).  Binary sizes are a property of AVR compilation and cannot be
reproduced in Python, so per DESIGN.md we reproduce the *accounting and
admission* model instead: installed components register their paper-
reported footprints, and installation fails when a budget would be
exceeded.  The footprint bench replays the paper's numbers through this
model.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import KernelError, MemoryBudgetExceeded

__all__ = [
    "FLASH_BUDGET_BYTES",
    "RAM_BUDGET_BYTES",
    "KERNEL_FLASH_BYTES",
    "KERNEL_RAM_BYTES",
    "PAPER_FOOTPRINTS",
    "InstalledImage",
    "MemoryModel",
]

#: MicaZ: "an Atmega128 microcontroller, 4KB RAM, and 128K programmable
#: flash".
FLASH_BUDGET_BYTES = 128 * 1024
RAM_BUDGET_BYTES = 4 * 1024

#: LiteOS base system occupancy (order-of-magnitude from the LiteOS paper).
KERNEL_FLASH_BYTES = 30 * 1024
KERNEL_RAM_BYTES = 1600

#: The footprints §IV-C.5/6 report, keyed by command name.
PAPER_FOOTPRINTS: dict[str, tuple[int, int]] = {
    "ping": (2148, 278),
    "traceroute": (2820, 272),
}


@dataclass(frozen=True)
class InstalledImage:
    """One installed binary's accounting record."""

    name: str
    flash_bytes: int
    ram_bytes: int


class MemoryModel:
    """Per-node flash/RAM ledger with budget enforcement."""

    def __init__(self) -> None:
        self._images: dict[str, InstalledImage] = {}

    # -- queries ------------------------------------------------------------

    @property
    def flash_used(self) -> int:
        """Flash bytes consumed by installed images."""
        return sum(i.flash_bytes for i in self._images.values())

    @property
    def ram_used(self) -> int:
        """Static RAM bytes consumed by installed images."""
        return sum(i.ram_bytes for i in self._images.values())

    @property
    def flash_free(self) -> int:
        """Remaining flash budget."""
        return FLASH_BUDGET_BYTES - self.flash_used

    @property
    def ram_free(self) -> int:
        """Remaining RAM budget."""
        return RAM_BUDGET_BYTES - self.ram_used

    def installed(self) -> list[InstalledImage]:
        """Installed images, sorted by name."""
        return sorted(self._images.values(), key=lambda i: i.name)

    def lookup(self, name: str) -> InstalledImage | None:
        """The accounting record for ``name``, if installed."""
        return self._images.get(name)

    # -- mutation ------------------------------------------------------------------

    def install(self, name: str, flash_bytes: int, ram_bytes: int
                ) -> InstalledImage:
        """Admit an image, enforcing both budgets.

        Raises :class:`MemoryBudgetExceeded` when either budget would go
        negative and :class:`KernelError` on duplicate names.
        """
        if flash_bytes < 0 or ram_bytes < 0:
            raise ValueError("footprints must be non-negative")
        if name in self._images:
            raise KernelError(f"image {name!r} already installed")
        if flash_bytes > self.flash_free:
            raise MemoryBudgetExceeded(
                f"{name!r} needs {flash_bytes} B flash; only "
                f"{self.flash_free} B free"
            )
        if ram_bytes > self.ram_free:
            raise MemoryBudgetExceeded(
                f"{name!r} needs {ram_bytes} B RAM; only "
                f"{self.ram_free} B free"
            )
        image = InstalledImage(name, flash_bytes, ram_bytes)
        self._images[name] = image
        return image

    def uninstall(self, name: str) -> None:
        """Remove an image; unknown names raise :class:`KernelError`."""
        if name not in self._images:
            raise KernelError(f"image {name!r} is not installed")
        del self._images[name]

    def report(self) -> dict[str, int]:
        """A usage summary (used by diagnostics and the footprint bench)."""
        return {
            "flash_used": self.flash_used,
            "flash_free": self.flash_free,
            "ram_used": self.ram_used,
            "ram_free": self.ram_free,
        }
