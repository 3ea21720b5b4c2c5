"""Background NVM scrubbing on a TDMA-round page budget.

Retention errors accumulate bit by bit; SECDED corrects one per page,
so the race is to visit every page before a second bit rots.  The
scrubber spends :data:`PAGES_PER_ROUND` page visits per TDMA round
(idle SC cycles), resuming where it left off, and repairs single-bit damage in
place via :meth:`~repro.storage.nvm.NVMDevice.check_page`.  Pages
damaged beyond SECDED are reported (and counted once by the device) —
the scrubber cannot repair them, only surface them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.telemetry import NULL_TELEMETRY, TelemetryLike

if TYPE_CHECKING:
    from repro.core.system import ScaloSystem
    from repro.storage.nvm import NVMDevice

#: Page visits each scrubber spends per TDMA round.
PAGES_PER_ROUND = 8


@dataclass
class ScrubReport:
    """What one scrub step (or an aggregate of steps) found."""

    pages_scanned: int = 0
    bits_corrected: int = 0
    uncorrectable_pages: int = 0

    def merge(self, other: "ScrubReport") -> None:
        self.pages_scanned += other.pages_scanned
        self.bits_corrected += other.bits_corrected
        self.uncorrectable_pages += other.uncorrectable_pages


@dataclass
class Scrubber:
    """Round-robin patrol scrubber over one device's programmed pages."""

    device: "NVMDevice"
    telemetry: TelemetryLike = field(default=NULL_TELEMETRY, repr=False)

    def __post_init__(self) -> None:
        self._cursor = -1  # last page index visited

    def step(self, budget: int | None = None) -> ScrubReport:
        """Visit up to ``budget`` pages (default :data:`PAGES_PER_ROUND`)."""
        budget = PAGES_PER_ROUND if budget is None else budget
        report = ScrubReport()
        pages = self.device.programmed_pages
        if not pages:
            return report
        # resume after the cursor, wrapping to the lowest page
        after = [p for p in pages if p > self._cursor]
        ordered = after + [p for p in pages if p <= self._cursor]
        patrol = ordered[: min(budget, len(pages))]
        for page in patrol:
            corrected, uncorrectable = self.device.check_page(page)
            report.pages_scanned += 1
            report.bits_corrected += corrected
            report.uncorrectable_pages += int(uncorrectable)
            self._cursor = page
        tel = self.telemetry
        if tel.enabled and report.pages_scanned:
            tel.inc("recovery.scrub_pages", report.pages_scanned)
            if report.bits_corrected:
                tel.inc("recovery.scrub_corrected", report.bits_corrected)
            if report.uncorrectable_pages:
                tel.inc(
                    "recovery.scrub_uncorrectable", report.uncorrectable_pages
                )
        return report

    def full_pass(self) -> ScrubReport:
        """Scrub every programmed page once (used after a reboot)."""
        report = ScrubReport()
        pages = self.device.programmed_pages
        self._cursor = -1
        report.merge(self.step(budget=len(pages)))
        return report


@dataclass
class FleetScrubber:
    """One scrubber per implant, stepped together each TDMA round."""

    system: "ScaloSystem"
    telemetry: TelemetryLike = field(default=NULL_TELEMETRY, repr=False)

    def __post_init__(self) -> None:
        self._scrubbers = {
            node.node_id: Scrubber(node.storage.device, telemetry=self.telemetry)
            for node in self.system.nodes
        }

    def step(self) -> ScrubReport:
        """Scrub one round's budget on every *alive* node.

        A crashed node's SC is not executing, so its pages wait (and
        keep rotting) until the reboot path scrubs them.
        """
        report = ScrubReport()
        for node_id in self.system.alive_node_ids:
            report.merge(self._scrubbers[node_id].step())
        return report
