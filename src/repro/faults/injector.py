"""Replaying a :class:`~repro.faults.plan.FaultPlan` against a live system.

The injector advances TDMA round by round: it applies the round's
scheduled events to the :class:`~repro.core.system.ScaloSystem` (crash =
unregister from the network, outage = radio dark, bit-rot = flipped NVM
bits, drift = clock offset bump), then feeds heartbeats from every node
that is up and in radio contact into the :class:`HealthMonitor`.  Every
action appends one line to a deterministic log, so two runs of the same
plan against the same seeded system are byte-identical — the property
the resilience evaluation relies on.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.system import ScaloSystem
from repro.faults.health import FleetBelief, HealthMonitor
from repro.faults.plan import PARTITION_MODES, FaultEvent, FaultKind, FaultPlan
from repro.network.partition import PartitionMatrix
from repro.storage.nvm import PAGE_BYTES


@dataclass
class FaultInjector:
    """Drives one plan against one system, one TDMA round at a time."""

    system: ScaloSystem
    plan: FaultPlan
    health: HealthMonitor | None = None
    #: reboots run the full :meth:`~repro.core.system.ScaloSystem.recover_node`
    #: path (replay + scrub + anti-entropy) instead of a bare rejoin
    resync_on_reboot: bool = False
    #: optional :class:`~repro.recovery.scrub.FleetScrubber`, stepped
    #: once per round after the round's events land
    scrubber: object | None = None
    round_index: int = field(init=False, default=0)
    log: list[str] = field(init=False, default_factory=list)
    #: optional :class:`~repro.recovery.failover.FailoverManager`,
    #: stepped after the health tick so handovers follow detection;
    #: attached after construction, since it is built over ``belief``
    failover: object | None = field(init=False, default=None)
    #: per-node liveness views, fed by round-trip probes; created when
    #: the plan schedules partitions (a fleet-shared belief cannot
    #: represent the divergent views a split produces)
    belief: FleetBelief | None = field(init=False, default=None)

    def __post_init__(self) -> None:
        if self.health is None:
            self.health = HealthMonitor(self.system.n_nodes)
        if self.plan.has_partitions:
            self.belief = FleetBelief(self.system.n_nodes)

    # -- stepping -----------------------------------------------------------------

    def step(self) -> list[FaultEvent]:
        """Apply one round: scheduled events, then heartbeats and the tick."""
        assert self.health is not None
        r = self.round_index
        applied: list[FaultEvent] = []
        for event in self.plan.events_at(r):
            if self._apply(event):
                applied.append(event)
        if self.scrubber is not None:
            report = self.scrubber.step()
            if report.bits_corrected or report.uncorrectable_pages:
                self.log.append(
                    f"round={r:08d} scrub corrected {report.bits_corrected} "
                    f"bits, {report.uncorrectable_pages} pages beyond ECC"
                )
        for node in range(self.system.n_nodes):
            if self.system.is_alive(node) and not self.system.network.in_outage(
                node
            ):
                self.health.heartbeat(node, r)
        if self.belief is not None:
            self._probe_views(r)
        for node in self.health.tick(r):
            self.log.append(f"round={r:08d} monitor declares node {node:03d} dead")
        if self.belief is not None:
            self.belief.tick(r)
        if self.failover is not None:
            handover = self.failover.step(round_index=r)
            if handover is not None:
                self.log.append(
                    f"round={r:08d} coordinator failover "
                    f"{handover.old_coordinator:03d} -> "
                    f"{handover.new_coordinator:03d}"
                )
        self.round_index += 1
        return applied

    def _probe_views(self, r: int) -> None:
        """Feed per-node views with round-trip liveness probes.

        An observer credits a sender only when the probe *and* its ack
        can traverse the fabric (both link directions clear, both ends
        up and out of outage).  The round-trip rule means every view
        converges on the symmetric closure of the partition matrix —
        the property that keeps majority components disjoint.
        """
        assert self.belief is not None
        net = self.system.network
        up = [
            node
            for node in range(self.system.n_nodes)
            if self.system.is_alive(node) and not net.in_outage(node)
        ]
        for observer in up:
            self.belief.heartbeat(observer, observer, r)
            for sender in up:
                if sender != observer and net.can_reach(
                    sender, observer
                ) and net.can_reach(observer, sender):
                    self.belief.heartbeat(observer, sender, r)

    def event_log(self) -> str:
        """The applied-action log (deterministic for a given plan + system)."""
        return "\n".join(self.log)

    # -- event application --------------------------------------------------------

    def _note(self, event: FaultEvent, detail: str) -> None:
        self.log.append(f"{event.log_line()} {detail}")

    def _apply(self, event: FaultEvent) -> bool:
        node = event.node
        alive = self.system.is_alive(node)
        if event.kind is FaultKind.NODE_CRASH:
            if not alive:
                self._note(event, "skipped: already down")
                return False
            self.system.fail_node(node)
            self._note(event, "applied: node unregistered")
            return True
        if event.kind is FaultKind.NODE_REBOOT:
            if alive:
                self._note(event, "skipped: already up")
                return False
            if self.resync_on_reboot:
                report = self.system.recover_node(node)
                self._note(
                    event,
                    f"applied: node recovered "
                    f"(replayed {report.replay.records_replayed} records, "
                    f"pulled {report.resync.batches_pulled} batches)",
                )
            else:
                self.system.restore_node(node)
                self._note(event, "applied: node re-registered")
            return True
        if event.kind is FaultKind.RADIO_OUTAGE_START:
            if not alive:
                self._note(event, "skipped: node down")
                return False
            self.system.network.set_outage(node, True)
            self._note(event, "applied: radio dark")
            return True
        if event.kind is FaultKind.RADIO_OUTAGE_END:
            if not alive or not self.system.network.in_outage(node):
                self._note(event, "skipped: no outage active")
                return False
            self.system.network.set_outage(node, False)
            self._note(event, "applied: radio restored")
            return True
        if event.kind is FaultKind.PARTITION_START:
            matrix = PartitionMatrix.split(
                self.system.n_nodes,
                event.node,
                PARTITION_MODES[int(event.magnitude)],
            )
            self.system.network.set_partition(matrix)
            self._note(event, f"applied: {matrix.describe()}")
            return True
        if event.kind is FaultKind.PARTITION_HEAL:
            if self.system.network.partition is None:
                self._note(event, "skipped: fabric already whole")
                return False
            self.system.network.clear_partition()
            self._note(event, "applied: fabric healed")
            return True
        if event.kind is FaultKind.NVM_BIT_ROT:
            return self._apply_bit_rot(event)
        if event.kind is FaultKind.CLOCK_DRIFT_SPIKE:
            self.system.clocks[node].offset_us += event.magnitude
            self._note(event, f"applied: clock bumped {event.magnitude:+.3f} us")
            return True
        raise AssertionError(f"unhandled fault kind {event.kind}")

    def _apply_bit_rot(self, event: FaultEvent) -> bool:
        device = self.system.nodes[event.node].storage.device
        pages = device.programmed_pages
        if not pages:
            self._note(event, "skipped: no programmed pages")
            return False
        # Derive the rot positions from (plan seed, round, node) so the
        # same plan rots the same bits regardless of call ordering.
        rng = np.random.default_rng((self.plan.seed, event.round, event.node))
        page = pages[int(rng.integers(len(pages)))]
        n_bits = min(int(event.magnitude), 8 * PAGE_BYTES)
        positions = rng.choice(8 * PAGE_BYTES, size=n_bits, replace=False)
        flipped = device.inject_bit_rot(page, positions)
        self._note(event, f"applied: page {page} rotted {flipped} bits")
        return True
