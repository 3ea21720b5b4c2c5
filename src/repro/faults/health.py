"""Heartbeat-based liveness monitoring for the implant fleet.

Every TDMA round each healthy node's heartbeat reaches the monitor (in
the real system it rides the node's scheduled slot; here the
:class:`~repro.faults.injector.FaultInjector` reports on behalf of nodes
that are up and in radio contact).  A node that misses
:data:`MISS_THRESHOLD` consecutive rounds is declared dead — the signal
the query layer and the ILP re-scheduler use to route around it.  A
heartbeat from a declared-dead node (a reboot, an outage ending) revives
it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import ConfigurationError

#: Consecutive missed heartbeat rounds that declare a node dead.
MISS_THRESHOLD = 3


@dataclass
class HealthMonitor:
    """Missed-heartbeat failure detector over ``n_nodes`` implants."""

    n_nodes: int
    #: (round, node, "dead" | "recovered") in detection order
    history: list[tuple[int, int, str]] = field(
        init=False, default_factory=list
    )

    def __post_init__(self) -> None:
        if self.n_nodes < 1:
            raise ConfigurationError("need at least one node")
        self._last_seen: dict[int, int] = {n: -1 for n in range(self.n_nodes)}
        self._dead: set[int] = set()

    def _check(self, node: int) -> None:
        if not 0 <= node < self.n_nodes:
            raise ConfigurationError(f"node {node} out of range")

    # -- updates ------------------------------------------------------------------

    def heartbeat(self, node: int, round_index: int) -> None:
        """Record one heartbeat; revives a node previously marked dead.

        Heartbeats older than the freshest one already recorded are
        ignored: a delayed heartbeat from before a crash must neither
        rewind the liveness clock nor wrongly revive a dead node — only
        *fresh* evidence (a reboot, an outage ending) flips dead→alive.
        """
        self._check(node)
        if round_index < self._last_seen[node]:
            return
        self._last_seen[node] = round_index
        if node in self._dead:
            self._dead.discard(node)
            self.history.append((round_index, node, "recovered"))

    def tick(self, round_index: int) -> list[int]:
        """Close one round; returns nodes newly declared dead."""
        newly_dead = [
            node
            for node in range(self.n_nodes)
            if node not in self._dead
            and round_index - self._last_seen[node] >= MISS_THRESHOLD
        ]
        for node in newly_dead:
            self._dead.add(node)
            self.history.append((round_index, node, "dead"))
        return newly_dead

    # -- views --------------------------------------------------------------------

    def is_alive(self, node: int) -> bool:
        self._check(node)
        return node not in self._dead

    @property
    def alive_nodes(self) -> list[int]:
        return [n for n in range(self.n_nodes) if n not in self._dead]

    @property
    def dead_nodes(self) -> list[int]:
        return sorted(self._dead)


@dataclass
class FleetBelief:
    """Per-node liveness views: one :class:`HealthMonitor` per vantage.

    A single fleet-shared monitor silently assumes every heartbeat is
    heard everywhere — exactly the assumption an asymmetric partition
    breaks.  ``FleetBelief`` keeps one monitor *per observer*, fed only
    with the heartbeats that observer can actually exchange with the
    sender (the injector requires the probe *and* its ack to flow, so a
    peer that can hear you but cannot answer still counts as dead).
    That round-trip rule makes every view the symmetric closure of the
    link matrix: views agree within a partition component, and quorum
    election over them admits at most one majority side.

    Each observer always believes itself alive (it heartbeats itself
    every round it is up) — a node's own vantage never expires.
    """

    n_nodes: int

    def __post_init__(self) -> None:
        if self.n_nodes < 1:
            raise ConfigurationError("need at least one node")
        self._views: dict[int, HealthMonitor] = {
            n: HealthMonitor(self.n_nodes)
            for n in range(self.n_nodes)
        }

    def heartbeat(self, observer: int, sender: int, round_index: int) -> None:
        """Record that ``observer`` completed a probe round-trip to ``sender``."""
        self.view(observer).heartbeat(sender, round_index)

    def tick(self, round_index: int) -> dict[int, list[int]]:
        """Close one round on every view.

        Returns ``{observer: newly_dead_nodes}`` for observers whose
        belief changed, in observer order (deterministic).
        """
        changed: dict[int, list[int]] = {}
        for observer in range(self.n_nodes):
            newly_dead = self._views[observer].tick(round_index)
            if newly_dead:
                changed[observer] = newly_dead
        return changed

    def view(self, node: int) -> HealthMonitor:
        """The liveness belief as seen from one node."""
        if node not in self._views:
            raise ConfigurationError(f"node {node} out of range")
        return self._views[node]
