"""Deterministic, seed-driven fault plans scheduled in TDMA-round time.

A :class:`FaultPlan` is the replayable half of the fault-injection
substrate: a sorted list of :class:`FaultEvent` entries — node crashes
and reboots, radio-outage windows, NVM page bit-rot, clock-drift spikes
— each pinned to a TDMA round index.  Because the plan is data (not a
live random process), the same seed always produces a byte-identical
:meth:`event_log`, and replaying it through
:class:`~repro.faults.injector.FaultInjector` against a seeded
:class:`~repro.core.system.ScaloSystem` reproduces the exact same
delivery statistics run after run.

Bursty *packet* loss is not an event type: the paper evaluates only
memoryless bit errors (Figs. 12 and 15b), which the network's
:class:`~repro.network.channel.BitErrorChannel` draws.
"""

from __future__ import annotations

import enum
from bisect import bisect_right
from dataclasses import dataclass, field

import numpy as np

from repro.errors import ConfigurationError


class FaultKind(enum.Enum):
    """The fault taxonomy.

    The two partition kinds describe *fleet-wide* link cuts rather than
    a single node's fate: ``PARTITION_START`` installs a split whose cut
    index rides the event's ``node`` field (side A = ids ``0..node``)
    and whose directionality rides ``magnitude`` (see
    :data:`PARTITION_MODES`); ``PARTITION_HEAL`` removes whatever split
    is active.  Heal sorts *before* start within a round, so a plan that
    heals one split and starts another in the same round nets to the new
    split — never to a spurious fully-healed round.
    """

    NODE_CRASH = "node_crash"
    NODE_REBOOT = "node_reboot"
    RADIO_OUTAGE_START = "radio_outage_start"
    RADIO_OUTAGE_END = "radio_outage_end"
    NVM_BIT_ROT = "nvm_bit_rot"
    CLOCK_DRIFT_SPIKE = "clock_drift_spike"
    PARTITION_HEAL = "partition_heal"
    PARTITION_START = "partition_start"


#: ``magnitude`` codes for ``PARTITION_START`` events, in draw order.
PARTITION_MODES = ("both", "a_to_b", "b_to_a")


#: Stable intra-round ordering (reboots before crashes would be wrong, etc.).
_KIND_ORDER = {kind: i for i, kind in enumerate(FaultKind)}


@dataclass(frozen=True)
class FaultEvent:
    """One scheduled fault.

    ``magnitude`` is kind-specific: bits to rot for ``NVM_BIT_ROT``,
    microseconds of offset for ``CLOCK_DRIFT_SPIKE``, unused otherwise.
    """

    round: int
    node: int
    kind: FaultKind
    magnitude: float = 0.0

    def log_line(self) -> str:
        return (
            f"round={self.round:08d} node={self.node:03d} "
            f"kind={self.kind.value} magnitude={self.magnitude:.6f}"
        )


def _sort_key(event: FaultEvent) -> tuple[int, int, int, float]:
    return (event.round, _KIND_ORDER[event.kind], event.node, event.magnitude)


@dataclass
class FaultPlan:
    """A replayable schedule of faults over ``n_rounds`` TDMA rounds."""

    n_nodes: int
    n_rounds: int
    seed: int = 0
    events: list[FaultEvent] = field(default_factory=list)

    def __post_init__(self) -> None:
        if self.n_nodes < 1:
            raise ConfigurationError("need at least one node")
        if self.n_rounds < 1:
            raise ConfigurationError("need at least one round")
        for event in self.events:
            if not 0 <= event.round < self.n_rounds:
                raise ConfigurationError(
                    f"event round {event.round} outside [0, {self.n_rounds})"
                )
            if not 0 <= event.node < self.n_nodes:
                raise ConfigurationError(f"event node {event.node} out of range")
            if event.kind is FaultKind.PARTITION_START:
                if not 0 <= event.node < self.n_nodes - 1:
                    raise ConfigurationError(
                        f"partition cut {event.node} must leave both sides "
                        f"non-empty (0 <= cut < {self.n_nodes - 1})"
                    )
                if int(event.magnitude) not in range(len(PARTITION_MODES)):
                    raise ConfigurationError(
                        f"partition mode code {event.magnitude} outside "
                        f"[0, {len(PARTITION_MODES)})"
                    )
        self.events = sorted(self.events, key=_sort_key)
        self._rounds = [e.round for e in self.events]
        self._alive_transitions = self._transitions(
            up_kind=FaultKind.NODE_REBOOT, down_kind=FaultKind.NODE_CRASH
        )
        self._radio_transitions = self._transitions(
            up_kind=FaultKind.RADIO_OUTAGE_END,
            down_kind=FaultKind.RADIO_OUTAGE_START,
        )

    def _transitions(
        self, up_kind: FaultKind, down_kind: FaultKind
    ) -> dict[int, list[tuple[int, bool]]]:
        table: dict[int, list[tuple[int, bool]]] = {
            n: [] for n in range(self.n_nodes)
        }
        for event in self.events:
            if event.kind is down_kind:
                table[event.node].append((event.round, False))
            elif event.kind is up_kind:
                table[event.node].append((event.round, True))
        return table

    @staticmethod
    def _state_at(transitions: list[tuple[int, bool]], round_index: int) -> bool:
        state = True
        for when, up in transitions:
            if when > round_index:
                break
            state = up
        return state

    # -- queries ------------------------------------------------------------------

    def events_at(self, round_index: int) -> list[FaultEvent]:
        """All events scheduled for one round, in application order."""
        lo = bisect_right(self._rounds, round_index - 1)
        hi = bisect_right(self._rounds, round_index)
        return self.events[lo:hi]

    def node_alive(self, node: int, round_index: int) -> bool:
        """Is the node up at this round (crashes take effect same-round)?"""
        return self._state_at(self._alive_transitions[node], round_index)

    def radio_ok(self, node: int, round_index: int) -> bool:
        """Is the node's radio outside any outage window at this round?"""
        return self._state_at(self._radio_transitions[node], round_index)

    @property
    def has_partitions(self) -> bool:
        """Does the plan schedule any link-level split?

        The injector and serve wiring key on this: partition-free plans
        keep the legacy single-belief path byte-for-byte, so existing
        storm logs never shift.
        """
        return any(
            e.kind in (FaultKind.PARTITION_START, FaultKind.PARTITION_HEAL)
            for e in self.events
        )

    def event_log(self) -> str:
        """The canonical textual form — byte-identical for equal plans."""
        header = (
            f"fault-plan nodes={self.n_nodes} rounds={self.n_rounds} "
            f"seed={self.seed} events={len(self.events)}"
        )
        return "\n".join([header, *(e.log_line() for e in self.events)])

    # -- generation ---------------------------------------------------------------

    @classmethod
    def generate(
        cls,
        n_nodes: int,
        n_rounds: int,
        seed: int = 0,
        *,
        n_crashes: int = 1,
        reboot_after: int | None = None,
        n_outages: int = 0,
        outage_rounds: int = 5,
        n_bit_rot: int = 0,
        rot_bits: int = 8,
        n_drift_spikes: int = 0,
        drift_spike_us: float = 50.0,
        n_partitions: int = 0,
        partition_rounds: int = 6,
        partition_asymmetric: bool = True,
    ) -> "FaultPlan":
        """Draw a plan from a seeded RNG — the reproducible entry point.

        Crashes hit distinct nodes (a node cannot crash while down); with
        ``reboot_after`` set, each crashed node reboots that many rounds
        later (if the horizon allows).  Outage windows, bit-rot, and drift
        spikes land uniformly over rounds and nodes.  Partitions draw a
        cut index and (when ``partition_asymmetric``) a directionality
        uniformly, each split healing ``partition_rounds`` later when the
        horizon allows; split windows are spaced so at most one split is
        active at a time (one fabric, one cut).
        """
        if n_crashes > n_nodes:
            raise ConfigurationError("cannot crash more nodes than exist")
        if n_partitions > 0 and n_nodes < 2:
            raise ConfigurationError("cannot partition a single-node fleet")
        rng = np.random.default_rng(seed)
        events: list[FaultEvent] = []

        crash_nodes = rng.permutation(n_nodes)[:n_crashes]
        for node in crash_nodes:
            when = int(rng.integers(0, n_rounds))
            events.append(FaultEvent(when, int(node), FaultKind.NODE_CRASH))
            if reboot_after is not None and when + reboot_after < n_rounds:
                events.append(
                    FaultEvent(
                        when + reboot_after, int(node), FaultKind.NODE_REBOOT
                    )
                )

        for _ in range(n_outages):
            node = int(rng.integers(0, n_nodes))
            start = int(rng.integers(0, n_rounds))
            events.append(FaultEvent(start, node, FaultKind.RADIO_OUTAGE_START))
            end = start + outage_rounds
            if end < n_rounds:
                events.append(FaultEvent(end, node, FaultKind.RADIO_OUTAGE_END))

        for _ in range(n_bit_rot):
            events.append(
                FaultEvent(
                    int(rng.integers(0, n_rounds)),
                    int(rng.integers(0, n_nodes)),
                    FaultKind.NVM_BIT_ROT,
                    magnitude=float(rot_bits),
                )
            )

        for _ in range(n_drift_spikes):
            sign = 1.0 if rng.random() < 0.5 else -1.0
            events.append(
                FaultEvent(
                    int(rng.integers(0, n_rounds)),
                    int(rng.integers(0, n_nodes)),
                    FaultKind.CLOCK_DRIFT_SPIKE,
                    magnitude=sign * drift_spike_us,
                )
            )

        if n_partitions > 0:
            # one split per equal segment of the horizon; heals are
            # clamped to the next segment boundary so a late heal can
            # never erase the following segment's split (and a heal that
            # lands on the same round as the next start nets to the new
            # split via the HEAL-before-START intra-round order)
            segment = n_rounds // n_partitions
            if segment < 1:
                raise ConfigurationError(
                    f"{n_partitions} partitions do not fit {n_rounds} rounds"
                )
            for i in range(n_partitions):
                lo = i * segment
                span = max(1, segment - partition_rounds)
                start = lo + int(rng.integers(0, span))
                cut = int(rng.integers(0, n_nodes - 1))
                mode = (
                    int(rng.integers(0, len(PARTITION_MODES)))
                    if partition_asymmetric
                    else 0
                )
                events.append(
                    FaultEvent(
                        start, cut, FaultKind.PARTITION_START,
                        magnitude=float(mode),
                    )
                )
                heal = start + partition_rounds
                if i < n_partitions - 1:
                    heal = min(heal, (i + 1) * segment)
                if heal < n_rounds:
                    events.append(
                        FaultEvent(heal, cut, FaultKind.PARTITION_HEAL)
                    )

        return cls(n_nodes=n_nodes, n_rounds=n_rounds, seed=seed, events=events)
