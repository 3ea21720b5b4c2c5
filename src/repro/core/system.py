"""The distributed SCALO system: nodes + wireless network.

:class:`ScaloSystem` assembles N implants, the intra-SCALO TDMA network,
the thermal placement check, and clock synchronisation — the full-stack
object the examples drive.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.clock_sync import NodeClock, SNTPSynchroniser, SyncReport
from repro.core.node import ScaloNode
from repro.core.thermal import PlacementCheck, check_placement
from repro.errors import ConfigurationError, NodeFailure
from repro.hashing.lsh import LSHFamily
from repro.network.arq import ReliableLink
from repro.network.network import WirelessNetwork
from repro.network.packet import BROADCAST, Packet, PayloadKind
from repro.network.tdma import TDMAConfig
from repro.telemetry import NULL_TELEMETRY, TelemetryLike
from repro.units import ELECTRODES_PER_NODE, NODE_POWER_CAP_MW

#: the similarity measure the fleet's shared LSH approximates
LSH_MEASURE = "dtw"


@dataclass
class RecoveryReport:
    """Everything one :meth:`ScaloSystem.recover_node` call did."""

    node: int
    replay: object  # StorageRecovery
    scrub: object  # ScrubReport
    resync: object  # ResyncReport


@dataclass
class ScaloSystem:
    """A fleet of implants sharing one LSH configuration and one medium."""

    n_nodes: int
    electrodes_per_node: int = ELECTRODES_PER_NODE
    tdma: TDMAConfig = field(default_factory=TDMAConfig)
    seed: int = 0
    #: when set, hash/query dissemination runs over a stop-and-wait
    #: :class:`~repro.network.arq.ReliableLink` instead of fire-and-forget
    arq: bool = False
    #: injectable observability handle, threaded through the network,
    #: every node's storage controller, and the query/scheduler paths
    telemetry: TelemetryLike = field(default=NULL_TELEMETRY, repr=False)

    def __post_init__(self) -> None:
        if self.n_nodes < 1:
            raise ConfigurationError("need at least one node")
        # one shared hash family: all implants must agree on seeds
        self.lsh = LSHFamily.for_measure(LSH_MEASURE)
        self.nodes = [
            ScaloNode(
                node_id=i,
                n_electrodes=self.electrodes_per_node,
                lsh=self.lsh,
            )
            for i in range(self.n_nodes)
        ]
        for node in self.nodes:
            node.storage.telemetry = self.telemetry
        self.network = WirelessNetwork(
            tdma=self.tdma, seed=self.seed, telemetry=self.telemetry
        )
        self.link: ReliableLink | None = (
            ReliableLink(self.network) if self.arq else None
        )
        self._inboxes: dict[int, list[Packet]] = {i: [] for i in range(self.n_nodes)}
        self._dead: set[int] = set()
        self._query_seq = 0
        self._resync_seq = 0
        #: optional :class:`~repro.recovery.failover.FailoverManager`;
        #: when attached, distributed queries coordinate at its electee
        self.failover = None
        for node in self.nodes:
            self._register(node.node_id)
        self.clocks = [
            NodeClock(offset_us=float(off))
            for off in np.random.default_rng(self.seed).uniform(
                -500, 500, self.n_nodes
            )
        ]

    def _register(self, node_id: int) -> None:
        """Join the network, through the ARQ link when one is configured."""

        def receiver(pkt: Packet) -> None:
            self._inboxes[node_id].append(pkt)

        if self.link is not None:
            self.link.attach(node_id, receiver)
        else:
            self.network.register(node_id, receiver)

    # -- node liveness -----------------------------------------------------------------

    def _check_node(self, node_id: int) -> None:
        if not 0 <= node_id < self.n_nodes:
            raise ConfigurationError(f"node {node_id} out of range")

    def is_alive(self, node_id: int) -> bool:
        self._check_node(node_id)
        return node_id not in self._dead

    @property
    def alive_node_ids(self) -> list[int]:
        return [n for n in range(self.n_nodes) if n not in self._dead]

    @property
    def dead_node_ids(self) -> list[int]:
        return sorted(self._dead)

    def fail_node(self, node_id: int) -> None:
        """Take a node down: it leaves the network and loses its SRAM.

        A crash is destructive — the node's metadata registers, write
        buffer, and recent-hash cache vanish (see
        :meth:`~repro.core.node.ScaloNode.crash`); only the NVM pages
        and the write-ahead journal survive for the reboot to replay.

        Idempotent — failing a node that is already down is a no-op, so a
        fault plan and a health monitor can both report the same outage.
        """
        self._check_node(node_id)
        if node_id in self._dead:
            return
        self._dead.add(node_id)
        self.network.unregister(node_id)
        if self.link is not None:
            # the receiver's duplicate-suppression memory was SRAM too
            self.link.forget(node_id)
        self.nodes[node_id].crash()

    def restore_node(self, node_id: int):
        """Bring a failed node back (reboot): replay, then rejoin.

        The node's NVM contents survive the reboot (NAND is
        non-volatile), so the storage metadata is re-materialised from
        checkpoint + journal before the node rejoins the network.  For
        reconciliation of state *broadcast* while the node was down, use
        :meth:`recover_node`.

        Returns:
            :class:`~repro.storage.controller.StorageRecovery` (or
            ``None`` when the node was not down).
        """
        self._check_node(node_id)
        if node_id not in self._dead:
            return None
        tel = self.telemetry
        with tel.span("replay", node=node_id):
            report = self.nodes[node_id].recover()
        if tel.enabled:
            tel.inc("recovery.replays")
            tel.inc("recovery.records_replayed", report.records_replayed)
        self._dead.discard(node_id)
        self._inboxes[node_id] = []
        self._register(node_id)
        return report

    def recover_node(self, node_id: int):
        """Full reboot path: replay + scrub + bounded anti-entropy.

        After :meth:`restore_node` re-materialises the durable state,
        the node scrubs its pages (downtime is retention time) and runs
        one :func:`~repro.recovery.resync.resync_node` round pulling the
        last :data:`~repro.recovery.resync.RESYNC_HORIZON` windows from
        each alive peer and pushing its own unexchanged batches.  The
        whole path is one ``recovery`` span with ``replay``/``resync``
        children.

        Returns:
            :class:`RecoveryReport` (or ``None`` when not down).
        """
        from repro.recovery.resync import RESYNC_HORIZON, resync_node
        from repro.recovery.scrub import Scrubber

        self._check_node(node_id)
        if node_id not in self._dead:
            return None
        tel = self.telemetry
        with tel.span("recovery", node=node_id):
            replay = self.restore_node(node_id)
            scrub = Scrubber(
                self.nodes[node_id].storage.device, telemetry=tel
            ).full_pass()
            # the node cannot know how far the fleet got while it was
            # down, so the pull range extends one horizon past its own
            # replayed high-water mark
            own_hi = self.nodes[node_id]._window_index
            resync_report = resync_node(
                self, node_id, max(0, own_hi - RESYNC_HORIZON),
                own_hi + RESYNC_HORIZON,
            )
            tel.inc("recovery.nodes_recovered")
        return RecoveryReport(node_id, replay, scrub, resync_report)

    def reschedule(self, flows):
        """Re-solve the schedule over the surviving nodes only.

        A dead node contributes neither PEs nor radio slots, so the
        problem is posed at the reduced node count.  Throughput
        degrades, the session survives.

        Returns:
            The new :class:`~repro.scheduler.ilp.Schedule`.

        Raises:
            SchedulingError: when no nodes survive or the reduced problem
                is infeasible.
        """
        from repro.errors import SchedulingError
        from repro.scheduler.ilp import SchedulerProblem

        n_alive = len(self.alive_node_ids)
        if n_alive == 0:
            raise SchedulingError("no surviving nodes to schedule")
        return SchedulerProblem(
            n_nodes=n_alive,
            flows=list(flows),
            power_budget_mw=NODE_POWER_CAP_MW,
            tdma=self.tdma,
            telemetry=self.telemetry,
        ).solve()

    # -- placement / maintenance ------------------------------------------------------

    def thermal_check(self) -> PlacementCheck:
        return check_placement(self.n_nodes)

    def synchronise_clocks(self) -> SyncReport:
        return SNTPSynchroniser(tdma=self.tdma, seed=self.seed).synchronise(
            self.clocks
        )

    def attach_failover(self, health=None, views=None):
        """Enable coordinator failover for the centralised stages.

        Returns the attached
        :class:`~repro.recovery.failover.FailoverManager`; distributed
        queries now coordinate at its electee.  With ``health`` (one
        fleet-shared belief) the PR-3 lowest-id rule applies; with
        ``views`` (per-node :class:`~repro.faults.health.FleetBelief`)
        election is quorum-gated and epoch-fenced — the partition-safe
        mode, under which a fleet with no majority side has no
        coordinator at all.
        """
        from repro.recovery.failover import FailoverManager

        self.failover = FailoverManager(self, health=health, views=views)
        return self.failover

    # -- messaging ---------------------------------------------------------------------

    def _next_resync_seq(self) -> int:
        """RESYNC requests get their own sequence space (like queries)."""
        self._resync_seq = (self._resync_seq + 1) & 0xFFFF
        return self._resync_seq

    def broadcast_hashes(self, src: int, signatures: list[tuple[int, ...]],
                         seq: int = 0) -> None:
        """Pack and broadcast one node's hash batch.

        Opens a ``broadcast`` span whose trace context rides on the
        packet metadata, so receiver-side work (and any ARQ retries) can
        join the same distributed trace.
        """
        if not self.is_alive(src):
            raise NodeFailure(src, "cannot broadcast hashes")
        payload = b"".join(self.lsh.pack(sig) for sig in signatures)
        tel = self.telemetry
        with tel.span(
            "broadcast", kind="hashes", node=src, n_signatures=len(signatures)
        ):
            packet = Packet.build(
                src, BROADCAST, PayloadKind.HASHES, payload, seq=seq,
                time_ticks=seq & 0xFFFFFFFF, trace=tel.current_context(),
            )
            tel.inc("system.hash_broadcasts")
            if self.link is not None:
                self.link.send(packet)
            else:
                self.network.send(packet)

    def drain_inbox(self, node_id: int) -> list[Packet]:
        packets = self._inboxes[node_id]
        self._inboxes[node_id] = []
        return packets

    def unpack_hashes(self, packet: Packet) -> list[tuple[int, ...]]:
        width = len(self.lsh.pack(tuple([0] * self.lsh.config.n_components)))
        payload = packet.payload
        if len(payload) % width:
            raise ConfigurationError("hash payload not a signature multiple")
        return [
            self.lsh.unpack(payload[i : i + width])
            for i in range(0, len(payload), width)
        ]

    # -- ingest -----------------------------------------------------------------------

    def ingest(self, windows: np.ndarray) -> list[list[tuple[int, ...]]]:
        """Feed one window to every surviving node.

        ``windows`` is ``(n_nodes, electrodes, wlen)``; a dead node's slice
        is skipped (its ADC is not sampling) and its slot in the returned
        list is an empty signature batch, keeping positions aligned.  The
        nodes share :attr:`lsh`, so every surviving node's rows are hashed
        in one batch, and each node takes its slice of the int64 hash
        block as one ``(electrodes, components)`` array.
        """
        windows = np.asarray(windows)
        if windows.shape[0] != self.n_nodes:
            raise ConfigurationError("first axis must be nodes")
        shape = self.nodes[0].window_shape
        if windows.shape[1:] != shape:
            raise ConfigurationError(
                f"expected {shape}, got {windows.shape[1:]}"
            )
        alive = [node for node in self.nodes if node.node_id not in self._dead]
        tel = self.telemetry
        with tel.span("ingest", n_nodes=len(alive)):
            batches: list[list[tuple[int, ...]]] = [[] for _ in self.nodes]
            if alive:
                rows = windows[[node.node_id for node in alive]]
                hashed = self.lsh.hash_windows(rows.reshape(-1, shape[1]))
                for k, node in enumerate(alive):
                    batches[node.node_id] = node.ingest_window(
                        rows[k], hashed[k * shape[0] : (k + 1) * shape[0]]
                    )
        tel.inc("system.windows_ingested", len(alive))
        return batches

    # -- distributed queries ------------------------------------------------------------

    def _query_engine(self, seizure_flags: dict[int, set[int]] | None):
        from repro.apps.queries import QueryEngine

        return QueryEngine(
            controllers=[node.storage for node in self.nodes],
            lsh=self.lsh,
            seizure_flags=seizure_flags or {},
            telemetry=self.telemetry,
        )

    def query(self, spec, window_range: tuple[int, int], template=None,
              seizure_flags: dict[int, set[int]] | None = None):
        """Run an interactive query over the surviving nodes.

        A dead node's storage is unreachable, so the result is tagged
        degraded with the coverage actually achieved rather than raising.
        The whole operation runs under one ``query`` span with per-node
        ``lookup`` children and a final ``merge`` (local execution: no
        network dissemination — see :meth:`query_distributed`).

        Returns:
            :class:`~repro.apps.queries.DistributedQueryResult`.
        """
        from repro.apps.queries import QUERY_OVERHEAD_MS

        tel = self.telemetry
        engine = self._query_engine(seizure_flags)
        with tel.span("query", kind=spec.kind):
            tel.advance_ms(QUERY_OVERHEAD_MS)  # MC parse + dispatch
            return engine.run(
                spec, window_range, template=template, dead_nodes=self._dead
            )

    def query_distributed(
        self,
        spec,
        window_range: tuple[int, int],
        template=None,
        seizure_flags: dict[int, set[int]] | None = None,
    ):
        """One end-to-end distributed query over the real network.

        Unlike :meth:`query` (which scans storage directly), this method
        disseminates the query descriptor on air: the coordinator
        broadcasts a QUERY packet (reliably, when the system has an ARQ
        link), every node that heard it scans its own storage, and the
        partial answers merge at the coordinator.  Each stage is a span
        in one trace — ``query`` → ``broadcast`` (with any ``arq-retry``
        children) → per-node ``lookup`` → ``merge`` — and the trace id
        crosses node boundaries on the packet metadata.  A node that
        never received the descriptor (outage, retries exhausted) counts
        as failed, exactly like a dead one.

        Returns:
            :class:`~repro.apps.queries.DistributedQueryResult`.
        """
        from repro.apps.queries import QUERY_OVERHEAD_MS

        alive = self.alive_node_ids
        if not alive:
            raise NodeFailure(-1, "no surviving nodes to query")
        if self.failover is not None:
            # pick up any pending handover before coordinating
            self.failover.step()
            coordinator = self.failover.coordinator
            if coordinator is None:
                raise NodeFailure(-1, "no quorum: coordination suspended")
        else:
            coordinator = alive[0]
        if not self.is_alive(coordinator):
            raise NodeFailure(coordinator, "coordinator is down")

        tel = self.telemetry
        engine = self._query_engine(seizure_flags)
        with tel.span("query", kind=spec.kind, coordinator=coordinator):
            tel.advance_ms(QUERY_OVERHEAD_MS)  # MC parse + dispatch
            payload = (
                f"{spec.kind}:{window_range[0]}:{window_range[1]}".encode()
            )
            with tel.span("broadcast", kind="query", node=coordinator):
                # queries get their own sequence space so back-to-back
                # queries are never mistaken for ARQ duplicates
                self._query_seq = (self._query_seq + 1) & 0xFFFF
                epoch = 0
                if self.failover is not None:
                    self.failover.checkpoint()
                    self.failover.note_broadcast(self._query_seq)
                    # the epoch rides time_ticks as the fencing token:
                    # receivers discard query traffic from any deposed
                    # coordinator still broadcasting an older epoch
                    epoch = self.failover.epoch
                packet = Packet.build(
                    coordinator, BROADCAST, PayloadKind.QUERY, payload,
                    seq=self._query_seq, time_ticks=epoch,
                    trace=tel.current_context(),
                )
                tel.inc("system.query_broadcasts")
                if self.link is not None:
                    self.link.send(packet)
                else:
                    self.network.send(packet)

            # collect the descriptor at each receiver: a node answers only
            # if it actually heard the query; its lookup span joins the
            # trace context carried by the packet it received
            node_traces = {coordinator: None}
            unreachable: set[int] = set()
            for node in alive:
                if node == coordinator:
                    continue
                inbox = self._inboxes[node]
                heard = [
                    p for p in inbox
                    if p.header.kind == PayloadKind.QUERY
                    and p.header.src == coordinator
                ]
                self._inboxes[node] = [p for p in inbox if p not in heard]
                if self.failover is not None:
                    stale = [
                        p for p in heard
                        if p.header.time_ticks < self.failover.epoch
                    ]
                    if stale:
                        # fencing at the receiver: query traffic stamped
                        # with a superseded epoch is discarded, counted,
                        # and never answered
                        tel.inc("recovery.fencing.rejected", len(stale))
                        heard = [p for p in heard if p not in stale]
                if heard:
                    node_traces[node] = heard[-1].trace
                else:
                    unreachable.add(node)
                    tel.inc("system.query_unreachable_nodes")
            return engine.run(
                spec,
                window_range,
                template=template,
                dead_nodes=self._dead | unreachable,
                node_traces=node_traces,
            )
