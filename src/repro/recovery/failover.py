"""Quorum-gated, epoch-fenced coordinator failover.

SCALO centralises a few pipeline stages (query coordination and merge,
the one matrix inversion) on a single node.  The PR-3 rule — *the
lowest-id alive node coordinates* — assumed one fleet-shared liveness
belief; under an asymmetric network partition both sides of the split
hold different beliefs and the naive rule elects two coordinators
(split brain: duplicate query sequence numbers, conflicting journal
checkpoints).  This manager makes coordination safe under partition
with three classical ingredients:

**Quorum.**  With per-node views attached
(:class:`~repro.faults.health.FleetBelief`), a node claims coordination
only when its *own* view believes a strict majority of the configured
fleet alive **and** itself the lowest-id believed-alive node.  Views
are fed by round-trip probes (probe *and* ack must traverse the
fabric), so every view is the symmetric closure of the link matrix:
views agree within a partition component, components are disjoint, and
at most one component holds a strict majority — hence at most one
claimant per TDMA round, by construction.  A minority side simply has
no claimant: the fleet degrades to cache-only serving (see
:meth:`~repro.serving.server.QueryServer.set_quorum`) instead of
electing a second coordinator.

**Epochs.**  Every install of a (new) coordinator bumps a monotonic
epoch, stamped on coordinator checkpoints and on query broadcasts
(packet ``time_ticks``).  The epoch is the fleet's fencing token.

**Fencing.**  Checkpoint writes carry their writer's epoch; a write
older than the highest accepted epoch is rejected and counted
(``recovery.fencing.rejected``) — never applied.  A deposed
coordinator that is alive but unreachable from the new majority keeps
retrying its stale checkpoint each round (it cannot have heard the new
epoch); every attempt bounces off the fence.  On heal, the stale
claimant sees the current coordinator in its view again and adopts the
current epoch (``recovery.epoch_reconciled``) — the same anti-entropy
moment that resyncs its journal.

Without views (the legacy shared-:class:`HealthMonitor` mode, used by
partition-free fault plans) the PR-3 behaviour is preserved verbatim,
with one fix: when the belief filters the ground-truth alive set to
empty, the fallback to ground truth is now explicit — logged and
counted (``recovery.blind_fallback``) instead of silent, because under
a full partition that disagreement is exactly the condition quorum
logic must see.

Coordinator state (the query sequence counter) is checkpointed into a
replicated journal after every query, so a successor re-materialises
it instead of restarting from zero — back-to-back queries across a
failover keep distinct sequence numbers and are never suppressed as
ARQ duplicates.  ``history``, the action log, and the claim log are
all ring-bounded (:data:`MAX_HISTORY`, :data:`MAX_LOG`,
:data:`MAX_CLAIMS`): long chaos runs must not grow memory without limit.

The manager's ``recovery.*`` counts live only in its ``counts`` table,
which a live registry reads in place (as it reads
:attr:`~repro.serving.server.QueryServer.counts`), so the chaos audit
and the health engine read one ledger, whatever the handle.  The
``recovery.epoch`` gauge and the handover and stepdown instants are
still pushed.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.errors import ConfigurationError, NodeFailure
from repro.recovery.journal import RecordType, WriteAheadJournal
from repro.telemetry.registry import LabelKey

if TYPE_CHECKING:
    from repro.core.system import ScaloSystem
    from repro.faults.health import FleetBelief, HealthMonitor

#: Replicated coordinator checkpoint: coordinator id, epoch, query seq.
_CKPT = struct.Struct("<HHI")

#: Ring bounds: chaos runs step every round for thousands of rounds.
MAX_HISTORY = 256
MAX_LOG = 512
MAX_CLAIMS = 4096


@dataclass(frozen=True)
class FailoverEvent:
    """One coordinator handover."""

    old_coordinator: int
    new_coordinator: int
    restored_query_seq: int
    epoch: int = 0


@dataclass
class FailoverManager:
    """Tracks the coordinator and re-materialises its state on failover."""

    system: "ScaloSystem"
    #: legacy fleet-shared belief (partition-free plans)
    health: "HealthMonitor | None" = None
    #: per-node views; attaching these switches on quorum gating,
    #: epochs, and fencing — the partition-safe mode
    views: "FleetBelief | None" = None
    journal: WriteAheadJournal = field(
        init=False, default_factory=WriteAheadJournal
    )
    history: list[FailoverEvent] = field(init=False, default_factory=list)
    #: deterministic action log (stepdowns, fence rejections, fallbacks)
    log: list[str] = field(init=False, default_factory=list)

    def __post_init__(self) -> None:
        if self.health is not None and self.views is not None:
            raise ConfigurationError(
                "attach a shared health monitor or per-node views, not both"
            )
        self.coordinator: int | None = None
        self.epoch = 0
        #: accepted checkpoint writes as (round, coordinator, epoch) —
        #: the evidence trail the split-brain chaos gate audits
        self.claim_log: list[tuple[int, int, int]] = []
        #: every ``recovery.*`` event the manager counts, whatever the
        #: handle; a live registry reads it in place
        self.counts: dict[tuple[str, LabelKey], float] = {}
        self.system.telemetry.collect(self.counts)
        self._fence_epoch = 0
        self._round = -1
        self._seen_seqs: set[int] = set()
        #: deposed coordinators still alive and unaware of the new
        #: epoch: node -> the stale epoch they keep trying to replicate
        self._stale_claimants: dict[int, int] = {}
        self._stale_rejections: dict[int, int] = {}
        claimant = self._claimant()
        if claimant is not None:
            self._install(None, claimant)
        elif self.views is None:
            raise NodeFailure(-1, "no alive node to coordinate")

    # -- election -----------------------------------------------------------------

    @property
    def quorum(self) -> int:
        """Strict majority of the *configured* fleet, dead or alive."""
        return self.system.n_nodes // 2 + 1

    def _alive(self) -> list[int]:
        """Legacy-mode electorate: belief-filtered ground truth.

        When the belief declares every ground-truth-alive node dead the
        two sources disagree completely; electing from ground truth is
        then a *blind* decision the belief cannot endorse.  The fallback
        is kept (a fleet with any live node must coordinate somewhere)
        but is now explicit: logged and counted, never silent.
        """
        alive = self.system.alive_node_ids
        if self.health is not None:
            believed = set(self.health.alive_nodes)
            filtered = [n for n in alive if n in believed]
            if filtered:
                return filtered
            self._count("recovery.blind_fallback")
            self._note(
                f"blind fallback: belief declares all "
                f"{len(alive)} ground-truth-alive nodes dead; "
                f"electing from ground truth"
            )
        return alive

    def _claimant(self) -> int | None:
        """The node entitled to coordinate right now, if any.

        Views mode: the unique node that believes a strict majority
        alive with itself lowest.  Because round-trip probes make views
        the symmetric closure of the fabric, majority components are
        disjoint and two nodes can never both qualify.  ``None`` means
        no side holds quorum (or belief has not converged) — the fleet
        coordinates nowhere rather than wrongly.
        """
        if self.views is None:
            alive = self._alive()
            if not alive:
                raise NodeFailure(-1, "no alive node to coordinate")
            return alive[0]  # deterministic: lowest id wins
        for node in self.system.alive_node_ids:
            believed = self.views.view(node).alive_nodes
            if len(believed) >= self.quorum and min(believed) == node:
                return node
        return None

    # -- state replication ---------------------------------------------------------

    def checkpoint(self) -> bool:
        """Replicate the coordinator's query state fleet-wide.

        Modelled as one shared journal: the paper's selective
        centralisation keeps this state tiny (a sequence counter), so
        it piggybacks on the hash broadcasts every implant hears.
        Returns whether the write passed the epoch fence.
        """
        if self.coordinator is None:
            return False
        return self._write_checkpoint(
            self.epoch, self.coordinator, self.system._query_seq
        )

    def _write_checkpoint(self, epoch: int, coordinator: int, seq: int) -> bool:
        """The epoch fence: the single gate every checkpoint write takes."""
        if epoch < self._fence_epoch:
            self._count("recovery.fencing.rejected")
            return False
        if epoch < self.epoch:
            # a write below the current epoch slipped past the fence —
            # structurally impossible (the fence tracks the epoch), and
            # the chaos gate asserts this counter stays zero
            self._count("recovery.fencing.accepted_stale")
        self._fence_epoch = epoch
        self.journal.write_checkpoint(_CKPT.pack(coordinator, epoch, seq))
        self.claim_log.append((self._round, coordinator, epoch))
        if len(self.claim_log) > MAX_CLAIMS:
            del self.claim_log[: len(self.claim_log) - MAX_CLAIMS]
        return True

    def note_broadcast(self, seq: int) -> None:
        """Audit one query-broadcast sequence number for uniqueness.

        A split brain shows up as the same seq issued twice (two
        coordinators counting independently); the chaos gate asserts
        the duplicate counter stays zero.
        """
        if seq in self._seen_seqs:
            self._count("recovery.duplicate_query_seq")
        else:
            self._seen_seqs.add(seq)

    # -- stepping ------------------------------------------------------------------

    def step(self, round_index: int | None = None) -> FailoverEvent | None:
        """Re-evaluate the claim; on a change, hand over or step down.

        ``round_index`` is supplied by the fault injector's once-a-round
        tick; per-round work (stale-claimant replication attempts) runs
        only then, so the extra pre-query ``step()`` calls stay
        idempotent within a round.
        """
        if round_index is not None:
            self._round = round_index
        claimant = self._claimant()
        event: FailoverEvent | None = None
        if claimant is None:
            if self.coordinator is not None:
                self._stepdown()
        elif claimant != self.coordinator:
            event = self._install(self.coordinator, claimant)
        if round_index is not None:
            self._replicate_stale()
        return event

    def _install(self, old: int | None, new: int) -> FailoverEvent | None:
        """Seat ``new`` as coordinator under a fresh epoch."""
        tel = self.system.telemetry
        self.epoch += 1
        if old is None and not self.history and self.epoch == 1:
            # initial election: no handover happened, just seat and seal
            self.coordinator = new
            tel.set_gauge("recovery.epoch", self.epoch)
            self.checkpoint()
            return None
        with tel.span("failover", old=old, new=new, epoch=self.epoch):
            self.coordinator = new
            restored_seq = self.system._query_seq
            payload = self.journal.checkpoint_payload()
            if payload is not None:
                _, _, restored_seq = _CKPT.unpack(payload)
                self.system._query_seq = restored_seq
        self._count("recovery.failovers")
        tel.set_gauge("recovery.epoch", self.epoch)
        tel.instant("failover-handover", old=old, new=new, epoch=self.epoch)
        if (
            self.views is not None
            and old is not None
            and self.system.is_alive(old)
            and not self.views.view(new).is_alive(old)
        ):
            # deposed while unreachable: the old coordinator cannot have
            # heard this election and will keep replicating under its
            # stale epoch until the fabric heals or it dies
            self._stale_claimants[old] = self.epoch - 1
            self._note(
                f"coordinator {old:03d} deposed unreachable at epoch "
                f"{self.epoch - 1}; fencing its writes"
            )
        self.journal.append(
            RecordType.COORDINATOR,
            _CKPT.pack(new, self.epoch, self.system._query_seq),
        )
        self.checkpoint()
        event = FailoverEvent(
            old if old is not None else -1, new, self.system._query_seq,
            self.epoch,
        )
        self.history.append(event)
        if len(self.history) > MAX_HISTORY:
            del self.history[: len(self.history) - MAX_HISTORY]
        return event

    def _stepdown(self) -> None:
        """No claimant anywhere: the coordinator yields rather than
        coordinate without quorum (minority sides land here)."""
        old = self.coordinator
        assert old is not None
        tel = self.system.telemetry
        self.coordinator = None
        self._count("recovery.stepdowns")
        tel.instant("failover-stepdown", old=old, epoch=self.epoch)
        if self.system.is_alive(old):
            self._stale_claimants[old] = self.epoch
        self._note(
            f"coordinator {old:03d} steps down: no quorum in any view "
            f"(epoch {self.epoch})"
        )

    def _replicate_stale(self) -> None:
        """One round of the deposed coordinators' doomed replication.

        Each stale claimant still alive and still cut off retries its
        old-epoch checkpoint; the fence rejects every attempt.  A
        claimant the current coordinator can see again has healed: it
        adopts the current epoch through the same anti-entropy exchange
        that resyncs its journal, and stops being stale.
        """
        if self.views is None or not self._stale_claimants:
            return
        for node in sorted(self._stale_claimants):
            stale_epoch = self._stale_claimants[node]
            if stale_epoch >= self.epoch and self.coordinator is None:
                # its epoch is current and nobody outranks it yet: a
                # stepped-down coordinator is only stale once a newer
                # epoch exists
                continue
            if not self.system.is_alive(node):
                del self._stale_claimants[node]
                self._stale_rejections.pop(node, None)
                self._note(f"stale claimant {node:03d} died unreconciled")
                continue
            if self.coordinator is not None and self.views.view(
                self.coordinator
            ).is_alive(node):
                del self._stale_claimants[node]
                self._stale_rejections.pop(node, None)
                self._count("recovery.epoch_reconciled")
                self._note(
                    f"node {node:03d} reconciled epoch "
                    f"{stale_epoch} -> {self.epoch} via anti-entropy"
                )
                continue
            accepted = self._write_checkpoint(
                stale_epoch, node, self.system._query_seq
            )
            assert not accepted
            count = self._stale_rejections.get(node, 0) + 1
            self._stale_rejections[node] = count
            if count == 1:
                self._note(
                    f"fence rejected checkpoint from node {node:03d} "
                    f"at stale epoch {stale_epoch} (current {self.epoch}); "
                    f"further rejections counted silently"
                )

    # -- bookkeeping ---------------------------------------------------------------

    def _count(self, name: str) -> None:
        """Add one to the unlabelled cell ``name`` of :attr:`counts`."""
        key = (name, ())
        self.counts[key] = self.counts.get(key, 0.0) + 1.0

    def _note(self, line: str) -> None:
        self.log.append(line)
        if len(self.log) > MAX_LOG:
            del self.log[: len(self.log) - MAX_LOG]

