"""Link-level network partitions: asymmetric reachability as data.

A :class:`PartitionMatrix` is a set of *directed* blocked links laid
over the shared medium: ``reachable(src, dst)`` answers whether a frame
transmitted by ``src`` can physically reach ``dst``.  Real inter-site
fabric failures are frequently one-sided (a saturated uplink, a
misprogrammed route), so the matrix is directional by construction —
``reachable(a, b)`` and ``reachable(b, a)`` are independent facts — and
the convenience constructors expose the three canonical shapes:

* ``split(..., mode="both")`` — the textbook symmetric cut: neither
  side hears the other;
* ``mode="a_to_b"`` — frames from side A never reach side B, while
  B's frames still land on A (A hears a fleet that cannot hear it);
* ``mode="b_to_a"`` — the mirror image.

The matrix itself is pure data (no RNG, no clock): seeding and
scheduling live in :class:`~repro.faults.plan.FaultPlan`, which draws
split/heal windows and encodes them as ``PARTITION_*`` fault events,
and :class:`~repro.faults.injector.FaultInjector`, which installs and
clears the matrix on the live
:class:`~repro.network.network.WirelessNetwork`.  Keeping the layers
separate preserves the determinism contract: the same plan installs
byte-identical matrices round after round.

Note the asymmetry lives at the *data plane* only.  The failure
detector built on top (:class:`~repro.faults.health.FleetBelief`)
models round-trip liveness probes — a peer counts as alive only when
both the probe and its ack can flow — so belief always converges on
the symmetric closure of the matrix, which is what makes majority
components well-defined for quorum election.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import ConfigurationError

#: Accepted directionality modes for :meth:`PartitionMatrix.split`.
SPLIT_MODES = ("both", "a_to_b", "b_to_a")


@dataclass(frozen=True)
class PartitionMatrix:
    """Directed blocked links over an ``n_nodes`` fleet.

    ``blocked`` holds ``(src, dst)`` pairs; a pair's presence means a
    transmission from ``src`` is never delivered at ``dst`` while the
    matrix is installed.  Instances are immutable — a heal is modelled
    by removing the matrix from the network, not by mutating it.
    """

    n_nodes: int
    blocked: frozenset[tuple[int, int]] = field(default_factory=frozenset)
    #: how the matrix was built, for logs ("split@2/both", "links", ...)
    label: str = "links"

    def __post_init__(self) -> None:
        if self.n_nodes < 2:
            raise ConfigurationError("a partition needs at least two nodes")
        for src, dst in self.blocked:
            if not (0 <= src < self.n_nodes and 0 <= dst < self.n_nodes):
                raise ConfigurationError(
                    f"blocked link ({src}, {dst}) outside the fleet"
                )
            if src == dst:
                raise ConfigurationError("a node cannot be cut from itself")

    # -- constructors -------------------------------------------------------------

    @classmethod
    def split(
        cls, n_nodes: int, cut: int, mode: str = "both"
    ) -> "PartitionMatrix":
        """Cut the fleet into sides A = {0..cut} and B = {cut+1..n-1}.

        ``mode`` selects the blocked direction(s): ``"both"`` blocks
        A↔B, ``"a_to_b"`` blocks only frames A transmits towards B,
        ``"b_to_a"`` only the reverse.
        """
        if not 0 <= cut < n_nodes - 1:
            raise ConfigurationError(
                f"cut {cut} must leave both sides non-empty "
                f"(0 <= cut < {n_nodes - 1})"
            )
        if mode not in SPLIT_MODES:
            raise ConfigurationError(
                f"unknown split mode {mode!r}; expected one of {SPLIT_MODES}"
            )
        side_a = range(cut + 1)
        side_b = range(cut + 1, n_nodes)
        links: set[tuple[int, int]] = set()
        if mode in ("both", "a_to_b"):
            links.update((a, b) for a in side_a for b in side_b)
        if mode in ("both", "b_to_a"):
            links.update((b, a) for a in side_a for b in side_b)
        return cls(
            n_nodes=n_nodes,
            blocked=frozenset(links),
            label=f"split@{cut}/{mode}",
        )

    # -- queries ------------------------------------------------------------------

    def reachable(self, src: int, dst: int) -> bool:
        """Can a frame from ``src`` land on ``dst`` (one hop)?"""
        return src == dst or (src, dst) not in self.blocked

    def symmetric(self) -> bool:
        """Does every blocked link have its mirror blocked too?"""
        return all((dst, src) in self.blocked for src, dst in self.blocked)

    def describe(self) -> str:
        """Canonical one-line form for deterministic logs."""
        return (
            f"partition {self.label} blocked={len(self.blocked)} "
            f"symmetric={int(self.symmetric())}"
        )
