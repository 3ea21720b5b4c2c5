"""Interactive human-in-the-loop queries (paper §6.4, Fig. 10).

Three canonical queries over the last T milliseconds of data across all
nodes:

* **Q1** — return all signal windows flagged as seizure.
* **Q2** — return all windows matching a given template (hash-filtered,
  or exact DTW for comparison).
* **Q3** — return all data in the time range.

Two layers: :class:`QueryEngine` executes queries functionally against
per-node storage controllers (used by tests and examples), and
:class:`QueryCostModel` computes latency/power/QPS the way the paper's
Fig. 10 does — reads scan each node's NVM in parallel, matched data is
serialised over the shared 46 Mbps external radio (the bottleneck), and
hash checks ride the CCHECK PE.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.errors import ConfigurationError, ScaloError
from repro.hardware.catalog import get_pe
from repro.hashing.lsh import LSHFamily
from repro.network.radio import EXTERNAL_RADIO
from repro.similarity.dtw import DTW_BAND, dtw_rows
from repro.storage.controller import StorageController
from repro.storage.nvm import NVMDevice
from repro.telemetry import NULL_TELEMETRY, TelemetryLike
from repro.telemetry.tracer import TraceContext
from repro.units import (
    ELECTRODE_RATE_BPS,
    ELECTRODES_PER_NODE,
    WINDOW_MS,
)

#: Fixed per-query overhead: parse on the MC, dispatch over the intra
#: network, response coordination (ms).
QUERY_OVERHEAD_MS = 40.0


@dataclass(frozen=True)
class QuerySpec:
    """One interactive query."""

    kind: str  # "q1" | "q2" | "q3"
    time_range_ms: float
    match_fraction: float = 1.0  # fraction of data satisfying the predicate
    use_hash: bool = True  # Q2 only: hash filter vs exact DTW

    def __post_init__(self) -> None:
        if self.kind not in ("q1", "q2", "q3"):
            raise ConfigurationError("query kind must be q1, q2, or q3")
        if not 0 < self.time_range_ms < np.inf:
            raise ConfigurationError("time range must be positive and finite")
        if not 0 <= self.match_fraction <= 1:
            raise ConfigurationError("match fraction must be in [0, 1]")


def query_data_bytes(
    time_range_ms: float,
    n_nodes: int,
    electrodes_per_node: int = ELECTRODES_PER_NODE,
) -> float:
    """Raw bytes covered by a query: rate x time x nodes.

    110 ms over 11 nodes of 96 electrodes is the paper's ~7 MB case.
    """
    per_node_bps = electrodes_per_node * ELECTRODE_RATE_BPS
    return per_node_bps * (time_range_ms / 1e3) * n_nodes / 8.0


@dataclass
class QueryCost:
    """Latency breakdown and derived metrics for one query."""

    scan_ms: float
    filter_ms: float
    transmit_ms: float
    overhead_ms: float
    power_mw: float

    @property
    def latency_ms(self) -> float:
        return self.scan_ms + self.filter_ms + self.transmit_ms + self.overhead_ms

    @property
    def queries_per_second(self) -> float:
        return 1e3 / self.latency_ms


@dataclass
class QueryCostModel:
    """The Fig. 10 latency/power model.

    ``chunked_layout`` selects the storage layout: the paper's
    reorganised per-electrode chunks (default) or the raw interleaved ADC
    order, whose strided retrieval is 10x slower (§3.3) — the ablation
    knob for the layout design choice.
    """

    n_nodes: int = 11
    electrodes_per_node: int = ELECTRODES_PER_NODE
    chunked_layout: bool = True

    def cost(self, spec: QuerySpec) -> QueryCost:
        total_bytes = query_data_bytes(
            spec.time_range_ms, self.n_nodes, self.electrodes_per_node
        )
        per_node_bytes = total_bytes / self.n_nodes

        # NVM scan: nodes read their share in parallel at device bandwidth;
        # the interleaved layout pays the 10x strided-read penalty
        scan_ms = 8 * per_node_bytes / (NVMDevice.read_bandwidth_mbps() * 1e3)
        if not self.chunked_layout:
            from repro.storage.layout import (
                CHUNKED_READ_MS_PER_WINDOW,
                INTERLEAVED_READ_MS_PER_WINDOW,
            )

            scan_ms *= (
                INTERLEAVED_READ_MS_PER_WINDOW / CHUNKED_READ_MS_PER_WINDOW
            )

        # Filtering.
        n_windows_per_node = (
            spec.time_range_ms / WINDOW_MS
        ) * self.electrodes_per_node
        cc = get_pe("CCHECK")
        dtw = get_pe("DTW")
        if spec.kind == "q3":
            filter_ms = 0.0
            filter_power_mw = 0.0
        elif spec.kind == "q1":
            # flags are stored alongside windows; reading them rides the scan
            filter_ms = 0.0
            filter_power_mw = 0.0
        else:  # q2
            if spec.use_hash:
                # CCHECK handles one window-batch (all electrodes) per pass
                batches = spec.time_range_ms / WINDOW_MS
                filter_ms = batches * (cc.latency_ms or 0.5) / 10.0
                filter_power_mw = (
                    cc.static_uw
                    + cc.dyn_uw_per_electrode * self.electrodes_per_node
                ) / 1e3 + 2.0  # + hash generation for the probe template
            else:
                # exact DTW of every stored window against the template
                filter_ms = n_windows_per_node * (dtw.latency_ms or 0.003)
                filter_power_mw = (
                    dtw.static_uw
                    + dtw.dyn_uw_per_electrode * self.electrodes_per_node
                ) / 1e3 + 11.0  # run near f_max to keep the deadline

        # Transmit the matched data over the shared external radio.
        matched_bytes = total_bytes * (
            spec.match_fraction if spec.kind != "q3" else 1.0
        )
        transmit_ms = EXTERNAL_RADIO.airtime_ms(8 * matched_bytes)

        duty = transmit_ms / max(transmit_ms + scan_ms + QUERY_OVERHEAD_MS, 1e-9)
        power_mw = (
            EXTERNAL_RADIO.power_mw * duty / self.n_nodes  # per node share
            + filter_power_mw
            + 0.26  # NVM leakage
        )
        return QueryCost(scan_ms, filter_ms, transmit_ms, QUERY_OVERHEAD_MS,
                         power_mw)


@dataclass
class QueryResultRow:
    """One matched window in a functional query result."""

    node: int
    electrode: int
    window_index: int
    samples: np.ndarray


@dataclass
class DistributedQueryResult:
    """A query answer over whatever part of the fleet could respond.

    ``rows`` covers every surviving node; ``failed_nodes`` lists implants
    that were dead or errored mid-scan.  ``degraded`` and ``coverage``
    let callers distinguish "no matches" from "no data from half the
    fleet" — the paper's availability argument made explicit.
    """

    rows: list[QueryResultRow]
    queried_nodes: list[int]
    failed_nodes: list[int]

    def row_keys(self) -> list[tuple[int, int, int, bytes]]:
        """Canonical ``(node, electrode, window, sample-bytes)`` tuples.

        The stable identity of an answer: equality of two results' row
        keys is exactly "same rows, same order, same bytes" — what the
        reference-scan equivalence tests and the serving layer's
        response-log checksums compare.
        """
        return [
            (row.node, row.electrode, row.window_index, row.samples.tobytes())
            for row in self.rows
        ]

    @property
    def degraded(self) -> bool:
        return bool(self.failed_nodes)

    @property
    def coverage(self) -> float:
        total = len(self.queried_nodes) + len(self.failed_nodes)
        return len(self.queried_nodes) / total if total else 0.0


#: distinct Q2 templates whose signatures one :class:`QueryEngine` keeps
TEMPLATE_MEMO_SIZE = 64


@dataclass
class QueryEngine:
    """Functional query execution against per-node storage controllers.

    ``seizure_flags[node]`` marks windows flagged by the local detector
    (what Q1 filters on); Q2 matches stored windows against a template via
    the node's LSH (or exact DTW).

    :meth:`run` is the single entry point.  Each node is scanned as one
    batched pass (vectorised hashing/DTW, served from the storage
    controllers' hash-on-write signature cache where possible).  The
    window-at-a-time reference scan in ``tests/query_oracle.py`` is what
    it is tested against, warm and with the signatures invalidated
    (``tests/test_query_batching.py``).
    """

    controllers: list[StorageController]
    lsh: LSHFamily
    seizure_flags: dict[int, set[int]] = field(default_factory=dict)
    dtw_threshold: float = 60.0
    #: observability handle: per-node ``lookup`` spans, a ``merge`` span,
    #: and the ``query.*`` counters land here
    telemetry: TelemetryLike = field(default=NULL_TELEMETRY, repr=False)
    #: Q2 template signatures by ``(shape, float64 bytes)``: a serving
    #: pool re-sends the same few templates wave after wave
    _template_sigs: dict[tuple[tuple[int, ...], bytes], tuple[int, ...]] = (
        field(default_factory=dict, init=False, repr=False, compare=False)
    )

    def _template_signature(
        self, spec: QuerySpec, template: np.ndarray | None
    ) -> tuple[int, ...] | None:
        if spec.kind == "q2" and template is None:
            raise ConfigurationError("q2 needs a template window")
        if spec.kind != "q2" or not spec.use_hash:
            return None
        window = np.asarray(template, dtype=float)
        key = (window.shape, window.tobytes())
        signature = self._template_sigs.get(key)
        if signature is None:
            signature = self.lsh.hash_window(window)
            if len(self._template_sigs) >= TEMPLATE_MEMO_SIZE:
                # first in, first out
                del self._template_sigs[next(iter(self._template_sigs))]
            self._template_sigs[key] = signature
        return signature

    # -- per-node scans --------------------------------------------------------------

    def _scan_pairs(
        self, node: int, spec: QuerySpec, window_range: tuple[int, int]
    ) -> list[tuple[int, int]]:
        """A node's stored ``(electrode, window)`` pairs in ``[start,
        stop)``, only the seizure-flagged windows for Q1."""
        start, stop = window_range
        flags = self.seizure_flags.get(node, set())
        return [
            pair
            for pair in self.controllers[node].stored_windows()
            if start <= pair[1] < stop
            and (spec.kind != "q1" or pair[1] in flags)
        ]

    def _node_rows_batched(
        self,
        node: int,
        spec: QuerySpec,
        window_range: tuple[int, int],
        template: np.ndarray | None,
        template_sig: tuple[int, ...] | None,
    ) -> list[QueryResultRow]:
        """One batched pass over a node's in-range windows.

        Q2 hash scans consult the SC's signature cache first — a warm
        cache answers the filter from SRAM metadata alone and reads only
        the matched windows off the NVM; misses are read once and hashed
        in a single vectorised pass (per window length, since stored
        windows need not share a geometry).  Q2 DTW scans batch the DP
        over all same-length windows.  Row order (sorted
        ``(electrode, window)``) and row contents match the reference
        scan in ``tests/query_oracle.py`` exactly.
        """
        controller = self.controllers[node]
        tel = self.telemetry
        pairs = self._scan_pairs(node, spec, window_range)
        if tel.enabled:
            tel.inc("query.batch_windows", len(pairs), kind=spec.kind)
        if not pairs:
            return []

        if spec.kind == "q2" and spec.use_hash:
            signatures: dict[tuple[int, int], tuple[int, ...]] = {}
            misses: list[tuple[int, int]] = []
            for pair in pairs:
                sig = controller.window_signature(*pair)
                if sig is None:
                    misses.append(pair)
                else:
                    signatures[pair] = sig
            if tel.enabled:
                tel.inc("query.cache_hit", len(pairs) - len(misses))
                tel.inc("query.cache_miss", len(misses))
            miss_samples = dict(zip(misses, controller.read_windows(misses)))
            for group in _group_by_length(misses, miss_samples):
                batch = np.stack(
                    [miss_samples[pair] for pair in group]
                ).astype(float)
                for pair, row in zip(group, self.lsh.hash_windows(batch)):
                    signatures[pair] = tuple(int(c) for c in row)
            matched = self.lsh.matches_many(
                np.array([signatures[pair] for pair in pairs]), template_sig
            )
            pairs = [pair for pair, hit in zip(pairs, matched) if hit]
            hits = [pair for pair in pairs if pair not in miss_samples]
            samples = dict(zip(hits, controller.read_windows(hits)))
            samples.update(miss_samples)
            return [
                QueryResultRow(node, pair[0], pair[1], samples[pair])
                for pair in pairs
            ]

        samples = dict(zip(pairs, controller.read_windows(pairs)))
        if spec.kind == "q2":
            reference = np.asarray(template, dtype=float)
            costs: dict[tuple[int, int], float] = {}
            for group in _group_by_length(pairs, samples):
                batch = np.stack([samples[pair] for pair in group]).astype(
                    float
                )
                distances = dtw_rows(batch, reference, DTW_BAND)
                for pair, cost in zip(group, distances):
                    costs[pair] = float(cost)
            pairs = [pair for pair in pairs if costs[pair] <= self.dtw_threshold]
        return [
            QueryResultRow(node, pair[0], pair[1], samples[pair])
            for pair in pairs
        ]

    def _node_rows_cached(
        self,
        node: int,
        spec: QuerySpec,
        window_range: tuple[int, int],
        template_sig: tuple[int, ...] | None,
    ) -> list[QueryResultRow]:
        """Metadata-only scan: no NVM reads, rows carry empty samples.

        The brownout path (serving tier 2): Q1 answers from the
        seizure-flag metadata, Q3 from the stored-window index, and Q2
        matches **cached** signatures only — windows whose signature is
        not resident are skipped (counted as ``query.cache_skip``)
        rather than read and rehashed.  Row identity (node, electrode,
        window) is exact; sample payloads are empty, which the response
        checksum treats as zero bytes deterministically.
        """
        controller = self.controllers[node]
        tel = self.telemetry
        pairs = self._scan_pairs(node, spec, window_range)
        if tel.enabled:
            tel.inc("query.cache_only_windows", len(pairs), kind=spec.kind)
        if spec.kind == "q2":
            matched: list[tuple[int, int]] = []
            skipped = 0
            for pair in pairs:
                sig = (
                    controller.window_signature(*pair)
                    if spec.use_hash
                    else None
                )
                if sig is None:
                    skipped += 1  # not resident (or exact-DTW): unanswerable
                    continue
                if self.lsh.matches(sig, template_sig):
                    matched.append(pair)
            if tel.enabled and skipped:
                tel.inc("query.cache_skip", skipped)
            pairs = matched
        empty = np.empty(0, dtype=np.int16)
        return [
            QueryResultRow(node, pair[0], pair[1], empty) for pair in pairs
        ]

    # -- the query entry point -------------------------------------------------------

    def run(
        self,
        spec: QuerySpec,
        window_range: tuple[int, int],
        *,
        template: np.ndarray | None = None,
        dead_nodes: set[int] | None = None,
        node_traces: dict[int, TraceContext | None] | None = None,
        cache_only: bool = False,
    ) -> DistributedQueryResult:
        """Run a query over window indexes ``[start, stop)`` on all nodes.

        The single query entry point: nodes listed in ``dead_nodes``
        are skipped outright; a node whose scan errors
        mid-flight (rotted metadata, storage faults) is added to
        ``failed_nodes`` and the query proceeds — partial answers beat
        lost sessions for interactive use.  Query-spec errors (bad kind,
        missing template) still raise: they are caller bugs, not faults.

        ``cache_only=True`` selects the metadata-only degraded scan used
        by serving brownouts: row identities without sample payloads,
        answered entirely from SRAM-resident metadata (see
        :meth:`_node_rows_cached`).

        Each node's scan runs under a ``lookup`` span; ``node_traces``
        (node id -> :class:`~repro.telemetry.tracer.TraceContext`) lets a
        distributed caller parent those spans onto the trace context the
        node received on air, instead of the local span stack.
        """
        template_sig = self._template_signature(spec, template)
        dead = dead_nodes or set()
        traces = node_traces or {}
        tel = self.telemetry
        rows: list[QueryResultRow] = []
        queried: list[int] = []
        failed: list[int] = []
        for node in range(len(self.controllers)):
            if node in dead:
                failed.append(node)
                continue
            with tel.span("lookup", trace=traces.get(node), node=node,
                          kind=spec.kind) as span:
                try:
                    if cache_only:
                        node_rows = self._node_rows_cached(
                            node, spec, window_range, template_sig
                        )
                    else:
                        node_rows = self._node_rows_batched(
                            node, spec, window_range, template, template_sig
                        )
                except ScaloError:
                    failed.append(node)
                    tel.inc("query.node_failures")
                else:
                    rows.extend(node_rows)
                    queried.append(node)
                    if tel.enabled:
                        span.attrs["rows"] = len(node_rows)
        with tel.span("merge", kind=spec.kind, rows=len(rows)):
            result = DistributedQueryResult(rows, queried, failed)
        if tel.enabled:
            tel.inc("query.executed", kind=spec.kind)
            tel.inc("query.rows_returned", len(rows), kind=spec.kind)
            if result.degraded:
                tel.inc("query.degraded")
            tel.set_gauge("query.coverage", result.coverage, kind=spec.kind)
        return result


def _group_by_length(
    pairs: list[tuple[int, int]],
    samples: dict[tuple[int, int], np.ndarray],
) -> list[list[tuple[int, int]]]:
    """Partition pairs into runs of equal window length (batch geometry).

    Stored windows need not share a length; vectorised kernels require
    one.  Grouping preserves the incoming (sorted) order within a group,
    and results are keyed per pair, so output order never depends on the
    grouping.
    """
    groups: dict[int, list[tuple[int, int]]] = {}
    for pair in pairs:
        groups.setdefault(samples[pair].shape[0], []).append(pair)
    return list(groups.values())
