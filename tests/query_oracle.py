"""Reference query scan: one read and one hash or DTW per stored window.

The definition :meth:`repro.apps.queries.QueryEngine.run` must reproduce
row for row.  It walks each node's stored windows in index order, reads
every candidate off the NVM, and filters it with the scalar references:
:func:`tests.minhash_oracle.oracle_hash_window` for Q2 hash and the
per-pair :func:`tests.dtw_oracle.dtw_distance` for Q2 DTW.  It never
consults the signature cache or a batched kernel, so it does not call
the code it checks.  Slow by design; used only by tests and benchmarks.
"""

from __future__ import annotations

import numpy as np

from repro.apps import queries
from repro.apps.queries import (
    DistributedQueryResult,
    QueryEngine,
    QueryResultRow,
    QuerySpec,
)
from repro.errors import ConfigurationError, ScaloError
from tests.dtw_oracle import dtw_distance
from tests.minhash_oracle import oracle_hash_window


def _node_rows(
    engine: QueryEngine,
    node: int,
    spec: QuerySpec,
    window_range: tuple[int, int],
    template: np.ndarray | None,
    template_sig: tuple[int, ...] | None,
) -> list[QueryResultRow]:
    start, stop = window_range
    controller = engine.controllers[node]
    flags = engine.seizure_flags.get(node, set())
    rows: list[QueryResultRow] = []
    for electrode, window_index in controller.stored_windows():
        if not start <= window_index < stop:
            continue
        if spec.kind == "q1" and window_index not in flags:
            continue
        samples = controller.read_window(electrode, window_index)
        if spec.kind == "q2":
            if spec.use_hash:
                sig = oracle_hash_window(engine.lsh, samples.astype(float))
                if not engine.lsh.matches(sig, template_sig):
                    continue
            elif dtw_distance(
                samples.astype(float), template, queries.DTW_BAND
            ) > engine.dtw_threshold:
                continue
        rows.append(QueryResultRow(node, electrode, window_index, samples))
    return rows


def oracle_run(
    engine: QueryEngine,
    spec: QuerySpec,
    window_range: tuple[int, int],
    *,
    template: np.ndarray | None = None,
    dead_nodes: set[int] | None = None,
) -> DistributedQueryResult:
    """What ``engine.run(spec, window_range, ...)`` must return.

    Dead nodes are skipped and a node whose scan raises a
    :class:`~repro.errors.ScaloError` is reported failed, as in the
    engine; only the engine's fleet, flags, hash family and DTW settings
    are used.
    """
    if spec.kind == "q2" and template is None:
        raise ConfigurationError("q2 needs a template window")
    template_sig = None
    if spec.kind == "q2" and spec.use_hash:
        template_sig = oracle_hash_window(engine.lsh, template)
    dead = dead_nodes or set()
    rows: list[QueryResultRow] = []
    queried: list[int] = []
    failed: list[int] = []
    for node in range(len(engine.controllers)):
        if node in dead:
            failed.append(node)
            continue
        try:
            node_rows = _node_rows(
                engine, node, spec, window_range, template, template_sig
            )
        except ScaloError:
            failed.append(node)
        else:
            rows.extend(node_rows)
            queried.append(node)
    return DistributedQueryResult(rows, queried, failed)
