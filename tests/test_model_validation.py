"""The scheduler's airtime row is the radio's one-packet TDMA slot.

Figs. 8-9 take their airtime from the :func:`build_constraints` row,
``airtime_slope_ms * e + airtime_fixed_ms`` per burst, while ARQ, the
network and the TDMA frame charge :meth:`TDMAConfig.slot_ms`.  Wherever a
burst fits one packet the two formulas must give the same time.
"""

import pytest

from repro.network.packet import MAX_PAYLOAD_BYTES
from repro.network.tdma import TDMAConfig
from repro.scheduler.constraints import build_constraints
from repro.scheduler.ilp import Flow
from repro.scheduler.model import (
    dtw_similarity_task,
    hash_similarity_task,
    mi_kf_task,
    mi_svm_task,
)
from repro.units import NODE_POWER_CAP_MW

#: Every task builder whose burst can fit one packet.  The others have
#: ``comm == "none"`` and book no airtime, or (``mi_nn``, 1 024 B per
#: node) always send several packets.
SENDING_TASKS = {
    "hash_all_all": lambda: hash_similarity_task("all_all"),
    "hash_one_all": lambda: hash_similarity_task("one_all"),
    "dtw_all_all": lambda: dtw_similarity_task("all_all"),
    "dtw_one_all": lambda: dtw_similarity_task("one_all"),
    "mi_svm": mi_svm_task,
    "mi_kf": mi_kf_task,
}

#: Electrode counts checked per task: up to the most one packet of hashes
#: (0.5 B per electrode) can carry.
ELECTRODES = range(0, 2 * MAX_PAYLOAD_BYTES + 1)


def _one_packet_points(task):
    """``(electrodes, payload bytes)`` for every burst that fits a packet."""
    return [
        (e, payload)
        for e in ELECTRODES
        if (payload := task.wire_bytes_per_electrode * e
            + task.wire_bytes_fixed) <= MAX_PAYLOAD_BYTES
    ]


@pytest.mark.parametrize("name", sorted(SENDING_TASKS))
def test_one_packet_burst_costs_one_slot(name):
    task = SENDING_TASKS[name]()
    tdma = TDMAConfig()
    (row,) = build_constraints(4, [Flow(task)], NODE_POWER_CAP_MW, tdma).rows
    points = _one_packet_points(task)
    assert points
    for e, payload in points:
        assert row.airtime_slope_ms * e + row.airtime_fixed_ms == (
            pytest.approx(tdma.slot_ms(payload), rel=1e-12, abs=0.0)
        ), (e, payload)
