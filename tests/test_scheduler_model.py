"""Tests for the task cost models.

A :class:`TaskModel` is a record; the arithmetic over its coefficients
lives in :class:`~repro.scheduler.constraints.FlowRow` and the
constraint builder, so the cost tests below go through them.
"""

import dataclasses

import pytest

from repro.errors import ConfigurationError
from repro.network.packet import PACKET_OVERHEAD_BITS
from repro.network.tdma import TDMAConfig
from repro.scheduler.constraints import _power_cap
from repro.scheduler.ilp import Flow, SchedulerProblem
from repro.scheduler.model import (
    PAIR_NORM,
    TaskModel,
    dtw_similarity_task,
    hash_similarity_task,
    mi_kf_task,
    mi_nn_task,
    mi_svm_task,
    seizure_detection_task,
    spike_sorting_task,
)
from repro.storage.nvm import LEAKAGE_MW

ALL_TASKS = (
    seizure_detection_task,
    spike_sorting_task,
    lambda: hash_similarity_task("all_all"),
    lambda: hash_similarity_task("one_all"),
    lambda: dtw_similarity_task("all_all"),
    lambda: dtw_similarity_task("one_all"),
    mi_svm_task,
    mi_nn_task,
    mi_kf_task,
)


def _constraints(task, n_nodes=1, power_mw=15.0):
    return SchedulerProblem(n_nodes, [Flow(task)], power_mw).constraints()


def _row(task, n_nodes=1):
    return _constraints(task, n_nodes).rows[0]


class TestTaskModel:
    def test_static_includes_nvm_leakage_when_used(self):
        with_nvm = spike_sorting_task()
        without = dataclasses.replace(with_nvm, uses_nvm=False)
        base = TaskModel("t", ("NEO",), 1.0)
        static = _constraints(with_nvm).static_mw
        assert static - _constraints(without).static_mw == pytest.approx(
            LEAKAGE_MW
        )
        assert static > _constraints(base).static_mw

    def test_dynamic_linear(self):
        task = TaskModel("t", ("NEO",), dyn_uw_per_electrode=10.0)
        assert _row(task).dynamic_mw(100) == pytest.approx(1.0)

    def test_dynamic_quadratic_term(self):
        task = TaskModel("t", ("XCOR",), 0.0, pairwise_uw=PAIR_NORM)
        assert _row(task).dynamic_mw(100) == pytest.approx(100 * 100 / 1e3)

    def test_power_inversion_roundtrip(self):
        """``_power_cap`` inverts ``FlowRow.dynamic_mw`` for every paper
        task, at linear share 1 and 1/N."""
        for task_factory in ALL_TASKS:
            task = task_factory()
            for share in (1.0, 1.0 / 8):
                row = dataclasses.replace(_row(task), linear_share=share)
                for budget in (2.0, 5.0, 10.0):
                    electrodes = _power_cap(task, budget, share)
                    assert row.dynamic_mw(electrodes) == pytest.approx(
                        budget, rel=1e-12
                    ), (task.name, share, budget)

    def test_wire_bytes(self):
        task = TaskModel("t", ("NEO",), 1.0, comm="one_all",
                         wire_bytes_per_electrode=2.0, wire_bytes_fixed=10.0)
        tdma = TDMAConfig()
        rate_bits_per_ms = tdma.radio.data_rate_mbps * 1e3
        # 5 electrodes x 2 B + 10 B fixed = 20 B in one one-to-all burst
        expected = (
            (PACKET_OVERHEAD_BITS + 8 * 20.0) / rate_bits_per_ms
            + tdma.guard_ms
        )
        assert _row(task).airtime_ms(5) == pytest.approx(expected)

    def test_bad_comm_rejected(self):
        with pytest.raises(ConfigurationError):
            TaskModel("t", ("NEO",), 1.0, comm="gossip")

    def test_negative_power_rejected(self):
        with pytest.raises(ConfigurationError):
            TaskModel("t", ("NEO",), -1.0)


class TestPaperTasks:
    def test_detection_is_pairwise(self):
        assert seizure_detection_task().pairwise_uw > 0

    def test_sorting_is_linear(self):
        assert spike_sorting_task().pairwise_uw == 0

    def test_hash_task_ships_less_than_dtw_task(self):
        """Hashes are ~100x smaller than raw signal windows."""
        hash_task = hash_similarity_task()
        dtw_task = dtw_similarity_task()
        assert (
            dtw_task.wire_bytes_per_electrode
            > 100 * hash_task.wire_bytes_per_electrode
        )

    def test_mi_svm_ships_4_bytes_fixed(self):
        task = mi_svm_task()
        assert task.wire_bytes_fixed == 4.0
        assert task.wire_bytes_per_electrode == 0.0

    def test_mi_nn_ships_1024_bytes(self):
        assert mi_nn_task().wire_bytes_fixed == 1024.0

    def test_mi_kf_ships_per_electrode_and_centralises(self):
        task = mi_kf_task()
        assert task.wire_bytes_per_electrode == 4.0
        assert task.centralised

    def test_mi_svm_slightly_cheaper_than_hash(self):
        """Paper §6.2: MI-SVM processes ~3 % more electrodes than hashing."""
        svm = mi_svm_task().dyn_uw_per_electrode
        hash_cost = hash_similarity_task().dyn_uw_per_electrode
        assert svm < hash_cost
        assert svm > 0.85 * hash_cost

    def test_nvm_utilisation_scales(self):
        task = spike_sorting_task()
        cs = _constraints(task)
        assert cs.rows[0].nvm_per_ms == pytest.approx(
            task.nvm_bytes_per_electrode_period / task.period_ms
        )
