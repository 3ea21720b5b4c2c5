"""ILP scheduling: task models, LP solver, materialisation."""

from repro.scheduler.codegen import emit_all_nodes, emit_config_program
from repro.scheduler.constraints import (
    NETWORK_UTILISATION_CAP,
    ConstraintSystem,
    FlowRow,
    build_constraints,
)
from repro.scheduler.dataflow import OPERATOR_PES, DataflowGraph, Operator
from repro.scheduler.ilp import (
    Flow,
    FlowAllocation,
    Schedule,
    SchedulerProblem,
    max_throughput_mbps,
)
from repro.scheduler.model import (
    HASH_COMPRESSION_RATIO,
    MI_KF_NVM_BYTES_PER_E2,
    MOVEMENT_PERIOD_MS,
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
from repro.scheduler.schedule import (
    MaterialisedSchedule,
    clock_divider_for_load,
    materialise,
)

__all__ = [
    "ConstraintSystem",
    "FlowRow",
    "NETWORK_UTILISATION_CAP",
    "build_constraints",
    "emit_all_nodes",
    "emit_config_program",
    "OPERATOR_PES",
    "DataflowGraph",
    "Operator",
    "Flow",
    "FlowAllocation",
    "Schedule",
    "SchedulerProblem",
    "max_throughput_mbps",
    "HASH_COMPRESSION_RATIO",
    "MI_KF_NVM_BYTES_PER_E2",
    "MOVEMENT_PERIOD_MS",
    "PAIR_NORM",
    "TaskModel",
    "dtw_similarity_task",
    "hash_similarity_task",
    "mi_kf_task",
    "mi_nn_task",
    "mi_svm_task",
    "seizure_detection_task",
    "spike_sorting_task",
    "MaterialisedSchedule",
    "clock_divider_for_load",
    "materialise",
]
