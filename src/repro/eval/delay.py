"""Fig. 15: seizure-propagation delay under hash and network errors.

Monte-Carlo over the distributed protocol with a precomputed *trace*:
one clean simulation pass records, per window, which nodes detect the
seizure and which (source, destination) electrode pairs would collide
and DTW-confirm.  Each Monte-Carlo repetition then replays the trace
under an error process:

* **encoding errors** (Fig. 15a): every electrode hash independently
  encodes to garbage with probability ``e``.  A true match survives only
  if both endpoint hashes encode correctly; corrupted hashes can still
  collide *randomly* (8-bit space), and during a correlated seizure the
  ensuing exact comparison confirms anyway — the bias-to-false-positive
  design that keeps delays bounded even at high error rates.
* **network errors** (Fig. 15b): one packet carries all of a node's
  hashes, so a CRC failure loses the whole round; the sender retransmits
  in its next TDMA slot.

Delay is the first confirmation's lateness versus the clean run.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.apps.seizure import (
    SeizurePropagationSimulator,
    train_detector_from_recording,
)
from repro.datasets.synthetic_ieeg import generate_ieeg
from repro.hashing.collision import HASH_HORIZON_MS
from repro.hashing.lsh import LSHFamily
from repro.network.packet import PACKET_OVERHEAD_BITS
from repro.units import ELECTRODES_PER_NODE, WINDOW_SAMPLES

#: Hash-encoding error rates on the Fig. 15a x-axis.
ENCODING_ERROR_RATES = (0.0, 0.2, 0.4, 0.6, 0.8, 1.0)

#: Network BERs on the Fig. 15b x-axis.
NETWORK_BERS = (1e-6, 1e-5, 1e-4)

#: The clean two-node run behind both sweeps: electrodes per node and
#: seizure length (s).
TRACE_ELECTRODES = 8
TRACE_SEIZURE_S = 0.4

#: HCOMP-compressed bytes per electrode hash on the wire (§6.7).
WIRE_HASH_BYTES = 1


@dataclass
class PropagationTrace:
    """The clean run's per-window protocol state."""

    window_ms: float
    n_electrodes: int
    hash_bits: int
    n_components: int
    min_matching: int
    #: windows (in order) where the source detects and a true
    #: hash-collision + DTW confirmation exists at the destination
    confirm_windows: list[int]
    #: per confirm window: how many independent electrode matches exist
    match_multiplicity: dict[int, int]
    #: stored hashes the destination holds per check (for the random-
    #: collision probability)
    store_size: int
    hash_packet_bits: int


def build_trace(seed: int = 0) -> PropagationTrace:
    """Run the clean two-node simulation once and extract the trace."""
    recording = generate_ieeg(
        n_nodes=2,
        n_electrodes=TRACE_ELECTRODES,
        duration_s=1.5,
        fs_hz=6000,
        n_seizures=1,
        seizure_duration_s=TRACE_SEIZURE_S,
        propagation_delay_ms=(20.0, 60.0),
        seed=seed,
    )
    detector = train_detector_from_recording(
        recording, max_windows_per_node=200, seed=seed
    )
    lsh = LSHFamily.for_measure("dtw")
    result = SeizurePropagationSimulator(
        recording, detector, lsh, dtw_threshold=250.0
    ).run()

    window_ms = WINDOW_SAMPLES * 1e3 / recording.fs_hz
    confirm_windows = sorted(
        {event.window_index for event in result.confirmations}
    )
    multiplicity: dict[int, int] = {}
    for event in result.confirmations:
        multiplicity[event.window_index] = (
            multiplicity.get(event.window_index, 0) + event.n_collisions
        )
    horizon_windows = int(HASH_HORIZON_MS / window_ms)
    payload_bytes = TRACE_ELECTRODES * lsh.config.hash_bytes
    return PropagationTrace(
        window_ms=window_ms,
        n_electrodes=TRACE_ELECTRODES,
        hash_bits=lsh.config.bits,
        n_components=lsh.config.n_components,
        min_matching=lsh.config.min_matching,
        confirm_windows=confirm_windows,
        match_multiplicity=multiplicity,
        store_size=horizon_windows * TRACE_ELECTRODES,
        hash_packet_bits=PACKET_OVERHEAD_BITS + 8 * payload_bytes,
    )


@dataclass
class DelayStats:
    """Delay distribution over Monte-Carlo repetitions (ms)."""

    mean_ms: float
    max_ms: float
    min_ms: float


def _random_collision_prob(trace: PropagationTrace) -> float:
    """Probability a garbage signature collides with *some* stored hash.

    A match needs ``min_matching`` of ``n_components`` components equal;
    for a uniformly-random signature each component agrees w.p.
    ``2^-bits``, so the per-pair probability is a binomial tail — tiny
    for the default 7-of-12 x 4-bit configuration (the price of the
    selectivity that keeps Fig. 11 errors low).
    """
    from math import comb

    p = 2.0 ** -trace.hash_bits
    k = trace.n_components
    m = trace.min_matching
    per_pair = sum(
        comb(k, j) * p**j * (1 - p) ** (k - j) for j in range(m, k + 1)
    )
    return 1.0 - (1.0 - per_pair) ** trace.store_size


def encoding_delay(
    trace: PropagationTrace,
    error_rate: float,
    n_reps: int = 200,
    seed: int = 0,
) -> DelayStats:
    """Fig. 15a: delay distribution at one hash-encoding error rate."""
    if not trace.confirm_windows:
        raise ValueError("trace has no confirmations to delay")
    rng = np.random.default_rng(seed)
    p_random = _random_collision_prob(trace)
    baseline = trace.confirm_windows[0]
    delays = np.empty(n_reps)
    for rep in range(n_reps):
        confirmed_at = None
        for w in trace.confirm_windows:
            k = trace.match_multiplicity.get(w, 1)
            # each true electrode match survives if both endpoint hashes
            # encoded correctly
            survive = rng.random(k) < (1.0 - error_rate) ** 2
            if survive.any():
                confirmed_at = w
                break
            # corrupted hashes may still randomly collide; the exact
            # comparison then confirms (both sites are mid-seizure)
            n_corrupted = rng.binomial(trace.n_electrodes, error_rate)
            if n_corrupted and rng.random() < 1.0 - (1.0 - p_random) ** n_corrupted:
                confirmed_at = w
                break
        if confirmed_at is None:
            confirmed_at = trace.confirm_windows[-1] + 1
        # the application gives up at the 10 ms response deadline and
        # falls back to the next detection round — cap the reported delay
        delays[rep] = min((confirmed_at - baseline) * trace.window_ms, 10.0)
    return DelayStats(float(delays.mean()), float(delays.max()),
                      float(delays.min()))


def network_delay(
    trace: PropagationTrace, ber: float, n_reps: int = 200, seed: int = 0
) -> DelayStats:
    """Fig. 15b: delay distribution at one network BER.

    A lost hash packet costs one retransmission slot; losses repeat
    geometrically until a packet survives.  Packet sizing uses the
    deployment scale (96 electrodes at 1 B of HCOMP-compressed hash
    each — all of a node's hashes travel in one packet, paper §6.7).
    """
    rng = np.random.default_rng(seed)
    packet_bits = PACKET_OVERHEAD_BITS + 8 * ELECTRODES_PER_NODE * WIRE_HASH_BYTES
    p_loss = 1.0 - (1.0 - ber) ** packet_bits
    slot_airtime_ms = packet_bits / 7e3  # 7 Mbps radio
    delays = np.empty(n_reps)
    for rep in range(n_reps):
        losses = 0
        while rng.random() < p_loss:
            losses += 1
            if losses * slot_airtime_ms > 10.0:  # response deadline
                break
        delays[rep] = losses * slot_airtime_ms
    return DelayStats(float(delays.mean()), float(delays.max()),
                      float(delays.min()))


@dataclass
class Fig15Result:
    """Both sweeps."""

    encoding: dict[float, DelayStats] = field(init=False, default_factory=dict)
    network: dict[float, DelayStats] = field(init=False, default_factory=dict)


def fig15(n_reps: int = 200) -> Fig15Result:
    """Run both Fig. 15 sweeps on a shared trace (seed 0)."""
    trace = build_trace()
    result = Fig15Result()
    for rate in ENCODING_ERROR_RATES:
        result.encoding[rate] = encoding_delay(trace, rate, n_reps, 1)
    for ber in NETWORK_BERS:
        result.network[ber] = network_delay(trace, ber, n_reps, 2)
    return result
