"""Unit conventions and paper-wide constants of the SCALO reproduction.

The paper mixes units freely (mW, uW, ms, Mbps, KGE ...).  To keep the code
honest, every quantity in this code base carries its unit in the variable or
field name (``power_mw``, ``latency_ms``, ``rate_mbps``).  This module
collects the paper-wide constants, so that magic numbers appear exactly
once, and the paper's throughput metric, :func:`electrodes_to_mbps`.
"""

from __future__ import annotations

# --- electrode / ADC constants (paper §5, "Experimental setup") -------------

#: ADC sampling rate per electrode (Hz).
ADC_SAMPLE_RATE_HZ = 30_000

#: ADC resolution (bits per sample).
ADC_BITS_PER_SAMPLE = 16

#: Raw data rate of one electrode channel (bits/second): 30 kHz x 16 bit.
ELECTRODE_RATE_BPS = ADC_SAMPLE_RATE_HZ * ADC_BITS_PER_SAMPLE  # 480_000

#: Standard electrode array size per implant (Utah array).
ELECTRODES_PER_NODE = 96

#: ADC power for one sample from all 96 electrodes (paper: 2.88 mW).
ADC_POWER_MW_96 = 2.88

#: ADC power per electrode channel (mW).
ADC_POWER_MW_PER_ELECTRODE = ADC_POWER_MW_96 / ELECTRODES_PER_NODE

#: DAC (stimulation) power draw when stimulating (mW).
DAC_POWER_MW = 0.6

#: Conservative per-implant power cap (mW), paper §2.1/§5.
NODE_POWER_CAP_MW = 15.0

# --- window constants (paper §5) --------------------------------------------

#: Seizure-analysis window length in samples (4 ms at 30 kHz).
WINDOW_SAMPLES = 120

#: Seizure-analysis window length (ms).
WINDOW_MS = 4.0

#: Hash size for a 4 ms window (bits): "an 8-bit hash for a 4 ms signal".
HASH_BITS_PER_WINDOW = 8

#: Bytes of one raw signal window (120 samples x 16 bit).
WINDOW_BYTES = WINDOW_SAMPLES * ADC_BITS_PER_SAMPLE // 8  # 240

#: Simulated ms per TDMA round of a fault plan: the cadence at which the
#: fault injector steps a plan and the health engine samples the registry.
ROUND_MS = 50.0

# --- throughput metric -------------------------------------------------------


def electrodes_to_mbps(n_electrodes: float) -> float:
    """Aggregate neural-interfacing rate of ``n_electrodes`` channels (Mbps).

    This is the paper's throughput metric: electrodes processed times the
    480 kbps raw rate of one channel.
    """
    return n_electrodes * ELECTRODE_RATE_BPS / 1e6
