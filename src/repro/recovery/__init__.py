"""Crash-consistent recovery for the implant fleet.

Four cooperating pieces (each in its own module):

* :mod:`repro.recovery.ecc` — SECDED Hamming ECC + per-page CRC for the
  NVM, so reads verify instead of silently returning rotted bytes.
* :mod:`repro.recovery.journal` — a CRC-framed write-ahead journal with
  an atomic double-buffered checkpoint; a crash at any simulated-time
  cut point replays to a consistent prefix.
* :mod:`repro.recovery.scrub` — a background scrubber that spends a
  TDMA-round page budget correcting single-bit rot before it compounds.
* :mod:`repro.recovery.resync` — bounded anti-entropy that a rebooted
  node runs to fetch hash batches broadcast while it was down.
* :mod:`repro.recovery.failover` — deterministic coordinator failover
  to the lowest-id alive node, re-materialising query state from a
  replicated checkpoint.
"""
