"""Telemetry offload: HALO's compress-encrypt-transmit path on SCALO.

Streams a synthetic recording off-implant through each codec PE (LIC /
LZ / Markov-range-coding), AES-CTR encrypts it, packetises it for the
46 Mbps external radio, and verifies the base station recovers the
samples bit-exactly.

Run:  python examples/telemetry_offload.py
"""

import numpy as np

from repro.apps.streaming import (
    Codec,
    TelemetryOffloader,
    TelemetryReceiver,
    offload_budget,
)
from repro.datasets.synthetic_ieeg import generate_ieeg

KEY = bytes.fromhex("000102030405060708090a0b0c0d0e0f")


def main() -> None:
    recording = generate_ieeg(
        n_nodes=1, n_electrodes=2, duration_s=0.5, fs_hz=10_000,
        n_seizures=1, seizure_duration_s=0.15, seed=4,
    )
    # quantise one channel the way the 16-bit ADC would
    samples = np.clip(
        np.round(recording.data[0, 0] * 1000), -32768, 32767
    ).astype(np.int64)
    raw_bytes = 2 * samples.shape[0]
    print(f"offloading {samples.shape[0]} samples ({raw_bytes} B raw) "
          "through each codec PE:\n")

    print(f"{'codec':>6s}{'wire B':>9s}{'ratio':>8s}{'packets':>9s}"
          f"{'airtime':>10s}{'roundtrip':>11s}")
    for codec in Codec:
        offloader = TelemetryOffloader(KEY, codec)
        receiver = TelemetryReceiver(KEY)
        chunk = offloader.offload(samples)
        recovered = receiver.receive(chunk)
        exact = bool((recovered == samples).all())
        print(f"{codec.value:>6s}{chunk.wire_bytes:9d}"
              f"{raw_bytes / chunk.wire_bytes:8.2f}"
              f"{len(chunk.packets):9d}"
              f"{offloader.airtime_ms(chunk):8.2f}ms"
              f"{'bit-exact' if exact else 'FAILED':>11s}")

    print("\nsustainable electrode counts on the 46 Mbps external radio:")
    for ratio in (1.0, 1.5, 2.0):
        print(f"  compression {ratio:.1f}x -> "
              f"{offload_budget(ratio):.0f} electrodes "
              f"({offload_budget(ratio) / 96:.1f} implants' worth)")
    print("(HALO's headline 46 Mbps = 96 electrodes uncompressed)")


if __name__ == "__main__":
    main()
