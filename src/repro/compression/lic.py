"""Linear integer coding of sample streams (the LIC PE).

Neural samples are smooth: consecutive 16-bit ADC values differ by small
amounts.  LIC exploits this with a linear predictor (delta or
second-order), zig-zag mapping of the signed residuals, and Golomb-Rice
coding with a per-block tuned Rice parameter — the standard low-power
integer compressor for telemetry.

Wire format::

    u32  number of samples
    u8   predictor order (1 or 2)
    then per 256-sample block: u8 rice parameter k, bit-packed residuals
"""

from __future__ import annotations

import numpy as np

from repro.compression.bitstream import BitReader, BitWriter
from repro.errors import ConfigurationError

BLOCK_SAMPLES = 256


def zigzag(values: np.ndarray) -> np.ndarray:
    """Map signed to unsigned: 0,-1,1,-2,2 ... -> 0,1,2,3,4 ..."""
    values = np.asarray(values, dtype=np.int64)
    return np.where(values >= 0, 2 * values, -2 * values - 1).astype(np.int64)


def unzigzag(values: np.ndarray) -> np.ndarray:
    values = np.asarray(values, dtype=np.int64)
    return np.where(values % 2 == 0, values // 2, -(values + 1) // 2)


def _predict_residuals(samples: np.ndarray, order: int) -> np.ndarray:
    if order == 1:
        residuals = np.diff(samples, prepend=0)
    elif order == 2:
        prediction = np.zeros_like(samples)
        if samples.shape[0] >= 2:
            prediction[1] = samples[0]
        if samples.shape[0] >= 3:
            prediction[2:] = 2 * samples[1:-1] - samples[:-2]
        residuals = samples - prediction
    else:
        raise ConfigurationError("predictor order must be 1 or 2")
    return residuals


def _unpredict(residuals: np.ndarray, order: int) -> np.ndarray:
    samples = np.zeros_like(residuals)
    if order == 1:
        samples = np.cumsum(residuals)
    else:
        for i, r in enumerate(residuals):
            if i == 0:
                samples[i] = r
            elif i == 1:
                samples[i] = samples[0] + r
            else:
                samples[i] = 2 * samples[i - 1] - samples[i - 2] + r
    return samples


def _best_rice_k(values: np.ndarray) -> int:
    """Rice parameter minimising the coded length (mean-based heuristic)."""
    mean = float(values.mean()) if values.size else 0.0
    k = 0
    while (1 << (k + 1)) < mean + 1 and k < 30:
        k += 1
    return k


def _rice_encode(writer: BitWriter, value: int, k: int) -> None:
    quotient = value >> k
    if quotient > 512:
        # escape: long unary would explode; emit 513 zeros then 32-bit raw
        writer.write_unary(513)
        writer.write_bits(value, 32)
        return
    writer.write_unary(quotient)
    if k:
        writer.write_bits(value & ((1 << k) - 1), k)


def _rice_decode(reader: BitReader, k: int) -> int:
    quotient = reader.read_unary()
    if quotient == 513:
        return reader.read_bits(32)
    value = quotient << k
    if k:
        value |= reader.read_bits(k)
    return value


def lic_compress(samples: np.ndarray, order: int = 2) -> bytes:
    """Compress a 1-D int stream (16-bit ADC samples or features)."""
    samples = np.asarray(samples, dtype=np.int64)
    if samples.ndim != 1:
        raise ConfigurationError("LIC expects a 1-D sample stream")
    residuals = zigzag(_predict_residuals(samples, order))

    writer = BitWriter()
    ks: list[int] = []
    for start in range(0, residuals.shape[0], BLOCK_SAMPLES):
        block = residuals[start : start + BLOCK_SAMPLES]
        k = _best_rice_k(block)
        ks.append(k)
        for value in block:
            _rice_encode(writer, int(value), k)
    payload = writer.to_bytes()

    header = (
        samples.shape[0].to_bytes(4, "little")
        + bytes([order])
        + len(ks).to_bytes(2, "little")
        + bytes(ks)
        + writer.bit_length.to_bytes(4, "little")
    )
    return header + payload


def lic_decompress(blob: bytes) -> np.ndarray:
    """Inverse of :func:`lic_compress`."""
    if len(blob) < 11:
        raise ConfigurationError("truncated LIC blob")
    n_samples = int.from_bytes(blob[:4], "little")
    order = blob[4]
    n_blocks = int.from_bytes(blob[5:7], "little")
    ks = list(blob[7 : 7 + n_blocks])
    offset = 7 + n_blocks
    bit_length = int.from_bytes(blob[offset : offset + 4], "little")
    reader = BitReader(blob[offset + 4 :], bit_length)

    residuals = np.empty(n_samples, dtype=np.int64)
    index = 0
    for block_index in range(n_blocks):
        k = ks[block_index]
        block_len = min(BLOCK_SAMPLES, n_samples - index)
        for _ in range(block_len):
            residuals[index] = _rice_decode(reader, k)
            index += 1
    return _unpredict(unzigzag(residuals), order)
