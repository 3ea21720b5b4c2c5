"""Range coding with an adaptive Markov model (the RC and MA PEs).

HALO's bulk-offload compression suite includes a range coder (RC) fed by
a Markov-chain context model (MA): each byte is coded under an adaptive
frequency table conditioned on the previous byte, which captures the
strong sample-to-sample correlation of neural data.

The implementation is a classic 32-bit renormalising range coder
(Subbotin style) with per-context adaptive byte frequencies.  Order-0
(single shared context) and order-1 (previous byte as context) models
are supported; the MA PE corresponds to order-1.
"""

from __future__ import annotations

from repro.errors import ConfigurationError

_TOP = 1 << 24
_BOTTOM = 1 << 16

#: Halve all frequencies when a context's total reaches this (adaptivity).
_MAX_TOTAL = _BOTTOM - 256
#: What one coded symbol adds to its context's frequency.
_INCREMENT = 32


class _Model:
    """Adaptive per-context byte frequencies."""

    def __init__(self, order: int):
        if order not in (0, 1):
            raise ConfigurationError("model order must be 0 or 1")
        self.order = order
        self._contexts: dict[int, list[int]] = {}

    def frequencies(self, context: int) -> list[int]:
        key = context if self.order else 0
        table = self._contexts.get(key)
        if table is None:
            table = [1] * 256
            self._contexts[key] = table
        return table

    def update(self, context: int, symbol: int) -> None:
        table = self.frequencies(context)
        table[symbol] += _INCREMENT
        if sum(table) >= _MAX_TOTAL:
            for i in range(256):
                table[i] = (table[i] + 1) >> 1


class RangeEncoder:
    """Streaming range encoder."""

    def __init__(self) -> None:
        self._low = 0
        self._range = 0xFFFFFFFF
        self._output = bytearray()

    def encode(self, cum_freq: int, freq: int, total: int) -> None:
        self._range //= total
        self._low += cum_freq * self._range
        self._range *= freq
        self._normalise()

    def _normalise(self) -> None:
        while True:
            if (self._low ^ (self._low + self._range)) < _TOP:
                pass
            elif self._range < _BOTTOM:
                self._range = (-self._low) & (_BOTTOM - 1)
            else:
                break
            self._output.append((self._low >> 24) & 0xFF)
            self._low = (self._low << 8) & 0xFFFFFFFF
            self._range = (self._range << 8) & 0xFFFFFFFF

    def finish(self) -> bytes:
        for _ in range(4):
            self._output.append((self._low >> 24) & 0xFF)
            self._low = (self._low << 8) & 0xFFFFFFFF
        return bytes(self._output)


class RangeDecoder:
    """Streaming range decoder (mirrors :class:`RangeEncoder`)."""

    def __init__(self, data: bytes):
        self._data = data
        self._pos = 0
        self._low = 0
        self._range = 0xFFFFFFFF
        self._code = 0
        for _ in range(4):
            self._code = ((self._code << 8) | self._next_byte()) & 0xFFFFFFFF

    def _next_byte(self) -> int:
        byte = self._data[self._pos] if self._pos < len(self._data) else 0
        self._pos += 1
        return byte

    def decode_target(self, total: int) -> int:
        self._range //= total
        return min(total - 1, (self._code - self._low) // self._range)

    def advance(self, cum_freq: int, freq: int) -> None:
        self._low += cum_freq * self._range
        self._range *= freq
        while True:
            if (self._low ^ (self._low + self._range)) < _TOP:
                pass
            elif self._range < _BOTTOM:
                self._range = (-self._low) & (_BOTTOM - 1)
            else:
                break
            self._code = ((self._code << 8) | self._next_byte()) & 0xFFFFFFFF
            self._low = (self._low << 8) & 0xFFFFFFFF
            self._range = (self._range << 8) & 0xFFFFFFFF


def rc_compress(data: bytes, order: int = 1) -> bytes:
    """Compress with the adaptive Markov-context range coder.

    Args:
        data: bytes to compress.
        order: 0 for a single adaptive table, 1 for previous-byte
            contexts (the MA PE's configuration).
    """
    model = _Model(order)
    encoder = RangeEncoder()
    context = 0
    for symbol in data:
        table = model.frequencies(context)
        total = sum(table)
        cum = sum(table[:symbol])
        encoder.encode(cum, table[symbol], total)
        model.update(context, symbol)
        context = symbol
    payload = encoder.finish()
    header = len(data).to_bytes(4, "little") + bytes([order])
    return header + payload


def rc_decompress(blob: bytes) -> bytes:
    """Inverse of :func:`rc_compress`."""
    if len(blob) < 5:
        raise ConfigurationError("truncated RC blob")
    n_symbols = int.from_bytes(blob[:4], "little")
    order = blob[4]
    model = _Model(order)
    decoder = RangeDecoder(blob[5:])
    out = bytearray()
    context = 0
    for _ in range(n_symbols):
        table = model.frequencies(context)
        total = sum(table)
        target = decoder.decode_target(total)
        cum = 0
        symbol = 0
        for symbol in range(256):  # noqa: B007 - symbol used after loop
            if cum + table[symbol] > target:
                break
            cum += table[symbol]
        decoder.advance(cum, table[symbol])
        model.update(context, symbol)
        out.append(symbol)
        context = symbol
    return bytes(out)
