"""Reference AES-128 inverse cipher: what undoes :func:`encrypt_block`.

The implant only encrypts (CTR mode needs the forward cipher alone), so
the FIPS-197 inverse cipher lives here, where the block round-trip tests
use it: :func:`decrypt_block` must invert
:func:`repro.crypto.aes.encrypt_block` for every key and block.
"""

from __future__ import annotations

from repro.crypto import aes

_INV_SBOX = [0] * 256
for _value, _substitute in enumerate(aes._SBOX):
    _INV_SBOX[_substitute] = _value


def _inv_shift_rows(state: list[int]) -> None:
    for r in range(1, 4):
        row = [state[4 * c + r] for c in range(4)]
        row = row[-r:] + row[:-r]
        for c in range(4):
            state[4 * c + r] = row[c]


def _inv_mix_columns(state: list[int]) -> None:
    mul = aes._gf_mul
    for c in range(4):
        col = state[4 * c : 4 * c + 4]
        state[4 * c + 0] = (mul(col[0], 14) ^ mul(col[1], 11)
                            ^ mul(col[2], 13) ^ mul(col[3], 9))
        state[4 * c + 1] = (mul(col[0], 9) ^ mul(col[1], 14)
                            ^ mul(col[2], 11) ^ mul(col[3], 13))
        state[4 * c + 2] = (mul(col[0], 13) ^ mul(col[1], 9)
                            ^ mul(col[2], 14) ^ mul(col[3], 11))
        state[4 * c + 3] = (mul(col[0], 11) ^ mul(col[1], 13)
                            ^ mul(col[2], 9) ^ mul(col[3], 14))


def decrypt_block(block: bytes, round_keys: list[list[int]]) -> bytes:
    """Decrypt one 16-byte block."""
    assert len(block) == aes.BLOCK_BYTES
    state = list(block)
    aes._add_round_key(state, round_keys[aes.N_ROUNDS])
    for round_index in range(aes.N_ROUNDS - 1, 0, -1):
        _inv_shift_rows(state)
        aes._sub_bytes(state, _INV_SBOX)
        aes._add_round_key(state, round_keys[round_index])
        _inv_mix_columns(state)
    _inv_shift_rows(state)
    aes._sub_bytes(state, _INV_SBOX)
    aes._add_round_key(state, round_keys[0])
    return bytes(state)
