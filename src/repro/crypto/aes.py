"""AES-128 from scratch (the AES PE).

HALO/SCALO encrypt neural data before streaming it off-implant over the
external radio — brain data is protected health information.  The AES PE
appears in Table 1 (5 MHz, data-dependent latency); this is its software
twin: the FIPS-197 AES-128 forward block cipher and CTR mode for
streaming (CTR needs only the forward cipher and no padding, which is
what a transmit-side hardware pipe wants).  The inverse cipher, which
checks the block round trip, is ``tests/aes_oracle.py``.

Implemented from the specification — S-box generated from the finite
field inverse, key schedule, the four round transformations — and tested
against the FIPS-197 and NIST SP 800-38A vectors.
"""

from __future__ import annotations

from repro.errors import ConfigurationError

BLOCK_BYTES = 16
KEY_BYTES = 16
N_ROUNDS = 10


def _xtime(a: int) -> int:
    a <<= 1
    if a & 0x100:
        a ^= 0x11B
    return a & 0xFF


def _gf_mul(a: int, b: int) -> int:
    result = 0
    while b:
        if b & 1:
            result ^= a
        a = _xtime(a)
        b >>= 1
    return result


def _build_sbox() -> list[int]:
    # multiplicative inverses in GF(2^8) via exp/log tables on generator 3
    exp = [0] * 256
    log = [0] * 256
    x = 1
    for i in range(255):
        exp[i] = x
        log[x] = i
        x = _gf_mul(x, 3)
    exp[255] = exp[0]

    def inverse(a: int) -> int:
        if a == 0:
            return 0
        return exp[255 - log[a]]

    sbox = [0] * 256
    for value in range(256):
        inv = inverse(value)
        s = inv
        for _ in range(4):
            inv = ((inv << 1) | (inv >> 7)) & 0xFF
            s ^= inv
        sbox[value] = s ^ 0x63
    return sbox


_SBOX = _build_sbox()
_RCON = [0x01, 0x02, 0x04, 0x08, 0x10, 0x20, 0x40, 0x80, 0x1B, 0x36]


def expand_key(key: bytes) -> list[list[int]]:
    """The AES-128 key schedule: 11 round keys of 16 bytes each."""
    if len(key) != KEY_BYTES:
        raise ConfigurationError(f"AES-128 key must be {KEY_BYTES} bytes")
    words = [list(key[i : i + 4]) for i in range(0, 16, 4)]
    for i in range(4, 4 * (N_ROUNDS + 1)):
        word = list(words[i - 1])
        if i % 4 == 0:
            word = word[1:] + word[:1]
            word = [_SBOX[b] for b in word]
            word[0] ^= _RCON[i // 4 - 1]
        words.append([a ^ b for a, b in zip(word, words[i - 4])])
    return [
        sum(words[4 * r : 4 * r + 4], []) for r in range(N_ROUNDS + 1)
    ]


def _add_round_key(state: list[int], round_key: list[int]) -> None:
    for i in range(16):
        state[i] ^= round_key[i]


def _sub_bytes(state: list[int], box: list[int]) -> None:
    for i in range(16):
        state[i] = box[state[i]]


# state is column-major: state[4*c + r] is row r, column c
def _shift_rows(state: list[int]) -> None:
    for r in range(1, 4):
        row = [state[4 * c + r] for c in range(4)]
        row = row[r:] + row[:r]
        for c in range(4):
            state[4 * c + r] = row[c]


def _mix_columns(state: list[int]) -> None:
    for c in range(4):
        col = state[4 * c : 4 * c + 4]
        state[4 * c + 0] = _gf_mul(col[0], 2) ^ _gf_mul(col[1], 3) ^ col[2] ^ col[3]
        state[4 * c + 1] = col[0] ^ _gf_mul(col[1], 2) ^ _gf_mul(col[2], 3) ^ col[3]
        state[4 * c + 2] = col[0] ^ col[1] ^ _gf_mul(col[2], 2) ^ _gf_mul(col[3], 3)
        state[4 * c + 3] = _gf_mul(col[0], 3) ^ col[1] ^ col[2] ^ _gf_mul(col[3], 2)


def encrypt_block(block: bytes, round_keys: list[list[int]]) -> bytes:
    """Encrypt one 16-byte block."""
    if len(block) != BLOCK_BYTES:
        raise ConfigurationError("AES block must be 16 bytes")
    state = list(block)
    _add_round_key(state, round_keys[0])
    for round_index in range(1, N_ROUNDS):
        _sub_bytes(state, _SBOX)
        _shift_rows(state)
        _mix_columns(state)
        _add_round_key(state, round_keys[round_index])
    _sub_bytes(state, _SBOX)
    _shift_rows(state)
    _add_round_key(state, round_keys[N_ROUNDS])
    return bytes(state)


class AES128:
    """AES-128 with CTR-mode streaming (the transmit-path configuration).

    Example:
        >>> cipher = AES128(bytes(range(16)))
        >>> data = b"neural telemetry"
        >>> cipher.ctr_decrypt(cipher.ctr_encrypt(data, nonce=b"\\x00" * 8),
        ...                    nonce=b"\\x00" * 8) == data
        True
    """

    def __init__(self, key: bytes):
        self._round_keys = expand_key(key)

    def encrypt_block(self, block: bytes) -> bytes:
        return encrypt_block(block, self._round_keys)

    def _keystream(self, nonce: bytes, n_bytes: int) -> bytes:
        if len(nonce) != 8:
            raise ConfigurationError("CTR nonce must be 8 bytes")
        stream = bytearray()
        counter = 0
        while len(stream) < n_bytes:
            block = nonce + counter.to_bytes(8, "big")
            stream += self.encrypt_block(block)
            counter += 1
        return bytes(stream[:n_bytes])

    def ctr_encrypt(self, data: bytes, nonce: bytes) -> bytes:
        """CTR mode: stream-cipher the payload (no padding needed)."""
        keystream = self._keystream(nonce, len(data))
        return bytes(a ^ b for a, b in zip(data, keystream))

    #: CTR decryption is the same operation.
    ctr_decrypt = ctr_encrypt
