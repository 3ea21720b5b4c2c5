"""Tests for the AES PE (FIPS-197 / NIST SP 800-38A vectors + properties)."""

import pytest

from repro.crypto.aes import AES128, encrypt_block, expand_key
from repro.errors import ConfigurationError
from tests.aes_oracle import decrypt_block


class TestVectors:
    def test_fips197_appendix_b(self):
        key = bytes.fromhex("2b7e151628aed2a6abf7158809cf4f3c")
        plaintext = bytes.fromhex("3243f6a8885a308d313198a2e0370734")
        expected = bytes.fromhex("3925841d02dc09fbdc118597196a0b32")
        assert encrypt_block(plaintext, expand_key(key)) == expected

    def test_fips197_appendix_a_key_schedule(self):
        key = bytes.fromhex("2b7e151628aed2a6abf7158809cf4f3c")
        round_keys = expand_key(key)
        assert bytes(round_keys[1]).hex() == (
            "a0fafe1788542cb123a339392a6c7605"
        )
        assert bytes(round_keys[10]).hex() == (
            "d014f9a8c9ee2589e13f0cc8b6630ca6"
        )

    @pytest.mark.parametrize(
        "plaintext,ciphertext",
        [
            ("6bc1bee22e409f96e93d7e117393172a",
             "3ad77bb40d7a3660a89ecaf32466ef97"),
            ("ae2d8a571e03ac9c9eb76fac45af8e51",
             "f5d3d58503b9699de785895a96fdbaaf"),
        ],
    )
    def test_nist_sp800_38a_ecb(self, plaintext, ciphertext):
        cipher = AES128(bytes.fromhex("2b7e151628aed2a6abf7158809cf4f3c"))
        assert cipher.encrypt_block(bytes.fromhex(plaintext)) == bytes.fromhex(
            ciphertext
        )


class TestProperties:
    @pytest.fixture()
    def cipher(self):
        return AES128(bytes(range(16)))

    def test_block_roundtrip(self, cipher, rng):
        for _ in range(20):
            block = bytes(rng.integers(0, 256, 16, dtype="uint8"))
            sealed = cipher.encrypt_block(block)
            assert decrypt_block(sealed, cipher._round_keys) == block

    def test_ctr_roundtrip_any_length(self, cipher, rng):
        for n in (0, 1, 15, 16, 17, 333):
            data = bytes(rng.integers(0, 256, n, dtype="uint8"))
            nonce = b"\x01" * 8
            assert cipher.ctr_decrypt(cipher.ctr_encrypt(data, nonce),
                                      nonce) == data

    def test_ctr_nonce_matters(self, cipher):
        data = b"same plaintext, different nonce!"
        a = cipher.ctr_encrypt(data, b"\x00" * 8)
        b = cipher.ctr_encrypt(data, b"\x01" * 8)
        assert a != b

    def test_avalanche(self, cipher):
        a = cipher.encrypt_block(bytes(16))
        flipped = bytes([1] + [0] * 15)
        b = cipher.encrypt_block(flipped)
        differing_bits = sum(
            bin(x ^ y).count("1") for x, y in zip(a, b)
        )
        assert differing_bits > 40  # ~64 expected of 128

    def test_bad_key_rejected(self):
        with pytest.raises(ConfigurationError):
            AES128(b"short")

    def test_bad_block_rejected(self, cipher):
        with pytest.raises(ConfigurationError):
            cipher.encrypt_block(b"tiny")

    def test_bad_nonce_rejected(self, cipher):
        with pytest.raises(ConfigurationError):
            cipher.ctr_encrypt(b"x", b"short")
