"""Tests for CRC, packets, radios, the BER channel, TDMA, and delivery."""

import dataclasses
import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError, NetworkError
from repro.network.channel import BitErrorChannel, flip_bits
from repro.network.network import WirelessNetwork
from repro.network.packet import (
    BROADCAST,
    MAX_PAYLOAD_BYTES,
    PACKET_OVERHEAD_BITS,
    Header,
    Packet,
    PayloadKind,
)
from repro.network.radio import LOW_POWER, RADIO_CATALOG
from repro.network.tdma import TDMAConfig, TDMASchedule
from repro.telemetry import Telemetry
from tests import crc_oracle, packet_oracle


#: header bits on air; the last 4 bits of the 11 packed bytes are padding
_HEADER_PAD = range(84, 88)


class TestCRC:
    @pytest.mark.parametrize(
        "data", [b"", b"a", b"hello world", bytes(range(256))]
    )
    def test_matches_zlib(self, data):
        assert crc_oracle.crc32(data) == zlib.crc32(data)

    def test_check_value(self):
        # the CRC-32/ISO-HDLC check value the NPACK polynomial must give
        assert zlib.crc32(b"123456789") == 0xCBF43926
        assert crc_oracle.crc32(b"123456789") == 0xCBF43926

    def test_verify(self):
        packet = Packet.build(0, 1, PayloadKind.HASHES, b"xyz")
        assert packet.payload_ok
        assert not dataclasses.replace(packet, payload=b"xya").payload_ok

    def test_detects_single_bit_flip(self):
        data = b"neural data payload"
        corrupted = flip_bits(data, np.array([13]))
        assert zlib.crc32(corrupted) != zlib.crc32(data)

    @settings(max_examples=60, deadline=None)
    @given(data=st.binary(max_size=300),
           seed=st.sampled_from([0, 1, 0xDEADBEEF]))
    def test_zlib_equals_table_crc(self, data, seed):
        assert zlib.crc32(data, seed) == crc_oracle.crc32(data, seed)

    @settings(max_examples=60, deadline=None)
    @given(
        src=st.integers(0, 63), dst=st.integers(0, 63),
        kind=st.sampled_from(list(PayloadKind)), flow=st.integers(0, 255),
        seq=st.integers(0, 65535), ticks=st.integers(0, 2**32 - 1),
        payload=st.binary(max_size=MAX_PAYLOAD_BYTES), data=st.data(),
    )
    def test_packet_crcs_are_the_table_crc(
        self, src, dst, kind, flow, seq, ticks, payload, data
    ):
        packet = Packet.build(src, dst, kind, payload, flow=flow, seq=seq,
                              time_ticks=ticks)
        assert packet.header_crc == crc_oracle.crc32(packet.header.pack())
        assert packet.payload_crc == crc_oracle.crc32(payload)
        # any one flipped bit on air fails exactly the check covering it
        wire = packet.to_wire()
        bit = data.draw(
            st.integers(0, 8 * len(wire) - 1).filter(
                lambda b: b not in _HEADER_PAD
            )
        )
        received = Packet.from_wire(flip_bits(wire, np.array([bit])))
        in_header = bit < 8 * 15  # header bytes + header CRC
        assert received.header_ok != in_header
        assert received.payload_ok == in_header


class TestHeader:
    def test_pack_unpack_roundtrip(self):
        header = Header(5, 9, PayloadKind.SIGNAL, 3, 1234, 99999, 240)
        assert Header.unpack(header.pack()) == header

    def test_field_overflow_rejected(self):
        with pytest.raises(ConfigurationError):
            Header(64, 0, PayloadKind.HASHES, 0, 0, 0, 0)  # src is 6 bits

    def test_header_is_84_bits_in_11_bytes(self):
        header = Header(1, 2, PayloadKind.HASHES, 0, 0, 0, 10)
        assert len(header.pack()) == 11

    @settings(max_examples=200, deadline=None)
    @given(values=st.fixed_dictionaries({
        name: st.one_of(
            st.integers(-2, (1 << bits) + 1),
            st.floats(-2.0, (1 << bits) + 1.0),
        )
        for name, bits in packet_oracle.FIELDS
    }))
    def test_range_check_and_pack_match_the_field_loop(self, values):
        """The all-in-range fast check accepts exactly what the
        field-by-field loop accepts, and packs the same bytes."""
        if not packet_oracle.header_fits(values):
            with pytest.raises(ConfigurationError):
                Header(**values)
            return
        header = Header(**values)
        assert header.pack() == packet_oracle.pack_header(header)


class TestPacket:
    def test_build_and_integrity(self):
        packet = Packet.build(1, 2, PayloadKind.HASHES, b"abc")
        assert packet.intact

    def test_wire_roundtrip(self):
        packet = Packet.build(3, BROADCAST, PayloadKind.SIGNAL, bytes(range(64)))
        parsed = Packet.from_wire(packet.to_wire())
        assert parsed.intact
        assert parsed.payload == packet.payload
        assert parsed.header == packet.header

    def test_oversized_payload_rejected(self):
        with pytest.raises(NetworkError):
            Packet.build(0, 1, PayloadKind.SIGNAL, bytes(MAX_PAYLOAD_BYTES + 1))

    def test_wire_bits_accounting(self):
        packet = Packet.build(0, 1, PayloadKind.HASHES, b"1234")
        assert packet.wire_bits == PACKET_OVERHEAD_BITS + 32

    def test_airtime(self):
        # 256 B + overhead at the low-power radio's rate
        expected = (PACKET_OVERHEAD_BITS + 2048) / (LOW_POWER.data_rate_mbps * 1e3)
        config = TDMAConfig(radio=LOW_POWER)
        assert config.packet_airtime_ms(256) == pytest.approx(expected)

    @pytest.mark.parametrize("bit", _HEADER_PAD)
    def test_flipped_header_pad_bit_is_invisible(self, bit):
        """The cached header bytes are re-packed from the decoded header,
        so a flip in the 4 pad bits neither fails the header CRC nor
        survives into the re-serialised frame."""
        packet = Packet.build(5, 9, PayloadKind.HASHES, bytes(range(48)),
                              flow=3, seq=1234, time_ticks=99999)
        wire = packet.to_wire()
        received = Packet.from_wire(flip_bits(wire, np.array([bit])))
        assert received.header_ok
        assert received == packet
        assert received.to_wire() == wire

    def test_replaced_header_is_repacked(self):
        packet = Packet.build(1, 2, PayloadKind.HASHES, b"abc", seq=5)
        moved = dataclasses.replace(
            packet, header=dataclasses.replace(packet.header, seq=6)
        )
        assert moved.to_wire()[:11] == packet_oracle.pack_header(moved.header)
        assert not moved.header_ok  # the CRC still covers seq=5

    def test_build_packs_the_header_once(self, monkeypatch):
        calls = []
        pack = Header.pack
        monkeypatch.setattr(
            Header, "pack", lambda header: calls.append(1) or pack(header)
        )
        packet = Packet.build(5, 9, PayloadKind.HASHES, bytes(range(48)),
                              flow=3, seq=1234, time_ticks=99999)
        assert len(calls) == 1
        assert packet.to_wire() == packet_oracle.wire(packet)
        assert packet_oracle.checks(packet) == (True, True)


class TestRadios:
    def test_table3_values(self):
        assert LOW_POWER.data_rate_mbps == 7.0
        assert LOW_POWER.power_mw == 1.721
        assert LOW_POWER.bit_error_rate == 1e-5
        assert RADIO_CATALOG["High Perf"].power_mw == 6.85
        assert RADIO_CATALOG["Low Data Rate"].data_rate_mbps == 3.5
        assert len(RADIO_CATALOG) == 4

    def test_airtime(self):
        assert LOW_POWER.airtime_ms(7000) == pytest.approx(1.0)


class TestChannel:
    def test_zero_ber_is_transparent(self):
        channel = BitErrorChannel(0.0)
        packet = Packet.build(0, 1, PayloadKind.SIGNAL, b"data")
        received, flips = channel.transmit(packet)
        assert flips == 0 and received.intact

    def test_high_ber_corrupts(self):
        channel = BitErrorChannel(0.05, seed=1)
        packet = Packet.build(0, 1, PayloadKind.SIGNAL, bytes(200))
        received, flips = channel.transmit(packet)
        assert flips > 0
        assert not received.intact

    def test_flip_bits_is_involution(self):
        data = b"\x00\xff\x0f"
        positions = np.array([0, 9, 23])
        assert flip_bits(flip_bits(data, positions), positions) == data

    def test_bad_ber_rejected(self):
        with pytest.raises(ConfigurationError):
            BitErrorChannel(1.5)

    @settings(max_examples=150, deadline=None)
    @given(
        src=st.integers(0, 63), dst=st.integers(0, 63),
        kind=st.integers(0, 15), flow=st.integers(0, 255),
        seq=st.integers(0, 65535), ticks=st.integers(0, 2**32 - 1),
        payload=st.binary(max_size=MAX_PAYLOAD_BYTES),
        ber=st.one_of(st.just(0.0), st.floats(1e-6, 1e-2)),
        seed=st.integers(0, 2**32 - 1),
        sends=st.integers(1, 8),
    )
    def test_transmit_matches_the_plain_frame_path(
        self, src, dst, kind, flow, seq, ticks, payload, ber, seed, sends
    ):
        """Twin-seeded channels: the frame-once ``transmit`` and the
        serialise-corrupt-reparse oracle agree packet for packet and
        leave their RNGs in the same state."""
        packet = Packet.build(src, dst, kind, payload, flow=flow, seq=seq,
                              time_ticks=ticks)
        assert packet_oracle.checks(packet) == (True, True)
        assert packet.to_wire() == packet_oracle.wire(packet)
        fast = BitErrorChannel(ber, seed=seed)
        plain = BitErrorChannel(ber, seed=seed)
        for _ in range(sends):
            got, got_flips = fast.transmit(packet)
            ref, ref_flips = packet_oracle.transmit(plain, packet)
            assert got == ref
            assert got_flips == ref_flips
            assert (got.header_ok, got.payload_ok) == packet_oracle.checks(ref)
            assert got.to_wire() == packet_oracle.wire(ref)
        assert (fast._rng.bit_generator.state
                == plain._rng.bit_generator.state)


class TestTDMA:
    def test_slot_includes_guard(self):
        config = TDMAConfig()
        assert config.slot_ms(256) == pytest.approx(
            config.packet_airtime_ms(256) + config.guard_ms
        )

    def test_round_robin_schedule(self):
        schedule = TDMASchedule.round_robin(TDMAConfig(), 4, slots_per_node=2)
        assert schedule.slot_owners == [0, 0, 1, 1, 2, 2, 3, 3]


class TestWirelessNetwork:
    def _build(self, ber=0.0):
        from dataclasses import replace

        radio = replace(LOW_POWER, bit_error_rate=ber)
        net = WirelessNetwork(
            tdma=TDMAConfig(radio=radio), seed=3, telemetry=Telemetry()
        )
        inboxes = {0: [], 1: [], 2: []}
        for node in inboxes:
            net.register(node, lambda p, n=node: inboxes[n].append(p))
        return net, inboxes

    def test_unicast(self):
        net, inboxes = self._build()
        net.send(Packet.build(0, 1, PayloadKind.SIGNAL, b"x"))
        assert len(inboxes[1]) == 1 and not inboxes[2]

    def test_broadcast(self):
        net, inboxes = self._build()
        net.send(Packet.build(0, BROADCAST, PayloadKind.HASHES, b"h"))
        assert len(inboxes[1]) == 1 and len(inboxes[2]) == 1
        assert not inboxes[0]

    def test_corrupted_hashes_dropped_signals_kept(self):
        net, inboxes = self._build(ber=0.01)
        for i in range(50):
            net.send(Packet.build(0, 1, PayloadKind.HASHES, bytes(100), seq=i))
            net.send(Packet.build(0, 1, PayloadKind.SIGNAL, bytes(100), seq=i))
        registry = net.telemetry.registry
        assert registry.counter("network.dropped", reason="payload") > 0
        assert registry.counter("network.delivered", corrupted="true") > 0
        # every dropped packet was a hash packet; corrupted signals arrive
        kinds = {p.header.kind for p in inboxes[1]}
        assert PayloadKind.SIGNAL in kinds

    def test_unknown_destination_rejected(self):
        net, _ = self._build()
        with pytest.raises(NetworkError):
            net.send(Packet.build(0, 5, PayloadKind.SIGNAL, b"x"))

    def test_duplicate_registration_rejected(self):
        net, _ = self._build()
        with pytest.raises(NetworkError):
            net.register(0, lambda p: None)
