"""Tests for the ARQ layer and the network fault-injection hooks."""

from dataclasses import replace

import numpy as np
import pytest

from repro.errors import ConfigurationError, NetworkError
from repro.network import arq
from repro.network.arq import MAX_RETRIES, ReliableLink, backoff_slots
from repro.network.channel import BitErrorChannel, flip_bits
from repro.network.network import DeliveryOutcome, WirelessNetwork
from repro.network.packet import BROADCAST, Packet, PayloadKind
from repro.network.radio import LOW_POWER
from repro.network.tdma import TDMAConfig
from repro.telemetry import Telemetry


def _network(ber=0.0, seed=0):
    radio = replace(LOW_POWER, bit_error_rate=ber)
    return WirelessNetwork(
        tdma=TDMAConfig(radio=radio), seed=seed, telemetry=Telemetry()
    )


def _count(network, name, **labels):
    """One registry counter of the network's live telemetry."""
    return network.telemetry.registry.counter(name, **labels)


def _packet(src=0, dst=1, payload=bytes(48), seq=0, kind=PayloadKind.HASHES):
    return Packet.build(src, dst, kind, payload, seq=seq)


class TestFlipBits:
    """The vectorised implementation must keep exact bit semantics."""

    def _scalar_flip(self, data, bit_indices):
        buf = bytearray(data)
        for bit in np.atleast_1d(bit_indices):
            buf[bit // 8] ^= 1 << (7 - bit % 8)
        return bytes(buf)

    def test_matches_scalar_reference(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            data = bytes(rng.integers(0, 256, 64, dtype=np.uint8))
            n = int(rng.integers(1, 40))
            idx = rng.integers(0, 8 * len(data), n)
            assert flip_bits(data, idx) == self._scalar_flip(data, idx)

    def test_duplicate_index_double_flips(self):
        data = b"\x00"
        assert flip_bits(data, np.array([0, 0])) == b"\x00"
        assert flip_bits(data, np.array([0, 0, 0])) == b"\x80"

    def test_involution(self):
        data = b"scalo"
        idx = np.array([0, 7, 13, 39])
        assert flip_bits(flip_bits(data, idx), idx) == data

    def test_msb_first_bit_order(self):
        assert flip_bits(b"\x00", np.array([0])) == b"\x80"
        assert flip_bits(b"\x00\x00", np.array([15])) == b"\x00\x01"

    def test_scalar_index_accepted(self):
        assert flip_bits(b"\x00", 1) == b"\x40"

    def test_out_of_range_rejected(self):
        with pytest.raises(ConfigurationError):
            flip_bits(b"\x00", np.array([8]))
        with pytest.raises(ConfigurationError):
            flip_bits(b"\x00", np.array([-1]))

    def test_empty_inputs(self):
        assert flip_bits(b"", np.array([], dtype=np.int64)) == b""
        assert flip_bits(b"\xaa", np.array([], dtype=np.int64)) == b"\xaa"


class TestSendValidation:
    """Satellite fix: routing errors must not corrupt the statistics."""

    def test_unknown_destination_leaves_stats_untouched(self):
        network = _network()
        network.register(0, lambda p: None)
        with pytest.raises(NetworkError):
            network.send(_packet(0, 9))
        assert network.telemetry.snapshot() == Telemetry().snapshot()

    def test_unknown_source_leaves_stats_untouched(self):
        network = _network()
        network.register(1, lambda p: None)
        with pytest.raises(NetworkError):
            network.send(_packet(0, 1))
        assert network.telemetry.snapshot() == Telemetry().snapshot()

    def test_good_send_counts_once(self):
        network = _network()
        network.register(0, lambda p: None)
        network.register(1, lambda p: None)
        outcomes = network.send(_packet(0, 1))
        assert outcomes == {1: DeliveryOutcome.DELIVERED}
        assert _count(network, "network.packets_sent") == 1
        assert _count(network, "network.delivered") == 1
        assert _count(network, "network.airtime_ms") > 0


class TestUnregister:
    def test_unregister_returns_callback_and_frees_id(self):
        network = _network()
        inbox = []
        network.register(3, inbox.append)
        callback = network.unregister(3)
        assert callback == inbox.append
        assert 3 not in network.node_ids
        network.register(3, inbox.append)  # id reusable after removal

    def test_unregister_unknown_raises(self):
        network = _network()
        with pytest.raises(NetworkError):
            network.unregister(7)

    def test_broadcast_skips_unregistered_node(self):
        network = _network()
        inboxes = {n: [] for n in range(3)}
        for n in range(3):
            network.register(n, inboxes[n].append)
        network.unregister(1)
        network.send(_packet(0, BROADCAST))
        assert not inboxes[1]
        assert len(inboxes[2]) == 1
        assert _count(network, "network.delivered") == 1

    def test_direct_send_to_unregistered_raises(self):
        network = _network()
        network.register(0, lambda p: None)
        network.register(1, lambda p: None)
        network.unregister(1)
        with pytest.raises(NetworkError):
            network.send(_packet(0, 1))

    def test_unregister_clears_outage_flag(self):
        network = _network()
        network.register(0, lambda p: None)
        network.set_outage(0)
        network.unregister(0)
        assert not network.in_outage(0)


class TestOutages:
    def test_outage_blocks_both_directions(self):
        network = _network()
        inboxes = {n: [] for n in range(2)}
        for n in range(2):
            network.register(n, inboxes[n].append)
        network.set_outage(1)
        out = network.send(_packet(0, 1))
        assert out == {1: DeliveryOutcome.DROPPED_OUTAGE}
        network.set_outage(1, False)
        network.set_outage(0)
        out = network.send(_packet(0, 1))  # dark source transmits nowhere
        assert out == {1: DeliveryOutcome.DROPPED_OUTAGE}
        assert _count(network, "network.dropped", reason="outage") == 2
        assert not inboxes[1]

    def test_outage_on_unknown_node_raises(self):
        with pytest.raises(NetworkError):
            _network().set_outage(5)


class TestARQRecovery:
    def test_clean_channel_all_first_try(self):
        network = _network()
        link = ReliableLink(network)
        link.attach(0, lambda p: None)
        link.attach(1, lambda p: None)
        for i in range(20):
            result = link.send(_packet(seq=i))
            assert not result.failed and result.delivered == {1: 1}
        assert _count(network, "arq.delivered_first_try") == 20
        assert _count(network, "arq.retries") == 0
        assert _count(network, "arq.recovered") == 0
        assert _count(network, "arq.failed") == 0

    def test_recovers_99_pct_of_crc_drops_at_ber_1e_4(self):
        """The acceptance criterion: >=99% of dropped hash packets recovered."""
        network = _network(ber=1e-4)
        link = ReliableLink(network)
        delivered = []
        link.attach(0, lambda p: None)
        link.attach(1, delivered.append)
        n_packets = 400
        for i in range(n_packets):
            link.send(_packet(seq=i))
        first_try = _count(network, "arq.delivered_first_try")
        recovered = _count(network, "arq.recovered")
        failed = _count(network, "arq.failed")
        assert first_try < n_packets  # channel did bite
        assert recovered + failed > 0
        assert recovered / (recovered + failed) >= 0.99
        assert len(delivered) == first_try + recovered

    def test_retransmissions_and_acks_spend_airtime(self):
        network = _network(ber=1e-3, seed=2)
        link = ReliableLink(network)
        link.attach(0, lambda p: None)
        link.attach(1, lambda p: None)
        for i in range(60):
            link.send(_packet(seq=i))
        retries = _count(network, "arq.retries")
        acks = _count(network, "arq.acks_sent")
        assert retries > 0
        # sent counts every burst, so it exceeds the application packet count
        bursts = _count(network, "network.packets_sent")
        assert bursts == 60 + retries
        assert acks >= 60
        # every burst and every ACK spends one frame's airtime
        tdma = network.tdma
        data_ms = bursts * tdma.packet_airtime_ms(48)
        ack_ms = acks * tdma.packet_airtime_ms(arq.ACK_PAYLOAD_BYTES)
        assert _count(network, "network.airtime_ms") == pytest.approx(data_ms)
        assert _count(network, "arq.ack_airtime_ms") == pytest.approx(ack_ms)
        assert _count(network, "network.airtime_ms") + _count(
            network, "arq.ack_airtime_ms"
        ) == pytest.approx(data_ms + ack_ms)

    def test_retry_exhaustion(self):
        network = _network()
        link = ReliableLink(network)
        link.attach(0, lambda p: None)
        link.attach(1, lambda p: None)
        network.set_outage(1)  # nothing will ever arrive
        result = link.send(_packet(seq=5))
        assert result.failed == [1]
        assert _count(network, "arq.failed") == 1
        assert _count(network, "arq.retries") == MAX_RETRIES

    def test_broadcast_retransmits_only_to_pending(self):
        network = _network()
        link = ReliableLink(network)
        inboxes = {n: [] for n in range(3)}
        for n in range(3):
            link.attach(n, inboxes[n].append)
        network.set_outage(2)
        result = link.send(_packet(0, BROADCAST, seq=9))
        assert result.delivered == {1: 1}
        assert result.failed == [2]
        # node 1 ACKed on attempt 1; the retries went to node 2 alone,
        # so node 1 saw exactly one copy even without dedupe kicking in
        assert len(inboxes[1]) == 1
        assert _count(network, "arq.duplicates_suppressed") == 0


class TestARQBackoff:
    def test_exponential_backoff_accounting(self, monkeypatch):
        network = _network()
        monkeypatch.setattr(arq, "MAX_RETRIES", 3)
        link = ReliableLink(network)
        link.attach(0, lambda p: None)
        link.attach(1, lambda p: None)
        network.set_outage(1)
        link.send(_packet(seq=0))
        slot_ms = network.tdma.slot_ms()
        # retries 1, 2, 3 wait 1, 2, 4 slots
        assert _count(network, "arq.backoff_ms") == pytest.approx(7 * slot_ms)

    def test_exponential_schedule(self):
        assert [backoff_slots(r) for r in (1, 2, 3, 4)] == [1, 2, 4, 8]
        assert backoff_slots(0) == 0


class TestDuplicateSuppression:
    def test_lost_ack_duplicate_is_suppressed(self, monkeypatch):
        """Force delivery-then-lost-ACK: receiver sees the packet once."""
        network = _network()
        monkeypatch.setattr(arq, "MAX_RETRIES", 2)
        link = ReliableLink(network)
        seen = []
        link.attach(0, lambda p: None)
        link.attach(1, seen.append)

        # data always arrives; every ACK is destroyed on the way back, so
        # no packet's frames all cross clean
        class AckKiller(BitErrorChannel):
            def passes_clean(self, payload_bytes):
                return False

            def transmit(self, packet):
                if packet.header.kind is PayloadKind.CONTROL:
                    wire = bytearray(packet.to_wire())
                    wire[-1] ^= 0xFF  # corrupt the payload CRC region
                    return Packet.from_wire(bytes(wire)), 8
                return packet, 0

        network.channel = AckKiller(0.0)
        result = link.send(_packet(seq=3))
        assert result.failed  # sender never saw an ACK
        assert len(seen) == 1  # but the application saw exactly one copy
        assert _count(network, "arq.duplicates_suppressed") == 2
        assert _count(network, "arq.acks_lost") == 3

    def test_distinct_sequences_not_suppressed(self):
        network = _network()
        link = ReliableLink(network)
        seen = []
        link.attach(0, lambda p: None)
        link.attach(1, seen.append)
        for i in range(5):
            link.send(_packet(seq=i))
        assert len(seen) == 5
        assert _count(network, "arq.duplicates_suppressed") == 0


class TestDedupWindowBound:
    """The suppression memory is an LRU bounded by ``DEDUP_WINDOW``."""

    @pytest.fixture
    def window(self, monkeypatch):
        def set_window(window):
            monkeypatch.setattr(arq, "DEDUP_WINDOW", window)
            link = ReliableLink(_network())
            seen = []
            link.attach(0, lambda p: None)
            link.attach(1, seen.append)
            return link, seen

        return set_window

    def test_eviction_allows_redelivery(self, window):
        link, seen = window(4)
        link.send(_packet(seq=0))
        for seq in range(1, 5):
            link.send(_packet(seq=seq))
        # seq 0's entry aged out of the 4-deep window...
        assert len(link._seen) <= 4
        assert all(key[3] != 0 for key in link._seen)
        before = len(seen)
        link.send(_packet(seq=0))
        # ...so a late copy is redelivered rather than suppressed
        assert len(seen) == before + 1
        assert _count(link.network, "arq.duplicates_suppressed") == 0

    def test_hit_refreshes_recency(self, window):
        link, seen = window(3)
        link.send(_packet(seq=0))  # accept tick 1
        link.send(_packet(seq=1))  # accept tick 2
        link.send(_packet(seq=0))  # duplicate: refreshed, moved to back
        link.send(_packet(seq=2))  # tick 3
        link.send(_packet(seq=3))  # tick 4: without the refresh, seq 0
        link.send(_packet(seq=0))  # (tick 1) would have been evicted
        assert _count(link.network, "arq.duplicates_suppressed") == 2

    def test_memory_stays_bounded(self, window):
        link, _ = window(16)
        for seq in range(500):
            link.send(_packet(seq=seq & 0xFFFF))
        assert len(link._seen) <= 16
        # exactly the 16 newest accepts stay resident, oldest first
        assert [key[3] for key in link._seen] == list(range(484, 500))

    def test_forget_drops_only_that_receiver(self, monkeypatch):
        monkeypatch.setattr(arq, "DEDUP_WINDOW", 64)
        link = ReliableLink(_network())
        inboxes = {1: [], 2: []}
        link.attach(0, lambda p: None)
        link.attach(1, inboxes[1].append)
        link.attach(2, inboxes[2].append)
        link.send(_packet(dst=BROADCAST, seq=9))
        link.forget(1)  # node 1 crashed: its dedup memory was SRAM
        link.send(_packet(dst=BROADCAST, seq=9))
        assert len(inboxes[1]) == 2  # redelivered after the reboot
        assert len(inboxes[2]) == 1  # peer still suppresses
        assert _count(link.network, "arq.duplicates_suppressed") == 1
