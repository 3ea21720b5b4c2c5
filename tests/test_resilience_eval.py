"""Determinism, totality, and end-to-end resilience evaluation tests."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.eval import network_errors as network_errors_module
from repro.eval.network_errors import network_errors
from repro.eval import resilience
from repro.eval.resilience import (
    arq_recovery,
    crash_query_degradation,
    resilience_sweep,
)
from repro.network import arq
from repro.network.packet import Packet, PayloadKind


class TestNetworkErrorsDeterminism:
    """Same seed => identical Fig. 12 result, bit for bit."""

    def test_same_seed_same_result(self, monkeypatch):
        monkeypatch.setattr(network_errors_module, "SEED", 11)
        a = network_errors(1e-4, n_packets=60)
        b = network_errors(1e-4, n_packets=60)
        assert a == b

    def test_different_seed_can_differ(self, monkeypatch):
        monkeypatch.setattr(network_errors_module, "SEED", 1)
        a = network_errors(1e-4, n_packets=120)
        monkeypatch.setattr(network_errors_module, "SEED", 2)
        b = network_errors(1e-4, n_packets=120)
        assert (a.hash_packet_error_pct, a.signal_packet_error_pct) != (
            b.hash_packet_error_pct,
            b.signal_packet_error_pct,
        )

    def test_arq_recovery_deterministic(self):
        a = arq_recovery(1e-4, n_packets=80, seed=4)
        b = arq_recovery(1e-4, n_packets=80, seed=4)
        assert a == b


class TestPacketParseTotal:
    """Satellite: parsing corrupted frames must never raise."""

    @given(st.binary(min_size=0, max_size=400))
    @settings(max_examples=300, deadline=None)
    def test_parse_never_raises_on_arbitrary_bytes(self, raw):
        packet = Packet.parse(raw)
        if packet is not None:
            # integrity predicates are total too
            _ = packet.intact, packet.header_ok, packet.payload_ok

    @given(
        payload=st.binary(min_size=0, max_size=96),
        flips=st.lists(st.integers(min_value=0, max_value=8 * 19 - 1),
                       min_size=1, max_size=24, unique=True),
        kind=st.sampled_from(list(PayloadKind)),
    )
    @settings(max_examples=200, deadline=None)
    def test_parse_survives_bit_flips_anywhere(self, payload, flips, kind):
        from repro.network.channel import flip_bits

        wire = Packet.build(0, 1, kind, payload, seq=7).to_wire()
        idx = np.asarray([f % (8 * len(wire)) for f in flips], dtype=np.int64)
        corrupted = flip_bits(wire, idx)
        packet = Packet.parse(corrupted)
        assert packet is not None  # length unchanged => parse succeeds
        _ = packet.intact, packet.header_ok, packet.payload_ok

    def test_short_frames_return_none(self):
        for n in range(19):
            assert Packet.parse(bytes(n)) is None
        assert Packet.parse(bytes(19)) is not None


class TestResilienceSweep:
    def test_recovery_meets_target_at_1e_4(self):
        result = arq_recovery(1e-4, n_packets=400, seed=0)
        assert result.initial_loss_pct > 0
        assert result.recovery_rate_pct >= 99.0
        assert result.residual_loss_pct <= 0.25
        assert result.retransmissions > 0
        assert result.ack_airtime_ms > 0

    def test_sweep_covers_requested_points_and_is_monotonic(self, monkeypatch):
        monkeypatch.setattr(resilience, "SWEEP_BERS", (1e-3, 1e-4, 1e-6))
        sweep = resilience_sweep(n_packets=150)
        assert set(sweep) == {1e-3, 1e-4, 1e-6}
        # initial loss grows with BER; the clean end loses ~nothing
        assert (
            sweep[1e-3].initial_loss_pct
            > sweep[1e-4].initial_loss_pct
            >= sweep[1e-6].initial_loss_pct
        )
        assert sweep[1e-6].residual_loss_pct == 0.0

    def test_larger_retry_budget_recovers_more(self, monkeypatch):
        monkeypatch.setattr(arq, "MAX_RETRIES", 1)
        tight = arq_recovery(1e-3, n_packets=200, seed=3)
        monkeypatch.setattr(arq, "MAX_RETRIES", 6)
        roomy = arq_recovery(1e-3, n_packets=200, seed=3)
        assert roomy.recovery_rate_pct >= tight.recovery_rate_pct
        assert roomy.residual_loss_pct <= tight.residual_loss_pct


class TestCrashQueryDegradation:
    def test_four_node_crash_scenario(self, monkeypatch):
        monkeypatch.setattr(resilience, "CRASH_NODE", 2)
        result = crash_query_degradation(n_nodes=4)
        assert result.degraded
        assert result.failed_nodes == [2]
        assert result.coverage == pytest.approx(0.75)
        assert result.queried_nodes == [0, 1, 3]
        assert result.rows
        assert all(row.node != 2 for row in result.rows)
