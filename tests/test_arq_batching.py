"""``ReliableLink.send_many`` against the per-packet oracle.

``send_many`` draws each unicast packet's data and ACK frames ahead and
books runs of clean packets in bulk.  ``tests/arq_oracle.py`` keeps the
per-packet stop-and-wait send.  Two identical worlds run the same steps,
one through each path, and after every step must hold equal: the ARQ and
delivery stats, the registry snapshot and its key order, the span list,
the sim clock, the dedup LRU, every receiver's inbox, the ``ARQResult``s
and the channel's generator state.
"""

from dataclasses import asdict, replace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.errors import NetworkError, RetryExhausted
from repro.network import arq
from repro.network.arq import ACK_PAYLOAD_BYTES, ReliableLink
from repro.network.channel import BitErrorChannel, flip_bits
from repro.network.network import WirelessNetwork
from repro.network.packet import (
    BROADCAST,
    MAX_PAYLOAD_BYTES,
    Packet,
    PayloadKind,
)
from repro.network.partition import SPLIT_MODES, PartitionMatrix
from repro.network.radio import LOW_POWER
from repro.network.tdma import TDMAConfig
from repro.telemetry import Telemetry
from repro.telemetry.tracer import TraceContext
from tests import arq_oracle

#: the sweep's BER points, the clean channel and a very noisy one
BERS = (0.0, 1e-6, 1e-5, 1e-4, 1e-3, 1e-2)


def _packet(src, dst, kind, size, seq, damage, trace):
    payload = bytes((seq + i) & 0xFF for i in range(size))
    packet = Packet.build(src, dst, kind, payload, seq=seq, trace=trace)
    if damage is None:
        return packet
    # a frame damaged before it was sent: its CRCs never match
    wire = packet.to_wire()
    damaged = Packet.from_wire(flip_bits(wire, damage % (8 * len(wire))))
    return replace(damaged, trace=trace)


def packets(n_nodes):
    return st.builds(
        _packet,
        src=st.integers(0, n_nodes - 1),
        dst=st.one_of(st.integers(0, n_nodes - 1), st.just(BROADCAST)),
        kind=st.sampled_from(
            (PayloadKind.HASHES, PayloadKind.SIGNAL, PayloadKind.QUERY)
        ),
        size=st.one_of(
            st.sampled_from((0, 48, MAX_PAYLOAD_BYTES)),
            st.integers(0, MAX_PAYLOAD_BYTES),
        ),
        # a small sequence space, so retransmissions and repeats hit the
        # dedup memory
        seq=st.integers(0, 5),
        damage=st.one_of(st.none(), st.none(), st.none(), st.integers(0)),
        trace=st.one_of(
            st.none(), st.builds(TraceContext, st.integers(1, 3), st.just(1))
        ),
    )


def changes(n_nodes):
    """A change to the links before a batch (or none)."""
    node = st.integers(0, n_nodes - 1)
    return st.one_of(
        st.none(),
        st.tuples(st.just("outage"), node, st.booleans()),
        st.tuples(
            st.just("split"), st.integers(0, n_nodes - 2),
            st.sampled_from(SPLIT_MODES),
        ),
        st.tuples(st.just("heal")),
        st.tuples(st.just("forget"), node),
    )


@st.composite
def scenarios(draw):
    n_nodes = draw(st.integers(2, 4))
    return {
        "n_nodes": n_nodes,
        "ber": draw(st.one_of(st.sampled_from(BERS), st.floats(0, 2e-2))),
        "seed": draw(st.integers(0, 2**16)),
        "max_retries": draw(st.integers(0, 5)),
        "dedup_window": draw(st.sampled_from((3, 16, arq.DEDUP_WINDOW))),
        "live": draw(st.booleans()),
        "steps": draw(st.lists(
            st.tuples(
                changes(n_nodes),
                st.lists(packets(n_nodes), max_size=40),
                st.booleans(),
            ),
            min_size=1, max_size=5,
        )),
    }


class World:
    """One network, link, telemetry handle and set of inboxes."""

    def __init__(self, n_nodes, ber, seed, live):
        radio = replace(LOW_POWER, bit_error_rate=ber)
        kwargs = {"telemetry": Telemetry()} if live else {}
        self.network = WirelessNetwork(
            tdma=TDMAConfig(radio=radio), seed=seed, **kwargs
        )
        self.link = ReliableLink(self.network)
        self.inboxes = {n: [] for n in range(n_nodes)}
        for n in range(n_nodes):
            self.link.attach(n, self.inboxes[n].append)

    def change(self, change):
        if change is None:
            return
        kind, *args = change
        if kind == "outage":
            self.network.set_outage(*args)
        elif kind == "split":
            self.network.set_partition(
                PartitionMatrix.split(len(self.inboxes), *args)
            )
        elif kind == "heal":
            self.network.clear_partition()
        else:
            self.link.forget(*args)

    def send(self, send_many, batch, raise_on_failure):
        try:
            return send_many(self.link, batch, raise_on_failure)
        except RetryExhausted as exc:
            return ("exhausted", exc.seq, exc.attempts, exc.targets)
        except NetworkError as exc:
            # a damaged header can name an unknown destination
            return ("unroutable", str(exc))

    def state(self):
        tel = self.link.telemetry
        link = self.link
        channel = self.network.channel
        state = {
            "arq": asdict(link.stats),
            "network": asdict(self.network.stats),
            "seen": list(link._seen.items()),
            "tick": link._accept_tick,
            "inboxes": {
                n: [(p, p.trace) for p in box]
                for n, box in self.inboxes.items()
            },
            "rng": channel._rng.bit_generator.state,
            "drawn": list(channel._drawn),
        }
        if tel.enabled:
            state["telemetry"] = tel.snapshot()
            state["counter_order"] = list(tel.registry._counters)
            state["now_us"] = tel.clock.now_us
        return state


def _batched(link, batch, raise_on_failure):
    return link.send_many(batch, raise_on_failure)


def _per_packet(link, batch, raise_on_failure):
    return [arq_oracle.send(link, p, raise_on_failure) for p in batch]


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(scenarios())
def test_send_many_matches_per_packet_oracle(scenario):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(arq, "MAX_RETRIES", scenario["max_retries"])
        mp.setattr(arq, "DEDUP_WINDOW", scenario["dedup_window"])
        worlds = [
            World(scenario["n_nodes"], scenario["ber"], scenario["seed"],
                  scenario["live"])
            for _ in range(2)
        ]
        for change, batch, raise_on_failure in scenario["steps"]:
            for world in worlds:
                world.change(change)
            batched = worlds[0].send(_batched, batch, raise_on_failure)
            oracle = worlds[1].send(_per_packet, batch, raise_on_failure)
            assert batched == oracle
            assert worlds[0].state() == worlds[1].state()


@pytest.mark.parametrize("ber", BERS)
def test_sweep_point_matches_oracle(ber):
    """One Fig. 12 point, 300 hash packets in one call."""
    payloads = np.random.default_rng(7).integers(0, 256, (300, 48),
                                                 dtype=np.uint8)
    batch = [
        Packet.build(0, 1, PayloadKind.HASHES, row.tobytes(), seq=i)
        for i, row in enumerate(payloads)
    ]
    worlds = [World(2, ber, 3, True) for _ in range(2)]
    assert worlds[0].link.send_many(batch) == _per_packet(
        worlds[1].link, batch, False
    )
    assert worlds[0].state() == worlds[1].state()


class TestPassesClean:
    """The channel's draw-ahead leaves the draw sequence of plain sends."""

    @pytest.mark.parametrize("ber", (1e-4, 1e-3, 1e-2))
    def test_draws_match_plain_transmits(self, ber):
        ahead, plain = BitErrorChannel(ber, 5), BitErrorChannel(ber, 5)
        data = Packet.build(0, 1, PayloadKind.HASHES, bytes(48))
        ack = Packet.build(1, 0, PayloadKind.CONTROL, bytes(2))
        frames = (len(data.payload), ACK_PAYLOAD_BYTES)
        flips = 0
        for _ in range(400):
            if ahead.passes_clean(frames):
                # a clean packet: plain sends both frames untouched
                assert plain.transmit(data) == (data, 0)
                assert plain.transmit(ack) == (ack, 0)
                continue
            flips += 1
            got, want = ahead.transmit(data), plain.transmit(data)
            assert got == want
            if got[1] == 0:
                assert ahead.transmit(ack) == plain.transmit(ack)
            assert not ahead._drawn
        assert flips > 0
        assert (
            ahead._rng.bit_generator.state == plain._rng.bit_generator.state
        )
