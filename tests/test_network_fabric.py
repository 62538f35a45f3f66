"""Tests for nodes, messages, ISPs and the network fabric."""

import pytest

from repro.network import (
    FabricParams,
    ISPRegistry,
    InterISPModel,
    Message,
    MessageKind,
    NetworkFabric,
    NetworkNode,
    TopologyBuilder,
)
from repro.network.geo import GeoPoint
from repro.sim import Environment, StreamRegistry


def make_nodes(env, streams, n=2):
    topology = TopologyBuilder(env, streams).build(n_servers=n, users_per_server=0)
    return topology.provider, topology.servers


class TestMessageTaxonomy:
    def test_update_kinds_are_consistency(self):
        message = Message(MessageKind.PUSH_UPDATE, None, None, 1.0)
        assert message.is_update
        assert message.is_consistency
        assert not message.is_light

    def test_light_kinds(self):
        message = Message(MessageKind.POLL, None, None, 1.0)
        assert message.is_light and message.is_consistency and not message.is_update

    def test_content_traffic_is_not_consistency(self):
        message = Message(MessageKind.CONTENT_RESPONSE, None, None, 1.0)
        assert not message.is_consistency

    def test_sequence_numbers_unique(self):
        a = Message(MessageKind.POLL, None, None, 1.0)
        b = Message(MessageKind.POLL, None, None, 1.0)
        assert a.seq != b.seq


class TestNode:
    def test_transmission_delay(self):
        env = Environment()
        streams = StreamRegistry(0)
        provider, _ = make_nodes(env, streams)
        assert provider.transmission_delay(provider.uplink_kbps) == pytest.approx(1.0)
        with pytest.raises(ValueError):
            provider.transmission_delay(-1)

    def test_invalid_uplink(self):
        env = Environment()
        streams = StreamRegistry(0)
        provider, _ = make_nodes(env, streams)
        with pytest.raises(ValueError):
            NetworkNode(env, "x", GeoPoint(0, 0), provider.isp, uplink_kbps=0)


class TestInterISP:
    def test_intra_isp_no_penalty(self):
        registry = ISPRegistry()
        stream = StreamRegistry(1).stream("isp")
        isp = registry.assign("us", stream)
        model = InterISPModel()
        assert model.penalty(isp, isp, stream) == 0.0

    def test_inter_isp_positive_penalty(self):
        registry = ISPRegistry()
        stream = StreamRegistry(1).stream("isp")
        a = registry.assign("us", stream)
        b = next(i for i in registry.all_isps() if i.isp_id != a.isp_id)
        model = InterISPModel(base_s=0.03, jitter_s=0.0)
        assert model.penalty(a, b, stream) == pytest.approx(0.03)


class TestFabric:
    def test_delivery_and_ledger(self):
        env = Environment()
        streams = StreamRegistry(11)
        provider, servers = make_nodes(env, streams)
        fabric = NetworkFabric(env, streams=streams)
        message = Message(MessageKind.PUSH_UPDATE, provider, servers[0], 2.0, version=1)
        received = []
        servers[0].consumer = lambda m: received.append((env.now, m.version))
        assert fabric.send(message) is None
        env.run()
        assert [version for _, version in received] == [1]
        assert received[0][0] > 0.0
        assert fabric.counters.messages_delivered == 1
        assert fabric.counters.dropped_messages == 0
        totals = fabric.ledger.kind_totals(MessageKind.PUSH_UPDATE)
        assert totals.count == 1
        assert totals.kb == pytest.approx(2.0)
        assert totals.km_kb == pytest.approx(2.0 * provider.distance_km(servers[0]))

    def test_latency_increases_with_distance(self):
        env = Environment()
        streams = StreamRegistry(12)
        topology = TopologyBuilder(env, streams).build(n_servers=20, users_per_server=0)
        fabric = NetworkFabric(env, streams=streams)
        provider = topology.provider
        near = min(topology.servers, key=provider.distance_km)
        far = max(topology.servers, key=provider.distance_km)
        assert fabric.min_latency_s(provider, far) > fabric.min_latency_s(provider, near)
        assert fabric.rtt_s(provider, far) == pytest.approx(
            2 * fabric.min_latency_s(provider, far)
        )

    def test_down_receiver_drops(self):
        env = Environment()
        streams = StreamRegistry(13)
        provider, servers = make_nodes(env, streams)
        fabric = NetworkFabric(env, streams=streams)
        servers[0].is_up = False
        received = []
        servers[0].consumer = received.append
        fabric.send(Message(MessageKind.POLL, provider, servers[0], 1.0))
        env.run()
        counters = fabric.counters
        assert counters.dropped_receiver_down == 1
        assert counters.dropped_messages == 1
        assert counters.messages_delivered == 0
        assert received == []

    def test_down_sender_drops_without_traffic(self):
        env = Environment()
        streams = StreamRegistry(14)
        provider, servers = make_nodes(env, streams)
        fabric = NetworkFabric(env, streams=streams)
        provider.is_up = False
        received = []
        servers[0].consumer = received.append
        fabric.send(Message(MessageKind.POLL, provider, servers[0], 1.0))
        env.run()
        counters = fabric.counters
        assert counters.dropped_sender_down == 1
        assert counters.messages_delivered == 0
        assert received == []
        assert fabric.ledger.totals().count == 0
        # Settled inside send(): nothing went on the event heap.
        assert env.events_processed == 0

    def test_output_port_serialises_transmissions(self):
        env = Environment()
        streams = StreamRegistry(15)
        provider, servers = make_nodes(env, streams, n=5)
        params = FabricParams(latency_jitter_frac=0.0, per_message_overhead_s=0.0)
        fabric = NetworkFabric(env, params=params, streams=streams)
        # Each message takes 1 s of pure transmission time.
        size = provider.uplink_kbps
        arrival_times = []

        def sender(env):
            for server in servers:
                fabric.send(Message(MessageKind.PUSH_UPDATE, provider, server, size))
            return
            yield  # pragma: no cover

        for server in servers:
            server.consumer = lambda message: arrival_times.append(env.now)
        env.process(sender(env))
        env.run()
        arrival_times.sort()
        # The k-th message cannot leave before k seconds of transmission.
        for k, arrival in enumerate(arrival_times, start=1):
            assert arrival >= k

    def test_params_validation(self):
        with pytest.raises(ValueError):
            FabricParams(speed_km_per_s=0)
        with pytest.raises(ValueError):
            FabricParams(path_stretch=0.5)
        with pytest.raises(ValueError):
            FabricParams(base_latency_s=-0.001)
        with pytest.raises(ValueError):
            FabricParams(per_message_overhead_s=-1e-9)
        with pytest.raises(ValueError):
            FabricParams(latency_jitter_frac=-0.1)
        # Zero is a legal boundary for all three.
        FabricParams(base_latency_s=0.0, per_message_overhead_s=0.0,
                     latency_jitter_frac=0.0)

    def test_min_latency_memo_stable_under_jitter(self):
        env = Environment()
        streams = StreamRegistry(21)
        provider, servers = make_nodes(env, streams, n=3)
        fabric = NetworkFabric(env, streams=streams)
        first = [fabric.min_latency_s(provider, s) for s in servers]
        # Cached lookups must return the very same floats, and the memo
        # must key on direction-sensitive node ids.
        assert [fabric.min_latency_s(provider, s) for s in servers] == first
        expected = (
            fabric.params.base_latency_s
            + provider.distance_km(servers[0]) * fabric.params.path_stretch
            / fabric.params.speed_km_per_s
        )
        assert first[0] == expected


class TestTransferPorts:
    @staticmethod
    def _make_fabric(seed):
        env = Environment()
        streams = StreamRegistry(seed)
        topology = TopologyBuilder(env, streams).build(n_servers=4, users_per_server=0)
        fabric = NetworkFabric(env, streams=streams)
        return env, topology, fabric


    def test_uncontended_port_skips_grant_events(self):
        """Distinct senders never touch the Request grant machinery."""
        env, topology, fabric = self._make_fabric(7)
        for server in topology.servers:
            fabric.send(Message(MessageKind.POLL, server, topology.provider, 1.0))
        env.run()
        # 4 messages, uncontended: transmit hop + deliver hop = 2 events
        # each (transport is one-way, the transfer starts synchronously
        # inside send(), and a consumer-less node discards the delivery).
        assert fabric.counters.messages_delivered == 4
        assert env.events_processed == 8
        for server in topology.servers:
            assert server.output_port.users == []
            assert server.output_port.queue_length == 0


    def test_contended_port_stays_fifo(self):
        """Queued fast transfers drain in FIFO order at full port rate."""
        env, topology, fabric = self._make_fabric(8)
        provider = topology.provider
        size_kb = provider.uplink_kbps  # 1 s of pure transmission each
        order = []

        for index, server in enumerate(topology.servers):
            server.consumer = lambda message, index=index: order.append(
                (index, message.version)
            )
            fabric.send(
                Message(MessageKind.PUSH_UPDATE, provider, server, size_kb, version=index)
            )
        env.run()
        assert [version for _, version in sorted(order)] == [0, 1, 2, 3]
        # Transmissions serialised: total sender-side time covers 4 back-to-
        # back transmissions (plus queue wait), so >= 1+2+3+4 seconds.
        assert fabric.counters.queueing_s >= 10.0
        assert provider.output_port.users == []


class TestTopology:
    def test_build_shapes(self):
        env = Environment()
        streams = StreamRegistry(16)
        topology = TopologyBuilder(env, streams).build(n_servers=7, users_per_server=3)
        assert topology.n_servers == 7
        assert len(topology.users) == 7
        assert all(len(group) == 3 for group in topology.users)
        assert len(topology.all_nodes()) == 1 + 7 + 21

    def test_provider_in_requested_city(self):
        env = Environment()
        streams = StreamRegistry(17)
        topology = TopologyBuilder(env, streams).build(
            n_servers=1, users_per_server=0, provider_city="Tokyo"
        )
        assert topology.provider.city_name == "Tokyo"

    def test_users_near_their_server(self):
        env = Environment()
        streams = StreamRegistry(18)
        topology = TopologyBuilder(env, streams).build(n_servers=4, users_per_server=2)
        for server, users in zip(topology.servers, topology.users):
            for user in users:
                assert server.distance_km(user) < 40

    def test_invalid_sizes(self):
        env = Environment()
        streams = StreamRegistry(19)
        builder = TopologyBuilder(env, streams)
        with pytest.raises(ValueError):
            builder.build(n_servers=0)
        with pytest.raises(ValueError):
            builder.build(n_servers=1, users_per_server=-1)

    def test_placement_deterministic_per_seed(self):
        def build(seed):
            env = Environment()
            topology = TopologyBuilder(env, StreamRegistry(seed)).build(
                n_servers=5, users_per_server=0
            )
            return [(s.point.lat, s.point.lon) for s in topology.servers]

        assert build(1) == build(1)
        assert build(1) != build(2)
