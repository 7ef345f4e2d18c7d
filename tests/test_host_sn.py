"""Unit tests for the host stack and service node behaviors."""

import pytest

from repro.core.host import Host, HostError
from repro.core.ilp import Flags, ILPHeader, TLV
from repro.core.ipc import InvocationMode
from repro.core.packet import make_payload
from repro.core.service_node import ServiceNode
from repro.core.service_module import Verdict, WellKnownService
from repro.netsim import Link, Simulator
from repro.services import IPDeliveryService, NullService


def _basic(sim=None):
    sim = sim or Simulator()
    sn = ServiceNode(sim, "sn", "10.0.0.1")
    a = Host(sim, "a", "192.168.0.1", subnet="192.168.0.0/24")
    b = Host(sim, "b", "192.168.0.2", subnet="192.168.0.0/24")
    Link(sim, a, sn, latency=0.001)
    Link(sim, b, sn, latency=0.001)
    sn.associate_host(a)
    sn.associate_host(b)
    return sim, sn, a, b


class TestAssociation:
    def test_association_creates_psp_both_sides(self):
        _, sn, a, _ = _basic()
        assert sn.keystore.has(a.address)
        assert a.keystore.has(sn.address)
        assert a.first_hop_addresses == [sn.address]
        assert a.address in sn.associated_hosts

    def test_connect_requires_first_hop(self):
        sim = Simulator()
        orphan = Host(sim, "o", "192.168.5.5")
        with pytest.raises(HostError):
            orphan.connect(1)

    def test_first_hop_prefers_sn_with_service(self):
        sim = Simulator()
        sn1 = ServiceNode(sim, "sn1", "10.0.0.1")
        sn2 = ServiceNode(sim, "sn2", "10.0.0.2")
        sn2.load_service(NullService())
        host = Host(sim, "h", "192.168.0.1")
        Link(sim, host, sn1)
        Link(sim, host, sn2)
        sn1.associate_host(host)
        sn2.associate_host(host)
        assert host.first_hop_for(NullService.SERVICE_ID) is sn2
        # Unknown service: falls back to the first association.
        assert host.first_hop_for(0x7777) is sn1


class TestSendReceive:
    def test_delivery_via_sn(self):
        sim, sn, a, b = _basic()
        sn.load_service(NullService())
        conn = a.connect(
            WellKnownService.NULL, dest_addr=b.address, allow_direct=False
        )
        a.send(conn, b"ping")
        sim.run()
        assert [p.data for _, p in b.delivered] == [b"ping"]
        assert conn.packets_sent == 1

    def test_first_flag_only_on_first_packet(self):
        sim, sn, a, b = _basic()
        sn.load_service(NullService())
        conn = a.connect(WellKnownService.NULL, dest_addr=b.address, allow_direct=False)
        a.send(conn, b"one")
        a.send(conn, b"two")
        sim.run()
        flags = [h.flags & Flags.FIRST for h, _ in b.delivered]
        assert flags == [Flags.FIRST, 0]

    def test_service_handler_dispatch(self):
        sim, sn, a, b = _basic()
        sn.load_service(NullService())
        got = []
        b.on_service_data(WellKnownService.NULL, lambda cid, h, p: got.append(p.data))
        conn = a.connect(WellKnownService.NULL, dest_addr=b.address, allow_direct=False)
        a.send(conn, b"x")
        sim.run()
        assert got == [b"x"]

    def test_default_handler_fallback(self):
        sim, sn, a, b = _basic()
        sn.load_service(NullService())
        got = []
        b.default_handler = lambda cid, h, p: got.append(h.service_id)
        conn = a.connect(WellKnownService.NULL, dest_addr=b.address, allow_direct=False)
        a.send(conn, b"x")
        sim.run()
        assert got == [WellKnownService.NULL]

    def test_closed_connection_rejects_send(self):
        sim, sn, a, b = _basic()
        sn.load_service(NullService())
        conn = a.connect(WellKnownService.NULL, dest_addr=b.address, allow_direct=False)
        a.close(conn)
        with pytest.raises(HostError):
            a.send(conn, b"late")

    def test_undecryptable_counted(self):
        sim, sn, a, b = _basic()
        # b receives a frame sealed with a key it does not know.
        from repro.core.packet import ILPPacket, L3Header
        from repro.core.psp import PSPContext, pairwise_secret

        rogue = PSPContext(pairwise_secret("10.0.0.1", "4.4.4.4"))
        pkt = ILPPacket(
            l3=L3Header(src="10.0.0.1", dst=b.address),
            ilp_wire=rogue.seal(ILPHeader(service_id=1, connection_id=1).encode()),
            payload=make_payload(b""),
        )
        sn.register_peer_node(b.address, b)
        sn.send_frame(pkt, b)
        sim.run()
        assert b.undeliverable == 1


class TestDirectConnectivity:
    def test_same_subnet_direct_path(self):
        """§3.2: same-subnet hosts with a direct link bypass SNs."""
        sim, sn, a, b = _basic()
        Link(sim, a, b, latency=0.0005)
        conn = a.connect(WellKnownService.IP_DELIVERY, dest_addr=b.address)
        assert conn.direct_peer == b.address
        a.send(conn, b"direct!")
        sim.run()
        assert [p.data for _, p in b.delivered] == [b"direct!"]
        assert sn.terminus.stats.packets_in == 0  # SN never touched

    def test_no_direct_without_link(self):
        sim, sn, a, b = _basic()
        conn = a.connect(WellKnownService.IP_DELIVERY, dest_addr=b.address)
        assert conn.direct_peer is None

    def test_no_direct_across_subnets(self):
        sim = Simulator()
        sn = ServiceNode(sim, "sn", "10.0.0.1")
        a = Host(sim, "a", "192.168.0.1", subnet="192.168.0.0/24")
        c = Host(sim, "c", "172.16.0.1", subnet="172.16.0.0/24")
        Link(sim, a, sn)
        Link(sim, c, sn)
        Link(sim, a, c)  # physical adjacency but different subnets
        sn.associate_host(a)
        sn.associate_host(c)
        conn = a.connect(WellKnownService.IP_DELIVERY, dest_addr=c.address)
        assert conn.direct_peer is None

    def test_direct_disabled_by_flag(self):
        sim, sn, a, b = _basic()
        Link(sim, a, b)
        conn = a.connect(
            WellKnownService.IP_DELIVERY, dest_addr=b.address, allow_direct=False
        )
        assert conn.direct_peer is None


class TestControlPlaneMessages:
    def test_out_of_band_control_reaches_service(self):
        sim, sn, a, b = _basic()
        service = NullService()
        sn.load_service(service)
        seen = []
        service.handle_control = lambda h, p: (seen.append(h), Verdict.drop())[1]
        a.send_control(WellKnownService.NULL, {TLV.SERVICE_OPTS: b"hello"})
        sim.run()
        assert len(seen) == 1
        assert seen[0].is_control


class TestFailover:
    def test_checkpoint_transfer(self):
        sim, sn, a, b = _basic()
        service = NullService()
        sn.load_service(service)
        service.packets_seen = 17
        standby = ServiceNode(sim, "standby", "10.0.0.99")
        standby_svc = NullService()
        standby.load_service(standby_svc)
        count = sn.failover_to(standby)
        assert count == 1
        assert standby_svc.packets_seen == 17


class TestCloseAcrossSNs:
    """A LAST packet must reach every SN on the path, not die at the first."""

    def test_close_clears_every_sn_on_the_path(self):
        from repro.scenarios import metro_federation

        handles = metro_federation(n_edomains=2, sns_per_edomain=2, hosts_per_sn=1)
        src, dst = handles.hosts[1], handles.hosts[3]  # sn-0-1 → sn-1-1
        conn = src.connect(
            WellKnownService.IP_DELIVERY,
            dest_addr=dst.address,
            dest_sn=dst.first_hop_addresses[0],
            allow_direct=False,
        )
        for i in range(3):
            src.send(conn, b"data-%d" % i)
        handles.net.run(1.0)

        def holding():
            return [
                sn.name
                for sn in handles.sns
                if any(k.connection_id == conn.connection_id for k in sn.cache.keys())
            ]

        assert len(holding()) >= 2, "the path must span several SNs"
        src.close(conn)
        handles.net.run(1.0)
        assert holding() == []
        assert sum(sn.terminus.stats.drops_by_service for sn in handles.sns) == 0
        last = [h for h, _ in dst.delivered if h.flags & Flags.LAST]
        assert [h.connection_id for h in last] == [conn.connection_id]
