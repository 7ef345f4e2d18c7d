"""InterEdge host support (§3.1 "Host support", §3.2 invocation modes).

The host component implements:

* ILP: sealing/opening headers with the first-hop SN's PSP context;
* the **extended host network API**: applications open connections naming a
  desired InterEdge service (exactly one — no ad-hoc composition, §3.2) and
  optional settings carried as ILP TLVs;
* **out-of-band invocation**: control messages to the first-hop SN that
  apply a service to portions of the host's traffic (e.g. last-hop QoS);
* client-side logic for services that need it (pub/sub, anycast, multicast
  joins, relay wrapping) via per-service *host agents*;
* **direct connectivity**: two InterEdge hosts on the same subnet exchange
  ILP packets directly, SNs uninvolved (§3.2).
"""

from __future__ import annotations

import ipaddress
import itertools
from dataclasses import dataclass, field
from typing import Any, Callable, Optional

from ..netsim.engine import Simulator
from ..netsim.link import Link
from ..netsim.node import NetNode
from .crypto import KeyPair
from .ilp import Flags, ILPHeader, TLV, new_connection_id
from .overload import RetryStats, retry_call
from .packet import ILPPacket, L3Header, Payload, RawIPPacket, make_payload
from .psp import PSPError, PeerKeyStore, pairwise_secret


class HostError(Exception):
    """Raised for invalid host API usage."""


@dataclass
class HostConnection:
    """One application connection using exactly one InterEdge service."""

    connection_id: int
    service_id: int
    dest_addr: Optional[str]
    dest_sn: Optional[str]
    via_sn: str
    tlvs: dict[int, bytes] = field(default_factory=dict)
    packets_sent: int = 0
    packets_received: int = 0
    closed: bool = False
    direct_peer: Optional[str] = None  # set when same-subnet direct path used


#: Application receive callback: (connection_id, header, payload) -> None
DataHandler = Callable[[int, ILPHeader, Payload], None]


class Host(NetNode):
    """An InterEdge-aware endpoint."""

    def __init__(
        self,
        sim: Simulator,
        name: str,
        address: str,
        subnet: str = "0.0.0.0/0",
        keypair: Optional[KeyPair] = None,
    ) -> None:
        super().__init__(sim, name)
        self.address = address
        self.subnet = ipaddress.IPv4Network(subnet)
        self.keypair = keypair or KeyPair.generate()
        self.keystore = PeerKeyStore(owner=address)
        self._first_hops: list[Any] = []  # ServiceNode references
        self._addr_to_node: dict[str, NetNode] = {}
        self._connections: dict[int, HostConnection] = {}
        self._service_handlers: dict[int, DataHandler] = {}
        self._control_handlers: dict[int, DataHandler] = {}
        self.default_handler: Optional[DataHandler] = None
        self.delivered: list[tuple[ILPHeader, Payload]] = []
        self.undeliverable = 0
        #: Backoff bookkeeping for retried first-hop lookups.
        self.retry_stats = RetryStats()

    # -- association ---------------------------------------------------------
    def register_first_hop(self, sn: Any) -> None:
        """Called by :meth:`ServiceNode.associate_host`."""
        if sn not in self._first_hops:
            self._first_hops.append(sn)
        self._addr_to_node[sn.address] = sn

    @property
    def first_hop_addresses(self) -> list[str]:
        return [sn.address for sn in self._first_hops]

    def reassociate(self, new_sn: Any, drop_old: bool = False) -> None:
        """Move this host's primary association to ``new_sn`` (§3.3
        host-driven recovery / mobility handoff).

        Make-before-break: the new association is created (with a link if
        needed) and promoted to primary; old associations are kept unless
        ``drop_old`` — in-flight connections through them keep working.
        """
        from ..netsim.link import Link

        if not self.has_link_to(new_sn):
            Link(self.sim, self, new_sn, latency=0.001)
        if new_sn not in self._first_hops:
            new_sn.associate_host(self)
        if drop_old:
            for old in list(self._first_hops):
                if old is not new_sn:
                    self._first_hops.remove(old)
        self._first_hops.sort(key=lambda sn: sn is not new_sn)

    def first_hop_for(self, service_id: int) -> Any:
        """Pick the first-hop SN for a service.

        §3.1: the choice depends on who pays for the service. We model this
        as: prefer an SN that actually deploys the service, else the first
        associated SN (pass-through SNs deploy nothing but forward onward).
        One bounded retry (host-driven recovery, §3.3): a reassociation in
        flight may land between the attempts.
        """
        return retry_call(
            lambda: self._first_hop_for(service_id),
            attempts=2,
            retry_on=(HostError,),
            stats=self.retry_stats,
        )

    def _first_hop_for(self, service_id: int) -> Any:
        if not self._first_hops:
            raise HostError(f"host {self.name} has no first-hop SN")
        for sn in self._first_hops:
            if sn.pass_through is not None or sn.env.has_service(service_id):
                return sn
        return self._first_hops[0]

    # -- extended network API (§3.2 explicit invocation) -------------------
    def connect(
        self,
        service_id: int,
        dest_addr: Optional[str] = None,
        dest_sn: Optional[str] = None,
        tlvs: Optional[dict[int, bytes]] = None,
        allow_direct: bool = True,
    ) -> HostConnection:
        """Open a connection that invokes a single InterEdge service."""
        via = self.first_hop_for(service_id)
        conn = HostConnection(
            connection_id=new_connection_id(),
            service_id=service_id,
            dest_addr=dest_addr,
            dest_sn=dest_sn,
            via_sn=via.address,
            tlvs=dict(tlvs or {}),
        )
        if allow_direct and dest_addr is not None:
            direct = self._direct_candidate(dest_addr)
            if direct is not None:
                conn.direct_peer = dest_addr
                self._ensure_direct_association(direct)
        self._connections[conn.connection_id] = conn
        return conn

    def adopt_connection(self, conn: HostConnection, connection_id: int) -> None:
        """Re-key a connection under a caller-chosen ID and register it.

        Relay-style services (oDNS, private relay) answer an inbound
        connection by opening a fresh outbound one that must carry the
        *original* connection ID so the far end can correlate the reply.
        """
        self._connections.pop(conn.connection_id, None)
        conn.connection_id = connection_id
        self._connections[connection_id] = conn

    def connection(self, connection_id: int) -> Optional[HostConnection]:
        """The registered connection with this ID, if any."""
        return self._connections.get(connection_id)

    def prefer_first_hop(self, address: str) -> None:
        """Promote the associated SN with ``address`` to primary first hop.

        Used by the load balancer after migrating a host association: new
        connections pick the promoted SN, existing ones keep working.
        """
        self._first_hops.sort(key=lambda sn: sn.address != address)

    def _direct_candidate(self, dest_addr: str) -> Optional[NetNode]:
        """Same-subnet neighbor reachable without an SN (§3.2)."""
        try:
            if ipaddress.IPv4Address(dest_addr) not in self.subnet:
                return None
        except ValueError:
            return None
        for neighbor in self.neighbors():
            if getattr(neighbor, "address", None) == dest_addr and isinstance(
                neighbor, Host
            ):
                return neighbor
        return None

    def _ensure_direct_association(self, other: "Host") -> None:
        if not self.keystore.has(other.address):
            secret = pairwise_secret(self.address, other.address)
            self.keystore.establish(other.address, secret)
            other.keystore.establish(self.address, secret)
        self._addr_to_node[other.address] = other
        other._addr_to_node[self.address] = self

    def send(
        self,
        conn: HostConnection,
        data: bytes,
        extra_tlvs: Optional[dict[int, bytes]] = None,
        first: Optional[bool] = None,
        payload: Optional[Payload] = None,
        extra_flags: int = 0,
    ) -> bool:
        """Send application data on a connection.

        ``extra_flags`` ORs additional ILP flags into the header (e.g.
        ``Flags.MORE_HEADER`` when connection-setup info spans packets,
        §B.2).
        """
        if conn.closed:
            raise HostError("connection is closed")
        header = self._build_header(conn, extra_tlvs, first)
        header.flags |= extra_flags
        body = payload if payload is not None else make_payload(data)
        conn.packets_sent += 1
        target = conn.direct_peer or conn.via_sn
        return self._seal_and_send(target, header, body)

    def _build_header(
        self,
        conn: HostConnection,
        extra_tlvs: Optional[dict[int, bytes]],
        first: Optional[bool],
    ) -> ILPHeader:
        flags = Flags.NONE
        is_first = conn.packets_sent == 0 if first is None else first
        if is_first:
            flags |= Flags.FIRST
        header = ILPHeader(
            service_id=conn.service_id,
            connection_id=conn.connection_id,
            flags=flags,
            tlvs=dict(conn.tlvs),
        )
        header.set_str(TLV.SRC_HOST, self.address)
        if conn.dest_addr is not None:
            header.set_str(TLV.DEST_ADDR, conn.dest_addr)
        if conn.dest_sn is not None:
            header.set_str(TLV.DEST_SN, conn.dest_sn)
        if extra_tlvs:
            header.tlvs.update(extra_tlvs)
        return header

    def close(self, conn: HostConnection) -> None:
        """Close a connection, telling the service via a LAST-flagged packet."""
        if conn.closed:
            return
        conn.closed = True
        # The LAST packet carries the connection's full addressing (DEST_ADDR,
        # DEST_SN, setup TLVs) so every SN on the path can route it onward
        # and drop its own cached state for the connection.
        header = self._build_header(conn, None, first=False)
        header.flags |= Flags.LAST
        target = conn.direct_peer or conn.via_sn
        self._seal_and_send(target, header, Payload(l4=None))

    # -- out-of-band invocation (§3.2 second mode) -------------------------
    def send_control(
        self,
        service_id: int,
        tlvs: dict[int, bytes],
        via: Optional[str] = None,
        connection_id: int = 0,
    ) -> bool:
        """Ask the first-hop SN to apply a service out of band."""
        header = ILPHeader(
            service_id=service_id,
            connection_id=connection_id or new_connection_id(),
            flags=Flags.CONTROL,
            tlvs=dict(tlvs),
        )
        header.set_str(TLV.SRC_HOST, self.address)
        target = via or self.first_hop_for(service_id).address
        return self._seal_and_send(target, header, Payload(l4=None))

    # -- receive side ---------------------------------------------------------
    def on_service_data(self, service_id: int, handler: DataHandler) -> None:
        self._service_handlers[service_id] = handler

    def on_service_control(self, service_id: int, handler: DataHandler) -> None:
        self._control_handlers[service_id] = handler

    def handle_frame(self, frame: Any, link: Link) -> None:
        if isinstance(frame, RawIPPacket):
            # Legacy traffic to an InterEdge host still lands (§3.3).
            self.delivered.append(
                (ILPHeader(service_id=0, connection_id=0), frame.payload)
            )
            return
        if not isinstance(frame, ILPPacket):
            return
        peer = frame.l3.src
        if not self.keystore.has(peer):
            self.undeliverable += 1
            return
        try:
            header = ILPHeader.decode(self.keystore.get(peer).open(frame.ilp_wire))
        except PSPError:
            self.undeliverable += 1
            return
        self._deliver(header, frame.payload)

    def _deliver(self, header: ILPHeader, payload: Payload) -> None:
        conn = self._connections.get(header.connection_id)
        if conn is not None:
            conn.packets_received += 1
        self.delivered.append((header, payload))
        if header.is_control:
            handler = self._control_handlers.get(header.service_id)
        else:
            handler = self._service_handlers.get(header.service_id)
        if handler is None:
            handler = self.default_handler
        if handler is not None:
            handler(header.connection_id, header, payload)

    # -- transport ----------------------------------------------------------
    def _seal_and_send(self, peer: str, header: ILPHeader, payload: Payload) -> bool:
        if not self.keystore.has(peer):
            raise HostError(f"no PSP association with {peer}")
        node = self._addr_to_node.get(peer)
        if node is None or not self.has_link_to(node):
            return False
        wire = self.keystore.get(peer).seal(header.encode())
        packet = ILPPacket(
            l3=L3Header(src=self.address, dst=peer),
            ilp_wire=wire,
            payload=payload,
            created_at=self.sim.now,
        )
        return self.send_frame(packet, node)

    def send_raw_ip(self, dest: str, data: bytes, via: Optional[NetNode] = None) -> bool:
        """Send a legacy (non-ILP) packet — backwards-compatibility path."""
        packet = RawIPPacket(
            l3=L3Header(src=self.address, dst=dest, proto=17),
            payload=make_payload(data),
        )
        target = via
        if target is None:
            if not self._first_hops:
                raise HostError("no route for raw IP")
            target = self._first_hops[0]
        return self.send_frame(packet, target)
