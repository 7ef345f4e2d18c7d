"""Seeded traffic schedules and one measured round of the metro benchmark.

A *round* builds a fresh 4-edomain x 3-SN x 4-host metro, opens the
workload's initial connections, posts the whole open-loop schedule onto the
simulator (every event time is fixed in sim time before the clock starts),
then runs the simulator to idle.  Only ``Simulator.run`` is timed.

The program sees nothing but the schedule, through the public host API:
``Host.connect``, ``Host.send`` and ``Host.close``.  Each data packet carries
a 64-byte payload that names its connection and sequence number, so the
receiving side can check that it arrived at the right host, on the right
connection, exactly once and intact.
"""

from __future__ import annotations

import random
import struct
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Optional

from repro.core.service_module import WellKnownService
from repro.scenarios import metro_federation

METRO = (4, 3, 4)  # edomains, SNs per edomain, hosts per SN
PAYLOAD_BYTES = 64
IP_DELIVERY = WellKnownService.IP_DELIVERY

_PAYLOAD_HEAD = struct.Struct(">IIQ")  # connection index, sequence, seed


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    params: dict


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "warm_burst",
            "long-lived connections send 16-packet trains: the batched fast "
            "path with almost no slow-path work",
            {"connections": 48, "train": 16, "ticks": 14,
             "tick_gap_ms": [0.5, 1.5], "payload_bytes": PAYLOAD_BYTES},
        ),
        Workload(
            "paced",
            "Poisson single packets on the same connections: every ingress "
            "takes the one-packet path, the bypass pair for batching",
            {"connections": 48, "packets": 10_240, "rate_pps_sim": 20_000,
             "payload_bytes": PAYLOAD_BYTES},
        ),
        Workload(
            "churn",
            "short connections arrive as a Poisson stream: slow path, "
            "decision-cache installs and invalidations on every close",
            {"connections": 2_560, "rate_conn_per_s_sim": 2_000,
             "packets_per_conn": 4, "gap_ms": 0.1,
             "payload_bytes": PAYLOAD_BYTES},
        ),
    )
}


def payload_bytes(conn_index: int, seq: int, seed: int) -> bytes:
    """The 64-byte payload of one data packet (head + seeded filler)."""
    head = _PAYLOAD_HEAD.pack(conn_index, seq, seed)
    fill = bytes((conn_index * 31 + seq * 7 + i) & 0xFF
                 for i in range(PAYLOAD_BYTES - len(head)))
    return head + fill


def parse_payload(data: bytes) -> tuple[int, int, int]:
    return _PAYLOAD_HEAD.unpack_from(data)


@dataclass
class Schedule:
    """A workload's inputs, fully built from the seed before the clock starts.

    ``pairs[i]`` is connection *i*'s (source host, destination host) index
    pair.  ``events`` is a time-ordered list of ``(sim_time, kind, arg)``:
    ``"open"``, ``"send"`` (one packet) and ``"close"`` name a connection
    index; ``"train"`` gives a train length that every connection sends
    back to back.  ``initial`` lists the connections opened during set-up
    rather than by an event.
    """

    workload: str
    seed: int
    pairs: list[tuple[int, int]]
    initial: list[int]
    events: list[tuple[float, str, Any]]
    data_packets: int
    closes: int


#: Where connection ``i`` goes relative to its source, by ``i % 16``: the
#: source's own SN (2 of 16), another SN of its edomain (2), another edomain
#: (12, four to each SN position).  Close to a uniform pick among the other
#: 47 hosts, but the same mix of paths on every seed, so seeds differ in
#: which hosts talk and not in how many hops a packet takes.
_RELATIONS = [(False, 0)] * 2 + [(False, 1), (False, 2)] + [
    (True, t) for t in range(3) for _ in range(4)]


def _pick_pairs(rng: random.Random, count: int,
                every_host_sends: bool) -> list[tuple[int, int]]:
    n_domains, n_sns, n_hosts = METRO
    per_domain = n_sns * n_hosts
    total = n_domains * per_domain
    pairs = []
    for i in range(count):
        src = i % total if every_host_sends else rng.randrange(total)
        d, s, h = src // per_domain, src // n_hosts % n_sns, src % n_hosts
        other_domain, shift = _RELATIONS[i % len(_RELATIONS)]
        if other_domain:
            d = (d + 1 + rng.randrange(n_domains - 1)) % n_domains
            s = shift
            h = rng.randrange(n_hosts)
        else:
            s = (s + shift) % n_sns
            h = (h + (shift == 0) + rng.randrange(n_hosts - (shift == 0))) \
                % n_hosts
        pairs.append((src, d * per_domain + s * n_hosts + h))
    return pairs


def build_schedule(workload: str, seed: int, scale: float = 1.0) -> Schedule:
    """Build ``workload``'s schedule from ``seed``.

    ``scale`` shrinks the packet or connection count (the benchmark's own
    tests use small scales); the timed benchmark always runs at 1.0.
    """
    params = WORKLOADS[workload].params
    rng = random.Random(f"{workload}:{seed}")
    events: list[tuple[float, str, Any]] = []
    if workload == "warm_burst":
        pairs = _pick_pairs(rng, params["connections"], True)
        lo, hi = params["tick_gap_ms"]
        t = 0.0
        for _ in range(max(1, round(params["ticks"] * scale))):
            t += rng.uniform(lo, hi) / 1e3
            events.append((t, "train", params["train"]))
        data = len(events) * params["train"] * len(pairs)
        return Schedule(workload, seed, pairs, list(range(len(pairs))),
                        events, data, 0)
    if workload == "paced":
        pairs = _pick_pairs(rng, params["connections"], True)
        t = 0.0
        count = max(1, round(params["packets"] * scale))
        for _ in range(count):
            t += rng.expovariate(params["rate_pps_sim"])
            events.append((t, "send", rng.randrange(len(pairs))))
        return Schedule(workload, seed, pairs, list(range(len(pairs))),
                        events, count, 0)
    if workload == "churn":
        count = max(1, round(params["connections"] * scale))
        pairs = _pick_pairs(rng, count, False)
        gap = params["gap_ms"] / 1e3
        k = params["packets_per_conn"]
        t = 0.0
        for conn in range(count):
            t += rng.expovariate(params["rate_conn_per_s_sim"])
            events.append((t, "open", conn))
            for j in range(k):
                events.append((t + j * gap, "send", conn))
            events.append((t + k * gap, "close", conn))
        events.sort(key=lambda e: e[0])  # stable: ties keep build order
        return Schedule(workload, seed, pairs, [], events, count * k, count)
    raise KeyError(f"unknown workload {workload!r}")


@dataclass
class Round:
    """Everything one round leaves behind for the checks and the metrics."""

    setup_s: float
    wall_s: float
    handles: Any
    schedule: Schedule
    conns: list[Any]
    sent: list[tuple[int, int, float]] = field(default_factory=list)
    #: (receiving host index, connection id, payload bytes, sim time)
    received: list[tuple[int, int, bytes, float]] = field(default_factory=list)
    #: (receiving host index, connection id) of every delivered close
    closed: list[tuple[int, int]] = field(default_factory=list)
    #: wall time of each slice of the timed run (see :func:`run_round`)
    slices_s: list[float] = field(default_factory=list)


def build_round(schedule: Schedule) -> Round:
    """Build the metro and open the initial connections (timed as set-up)."""
    t0 = time.perf_counter()
    handles = metro_federation(*METRO)
    conns: list[Any] = [None] * len(schedule.pairs)
    for i in schedule.initial:
        src, dst = schedule.pairs[i]
        conns[i] = _connect(handles, src, dst)
    setup = time.perf_counter() - t0
    return Round(setup, 0.0, handles, schedule, conns)


def _connect(handles: Any, src: int, dst: int) -> Any:
    dest = handles.hosts[dst]
    return handles.hosts[src].connect(
        IP_DELIVERY, dest_addr=dest.address,
        dest_sn=dest.first_hop_addresses[0], allow_direct=False,
    )


def post_schedule(rnd: Round, wrap: Optional[Callable] = None) -> None:
    """Post the schedule's events and install the receive handlers.

    ``wrap`` (the tracer's ``bench`` span) wraps every benchmark callback so
    the benchmark's own time stays out of the program's layers.
    """
    sched = rnd.schedule
    handles = rnd.handles
    hosts = handles.hosts
    sim = handles.net.sim
    conns = rnd.conns
    seed = sched.seed
    pairs = sched.pairs
    next_seq = [0] * len(pairs)
    sent = rnd.sent
    # Payloads are inputs: build them all before the clock starts.
    per_conn: dict[int, int] = {}
    for _, kind, arg in sched.events:
        if kind == "send":
            per_conn[arg] = per_conn.get(arg, 0) + 1
    if any(kind == "train" for _, kind, _ in sched.events):
        trains = sum(arg for _, kind, arg in sched.events if kind == "train")
        for i in range(len(pairs)):
            per_conn[i] = per_conn.get(i, 0) + trains
    data = {i: [payload_bytes(i, s, seed) for s in range(n)]
            for i, n in per_conn.items()}

    def send_one(i: int) -> None:
        seq = next_seq[i]
        next_seq[i] = seq + 1
        src = pairs[i][0]
        sent.append((i, seq, sim.now))
        hosts[src].send(conns[i], data[i][seq])

    def on_open(i: int) -> None:
        conns[i] = _connect(handles, *pairs[i])

    def on_send(i: int) -> None:
        send_one(i)

    def on_train(length: int) -> None:
        for i in range(len(pairs)):
            for _ in range(length):
                send_one(i)

    def on_close(i: int) -> None:
        hosts[pairs[i][0]].close(conns[i])

    actions = {"open": on_open, "send": on_send, "train": on_train,
               "close": on_close}
    if wrap is not None:
        actions = {k: wrap(v) for k, v in actions.items()}
    for when, kind, arg in sched.events:
        sim.post_at(when, actions[kind], arg)

    received = rnd.received
    closed = rnd.closed

    def make_handler(h: int) -> Callable:
        def handler(conn_id: int, header: Any, payload: Any) -> None:
            if payload.l4 is None and not payload.data:
                closed.append((h, conn_id))
            else:
                received.append((h, conn_id, payload.data, sim.now))
        return wrap(handler) if wrap is not None else handler

    for h, host in enumerate(hosts):
        host.on_service_data(IP_DELIVERY, make_handler(h))


def run_round(rnd: Round, slice_events: int = 0) -> None:
    """Run the posted schedule to completion; the only timed region.

    With ``slice_events`` the run is cut into slices of that many simulator
    events and the wall time of each goes to ``rnd.slices_s``.  The event
    sequence is fixed by the seed, so slice *k* does the same work in every
    round of a run.  Without it the run is one ``Simulator.run`` call (the
    traced rounds need that: it is their root span).
    """
    sim = rnd.handles.net.sim
    clock = time.perf_counter
    start = clock()
    if not slice_events:
        sim.run()
        rnd.wall_s = clock() - start
        return
    run = sim.run
    slices = rnd.slices_s
    t0 = start
    while run(max_events=slice_events):
        t = clock()
        slices.append(t - t0)
        t0 = t
    rnd.wall_s = clock() - start
