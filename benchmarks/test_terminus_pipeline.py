"""Terminus flow-run batching benchmark: per-packet vs batched forwarding.

PR 1 made seal/open ~3.8× faster, leaving per-packet overhead *around* the
crypto (object construction, repeated decision-cache lookups for the same
flow, per-packet simulator events) as the dominant cost of
``terminus_forward``. The flow-run batched pipeline amortizes that work
over runs of same-flow packets; this module measures the gap and guards
it in CI:

* ``terminus_forward`` per-packet vs ``receive_batch`` pps on a
  flow-local burst, with the **relative** regression gate
  ``batched ≥ 2× per-packet`` (same run, same machine — container speed
  cannot flake it);
* a flow-locality sweep (1, 8, 64 flows per burst, contiguous blocks) plus
  the fully interleaved worst case (every run has length 1);
* the burst-sharding gate: batched vs per-packet on the fully
  *interleaved* 64-flow burst — the workload sharding exists for — with
  its own ``batched ≥ 2× per-packet`` relative gate (pre-sharding, the
  batched path gained ~nothing here: 22.2k vs 141.4k pps flow-local);
* the cold-storm gate: the same interleaved 64-flow burst with the
  decision cache wiped before every iteration, so *every* flow takes the
  slow path — per-packet punting (one IPC round trip per packet) vs the
  coalesced miss path (one lead punt per flow, batched per span, with
  followers drained off the fresh install), ``coalesced ≥ 2×
  per-packet`` relative gate;
* the observability overhead gate: the warm flow-local burst with obs
  disabled (shared no-op recorder) vs armed-but-quiet (``sample_every=0``)
  vs fully sampled, with the relative gate ``quiet ≥ 0.97 × disabled``
  (the ≤3% disabled-overhead budget of the obs subsystem);
* a netsim engine microbench: event churn (schedule + dispatch) and
  timer re-arm throughput on the tuple-heap event loop, plus the
  lazy-cancel ledger (``pending`` vs ``pending_raw``) under a
  cancel-heavy load;
* the netsim burst-delivery event count: a back-to-back burst crosses a
  link as one coalesced simulator event instead of one event per frame.

``BENCH_terminus.json`` is written at the repo root so the perf
trajectory stays comparable across PRs (next to ``BENCH_crypto.json``).

Run directly:
    PYTHONPATH=src python -m pytest benchmarks/test_terminus_pipeline.py -q -s
"""

from __future__ import annotations

import json
import time
from pathlib import Path

from repro.core.decision_cache import CacheKey, Decision
from repro.core.ilp import ILPHeader, TLV
from repro.core.packet import ILPPacket, L3Header, make_payload
from repro.core.psp import PSPContext, pairwise_secret
from repro.core.service_module import ServiceModule, Verdict
from repro.core.service_node import ServiceNode
from repro.netsim import Simulator

_RESULTS_PATH = Path(__file__).resolve().parents[1] / "BENCH_terminus.json"
_results: dict[str, dict] = {}

SN_ADDR = "10.0.0.1"
INGRESS = "10.0.0.2"
EGRESS = "10.0.0.3"
BURST = 1024


def _make_rig():
    """An SN whose terminus transmits into a counting sink."""
    sim = Simulator()
    node = ServiceNode(sim, "sn", SN_ADDR)
    delivered = [0]

    def sink(peer: str, packet: ILPPacket) -> bool:
        delivered[0] += 1
        return True

    node.terminus._transmit = sink
    secret_in = pairwise_secret(SN_ADDR, INGRESS)
    node.keystore.establish(INGRESS, secret_in)
    node.keystore.establish(EGRESS, pairwise_secret(SN_ADDR, EGRESS))
    return node, PSPContext(secret_in), delivered


def _header_bytes(conn: int, service: int = 2) -> bytes:
    h = ILPHeader(service_id=service, connection_id=conn)
    h.set_str(TLV.DEST_ADDR, "192.168.0.77")
    h.set_str(TLV.SRC_HOST, "192.168.0.12")
    return h.encode()


def _flow_local_burst(tx: PSPContext, flows: int, interleaved: bool = False):
    """A burst of ``BURST`` packets over ``flows`` connections.

    Contiguous per-flow blocks by default (runs of ``BURST/flows``);
    ``interleaved`` round-robins the flows so every run has length 1.
    """
    payload = make_payload(b"x" * 64)
    headers = [_header_bytes(conn) for conn in range(1, flows + 1)]
    if interleaved:
        order = [headers[i % flows] for i in range(BURST)]
    else:
        per_flow = BURST // flows
        order = [h for h in headers for _ in range(per_flow)]
    l3 = L3Header(src=INGRESS, dst=SN_ADDR)  # frozen, so shareable
    return [
        ILPPacket(l3=l3, ilp_wire=wire, payload=payload)
        for wire in tx.seal_batch(order)
    ]


def _measure_pps(process, make_burst, min_seconds: float = 0.3) -> float:
    process(make_burst())  # warm schedules/memos outside the timed region
    total = 0
    elapsed = 0.0
    while elapsed < min_seconds:
        burst = make_burst()
        t0 = time.perf_counter()
        process(burst)
        elapsed += time.perf_counter() - t0
        total += len(burst)
    return total / elapsed


def test_batched_vs_per_packet_forward():
    """The CI regression gate: batched ≥ 2× per-packet, same run."""
    node, tx, _ = _make_rig()
    for conn in range(1, 65):
        node.cache.install(
            CacheKey(INGRESS, 2, conn), Decision.forward(EGRESS)
        )
    terminus = node.terminus
    receive = terminus.receive

    def per_packet(burst):
        for packet in burst:
            receive(packet)

    per_packet_pps = _measure_pps(
        per_packet, lambda: _flow_local_burst(tx, flows=1)
    )
    batched_pps = _measure_pps(
        terminus.receive_batch, lambda: _flow_local_burst(tx, flows=1)
    )
    speedup = batched_pps / per_packet_pps
    _results["terminus_forward"] = {
        "per_packet_pps": round(per_packet_pps, 1),
        "batched_pps": round(batched_pps, 1),
        "speedup": round(speedup, 2),
        "burst": BURST,
        "us_per_op_batched": round(1e6 / batched_pps, 3),
    }
    assert terminus.stats.drops_auth == 0
    assert terminus.stats.packets_out == terminus.stats.packets_in
    assert speedup >= 2.0, (
        f"flow-run batching gained only {speedup:.2f}x over per-packet "
        f"({batched_pps:.0f} vs {per_packet_pps:.0f} pps); gate is 2x"
    )


def test_flow_locality_sweep():
    """Batched pps vs run length: 1, 8, 64 flows/burst + interleaved."""
    sweep = {}
    for flows in (1, 8, 64):
        node, tx, _ = _make_rig()
        for conn in range(1, flows + 1):
            node.cache.install(
                CacheKey(INGRESS, 2, conn), Decision.forward(EGRESS)
            )
        pps = _measure_pps(
            node.terminus.receive_batch,
            lambda: _flow_local_burst(tx, flows=flows),
            min_seconds=0.5,
        )
        sweep[str(flows)] = {
            "pps": round(pps, 1),
            "run_length": BURST // flows,
        }
        assert node.terminus.stats.packets_out == node.terminus.stats.packets_in

    # Worst case: fully interleaved 64 flows, every run is one packet long.
    node, tx, _ = _make_rig()
    for conn in range(1, 65):
        node.cache.install(
            CacheKey(INGRESS, 2, conn), Decision.forward(EGRESS)
        )
    pps = _measure_pps(
        node.terminus.receive_batch,
        lambda: _flow_local_burst(tx, flows=64, interleaved=True),
        min_seconds=0.5,
    )
    sweep["64_interleaved"] = {"pps": round(pps, 1), "run_length": 1}
    _results["flow_locality"] = sweep

    # Longer runs must never be slower than shorter ones (monotone gain).
    assert sweep["1"]["pps"] >= sweep["64"]["pps"] * 0.9


def test_interleaved_sharding_gate():
    """Sharding gate: batched ≥ 2× per-packet on the interleaved burst.

    64 flows round-robined packet-by-packet — every flow run is one
    packet long, so all the gain here comes from the sharding stage
    regrouping the burst by flow key (and its batched lookup and gather
    egress), not from run coalescing. Relative gate, same run: container
    speed cannot flake it.
    """
    node, tx, _ = _make_rig()
    for conn in range(1, 65):
        node.cache.install(
            CacheKey(INGRESS, 2, conn), Decision.forward(EGRESS)
        )
    terminus = node.terminus
    receive = terminus.receive

    def per_packet(burst):
        for packet in burst:
            receive(packet)

    make_burst = lambda: _flow_local_burst(tx, flows=64, interleaved=True)
    per_packet_pps = _measure_pps(per_packet, make_burst)
    batched_pps = _measure_pps(terminus.receive_batch, make_burst)
    speedup = batched_pps / per_packet_pps
    _results["interleaved_sharding"] = {
        "per_packet_pps": round(per_packet_pps, 1),
        "batched_pps": round(batched_pps, 1),
        "speedup": round(speedup, 2),
        "flows": 64,
        "run_length": 1,
    }
    assert terminus.stats.drops_auth == 0
    assert terminus.stats.packets_out == terminus.stats.packets_in
    assert speedup >= 2.0, (
        f"burst sharding gained only {speedup:.2f}x over per-packet on the "
        f"interleaved burst ({batched_pps:.0f} vs {per_packet_pps:.0f} pps); "
        "gate is 2x"
    )


class _InstallOnPunt(ServiceModule):
    """Forward + install on every punt: the storm's flows become warm."""

    SERVICE_ID = 2
    NAME = "storm-installer"

    def handle_packet(self, header, packet):
        verdict = Verdict.forward(EGRESS, header, packet.payload)
        verdict.installs.append(
            (
                CacheKey(packet.l3.src, 2, header.connection_id),
                Decision.forward(EGRESS),
            )
        )
        return verdict


def test_cold_storm():
    """Cold-storm gate: coalesced miss path ≥ 2× per-packet, same run.

    The 1024-packet, 64-flow interleaved burst again, but the decision
    cache is wiped before every iteration (the post-crash / flash-crowd
    shape), so every flow starts cold. Per-packet processing pays one
    marshalled IPC punt per lead packet and a scalar lookup per
    follower; the coalesced path punts all 64 leads in one
    ``invoke_batch`` round trip and drains the followers off the freshly
    installed decisions through the batched fast path. Relative gate,
    same run: container speed cannot flake it.
    """
    node, tx, _ = _make_rig()
    node.env.load(_InstallOnPunt())
    terminus = node.terminus
    receive = terminus.receive
    cache = node.cache

    def cold_burst():
        cache.evict_random_fraction(1.0)  # untimed: runs in make_burst
        return _flow_local_burst(tx, flows=64, interleaved=True)

    def per_packet(burst):
        for packet in burst:
            receive(packet)

    per_packet_pps = _measure_pps(per_packet, cold_burst)
    batched_pps = _measure_pps(terminus.receive_batch, cold_burst)
    speedup = batched_pps / per_packet_pps
    channel = terminus.channel.stats
    queue = terminus.miss_queue
    _results["cold_storm"] = {
        "per_packet_pps": round(per_packet_pps, 1),
        "batched_pps": round(batched_pps, 1),
        "speedup": round(speedup, 2),
        "flows": 64,
        "burst": BURST,
        "max_batch": channel.max_batch,
    }
    assert terminus.stats.drops_auth == 0
    assert terminus.stats.packets_out == terminus.stats.packets_in
    # The coalesced path actually engaged: full-width lead batches, and
    # every parked follower drained through the installed fast path.
    assert channel.max_batch == 64
    assert queue.live == 0
    assert queue.stats.drained_fast == queue.stats.parked > 0
    assert speedup >= 2.0, (
        f"miss coalescing gained only {speedup:.2f}x over per-packet on the "
        f"cold storm ({batched_pps:.0f} vs {per_packet_pps:.0f} pps); "
        "gate is 2x"
    )


def test_obs_overhead_gate():
    """Observability overhead gate: disabled obs costs ≤ 3%, same run.

    Three arms over the identical warm flow-local burst:

    * ``disabled`` — the default shared :data:`NULL_RECORDER` (what every
      uninstrumented run pays: one attr load + flag check per stage);
    * ``quiet`` — recorder attached with ``sample_every=0`` (the armed
      guard path plus latency-histogram recording, zero spans);
    * ``sampled`` — ``sample_every=1``, every trace recorded into a
      bounded ring (the full price of observability, informational).

    The gate is **relative, same run**: quiet ≥ 0.97 × disabled, so
    container speed cannot flake it. Each of 5 trials lets the arms take
    turns burst by burst until each has spent 1 s forwarding, so a slow
    spell on the host lands on every arm alike; an arm's figure is its
    best trial (packets over time). Absolute numbers land
    in ``BENCH_terminus.json`` under ``obs_overhead`` for the cross-PR
    trajectory.
    """

    from repro.obs import NULL_RECORDER

    # One rig for every arm, toggled between trials: identical objects,
    # dict layouts, and allocator state, so the ratio reflects only the
    # instrumentation branches — not per-process layout luck.
    node, tx, _ = _make_rig()
    for conn in range(1, 65):
        node.cache.install(CacheKey(INGRESS, 2, conn), Decision.forward(EGRESS))
    obs = node.enable_observability(sample_every=0, capacity=4096)
    terminus = node.terminus

    def set_arm(arm: str) -> None:
        if arm == "disabled":
            terminus.obs = None
            terminus.recorder = NULL_RECORDER
            terminus.channel.recorder = NULL_RECORDER
        else:
            obs.recorder.sample_every = 1 if arm == "sampled" else 0
            terminus.obs = obs
            terminus.recorder = obs.recorder
            terminus.channel.recorder = obs.recorder

    arms = ("disabled", "quiet", "sampled")
    best = dict.fromkeys(arms, 0.0)
    for arm in arms:
        set_arm(arm)
        terminus.receive_batch(_flow_local_burst(tx, flows=1))  # warm-up
    for round_i in range(5):
        order = arms[round_i % len(arms) :] + arms[: round_i % len(arms)]
        packets = dict.fromkeys(arms, 0)
        elapsed = dict.fromkeys(arms, 0.0)
        while min(elapsed.values()) < 1.0:
            for arm in order:
                set_arm(arm)
                burst = _flow_local_burst(tx, flows=1)
                t0 = time.perf_counter()
                terminus.receive_batch(burst)
                elapsed[arm] += time.perf_counter() - t0
                packets[arm] += len(burst)
        for arm in arms:
            best[arm] = max(best[arm], packets[arm] / elapsed[arm])
    quiet_ratio = best["quiet"] / best["disabled"]
    sampled_ratio = best["sampled"] / best["disabled"]
    _results["obs_overhead"] = {
        "disabled_pps": round(best["disabled"], 1),
        "quiet_pps": round(best["quiet"], 1),
        "sampled_pps": round(best["sampled"], 1),
        "quiet_ratio": round(quiet_ratio, 4),
        "sampled_ratio": round(sampled_ratio, 4),
        "gate": "quiet >= 0.97 * disabled",
    }
    # The armed arms really observed: every armed-trial egress recorded
    # into the latency histogram, and the sampled arm captured spans.
    assert obs.terminus_latency.count > 0
    assert len(obs.recorder) > 0
    assert quiet_ratio >= 0.97, (
        f"quiet observability costs {(1 - quiet_ratio) * 100:.1f}% "
        f"({best['quiet']:.0f} vs {best['disabled']:.0f} pps); gate is 3%"
    )


VICTIM_SERVICE = 3
VICTIM_EGRESS = "10.0.0.4"
HEALTHY_FLOWS = 56
VICTIM_FLOWS = 8


class _VictimModule(ServiceModule):
    """Forwards without installing — its flows stay cold every burst."""

    SERVICE_ID = VICTIM_SERVICE
    NAME = "victim-bench"

    def handle_packet(self, header, packet):
        return Verdict.forward(VICTIM_EGRESS, header, packet.payload)


def _make_overload_rig():
    """An SN whose sink counts deliveries per egress peer."""
    sim = Simulator()
    node = ServiceNode(sim, "sn", SN_ADDR)
    counts: dict[str, int] = {}

    def sink(peer: str, packet: ILPPacket) -> bool:
        counts[peer] = counts.get(peer, 0) + 1
        return True

    node.terminus._transmit = sink
    secret_in = pairwise_secret(SN_ADDR, INGRESS)
    node.keystore.establish(INGRESS, secret_in)
    for peer in (EGRESS, VICTIM_EGRESS):
        node.keystore.establish(peer, pairwise_secret(SN_ADDR, peer))
    for conn in range(1, HEALTHY_FLOWS + 1):
        node.cache.install(CacheKey(INGRESS, 2, conn), Decision.forward(EGRESS))
    node.env.load(_VictimModule())
    return node, PSPContext(secret_in), counts


def _mixed_burst(tx: PSPContext):
    """BURST packets round-robined over 56 healthy + 8 victim flows."""
    payload = make_payload(b"x" * 64)
    headers = [_header_bytes(conn) for conn in range(1, HEALTHY_FLOWS + 1)] + [
        _header_bytes(conn, service=VICTIM_SERVICE)
        for conn in range(1, VICTIM_FLOWS + 1)
    ]
    return [
        ILPPacket(
            l3=L3Header(src=INGRESS, dst=SN_ADDR),
            ilp_wire=tx.seal(headers[i % len(headers)]),
            payload=payload,
        )
        for i in range(BURST)
    ]


def _healthy_goodput_interleaved(arms, min_seconds: float = 0.3):
    """Healthy-flow goodput (EGRESS deliveries per wall second) of each arm.

    ``arms`` are ``(node, tx, counts)`` rigs. They take turns burst by
    burst, so a slow spell on the shared host lands on every arm alike,
    until each arm has spent at least ``min_seconds`` in ``receive_batch``.
    An arm's goodput is its total deliveries over its total time. Returns
    the goodputs and the number of bursts each arm ran.
    """
    for node, tx, _ in arms:
        node.terminus.receive_batch(_mixed_burst(tx))  # warm-up (trips breakers)
    delivered = [0] * len(arms)
    elapsed = [0.0] * len(arms)
    bursts = 0
    while min(elapsed) < min_seconds:
        bursts += 1
        for k, (node, tx, counts) in enumerate(arms):
            burst = _mixed_burst(tx)
            before = counts.get(EGRESS, 0)
            t0 = time.perf_counter()
            node.terminus.receive_batch(burst)
            elapsed[k] += time.perf_counter() - t0
            delivered[k] += counts.get(EGRESS, 0) - before
    return [d / e for d, e in zip(delivered, elapsed)], bursts


def test_overload_recovery():
    """Overload gate: healthy goodput under a hung service ≥ 0.8× baseline.

    64-flow mixed interleaved traffic — 56 healthy warm flows plus 8 cold
    flows on a victim service — in three arms, same run:

    * ``baseline`` — the victim service is healthy and its flows warm:
      every packet rides the fast path (the no-fault reference);
    * ``unprotected`` — the victim hangs with no overload policy: every
      victim lead punts and times out at the cost-model deadline, burning
      slow-path work each burst (informational);
    * ``protected`` — the victim hangs behind a fail-closed policy with a
      circuit breaker: after the first bursts trip it, victim packets
      short-circuit to degradation without crossing the boundary.

    The CI gate is **relative, same run** (container speed cannot flake
    it): protected healthy goodput ≥ 0.8× the no-fault baseline, each
    total deliveries over total time across bursts the arms take in turns. A
    sim-clocked coda measures the breaker lifecycle and gates recovery:
    closed again within 2 sim-seconds of the fault clearing.
    """
    from repro.core.overload import BreakerConfig, ServicePolicy
    from repro.core.overload import BreakerState

    # Arm 1: no-fault baseline (victim flows warm too).
    base_node, base_tx, base_counts = _make_overload_rig()
    for conn in range(1, VICTIM_FLOWS + 1):
        base_node.cache.install(
            CacheKey(INGRESS, VICTIM_SERVICE, conn),
            Decision.forward(VICTIM_EGRESS),
        )

    # Arm 2: hung victim, no policy — the damage being protected against.
    bare_node, bare_tx, bare_counts = _make_overload_rig()
    bare_node.env.inject_hang(VICTIM_SERVICE)

    # Arm 3: hung victim behind deadline + breaker + fail-closed policy.
    node, tx, counts = _make_overload_rig()
    node.env.inject_hang(VICTIM_SERVICE)
    node.set_service_policy(
        VICTIM_SERVICE,
        ServicePolicy(
            deadline=1e-3,
            breaker=BreakerConfig(min_samples=2, ewma_alpha=1.0),
        ),
    )

    goodputs, bursts = _healthy_goodput_interleaved(
        [
            (base_node, base_tx, base_counts),
            (bare_node, bare_tx, bare_counts),
            (node, tx, counts),
        ]
    )
    baseline_pps, unprotected_pps, protected_pps = goodputs
    protected_ratio = protected_pps / baseline_pps
    guard = node.terminus.overload
    breaker = guard.breakers[VICTIM_SERVICE]
    # The protection actually engaged, and memory stayed bounded.
    assert breaker.state is BreakerState.OPEN
    assert guard.stats.short_circuits > 0
    assert counts.get(VICTIM_EGRESS, 0) == 0  # fail-closed leaked nothing
    assert node.terminus.miss_queue.live == 0
    assert node.cache.stale_count <= node.cache.stale_capacity

    # Sim-clocked breaker lifecycle: trip under the fault, then recover
    # once it clears — within the 2-sim-second budget.
    node, tx, _counts = _make_overload_rig()
    sim = node.sim
    node.env.inject_hang(VICTIM_SERVICE)
    node.set_service_policy(
        VICTIM_SERVICE,
        ServicePolicy(
            deadline=1e-3,
            breaker=BreakerConfig(
                min_samples=2,
                ewma_alpha=1.0,
                open_duration=0.5,
                half_open_probes=2,
                close_after=1,
            ),
        ),
    )

    def punt_victim(conn: int) -> None:
        header = _header_bytes(conn, service=VICTIM_SERVICE)
        node.terminus.receive(
            ILPPacket(
                l3=L3Header(src=INGRESS, dst=SN_ADDR),
                ilp_wire=tx.seal(header),
                payload=make_payload(b"x" * 64),
            )
        )

    fault_cleared_at = 1.0
    for i in range(4):  # fault window: punts time out, breaker trips
        sim.schedule_at(0.1 + i * 0.1, punt_victim, i + 1)
    sim.schedule_at(fault_cleared_at, node.env.clear_service_fault, VICTIM_SERVICE)
    for i in range(4):  # post-fault probes close the breaker
        sim.schedule_at(1.6 + i * 0.1, punt_victim, i + 1)
    sim.run(3.0)
    breaker = node.terminus.overload.breakers[VICTIM_SERVICE]
    trip_at = next(
        at for at, state in breaker.transitions if state is BreakerState.OPEN
    )
    recovered_at = breaker.recovered_at()
    assert recovered_at is not None
    recovery_lag = recovered_at - fault_cleared_at
    assert breaker.state is BreakerState.CLOSED

    _results["overload"] = {
        "baseline_healthy_pps": round(baseline_pps, 1),
        "unprotected_healthy_pps": round(unprotected_pps, 1),
        "protected_healthy_pps": round(protected_pps, 1),
        "protected_ratio": round(protected_ratio, 3),
        "unprotected_ratio": round(unprotected_pps / baseline_pps, 3),
        "bursts_per_arm": bursts,
        "healthy_flows": HEALTHY_FLOWS,
        "victim_flows": VICTIM_FLOWS,
        "burst": BURST,
        "breaker_trip_sim_s": round(trip_at, 3),
        "breaker_recovery_lag_sim_s": round(recovery_lag, 3),
        "gate": "protected healthy goodput >= 0.8x no-fault baseline; "
        "breaker closed within 2 sim-s of fault clearing",
    }
    assert recovery_lag <= 2.0, (
        f"breaker took {recovery_lag:.2f} sim-s after the fault cleared to "
        "close; budget is 2.0"
    )
    assert protected_ratio >= 0.8, (
        f"healthy goodput under protection is only {protected_ratio:.2f}x "
        f"baseline ({protected_pps:.0f} vs {baseline_pps:.0f} pps); gate is 0.8x"
    )


def test_netsim_engine_event_throughput():
    """Event-loop churn: schedule+dispatch and timer re-arm rates."""
    sim = Simulator()
    n = 200_000

    # Raw churn: schedule each event inside the previous one's callback,
    # the self-clocking shape every netsim component reduces to.
    count = [0]

    def tick():
        count[0] += 1
        if count[0] < n:
            sim.post(1.0, tick)

    sim.post(0.0, tick)
    t0 = time.perf_counter()
    sim.run()
    churn_eps = n / (time.perf_counter() - t0)

    # Timer re-arm: restart the same Timer object from its own callback —
    # the keepalive/failover idiom — exercising entry recycling.
    from repro.netsim import Timer

    sim2 = Simulator()
    fired = [0]

    def rearm():
        fired[0] += 1
        if fired[0] < n:
            timer.start(1.0)

    timer = Timer(sim2, rearm)
    timer.start(1.0)
    t0 = time.perf_counter()
    sim2.run()
    rearm_eps = n / (time.perf_counter() - t0)

    # Lazy cancel: cancel 75% of a scheduled batch; the live count must
    # track immediately while the heap compacts behind the threshold.
    sim3 = Simulator()
    handles = [sim3.schedule(float(i), lambda: None) for i in range(4096)]
    for handle in handles[::4] + handles[1::4] + handles[2::4]:
        handle.cancel()
    live = sim3.pending
    raw = sim3.pending_raw
    assert live == 1024
    assert raw >= live  # compaction may or may not have run by now
    sim3.run()

    _results["netsim_engine"] = {
        "events": n,
        "churn_events_per_sec": round(churn_eps, 1),
        "timer_rearm_per_sec": round(rearm_eps, 1),
        "cancel_live_pending": live,
        "cancel_raw_pending": raw,
    }
    assert count[0] == n
    assert fired[0] == n


def test_netsim_burst_delivery_events():
    """A back-to-back burst crosses a link as one delivery event."""
    sim = Simulator()
    sn_a = ServiceNode(sim, "a", "10.0.0.1")
    sn_b = ServiceNode(sim, "b", "10.0.0.2")
    sn_a.establish_pipe(sn_b)
    header = ILPHeader(service_id=2, connection_id=9)
    payload = make_payload(b"burst")
    frames = 256
    for _ in range(frames):
        sn_a.emit(sn_b.address, header, payload)
    events = sim.run_until_idle()
    assert sn_b.terminus.stats.packets_in == frames
    _results["netsim_burst"] = {
        "frames": frames,
        "delivery_events": events,
        "frames_per_event": round(frames / events, 1),
    }
    assert events == 1, (
        f"burst of {frames} frames took {events} delivery events; "
        "coalescing should schedule exactly one"
    )


def teardown_module(module):
    if not _results:
        return
    _results["meta"] = {
        "note": "ops on one core of this container; header = 2-TLV ILP header",
        "burst": BURST,
    }
    _RESULTS_PATH.write_text(json.dumps(_results, indent=2) + "\n")
    print(f"\nwrote {_RESULTS_PATH}")
    for name in (
        "terminus_forward",
        "flow_locality",
        "interleaved_sharding",
        "cold_storm",
        "overload",
        "obs_overhead",
        "netsim_engine",
        "netsim_burst",
    ):
        if name in _results:
            print(f"  {name}: {_results[name]}")
