"""Correctness checks and per-round statistics for the metro benchmark.

Every failed check is one entry in :attr:`RoundSummary.failures`, and each
entry counts against ``fail_frac``.  The checks:

* every sequence-numbered payload reaches the right host, on the right
  connection, exactly once and intact;
* each SN's terminus ingress ledger balances (see :func:`ingress_ledger`);
* each SN's ``MissQueueStats`` balances its declared conservation ledger
  (``repro.sanitize.CONSERVATION_LEDGERS``) with nothing left parked;
* rounds of one run share a seed, so their sim-time outputs must be
  bit-identical (:attr:`RoundSummary.fingerprint`, compared by the caller).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields

from repro.sanitize import CONSERVATION_LEDGERS

from workloads import Round, parse_payload, payload_bytes

#: TerminusStats drop counters that record the outcome of a packet already
#: counted in ``punts`` (the service dropped it, or no service was loaded).
#: They are sub-exits of ``punts``, not ingress exits of their own.
PUNT_OUTCOMES = ("drops_by_service", "drops_no_service")


def quantile(sorted_values: list[float], q: float) -> float:
    """Nearest-rank quantile: the smallest value with >= q of samples at or
    below it."""
    n = len(sorted_values)
    return sorted_values[max(0, math.ceil(q * n) - 1)]


def ingress_ledger(stats) -> tuple[int, int]:
    """(packets_in, sum of disjoint exits) for one ``TerminusStats``.

    Every ingress packet leaves by exactly one of: the fast path, the
    offload path, a punt, or an ingress drop.  A punted packet that its
    service then drops is counted in ``punts`` *and* in a punt-outcome
    drop counter, so those counters are left out of the sum.
    """
    drops = sum(
        getattr(stats, f.name)
        for f in fields(stats)
        if f.name.startswith("drops_") and f.name not in PUNT_OUTCOMES
    )
    exits = stats.fast_path + stats.offload_path + stats.punts + drops
    return stats.packets_in, exits


def all_links(handles) -> list:
    seen: dict[int, object] = {}
    for node in [*handles.sns, *handles.hosts]:
        for link in node.links:
            seen.setdefault(id(link), link)
    return list(seen.values())


@dataclass
class RoundSummary:
    sent: int
    ok_once: int
    wall_s: float
    latencies_ms: list[float]
    slices_s: list[float] = field(default_factory=list)
    failures: list[str] = field(default_factory=list)
    fingerprint: tuple = ()
    events: int = 0
    closes_sent: int = 0
    closes_delivered: int = 0
    # terminus / cache / slow-path / link totals over all SNs and links
    packets_in: int = 0
    punts: int = 0
    ingress_drops: int = 0
    miss_parked: int = 0
    lookups: int = 0
    hits: int = 0
    live_entries: int = 0
    invocations: int = 0
    max_batch: int = 0
    frames_delivered: int = 0

    @property
    def fail_frac(self) -> float:
        return min(1.0, (self.sent - self.ok_once + len(self.failures))
                   / max(1, self.sent))


def summarize(rnd: Round) -> RoundSummary:
    """Check one finished round and collect its statistics."""
    sched = rnd.schedule
    handles = rnd.handles
    failures: list[str] = []

    sent_at = {(i, seq): t for i, seq, t in rnd.sent}
    if len(sent_at) != sched.data_packets:
        failures.append(
            f"sent {len(sent_at)} payloads, schedule has {sched.data_packets}")
    conn_ids = [c.connection_id if c is not None else None for c in rnd.conns]
    seen: dict[tuple[int, int], int] = {}
    latencies: list[float] = []
    bad = 0
    for host_idx, conn_id, data, t in rnd.received:
        i, seq, seed = parse_payload(data)
        key = (i, seq)
        if (seed != sched.seed or key not in sent_at
                or sched.pairs[i][1] != host_idx
                or conn_ids[i] != conn_id
                or data != payload_bytes(i, seq, sched.seed)):
            bad += 1
            continue
        seen[key] = seen.get(key, 0) + 1
        latencies.append((t - sent_at[key]) * 1e3)
    ok_once = sum(1 for n in seen.values() if n == 1)
    if bad:
        failures.append(f"{bad} payload(s) misdelivered or corrupted")
    dups = sum(1 for n in seen.values() if n > 1)
    if dups:
        failures.append(f"{dups} payload(s) delivered more than once")

    s = RoundSummary(sent=len(rnd.sent), ok_once=ok_once, wall_s=rnd.wall_s,
                     latencies_ms=sorted(latencies), slices_s=rnd.slices_s,
                     failures=failures)
    s.events = handles.net.sim.events_processed
    s.closes_sent = sched.closes
    s.closes_delivered = len(rnd.closed)

    ledger = CONSERVATION_LEDGERS["MissQueueStats"]
    per_sn = []
    for sn in handles.sns:
        term = sn.terminus
        st = term.stats
        packets_in, exits = ingress_ledger(st)
        if packets_in != exits:
            failures.append(
                f"{sn.name}: terminus packets_in={packets_in} != exits={exits}")
        punt_drops = sum(getattr(st, name) for name in PUNT_OUTCOMES)
        if punt_drops > st.punts:
            failures.append(
                f"{sn.name}: {punt_drops} punt drops exceed {st.punts} punts")
        mq = term.miss_queue
        total_field, exit_fields = ledger
        total = getattr(mq.stats, total_field)
        out = sum(getattr(mq.stats, f) for f in exit_fields)
        if total != out + mq.live or mq.live:
            failures.append(
                f"{sn.name}: miss-queue {total_field}={total} != exits {out}"
                f" + live {mq.live}")
        s.packets_in += packets_in
        s.punts += st.punts
        s.ingress_drops += exits - st.fast_path - st.offload_path - st.punts
        s.miss_parked += mq.stats.parked
        cs = sn.cache.stats
        s.lookups += cs.lookups
        s.hits += cs.hits
        s.live_entries += len(sn.cache)
        ipc = term.channel.stats
        s.invocations += ipc.invocations
        s.max_batch = max(s.max_batch, ipc.max_batch)
        per_sn.append((st.packets_in, st.punts))
    for link in all_links(handles):
        for ls in link.stats.values():
            s.frames_delivered += ls.frames_delivered

    lat = s.latencies_ms
    s.fingerprint = (
        len(lat),
        quantile(lat, 0.5) if lat else None,
        quantile(lat, 0.999) if lat else None,
        hash(tuple(lat)),  # the whole latency distribution, bit for bit
        s.events,
        tuple(per_sn),
        s.closes_delivered,
        handles.net.sim.now,
    )
    return s
