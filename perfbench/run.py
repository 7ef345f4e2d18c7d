"""Metro host-to-host benchmark: goodput, sim latency and per-layer split.

Runs ``IP_DELIVERY`` traffic host to host across a fault-free
4-edomain x 3-SN x 4-host metro (12 SNs, 48 hosts) under one of three
seeded, open-loop workloads (see ``workloads.py``)::

    python3 perfbench/run.py --workload warm_burst --seed 1 --seconds 30 --trace 0

A run repeats identical *rounds* (same seed, fresh federation each time)
until ``--seconds`` is used up, at least two of them so every run also
checks that the sim-time outputs are bit-identical across rounds.
``goodput_pps`` divides a round's delivered packets by the wall time of the
least-disturbed round (see :func:`best_round_s`); ``setup_s`` is the median
of the set-up builds.

``--trace 0`` reports the end-to-end metrics, measured untraced.
``--trace 1`` runs one untraced round, then traced rounds that wrap each
layer's public entry points (``tracing.py``), and reports the per-layer
metrics; the spans of the last traced round go to
``perfbench/out/spans-<workload>.csv``.

The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(HERE, "out")
#: Environment switches that arm extra work inside the program; a timed
#: run refuses to start under either.
GUARDED_ENV = ("REPRO_OBS", "REPRO_SANITIZE")
#: Federations built (and set-up timed) before each round; the round runs
#: on the last one.  Spreading the set-up samples over the whole run keeps
#: one burst of interference from skewing all of them.
BUILDS_PER_ROUND = 3
#: Simulator events per timed slice of an untraced round (a few ms).
SLICE_EVENTS = 32


def best_round_s(rounds: list) -> float:
    """Wall time of the least-disturbed round: the sum over slices of each
    slice's fastest time across ``rounds``.

    Rounds of one run repeat identical work slice for slice, so one slice's
    times differ only by other load on the machine, which only ever slows
    it down.  On a shared host that load comes and goes in spells of
    seconds that change the speed by up to 1.6x, so a run's mean or median
    depends on how much of it fell in a slow spell; the fastest time of
    each short slice does much less.
    """
    return sum(min(col) for col in zip(*(s.slices_s for s in rounds)))


def _import_program() -> None:
    """Put the checkout's ``src`` first on the path; fail without it."""
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        sys.exit(f"error: no program sources at {SRC}")
    sys.path.insert(0, SRC)


def run_benchmark(workload: str, seed: int, seconds: float, trace: bool,
                  scale: float = 1.0, spans_path: str | None = None) -> dict:
    """Run one benchmark invocation and return its report.

    The report holds ``correct``/``attempted``/``failed``, the end-to-end
    metrics (``e2e``), the per-layer metrics (``layers``, traced runs only)
    and the per-round summaries (``rounds``).
    """
    from checks import quantile, summarize
    from tracing import Tracer
    from workloads import build_round, build_schedule, post_schedule, run_round

    schedule = build_schedule(workload, seed, scale)
    warmup_setup = build_round(schedule).setup_s  # imports, lazy set-up
    tracer = Tracer() if trace else None
    summaries = []
    traced = []
    setups: list[float] = []
    started = time.perf_counter()
    while True:
        tracing = tracer is not None and len(summaries) > 0
        for _ in range(BUILDS_PER_ROUND):
            rnd = build_round(schedule)
            setups.append(rnd.setup_s)
        post_schedule(rnd, tracer.bench if tracing else None)
        gc.collect()
        round_start = time.perf_counter()
        if tracing:
            tracer.reset_spans()
            tracer.install(rnd.handles.net.sim)
            try:
                run_round(rnd)
            finally:
                tracer.restore()
        else:
            run_round(rnd, SLICE_EVENTS)
        summary = summarize(rnd)
        del rnd
        summaries.append(summary)
        if tracing:
            traced.append(summary)
        est_round = time.perf_counter() - round_start
        elapsed = time.perf_counter() - started
        if len(summaries) >= 2 and elapsed + est_round > seconds:
            break
    first = summaries[0]
    plain = summaries[:len(summaries) - len(traced)]
    failures = list(first.failures)
    for i, s in enumerate(summaries[1:], start=2):
        failures.extend(s.failures)
        if s.fingerprint != first.fingerprint:
            failures.append(f"round {i} sim-time outputs differ from round 1")
    if len({len(s.slices_s) for s in plain}) != 1:
        failures.append("untraced rounds ran different numbers of slices")
    sent = sum(s.sent for s in summaries)
    ok = sum(s.ok_once for s in summaries)
    failed = sent - ok + len(failures)
    fail_frac = min(1.0, failed / max(1, sent))
    lat = first.latencies_ms
    e2e = {
        "goodput_pps": (first.ok_once / best_round_s(plain), "pkt/s"),
        "setup_s": (statistics.median(setups), "s"),
        "sim_latency_p50_ms": (quantile(lat, 0.5) if lat else 0.0, "sim-ms"),
        "sim_latency_p999_ms": (quantile(lat, 0.999) if lat else 0.0,
                                "sim-ms"),
        "intact_frac": (1.0 - fail_frac, "ratio"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024.0, "MiB"),
    }
    report = {
        "workload": workload, "seed": seed, "correct": not failures and
        failed == 0, "attempted": sent, "failed": failed,
        "failures": failures, "fail_frac": fail_frac, "e2e": e2e,
        "rounds": summaries, "warmup_setup_s": warmup_setup,
        "latency_samples": len(lat),
    }
    if tracer is not None:
        report["layers"] = _layer_metrics(tracer, traced, plain)
        report["self_us"] = report["layers"].pop("_self_us")
        if spans_path is not None:
            os.makedirs(os.path.dirname(spans_path), exist_ok=True)
            tracer.write_spans(
                spans_path, f"workload={workload} seed={seed} "
                f"spans={tracer.span_count} (last traced round)")
    return report


def _layer_metrics(tracer, traced, plain) -> dict:
    """Per-layer metrics from the traced rounds (per delivered packet)."""
    from tracing import BENCH as bench, LAYERS as layers

    pkts = sum(s.ok_once for s in traced)
    wall = sum(s.wall_s for s in traced)
    self_s = tracer.layer_self_s()
    n = tracer.by_name
    calls, units, total_s = tracer.calls, tracer.units, tracer.total_s

    def per_pkt(x: float) -> float:
        return x / pkts

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    def sum_calls(*names: str, of=calls) -> float:
        return sum(of[n(name)] for name in names)

    def tot(attr: str) -> int:
        return sum(getattr(s, attr) for s in traced)

    covered = sum(v for k, v in self_s.items() if k != bench)
    residual = wall - covered - self_s[bench]
    untraced = sum(s.wall_s for s in plain) / sum(s.ok_once for s in plain)
    psp = ["PSPContext.seal", "PSPContext.open", "PSPContext.seal_batch",
           "PSPContext.open_batch", "PSPContext.seal_run",
           "PSPContext.seal_gather"]
    deliveries = sum_calls("NetNode.receive_frame", "NetNode.receive_burst",
                           "ServiceNode.receive_burst", of=tracer.top_calls)
    inv = n("DecisionCache.invalidate_connection")
    punts = tot("invocations")
    m = {
        "netsim.engine.events_per_pkt": (per_pkt(tot("events")), "count"),
        "netsim.link.transmit_per_pkt": (
            per_pkt(sum_calls("Link.transmit")), "count"),
        "netsim.link.frames_per_delivery": (
            ratio(tot("frames_delivered"), deliveries), "count"),
        "core.packet.l3_builds_per_pkt": (
            per_pkt(sum_calls("L3Header.__init__")), "count"),
        "core.ilp.codec_calls_per_pkt": (
            per_pkt(sum_calls("ILPHeader.encode", "ILPHeader.decode")),
            "count"),
        "core.psp.pkts_per_call": (
            ratio(sum_calls(*psp, of=units), sum_calls(*psp)), "count"),
        "core.pipe_terminus.hops_per_pkt": (per_pkt(tot("packets_in")),
                                            "count"),
        "core.pipe_terminus.pkts_per_ingress": (ratio(
            tot("packets_in"),
            sum_calls("PipeTerminus.receive", "PipeTerminus.receive_batch")),
            "count"),
        "core.pipe_terminus.punt_frac": (
            ratio(tot("punts"), tot("packets_in")), "ratio"),
        "core.pipe_terminus.drops": (tot("ingress_drops") / len(traced),
                                     "count"),
        "core.pipe_terminus.miss_parked": (tot("miss_parked") / len(traced),
                                           "count"),
        "core.decision_cache.hit_frac": (ratio(tot("hits"), tot("lookups")),
                                         "ratio"),
        "core.decision_cache.live_entries": (
            tot("live_entries") / len(traced), "count"),
        "core.decision_cache.invalidate_us_per_call": (
            ratio(total_s[inv] * 1e6, calls[inv]), "us"),
        "core.execution_env.punts_per_dispatch": (ratio(punts, sum_calls(
            "InvocationChannel.invoke", "InvocationChannel.invoke_batch")),
            "count"),
        "core.execution_env.max_batch": (
            max(s.max_batch for s in traced), "count"),
    }
    self_us = {}
    for layer in layers:
        us = self_s[layer] * 1e6
        self_us[layer] = per_pkt(us)
        if layer == "core.execution_env":
            m["core.execution_env.self_us_per_punt"] = (ratio(us, punts),
                                                        "us")
        else:
            m[f"{layer}.self_us_per_pkt"] = (per_pkt(us), "us")
    self_us[bench] = per_pkt(self_s[bench] * 1e6)
    m["bench.self_us_per_pkt"] = (self_us[bench], "us")
    m["trace.wall_us_per_pkt"] = (per_pkt(wall * 1e6), "us")
    m["trace.residual_us_per_pkt"] = (per_pkt(residual * 1e6), "us")
    m["trace.residual_frac"] = (ratio(residual, wall - self_s[bench]),
                                "ratio")
    m["trace.overhead_ratio"] = (ratio(wall / pkts, untraced), "ratio")
    m["_self_us"] = self_us
    return m


def _print_report(report: dict, trace: bool) -> None:
    r0 = report["rounds"][0]
    print(f"metro benchmark: workload={report['workload']} "
          f"seed={report['seed']} rounds={len(report['rounds'])} "
          f"payloads/round={r0.sent} latency samples={report['latency_samples']}")
    print(f"  rounds wall_s: "
          + " ".join(f"{s.wall_s:.3f}" for s in report["rounds"]))
    print(f"  warm-up set-up {report['warmup_setup_s']:.4f} s; "
          f"closes sent/delivered to hosts {r0.closes_sent}/"
          f"{r0.closes_delivered}; fail_frac {report['fail_frac']:.6f}")
    for failure in report["failures"][:20]:
        print(f"  CHECK FAILED: {failure}")
    print("  end-to-end:")
    for name, (value, unit) in report["e2e"].items():
        print(f"    {name:<24} {value:>14.6g} {unit}")
    if trace:
        print("  per-layer self time (traced rounds):")
        total = sum(report["self_us"].values())
        for layer, us in report["self_us"].items():
            print(f"    {layer:<22} {us:>9.2f} us/pkt  {us / total:6.1%}")
        print("  per-layer metrics:")
        for name, (value, unit) in report["layers"].items():
            print(f"    {name:<44} {value:>12.6g} {unit}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["warm_burst", "paced", "churn"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    armed = [k for k in GUARDED_ENV if os.environ.get(k)]
    if armed:
        print(f"error: refusing a timed run with {', '.join(armed)} set",
              file=sys.stderr)
        return 3
    _import_program()
    report = run_benchmark(
        args.workload, args.seed, args.seconds, bool(args.trace),
        spans_path=os.path.join(OUT_DIR, f"spans-{args.workload}.csv"),
    )
    _print_report(report, bool(args.trace))
    metrics = report["layers"] if args.trace else report["e2e"]
    print(json.dumps({
        "correct": report["correct"],
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
