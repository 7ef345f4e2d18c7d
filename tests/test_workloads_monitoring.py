"""Tests for workload generators and federation monitoring."""

import os
import subprocess
import sys

import pytest

from repro import WellKnownService
from repro.core.monitoring import FederationMonitor, snapshot_sn
from repro.netsim import Simulator
from repro.netsim.workloads import (
    CBRSource,
    OnOffSource,
    PoissonSource,
    WorkloadError,
    ZipfRequestStream,
)


class TestCBR:
    def test_rate_is_exact(self):
        sim = Simulator()
        got = []
        source = CBRSource(sim, lambda seq, size: got.append(sim.now), rate_bps=8000, packet_bytes=100)
        source.start()
        sim.run(until=10.0)
        # 8000 bps / 800 bits per packet = 10 pps for 10 s = 100 packets.
        assert len(got) == 100
        gaps = {round(b - a, 9) for a, b in zip(got, got[1:])}
        assert gaps == {0.1}

    def test_duration_bounds(self):
        sim = Simulator()
        got = []
        source = CBRSource(sim, lambda *a: got.append(1), rate_bps=8000, packet_bytes=100)
        source.start(duration=1.0)
        sim.run(until=100.0)
        assert len(got) == 10

    def test_stop(self):
        sim = Simulator()
        got = []
        source = CBRSource(sim, lambda *a: got.append(1), rate_bps=8000, packet_bytes=100)
        source.start()
        sim.run(until=0.55)
        source.stop()
        sim.run(until=10.0)
        assert len(got) == 5

    def test_invalid_params(self):
        with pytest.raises(WorkloadError):
            CBRSource(Simulator(), lambda *a: None, rate_bps=0)


class TestPoisson:
    def test_mean_rate_converges(self):
        sim = Simulator()
        count = [0]
        source = PoissonSource(
            sim, lambda *a: count.__setitem__(0, count[0] + 1), rate_pps=100, seed=3
        )
        source.start(duration=50.0)
        sim.run(until=60.0)
        assert count[0] == pytest.approx(5000, rel=0.1)

    def test_deterministic_given_seed(self):
        def run(seed):
            sim = Simulator()
            times = []
            source = PoissonSource(sim, lambda *a: times.append(sim.now), rate_pps=50, seed=seed)
            source.start(duration=2.0)
            sim.run(until=3.0)
            return times

        assert run(7) == run(7)
        assert run(7) != run(8)


class TestOnOff:
    def test_produces_bursts(self):
        sim = Simulator()
        times = []
        source = OnOffSource(
            sim,
            lambda *a: times.append(sim.now),
            rate_bps=80_000,
            mean_on=0.2,
            mean_off=0.5,
            packet_bytes=100,
            seed=5,
        )
        source.start(duration=20.0)
        sim.run(until=30.0)
        assert source.bursts > 5
        assert len(times) > 50
        # Idle gaps longer than the CBR interval prove off periods exist.
        gaps = [b - a for a, b in zip(times, times[1:])]
        assert max(gaps) > 5 * source.interval


class TestZipf:
    def test_skew_favors_low_ranks(self):
        stream = ZipfRequestStream(catalog_size=1000, alpha=1.0, seed=1)
        draws = stream.take(10_000)
        top10 = sum(1 for d in draws if d < 10)
        uniform_expect = 10_000 * 10 / 1000
        assert top10 > 3 * uniform_expect

    def test_expected_hit_rate_monotone(self):
        stream = ZipfRequestStream(catalog_size=500, alpha=0.9)
        rates = [stream.expected_hit_rate(n) for n in (10, 50, 200, 500)]
        assert rates == sorted(rates)
        assert rates[-1] == pytest.approx(1.0)

    def test_validation(self):
        with pytest.raises(WorkloadError):
            ZipfRequestStream(catalog_size=0)
        with pytest.raises(WorkloadError):
            ZipfRequestStream(catalog_size=10, alpha=0.0)

    def test_numpy_is_imported_only_when_a_stream_is_built(self):
        """numpy costs ~14 MiB resident; importing the package must not load it."""
        code = (
            "import sys, repro, repro.scenarios\n"
            "assert 'numpy' not in sys.modules, 'numpy imported eagerly'\n"
            "from repro.netsim import ZipfRequestStream\n"
            "ZipfRequestStream(catalog_size=4)\n"
            "assert 'numpy' in sys.modules\n"
        )
        src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
        env = dict(os.environ, PYTHONPATH=src)
        proc = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True
        )
        assert proc.returncode == 0, proc.stderr


class TestMonitoring:
    def _busy_net(self, two_edomain_net):
        net = two_edomain_net
        dom = net.edomains["west"]
        sn = dom.sns[dom.sn_addresses()[0]]
        a = net.add_host(sn, name="a")
        b = net.add_host(sn, name="b")
        conn = a.connect(
            WellKnownService.IP_DELIVERY, dest_addr=b.address, allow_direct=False
        )
        for _ in range(10):
            a.send(conn, b"x")
        net.run(1.0)
        return net, sn

    def test_sn_snapshot_counts(self, two_edomain_net):
        net, sn = self._busy_net(two_edomain_net)
        snap = snapshot_sn(sn)
        assert snap.packets_in == 10
        assert snap.fast_path == 9
        assert snap.punts == 1
        assert snap.fast_path_fraction == pytest.approx(0.9)
        assert snap.associated_hosts == 2
        assert snap.services == 22

    def test_federation_report_aggregates(self, two_edomain_net):
        net, sn = self._busy_net(two_edomain_net)
        monitor = FederationMonitor(net)
        report = monitor.collect()
        assert report.total_packets == 10
        assert report.overall_fast_path_fraction == pytest.approx(0.9)
        assert set(report.by_edomain()) == {"west", "east"}
        assert report.hottest_sns(1)[0].address == sn.address
        assert len(report.to_rows()) == 4

    def test_periodic_collection_and_deltas(self, two_edomain_net):
        net, sn = self._busy_net(two_edomain_net)
        monitor = FederationMonitor(net)
        monitor.start_periodic(interval=5.0)
        net.run(11.0)
        assert len(monitor.history) == 2
        deltas = monitor.deltas()
        assert deltas["interval"] == 5
        assert deltas["packets"] == 0  # no traffic between collections

    def test_deltas_need_two_reports(self, two_edomain_net):
        monitor = FederationMonitor(two_edomain_net)
        monitor.collect()
        assert monitor.deltas() is None
