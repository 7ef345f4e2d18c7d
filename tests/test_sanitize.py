"""Unit tests for sanitizer mode (``REPRO_SANITIZE=1``).

These are white-box tests: several deliberately corrupt private state to
prove the armed checks detect it, under ``# repro: allow(DET002)`` waivers.
"""

import pytest

from repro import sanitize
from repro.core.decision_cache import CacheKey, Decision, DecisionCache
from repro.core.ilp import ILPHeader, TLV
from repro.core.pipe_terminus import _san_check_header_wire
from repro.core.psp import PSPContext


@pytest.fixture
def armed():
    previous = sanitize.set_enabled(True)
    yield
    sanitize.set_enabled(previous)


@pytest.fixture
def disarmed():
    previous = sanitize.set_enabled(False)
    yield
    sanitize.set_enabled(previous)


class TestToggle:
    def test_set_enabled_returns_previous(self):
        previous = sanitize.set_enabled(True)
        try:
            assert sanitize.set_enabled(True) is True
            assert sanitize.set_enabled(False) is True
            assert sanitize.set_enabled(False) is False
        finally:
            sanitize.set_enabled(previous)

    @pytest.mark.parametrize(
        "value,expected",
        [
            ("1", True),
            ("true", True),
            ("YES", True),
            (" on ", True),
            ("0", False),
            ("", False),
            ("off", False),
            ("no", False),
        ],
    )
    def test_enabled_from_env(self, monkeypatch, value, expected):
        monkeypatch.setenv("REPRO_SANITIZE", value)
        assert sanitize.enabled_from_env() is expected

    def test_unset_env_means_disabled(self, monkeypatch):
        monkeypatch.delenv("REPRO_SANITIZE", raising=False)
        assert sanitize.enabled_from_env() is False

    def test_sanitize_error_is_assertion_error(self):
        assert issubclass(sanitize.SanitizeError, AssertionError)

    def test_fail_names_the_check(self):
        with pytest.raises(sanitize.SanitizeError, match=r"sanitize\[demo\]: boom"):
            sanitize.fail("demo", "boom")


class TestNonceMonotonicity:
    def _ctx(self):
        return PSPContext(b"m" * 16)

    def test_normal_sealing_is_clean(self, armed):
        ctx = self._ctx()
        ctx.seal(b"a")
        ctx.seal_batch([b"b", b"c"])
        ctx.seal_run(b"d", 3)
        ctx.seal_gather([(b"e", 2), (b"f", 1)])
        ctx.rotate()
        ctx.seal(b"e")

    def test_regression_detected_on_seal(self, armed):
        ctx = self._ctx()
        ctx.seal(b"a")
        # White-box: pretend a much later nonce was already sealed this epoch.
        ctx._san_hwm[ctx.epoch] = 2**40  # repro: allow(DET002) forced regression
        with pytest.raises(sanitize.SanitizeError, match="nonce-monotonic"):
            ctx.seal(b"b")

    def test_regression_detected_on_batch_and_run(self, armed):
        ctx = self._ctx()
        ctx._san_hwm[ctx.epoch] = 2**40  # repro: allow(DET002) forced regression
        with pytest.raises(sanitize.SanitizeError, match="nonce-monotonic"):
            ctx.seal_batch([b"a", b"b"])
        with pytest.raises(sanitize.SanitizeError, match="nonce-monotonic"):
            ctx.seal_run(b"c", 2)

    def test_regression_detected_on_gather(self, armed):
        ctx = self._ctx()
        ctx.seal_gather([(b"a", 2)])
        ctx._san_hwm[ctx.epoch] = 2**40  # repro: allow(DET002) forced regression
        with pytest.raises(sanitize.SanitizeError, match="nonce-monotonic"):
            ctx.seal_gather([(b"b", 2), (b"c", 1)])

    def test_disarmed_skips_the_check(self, disarmed):
        ctx = self._ctx()
        ctx._san_hwm[ctx.epoch] = 2**40  # repro: allow(DET002) forced regression
        ctx.seal(b"a")  # no error: the check is not armed


class TestCacheCoherence:
    def _cache(self):
        cache = DecisionCache(capacity=16)
        cache.install(CacheKey("h1", 1, 1), Decision.forward("p1"))
        cache.install(CacheKey("h2", 1, 2), Decision.drop())
        return cache

    def test_mutations_stay_coherent_while_armed(self, armed):
        cache = self._cache()
        cache.invalidate(CacheKey("h2", 1, 2))
        cache.invalidate_connection(1, 1)
        cache.install(CacheKey("h3", 2, 3), Decision.forward("p2"))
        cache.invalidate_by_target("p2")
        assert cache.count_targeting("p2") == 0
        cache.check_index_coherence()

    def test_dropped_position_entry_detected(self):
        cache = self._cache()
        cache.check_index_coherence()
        cache._key_pos.pop(CacheKey("h1", 1, 1))  # repro: allow(DET002) corruption
        with pytest.raises(sanitize.SanitizeError, match="cache-coherence"):
            cache.check_index_coherence()

    def test_wrong_connection_filing_detected(self):
        cache = self._cache()
        by_conn = cache._by_conn  # repro: allow(DET002) white-box corruption
        by_conn[(9, 9)] = by_conn.pop((1, 1))
        with pytest.raises(sanitize.SanitizeError, match="wrong connection"):
            cache.check_index_coherence()

    def test_full_scan_limit_bounds_the_check(self, monkeypatch):
        cache = self._cache()
        by_conn = cache._by_conn  # repro: allow(DET002) white-box corruption
        by_conn[(9, 9)] = by_conn.pop((1, 1))
        # Above the cutoff only O(1) cardinality checks run, so the
        # wrong-bucket filing (same cardinality) goes unreported.
        monkeypatch.setattr(sanitize, "FULL_SCAN_LIMIT", 0)
        cache.check_index_coherence()
        monkeypatch.setattr(sanitize, "FULL_SCAN_LIMIT", 512)
        with pytest.raises(sanitize.SanitizeError, match="wrong connection"):
            cache.check_index_coherence()


class TestMissQueueLedger:
    def _queue(self):
        from repro.core.pipe_terminus import MissQueue

        return MissQueue(limit=4)

    def test_clean_queue_passes(self, armed):
        queue = self._queue()
        queue.park(("p", b"f"), ["a", "b"])
        queue.drain(("p", b"f"), fast=True)
        queue.check_drained()

    def test_leak_detected(self, armed):
        queue = self._queue()
        queue.park(("p", b"f"), ["a"])
        with pytest.raises(sanitize.SanitizeError, match="miss-queue-leak"):
            queue.check_drained()

    def test_ledger_violation_detected(self, armed):
        queue = self._queue()
        queue.park(("p", b"f"), ["a"])
        queue.drain(("p", b"f"), fast=True)
        # Corrupt the ledger: a drain that was never parked.
        queue.stats.drained_fast += 1  # repro: allow(DET002)
        with pytest.raises(sanitize.SanitizeError, match="miss-queue-ledger"):
            queue.check_drained()

    def test_crash_discard_keeps_ledger_clean(self, armed):
        queue = self._queue()
        queue.park(("p", b"f"), ["a", "b", "c"])
        assert queue.discard_all() == 3
        queue.check_drained()
        assert queue.stats.dropped == 3

    def _node(self):
        from repro.core.service_node import ServiceNode
        from repro.netsim import Simulator

        return ServiceNode(Simulator(), "sn", "10.0.0.1")

    def test_batch_ingress_detects_leak_when_armed(self, armed):
        node = self._node()
        node.terminus.miss_queue.park(("p", b"f"), ["stuck"])
        with pytest.raises(sanitize.SanitizeError, match="miss-queue-leak"):
            node.terminus.receive_batch([])

    def test_batch_ingress_skips_check_when_disarmed(self, disarmed):
        node = self._node()
        node.terminus.miss_queue.park(("p", b"f"), ["stuck"])
        assert node.terminus.receive_batch([]) == 0


class TestHeaderReencode:
    def test_fresh_encode_passes(self):
        header = ILPHeader(service_id=7, connection_id=42)
        header.set_str(TLV.DEST_ADDR, "10.0.0.9")
        _san_check_header_wire(header, header.encode())

    def test_drifted_wire_detected(self):
        header = ILPHeader(service_id=7, connection_id=42)
        wire = bytearray(header.encode())
        wire[-1] ^= 0xFF
        with pytest.raises(sanitize.SanitizeError, match="header-reencode"):
            _san_check_header_wire(header, bytes(wire))

    def test_stale_memo_scenario_detected(self):
        # A caller that keeps pre-encoded bytes, then mutates the header,
        # must not ship the stale wire form.
        header = ILPHeader(service_id=7, connection_id=42)
        stale = header.encode()
        header.set_str(TLV.DEST_ADDR, "10.0.0.9")
        with pytest.raises(sanitize.SanitizeError, match="header-reencode"):
            _san_check_header_wire(header, stale)
