"""Unit tests for the crypto primitives and PSP contexts."""

import pytest

from repro.core import crypto
from repro.core.psp import (
    PSPContext,
    PSPError,
    PeerKeyStore,
    lower_nonces,
    pairwise_secret,
    upper_nonces,
)


class TestSealOpen:
    def test_roundtrip(self):
        key = crypto.random_key()
        nonce = crypto.NonceGenerator().next()
        sealed = crypto.seal(key, nonce, b"hello world")
        assert crypto.open_sealed(key, nonce, sealed) == b"hello world"

    def test_ciphertext_differs_from_plaintext(self):
        key = crypto.random_key()
        nonce = crypto.NonceGenerator().next()
        sealed = crypto.seal(key, nonce, b"secret header bytes")
        assert b"secret header bytes" not in sealed

    def test_tamper_detected(self):
        key = crypto.random_key()
        nonce = crypto.NonceGenerator().next()
        sealed = bytearray(crypto.seal(key, nonce, b"payload"))
        sealed[0] ^= 0xFF
        with pytest.raises(crypto.CryptoError):
            crypto.open_sealed(key, nonce, bytes(sealed))

    def test_wrong_key_rejected(self):
        nonce = crypto.NonceGenerator().next()
        sealed = crypto.seal(crypto.random_key(), nonce, b"x")
        with pytest.raises(crypto.CryptoError):
            crypto.open_sealed(crypto.random_key(), nonce, sealed)

    def test_wrong_nonce_rejected(self):
        key = crypto.random_key()
        gen = crypto.NonceGenerator()
        sealed = crypto.seal(key, gen.next(), b"x")
        with pytest.raises(crypto.CryptoError):
            crypto.open_sealed(key, gen.next(), sealed)

    def test_aad_binding(self):
        key = crypto.random_key()
        nonce = crypto.NonceGenerator().next()
        sealed = crypto.seal(key, nonce, b"x", aad=b"ctx-1")
        with pytest.raises(crypto.CryptoError):
            crypto.open_sealed(key, nonce, sealed, aad=b"ctx-2")

    def test_empty_plaintext(self):
        key = crypto.random_key()
        nonce = crypto.NonceGenerator().next()
        assert crypto.open_sealed(key, nonce, crypto.seal(key, nonce, b"")) == b""


class TestDerivation:
    def test_deterministic(self):
        master = crypto.random_key()
        assert crypto.derive_key(master, "a") == crypto.derive_key(master, "a")

    def test_label_separation(self):
        master = crypto.random_key()
        assert crypto.derive_key(master, "a") != crypto.derive_key(master, "b")

    def test_context_separation(self):
        master = crypto.random_key()
        assert crypto.derive_key(master, "a", b"1") != crypto.derive_key(
            master, "a", b"2"
        )

    def test_short_master_rejected(self):
        with pytest.raises(crypto.CryptoError):
            crypto.derive_key(b"short", "a")


class TestKeyPairRegistry:
    def test_sign_verify_via_registry(self):
        registry = crypto.SignatureRegistry()
        kp = crypto.KeyPair.generate()
        registry.register(kp)
        sig = kp.sign(b"msg")
        assert registry.verify(kp.public, b"msg", sig)
        assert not registry.verify(kp.public, b"other", sig)

    def test_unknown_public_fails(self):
        registry = crypto.SignatureRegistry()
        kp = crypto.KeyPair.generate()
        assert not registry.verify(kp.public, b"m", kp.sign(b"m"))


class TestNonceGenerator:
    def test_monotonic_unique(self):
        gen = crypto.NonceGenerator()
        nonces = {gen.next() for _ in range(1000)}
        assert len(nonces) == 1000

    def test_exhaustion_raises_at_wraparound(self):
        gen = crypto.NonceGenerator(start=2**64 - 2)
        assert gen.next() == b"\xff" * 8  # the last valid counter value
        with pytest.raises(crypto.CryptoError):
            gen.next()

    def test_exhausted_generator_stays_exhausted(self):
        gen = crypto.NonceGenerator(start=2**64 - 1)
        for _ in range(3):
            with pytest.raises(crypto.CryptoError):
                gen.next()

    def test_limit_bounds_next_and_take(self):
        gen = crypto.NonceGenerator(start=5, limit=8)
        assert gen.take(2) == [(6).to_bytes(8, "big"), (7).to_bytes(8, "big")]
        with pytest.raises(crypto.CryptoError):
            gen.next()
        with pytest.raises(crypto.CryptoError):
            crypto.NonceGenerator(limit=3).take(3)


class TestSealingKeySchedule:
    def test_schedule_matches_module_functions(self):
        key = crypto.random_key()
        nonce = crypto.NonceGenerator().next()
        sk = crypto.SealingKey(key)
        blob = sk.seal(nonce, b"hello", aad=b"a")
        assert blob == crypto.seal(key, nonce, b"hello", aad=b"a")
        assert sk.open(nonce, blob, aad=b"a") == b"hello"

    def test_schedule_cache_returns_same_object(self):
        key = crypto.random_key()
        assert crypto.sealing_key(key) is crypto.sealing_key(key)

    def test_seal_many_frames_every_nonce_run_major(self):
        key = crypto.random_key()
        sk = crypto.sealing_key(key)
        gen = crypto.NonceGenerator()
        first, second = gen.take(2), gen.take(1)
        frames = sk.seal_many(b"P", [(first, b"one"), (second, b"two")], aad=b"a")
        expected = [
            b"P" + nonce + sk.seal(nonce, plaintext, aad=b"a")
            for nonce, plaintext in zip(first + second, [b"one", b"one", b"two"])
        ]
        assert frames == expected
        assert sk.open(second[0], frames[2][1 + crypto.NONCE_SIZE :], aad=b"a") == b"two"

    def test_epoch_separates_nonce_space(self):
        """The same key and counter under two epochs use two GCM nonces."""
        key = crypto.random_key()
        nonce = crypto.NonceGenerator().next()
        sealed = crypto.SealingKey(key, epoch=1).seal(nonce, b"x")
        assert sealed != crypto.SealingKey(key, epoch=2).seal(nonce, b"x")
        with pytest.raises(crypto.CryptoError):
            crypto.SealingKey(key, epoch=2).open(nonce, sealed)

    def test_bad_nonce_length_rejected(self):
        sk = crypto.SealingKey(crypto.random_key())
        with pytest.raises(crypto.CryptoError):
            sk.seal(b"short", b"x")
        with pytest.raises(crypto.CryptoError):
            sk.open(b"toolongnonce", b"x" * crypto.TAG_SIZE)


class TestPSPContext:
    def _pair(self):
        secret = pairwise_secret("10.0.0.1", "10.0.0.2")
        return PSPContext(secret), PSPContext(secret)

    def test_seal_open_between_peers(self):
        a, b = self._pair()
        blob = a.seal(b"ilp header")
        assert b.open(blob) == b"ilp header"

    def test_out_of_order_packets_decrypt(self):
        """PSP's per-packet independence: arrival order is irrelevant."""
        a, b = self._pair()
        blobs = [a.seal(f"pkt{i}".encode()) for i in range(5)]
        for i in (4, 0, 2, 1, 3):
            assert b.open(blobs[i]) == f"pkt{i}".encode()

    def test_rotation_keeps_old_epoch_valid(self):
        a, b = self._pair()
        old = a.seal(b"before rekey")
        a.rotate()
        new = a.seal(b"after rekey")
        # Receiver has not rotated yet; both must decrypt.
        assert b.open(new) == b"after rekey"
        assert b.open(old) == b"before rekey"

    def test_receiver_derives_one_epoch_ahead(self):
        a, b = self._pair()
        a.rotate()
        assert b.open(a.seal(b"x")) == b"x"
        assert b.stats.packets_opened == 1

    def test_far_future_epoch_rejected(self):
        a, b = self._pair()
        for _ in range(3):
            a.rotate()
        with pytest.raises(PSPError):
            b.open(a.seal(b"x"))

    def test_tampered_blob_rejected_and_counted(self):
        a, b = self._pair()
        blob = bytearray(a.seal(b"x"))
        blob[-1] ^= 0x01
        with pytest.raises(PSPError):
            b.open(bytes(blob))
        assert b.stats.auth_failures == 1

    def test_wrong_pair_secret_fails(self):
        a = PSPContext(pairwise_secret("10.0.0.1", "10.0.0.2"))
        c = PSPContext(pairwise_secret("10.0.0.1", "10.0.0.3"))
        with pytest.raises(PSPError):
            c.open(a.seal(b"x"))

    def test_overhead_is_constant(self):
        a, _ = self._pair()
        small = a.seal(b"x")
        large = a.seal(b"x" * 500)
        assert len(small) == PSPContext.overhead() + 1
        assert (len(large) - len(small)) == 499

    def test_epoch_wraps_mod_256(self):
        secret = pairwise_secret("a.example", "b.example", realm=b"test")
        ctx = PSPContext(secret, epoch=255)
        assert ctx.rotate() == 0


class TestEpochRotationEdgeCases:
    """Wraparound, forward derivation, and rejection boundaries."""

    def _pair(self, epoch: int = 0):
        secret = pairwise_secret("10.0.0.1", "10.0.0.2")
        return PSPContext(secret, epoch=epoch), PSPContext(secret, epoch=epoch)

    def test_wraparound_traffic_flows_across_0xff_to_0x00(self):
        """Rotation across the 0xFF→0x00 boundary behaves like any other."""
        a, b = self._pair(epoch=0xFF)
        before = a.seal(b"sealed at 0xff")
        assert a.rotate() == 0x00
        after = a.seal(b"sealed at 0x00")
        # Receiver still at 0xFF: 0x00 is its (epoch+1) & 0xFF, derived forward.
        assert b.open(after) == b"sealed at 0x00"
        assert b.open(before) == b"sealed at 0xff"

    def test_wraparound_receiver_rotated_first(self):
        a, b = self._pair(epoch=0xFF)
        b.rotate()  # receiver at 0x00, still accepts 0xFF
        assert b.open(a.seal(b"late 0xff packet")) == b"late 0xff packet"

    def test_forward_derivation_caches_the_key(self):
        a, b = self._pair()
        a.rotate()
        assert b.open(a.seal(b"first")) == b"first"
        assert a.epoch in b.known_epochs()  # derived once, retained
        assert b.open(a.seal(b"second")) == b"second"

    def test_two_epochs_ahead_rejected(self):
        a, b = self._pair()
        a.rotate()
        a.rotate()  # a is now two ahead of b
        blob = a.seal(b"too far ahead")
        with pytest.raises(PSPError, match="unknown PSP epoch"):
            b.open(blob)
        assert b.stats.auth_failures == 1
        # The rejected epoch must not have been cached.
        assert a.epoch not in b.known_epochs()

    def test_two_behind_rejected_after_double_rotation(self):
        """The receiver only keeps current + previous epochs."""
        a, b = self._pair()
        stale = a.seal(b"epoch 0")
        for _ in range(2):
            a.rotate()
            b.rotate()
        with pytest.raises(PSPError):
            b.open(stale)

    def test_rotation_builds_schedule_once(self):
        a, _ = self._pair()
        a.rotate()
        assert len(a.known_epochs()) == 2  # current + previous only, forever


class TestPairwiseSecret:
    def test_symmetric(self):
        assert pairwise_secret("10.0.0.1", "10.0.0.2") == pairwise_secret(
            "10.0.0.2", "10.0.0.1"
        )

    def test_pair_separation(self):
        assert pairwise_secret("10.0.0.1", "10.0.0.2") != pairwise_secret(
            "10.0.0.1", "10.0.0.3"
        )


class TestPeerKeyStore:
    def test_establish_and_get(self):
        store = PeerKeyStore()
        ctx = store.establish("10.0.0.9", crypto.random_key())
        assert store.get("10.0.0.9") is ctx
        assert store.has("10.0.0.9")
        assert len(store) == 1

    def test_missing_peer_raises(self):
        with pytest.raises(PSPError):
            PeerKeyStore().get("10.9.9.9")

    def test_remove(self):
        store = PeerKeyStore()
        store.establish("10.0.0.9", crypto.random_key())
        store.remove("10.0.0.9")
        assert not store.has("10.0.0.9")


class TestDirectionalNonces:
    """The two ends of one association share a key but never a nonce."""

    @staticmethod
    def _counter(blob: bytes) -> tuple[int, int]:
        return blob[0], int.from_bytes(blob[1 : 1 + crypto.NONCE_SIZE], "big")

    def test_upper_half_starts_past_lower_half(self):
        secret = crypto.random_key()
        lower, upper = PSPContext(secret), PSPContext(secret, nonces=upper_nonces())
        assert self._counter(lower.seal(b"x")) == (0, 1)
        assert self._counter(upper.seal(b"x")) == (0, 2**63 + 1)
        assert lower.open(upper.seal(b"up")) == b"up"
        assert upper.open(lower.seal(b"down")) == b"down"

    def test_lower_half_stops_short_of_upper_half(self):
        with pytest.raises(crypto.CryptoError):
            lower_nonces().take(2**63)  # its last counter would be 2**63
        assert upper_nonces().next() == (2**63 + 1).to_bytes(8, "big")

    def test_stores_pick_opposite_halves(self):
        secret = crypto.random_key()
        a = PeerKeyStore(owner="10.0.0.1").establish("10.0.0.2", secret)
        b = PeerKeyStore(owner="10.0.0.2").establish("10.0.0.1", secret)
        assert self._counter(a.seal(b"x")) != self._counter(b.seal(b"x"))

    def test_reestablished_association_keeps_counting(self):
        store = PeerKeyStore(owner="10.0.0.2")
        secret = crypto.random_key()
        first = store.establish("10.0.0.1", secret).seal(b"x")
        store.remove("10.0.0.1")
        again = store.establish("10.0.0.1", secret).seal(b"x")
        assert self._counter(again)[1] == self._counter(first)[1] + 1

    def test_host_sn_and_sn_sn_associations_use_distinct_nonces(self):
        from repro.core.host import Host
        from repro.core.service_node import ServiceNode
        from repro.netsim import Simulator

        sim = Simulator()
        sn = ServiceNode(sim, "sn", "10.0.0.1")
        peer = ServiceNode(sim, "peer", "10.0.0.2")
        host = Host(sim, "h", "192.168.0.1")
        sn.associate_host(host)
        sn.establish_pipe(peer)
        for x, y in ((host, sn), (sn, peer)):
            x_to_y = x.keystore.get(y.address).seal(b"first")
            y_to_x = y.keystore.get(x.address).seal(b"first")
            assert self._counter(x_to_y) != self._counter(y_to_x)
            assert y.keystore.get(x.address).open(x_to_y) == b"first"
            assert x.keystore.get(y.address).open(y_to_x) == b"first"
