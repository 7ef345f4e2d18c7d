"""PSP crypto: AEAD properties, and AES-256-GCM against the old cipher.

PSP seals every ILP header with AES-256-GCM (:mod:`repro.core.crypto`).
This module checks the AEAD properties the architecture relies on and
measures what the cipher costs:

* flipping any byte of a sealed blob — epoch, nonce, ciphertext or tag —
  fails authentication; so do a wrong key and an unknown epoch;
* blobs open in any order, and a blob sealed before a rotation still opens
  during the grace window;
* a known-answer test pins the construction: a PSP frame equals
  ``epoch || counter || AESGCM(subkey).encrypt(epoch4 || counter8, pt, aad)``
  framed by hand;
* seal, open and the warm batched terminus forward path are timed against
  the SHA-256 counter keystream + truncated HMAC-SHA256 tag that PSP used
  before (``_Sha256Cipher`` below, the removed implementation kept here
  only as a baseline), interleaved in the same run. Gates: seal at least
  1.3x and open at least 2x faster with AES-GCM, and the terminus forward
  path at least 1.8x faster.

``BENCH_crypto.json`` is written at the repo root with the machine
fingerprint, the trial count, and the median and IQR of every figure.

Run directly:
    PYTHONPATH=src python -m pytest benchmarks/test_crypto_fastpath.py -q -s
"""

from __future__ import annotations

import hashlib
import hmac
import json
import os
import platform
import random
import statistics
import time
from pathlib import Path

import pytest
from cryptography.hazmat.primitives.ciphers.aead import AESGCM

from repro.core import crypto
from repro.core.decision_cache import CacheKey, Decision
from repro.core.ilp import ILPHeader, TLV
from repro.core.packet import ILPPacket, L3Header, make_payload
from repro.core.psp import PSPContext, PSPError, pairwise_secret
from repro.core.service_node import ServiceNode
from repro.netsim import Simulator

_RESULTS_PATH = Path(__file__).resolve().parents[1] / "BENCH_crypto.json"
_results: dict[str, dict] = {}

TRIALS = 7
SECRET = pairwise_secret("10.0.0.1", "10.0.0.2")


def _header_bytes() -> bytes:
    h = ILPHeader(service_id=2, connection_id=123456)
    h.set_str(TLV.DEST_ADDR, "192.168.0.77")
    h.set_str(TLV.SRC_HOST, "192.168.0.12")
    return h.encode()


def _pair(epoch: int = 0) -> tuple[PSPContext, PSPContext]:
    return PSPContext(SECRET, epoch=epoch), PSPContext(SECRET, epoch=epoch)


# -- AEAD properties ----------------------------------------------------


class TestAEADProperties:
    def test_flipping_any_byte_fails(self):
        tx, rx = _pair()
        blob = tx.seal(_header_bytes(), aad=b"ctx")
        for i in range(len(blob)):
            for bit in (0x01, 0x80):
                bad = bytearray(blob)
                bad[i] ^= bit
                with pytest.raises(PSPError):
                    rx.open(bytes(bad), aad=b"ctx")
        assert rx.stats.auth_failures == 2 * len(blob)
        assert rx.open(blob, aad=b"ctx") == _header_bytes()

    def test_truncated_blob_fails(self):
        tx, rx = _pair()
        blob = tx.seal(b"x")
        for cut in range(len(blob)):
            with pytest.raises(PSPError):
                rx.open(blob[:cut])

    def test_wrong_key_fails(self):
        tx = PSPContext(SECRET)
        other = PSPContext(pairwise_secret("10.0.0.1", "10.0.0.3"))
        with pytest.raises(PSPError, match="authentication"):
            other.open(tx.seal(b"header"))

    def test_unknown_epoch_fails(self):
        tx, rx = _pair()
        for _ in range(2):
            tx.rotate()
        with pytest.raises(PSPError, match="unknown PSP epoch"):
            rx.open(tx.seal(b"header"))

    def test_open_in_any_order(self):
        tx, rx = _pair()
        blobs = [tx.seal(b"pkt-%d" % i) for i in range(8)]
        blobs += tx.seal_run(b"run", 4)
        blobs += tx.seal_gather([(b"g1", 2), (b"g2", 3)])
        expected = {blob: rx.open(blob) for blob in blobs}
        order = list(range(len(blobs)))
        random.Random(7).shuffle(order)
        fresh = PSPContext(SECRET)
        assert [fresh.open(blobs[i]) for i in order] == [
            expected[blobs[i]] for i in order
        ]
        assert fresh.open_batch([blobs[i] for i in reversed(order)]) == [
            expected[blobs[i]] for i in reversed(order)
        ]

    def test_sealed_before_rotation_opens_in_grace_window(self):
        tx, rx = _pair()
        before = tx.seal(b"before")
        tx.rotate()
        rx.rotate()
        assert rx.open(tx.seal(b"after")) == b"after"
        assert rx.open(before) == b"before"
        tx.rotate()
        rx.rotate()
        with pytest.raises(PSPError):
            rx.open(before)

    @pytest.mark.parametrize("epoch", [0, 3, 255])
    @pytest.mark.parametrize("aad", [b"", b"aad-context"])
    def test_known_answer_pins_the_construction(self, epoch, aad):
        tx = PSPContext(SECRET, epoch=epoch)
        plaintext = _header_bytes()
        blobs = [tx.seal(plaintext, aad)] + tx.seal_run(plaintext, 2, aad)
        epoch_key = crypto.derive_key(SECRET, "psp-epoch", bytes([epoch]))
        aead = AESGCM(crypto.derive_key(epoch_key, "aes-256-gcm"))
        for counter, blob in enumerate(blobs, start=1):
            ctr8 = counter.to_bytes(8, "big")
            nonce = epoch.to_bytes(4, "big") + ctr8
            ct = aead.encrypt(nonce, plaintext, aad or None)
            assert blob == bytes([epoch]) + ctr8 + ct
        assert len(blobs[0]) == len(plaintext) + PSPContext.overhead() == (
            len(plaintext) + 25
        )


# -- the cipher PSP used before AES-GCM, as a timing baseline -----------


class _Sha256Cipher:
    """SHA-256 counter keystream + truncated HMAC-SHA256 tag.

    The removed ``SealingKey`` fast path: both subkeys derived once, the
    keystream base and the HMAC pads pre-absorbed into SHA-256 states, one
    big-int XOR. Same interface as :class:`repro.core.crypto.SealingKey`.
    """

    def __init__(self, key: bytes, epoch: int = 0) -> None:
        self._ks_base = hashlib.sha256(crypto.derive_key(key, "ilp-enc"))
        pad = crypto.derive_key(key, "ilp-mac").ljust(64, b"\x00")
        self._inner = hashlib.sha256(bytes(b ^ 0x36 for b in pad))
        self._outer = hashlib.sha256(bytes(b ^ 0x5C for b in pad))

    def _xor(self, nonce: bytes, data: bytes) -> bytes:
        n = len(data)
        if not n:
            return b""
        base = self._ks_base.copy()
        base.update(nonce)
        blocks = []
        for counter in range((n + 31) // 32):
            h = base.copy()
            h.update(counter.to_bytes(4, "big"))
            blocks.append(h.digest())
        stream = b"".join(blocks)[:n]
        return (int.from_bytes(data, "big") ^ int.from_bytes(stream, "big")).to_bytes(
            n, "big"
        )

    def _tag(self, nonce: bytes, aad: bytes, ciphertext: bytes) -> bytes:
        inner = self._inner.copy()
        inner.update(nonce + aad + ciphertext)
        outer = self._outer.copy()
        outer.update(inner.digest())
        return outer.digest()[: crypto.TAG_SIZE]

    def seal(self, nonce: bytes, plaintext: bytes, aad: bytes = b"") -> bytes:
        ciphertext = self._xor(nonce, plaintext)
        return ciphertext + self._tag(nonce, aad, ciphertext)

    def seal_many(self, prefix: bytes, runs, aad: bytes = b"") -> list[bytes]:
        seal = self.seal
        return [
            prefix + nonce + seal(nonce, plaintext, aad)
            for nonces, plaintext in runs
            for nonce in nonces
        ]

    def open(self, nonce: bytes, sealed: bytes, aad: bytes = b"") -> bytes:
        ciphertext, tag = sealed[: -crypto.TAG_SIZE], sealed[-crypto.TAG_SIZE :]
        if not hmac.compare_digest(tag, self._tag(nonce, aad, ciphertext)):
            raise crypto.CryptoError("authentication tag mismatch")
        return self._xor(nonce, ciphertext)


@pytest.fixture
def sha256_psp(monkeypatch):
    """Call to build objects whose PSP contexts use the old cipher."""

    def build(factory):
        with monkeypatch.context() as patch:
            patch.setattr(crypto, "sealing_key", _Sha256Cipher)
            return factory()

    return build


def test_baseline_cipher_round_trips(sha256_psp):
    tx, rx = sha256_psp(_pair)
    blob = tx.seal(b"header")
    assert rx.open(blob) == b"header"
    assert blob != PSPContext(SECRET).seal(b"header")


# -- measurement --------------------------------------------------------


def _quartiles(samples: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(samples, n=4, method="inclusive")
    return {"median": round(median, 1), "iqr": round(q3 - q1, 1)}


def _interleaved(new_fn, old_fn, seconds: float = 0.15) -> dict:
    """Alternate timed trials of two ops/s measurements; summarize both."""
    new_fn(seconds / 3)  # warm caches outside the recorded trials
    old_fn(seconds / 3)
    new, old = [], []
    for _ in range(TRIALS):
        new.append(new_fn(seconds))
        old.append(old_fn(seconds))
    speedups = [n / o for n, o in zip(new, old)]
    return {
        "aes_gcm_pps": _quartiles(new),
        "sha256_pps": _quartiles(old),
        "speedup": round(statistics.median(speedups), 2),
    }


def _rate(fn, seconds: float) -> float:
    """Ops per second of ``fn`` over about ``seconds``."""
    n = 0
    start = time.perf_counter()
    while True:
        for _ in range(200):
            fn()
        n += 200
        elapsed = time.perf_counter() - start
        if elapsed >= seconds:
            return n / elapsed


def test_seal_open_vs_sha256(sha256_psp):
    plaintext = _header_bytes()
    for name, op in (("seal", "seal"), ("open", "open")):
        rates = []
        for pair in (_pair(), sha256_psp(_pair)):
            tx, rx = pair
            blob = tx.seal(plaintext)
            if op == "seal":
                fn = lambda tx=tx: tx.seal(plaintext)
            else:
                fn = lambda rx=rx, blob=blob: rx.open(blob)
            rates.append(lambda seconds, fn=fn: _rate(fn, seconds))
        _results[name] = _interleaved(*rates)
    assert _results["seal"]["speedup"] >= 1.3, _results["seal"]
    assert _results["open"]["speedup"] >= 2.0, _results["open"]


SN_ADDR = "10.0.0.1"
INGRESS = "10.0.0.2"
EGRESS = "10.0.0.3"
BATCH = 1000


def _terminus_rig():
    """A warm SN forwarding one flow INGRESS → EGRESS, fed 1000-packet bursts."""
    node = ServiceNode(Simulator(), "sn", SN_ADDR)
    delivered = [0]

    def sink(peer: str, packet: ILPPacket) -> bool:
        delivered[0] += 1
        return True

    node.terminus.set_transmit(sink)
    secret_in = pairwise_secret(SN_ADDR, INGRESS)
    node.keystore.establish(INGRESS, secret_in)
    node.keystore.establish(EGRESS, pairwise_secret(SN_ADDR, EGRESS))
    node.cache.install(CacheKey(INGRESS, 2, 123456), Decision.forward(EGRESS))
    tx = PSPContext(secret_in)
    return node, tx, delivered


def test_terminus_forward_vs_sha256(sha256_psp):
    """Warm batched fast path: open → decode → cache hit → seal → transmit."""
    payload = make_payload(b"x" * 64)
    header = _header_bytes()
    rigs = [_terminus_rig(), sha256_psp(_terminus_rig)]
    counts = [0, 0]

    def measure(k: int):
        node, tx, _ = rigs[k]

        def run(seconds: float) -> float:
            total, elapsed = 0, 0.0
            while elapsed < seconds:
                batch = [
                    ILPPacket(
                        l3=L3Header(src=INGRESS, dst=SN_ADDR),
                        ilp_wire=wire,
                        payload=payload,
                    )
                    for wire in tx.seal_run(header, BATCH)
                ]
                t0 = time.perf_counter()
                node.terminus.receive_batch(batch)
                elapsed += time.perf_counter() - t0
                total += BATCH
            counts[k] += total
            return total / elapsed

        return run

    _results["terminus_forward"] = dict(
        _interleaved(measure(0), measure(1), seconds=0.3), batch=BATCH
    )
    for k, (node, _, delivered) in enumerate(rigs):
        assert delivered[0] == counts[k] == node.terminus.stats.fast_path
    speedup = _results["terminus_forward"]["speedup"]
    assert speedup >= 1.8, f"AES-GCM terminus forward only {speedup:.2f}x"


def teardown_module(module):
    if not _results:
        return
    try:
        from importlib.metadata import version

        crypto_version = version("cryptography")
    except Exception:
        crypto_version = None
    _results["meta"] = {
        "fingerprint": {
            "cpu": platform.processor() or platform.machine(),
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "cryptography": crypto_version,
        },
        "trials": TRIALS,
        "note": "ops/s on one core, median and IQR of interleaved trials; "
        "speedup = median of per-trial AES-GCM/SHA-256 ratios",
        "header_bytes": len(_header_bytes()),
    }
    _RESULTS_PATH.write_text(json.dumps(_results, indent=2) + "\n")
    print(f"\nwrote {_RESULTS_PATH}")
    for name in ("seal", "open", "terminus_forward"):
        if name in _results:
            print(f"  {name}: {_results[name]}")
