"""Cryptographic primitives: PSP's AEAD, key derivation, toy signatures.

The paper's ILP uses PSP [34], an AEAD designed for NIC offload that
operates on individual packets with no inter-packet state. PSP's cipher is
AES-GCM, and so is ours: :class:`SealingKey` is AES-256-GCM from the
``cryptography`` package under a subkey derived from the caller's key.

The 96-bit GCM nonce is a 4-byte big-endian epoch followed by the 8-byte
per-sender counter that travels in the packet (:class:`NonceGenerator`).
Both ends of a PSP association share one key, so each end counts in its
own half of the counter space (:class:`~repro.core.psp.PSPContext`); a
(key, epoch, counter) triple then never repeats within an association.
Sealed output is ``ciphertext || tag`` with a 16-byte tag.
"""

from __future__ import annotations

import functools
import hashlib
import hmac
import os
import struct
from dataclasses import dataclass
from typing import Iterable

from cryptography.exceptions import InvalidTag
from cryptography.hazmat.primitives.ciphers.aead import AESGCM

KEY_SIZE = 32
TAG_SIZE = 16
NONCE_SIZE = 8


class CryptoError(Exception):
    """Raised on authentication failure or key misuse."""


def random_key() -> bytes:
    """A fresh uniformly random 256-bit key."""
    # repro: allow(DET001) entropy boundary: key material must be real entropy
    return os.urandom(KEY_SIZE)


def derive_key(master: bytes, label: str, context: bytes = b"") -> bytes:
    """HKDF-expand style one-step derivation: HMAC(master, label || ctx)."""
    if len(master) < 16:
        raise CryptoError("master key too short")
    return hmac.new(master, label.encode() + b"\x00" + context, hashlib.sha256).digest()


class SealingKey:
    """AES-256-GCM under one key, for one epoch.

    The AEAD subkey is ``derive_key(key, "aes-256-gcm")``; the GCM nonce is
    ``epoch (4B, big-endian) || counter (8B)``, where the caller supplies
    the 8-byte counter and carries it on the wire.
    """

    __slots__ = ("key", "_aead", "_salt")

    def __init__(self, key: bytes, epoch: int = 0) -> None:
        self.key = key
        self._aead = AESGCM(derive_key(key, "aes-256-gcm"))
        self._salt = epoch.to_bytes(4, "big")

    def seal(self, nonce: bytes, plaintext: bytes, aad: bytes = b"") -> bytes:
        """Encrypt and authenticate. Returns ``ciphertext || tag``."""
        if len(nonce) != NONCE_SIZE:
            raise CryptoError(f"nonce must be {NONCE_SIZE} bytes")
        return self._aead.encrypt(self._salt + nonce, plaintext, aad or None)

    def seal_many(
        self,
        prefix: bytes,
        runs: Iterable[tuple[list[bytes], bytes]],
        aad: bytes = b"",
    ) -> list[bytes]:
        """Seal ``(nonces, plaintext)`` runs into ``prefix || nonce || ct || tag``.

        One frame per nonce, run-major: ``runs[0]``'s frames, then
        ``runs[1]``'s. Nonces are the caller's 8-byte counters.
        """
        encrypt = self._aead.encrypt
        salt = self._salt
        aad_or_none = aad or None
        return [
            prefix + nonce + encrypt(salt + nonce, plaintext, aad_or_none)
            for nonces, plaintext in runs
            for nonce in nonces
        ]

    def open(self, nonce: bytes, sealed: bytes, aad: bytes = b"") -> bytes:
        """Verify and decrypt output of :meth:`seal`.

        Raises:
            CryptoError: if the tag does not verify (tampering or wrong key).
        """
        if len(nonce) != NONCE_SIZE:
            raise CryptoError(f"nonce must be {NONCE_SIZE} bytes")
        if len(sealed) < TAG_SIZE:
            raise CryptoError("sealed blob too short")
        try:
            return self._aead.decrypt(self._salt + nonce, sealed, aad or None)
        except InvalidTag:
            raise CryptoError("authentication tag mismatch") from None


@functools.lru_cache(maxsize=1024)
def sealing_key(key: bytes, epoch: int = 0) -> SealingKey:
    """The (LRU-bounded, process-wide) cache of :class:`SealingKey` objects.

    Long-lived holders (PSP contexts keep one per epoch) should retain the
    returned object; transient callers go through :func:`seal`/
    :func:`open_sealed`, which consult this cache.
    """
    return SealingKey(key, epoch)


def seal(key: bytes, nonce: bytes, plaintext: bytes, aad: bytes = b"") -> bytes:
    """AES-256-GCM under ``key`` (epoch 0). Returns ``ciphertext || tag``.

    The nonce is caller-supplied (PSP carries it in the packet) and MUST be
    unique per (key, packet); :class:`NonceGenerator` provides that.
    """
    return sealing_key(key).seal(nonce, plaintext, aad)


def open_sealed(key: bytes, nonce: bytes, sealed: bytes, aad: bytes = b"") -> bytes:
    """Verify and decrypt output of :func:`seal`.

    Raises:
        CryptoError: if the tag does not verify (tampering or wrong key).
    """
    return sealing_key(key).open(nonce, sealed, aad)


class NonceGenerator:
    """Monotonic per-sender nonces (PSP uses a per-SA counter the same way).

    Nonces run from ``start + 1`` up to, but excluding, ``limit``.
    """

    __slots__ = ("_counter", "_limit")

    _PACK = struct.Struct(">Q").pack

    def __init__(self, start: int = 0, limit: int = 2**64) -> None:
        self._counter = start
        self._limit = limit

    def next(self) -> bytes:
        self._counter += 1
        if self._counter >= self._limit:
            raise CryptoError("nonce space exhausted; rekey required")
        return self._PACK(self._counter)

    def take(self, count: int) -> list[bytes]:
        """The next ``count`` nonces at once (a flow run's worth).

        Identical to ``count`` calls to :meth:`next`, minus the per-call
        bounds check and method dispatch.
        """
        start = self._counter
        end = start + count
        if end >= self._limit:
            raise CryptoError("nonce space exhausted; rekey required")
        self._counter = end
        pack = self._PACK
        return [pack(value) for value in range(start + 1, end + 1)]


@dataclass(frozen=True, slots=True)
class KeyPair:
    """A toy asymmetric identity: 'public' key is a hash of the private key.

    Signatures are HMACs keyed by the private key and verified by anyone who
    can obtain the private-key holder's cooperation is *not* modeled —
    instead the verifier trusts the lookup service's registry binding
    ``public`` to the identity, and verification recomputes the HMAC via a
    registry-held verification secret. This mirrors what the architecture
    needs (signed join messages, signed open-group statements, attestation
    quotes) without a bignum signature scheme.
    """

    private: bytes
    public: bytes

    @staticmethod
    def generate() -> "KeyPair":
        private = random_key()
        public = hashlib.sha256(b"pub|" + private).digest()
        return KeyPair(private=private, public=public)

    def sign(self, message: bytes) -> bytes:
        return hmac.new(self.private, message, hashlib.sha256).digest()

    def verify_with_private(self, message: bytes, signature: bytes) -> bool:
        return hmac.compare_digest(self.sign(message), signature)


class SignatureRegistry:
    """Verification oracle standing in for a real PKI.

    The global lookup service holds one of these: identities register their
    key pair, verifiers ask the registry to check signatures against a
    public key. Verification is constant-time HMAC comparison.
    """

    __slots__ = ("_by_public",)

    def __init__(self) -> None:
        self._by_public: dict[bytes, KeyPair] = {}

    def register(self, keypair: KeyPair) -> None:
        self._by_public[keypair.public] = keypair

    def is_registered(self, public: bytes) -> bool:
        return public in self._by_public

    def verify(self, public: bytes, message: bytes, signature: bytes) -> bool:
        keypair = self._by_public.get(public)
        if keypair is None:
            return False
        return keypair.verify_with_private(message, signature)
