"""Cryptography library for service modules (the AES-NI stand-in).

Wraps the repository's primitives (AES-256-GCM sealing, HMAC-SHA256
derivation) behind the interface a service module uses: payload encryption (distinct from ILP header PSP),
hashing, HMAC, and layered "onion" wrapping for relay/mixnet services.
"""

from __future__ import annotations

import hashlib
import hmac as hmac_mod
from dataclasses import dataclass

from ..core import crypto


class CryptoLibrary:
    """Payload crypto for services (private relay, mixnet, VPN, oDNS)."""

    def __init__(self) -> None:
        self.operations = 0
        self._nonces = crypto.NonceGenerator()

    def random_key(self) -> bytes:
        return crypto.random_key()

    def derive(self, master: bytes, label: str, context: bytes = b"") -> bytes:
        self.operations += 1
        return crypto.derive_key(master, label, context)

    def sha256(self, data: bytes) -> bytes:
        self.operations += 1
        return hashlib.sha256(data).digest()

    def hmac(self, key: bytes, data: bytes) -> bytes:
        self.operations += 1
        return hmac_mod.new(key, data, hashlib.sha256).digest()

    def encrypt(self, key: bytes, plaintext: bytes, aad: bytes = b"") -> bytes:
        """Seal a payload; output embeds the nonce for stateless decrypt."""
        self.operations += 1
        nonce = self._nonces.next()
        return nonce + crypto.seal(key, nonce, plaintext, aad)

    def decrypt(self, key: bytes, blob: bytes, aad: bytes = b"") -> bytes:
        self.operations += 1
        if len(blob) < crypto.NONCE_SIZE + crypto.TAG_SIZE:
            raise crypto.CryptoError("ciphertext too short")
        nonce, sealed = blob[: crypto.NONCE_SIZE], blob[crypto.NONCE_SIZE :]
        return crypto.open_sealed(key, nonce, sealed, aad)

    # -- onion wrapping (mixnet / private relay) ---------------------------
    def onion_wrap(self, keys: list[bytes], plaintext: bytes) -> bytes:
        """Encrypt in layers: the first key is peeled first (outermost)."""
        blob = plaintext
        for key in reversed(keys):
            blob = self.encrypt(key, blob)
        return blob

    def onion_peel(self, key: bytes, blob: bytes) -> bytes:
        """Remove one layer."""
        return self.decrypt(key, blob)
