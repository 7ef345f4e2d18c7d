"""PSP-style per-packet header encryption between ILP peers.

PSP's properties that ILP relies on (§4):

* a single long-lived pairwise key protects many connections, so no extra
  round trips at connection setup;
* every packet is independently decryptable (the nonce travels with it), so
  out-of-order arrival imposes no state or reordering requirements;
* keys rotate without dropping in-flight packets (epoch byte selects the
  key; the previous epoch stays valid during a grace window).

Wire format of the sealed ILP header::

    | epoch (1B) | nonce (8B) | ciphertext (variable) | tag (16B) |

The cipher is AES-256-GCM (:class:`~repro.core.crypto.SealingKey`) under a
per-epoch key derived from the association's master secret; the GCM nonce
is the epoch (4B, big-endian) followed by the 8-byte nonce counter.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Optional, Sequence

from .. import sanitize as _san
from . import crypto

#: epoch (1B) + nonce counter (8B) ahead of the ciphertext
_HEADER_SIZE = 1 + crypto.NONCE_SIZE
_MIN_BLOB = _HEADER_SIZE + crypto.TAG_SIZE
#: first nonce counter of the upper half (see :class:`PSPContext`)
_HALF = 2**63


def lower_nonces() -> crypto.NonceGenerator:
    """Nonce counters 1 .. 2**63 - 1: one end of an association."""
    return crypto.NonceGenerator(limit=_HALF)


def upper_nonces() -> crypto.NonceGenerator:
    """Nonce counters 2**63 + 1 onward: the other end of an association."""
    return crypto.NonceGenerator(start=_HALF)


class PSPError(Exception):
    """Raised on malformed PSP blobs or undecryptable packets."""


@dataclass(slots=True)
class PSPStats:
    packets_sealed: int = 0
    packets_opened: int = 0
    auth_failures: int = 0
    rekeys: int = 0
    bytes_sealed: int = 0


class PSPContext:
    """One end of a security association between two ILP peers.

    Both peers construct a context from the same master secret (established
    at association time — host↔SN registration or SN↔SN pipe setup), so
    both seal under the same keys. To keep the two directions from ever
    sealing with the same nonce, the ends count in disjoint halves of the
    counter space: ``nonces`` defaults to the lower half (1 to 2**63 - 1)
    and :func:`upper_nonces` gives the other end 2**63 + 1 onward.
    Receivers accept either half, since the counter travels in every
    packet.
    """

    __slots__ = (
        "_master",
        "_epoch",
        "_keys",
        "_seal_key",
        "_prefix",
        "_nonce",
        "stats",
        "_san_hwm",
    )

    def __init__(
        self,
        master_secret: bytes,
        epoch: int = 0,
        *,
        nonces: Optional[crypto.NonceGenerator] = None,
    ) -> None:
        if len(master_secret) < 16:
            raise PSPError("master secret too short")
        self._master = master_secret
        self._epoch = epoch & 0xFF
        #: epoch -> ready-to-use AEAD key. Rotation builds the new epoch's
        #: key exactly once; the per-packet path never derives.
        self._keys: dict[int, crypto.SealingKey] = {
            self._epoch: self._epoch_schedule(self._epoch)
        }
        self._seal_key = self._keys[self._epoch]
        self._prefix = bytes([self._epoch])
        self._nonce = lower_nonces() if nonces is None else nonces
        self.stats = PSPStats()
        #: Sanitizer state: per-epoch high-water mark of sealed nonces.
        self._san_hwm: dict[int, int] = {}

    @property
    def epoch(self) -> int:
        return self._epoch

    def known_epochs(self) -> tuple[int, ...]:
        """Epochs this context can currently open, oldest first."""
        return tuple(sorted(self._keys))

    def _san_check_nonce(self, nonce: bytes) -> None:
        """Armed check: nonces within one epoch must strictly increase.

        Nonce reuse under one AES-GCM key voids confidentiality and lets a
        forger recover the authentication key, so any repeat or regression
        is an immediate
        :class:`~repro.sanitize.SanitizeError`.
        """
        value = int.from_bytes(nonce, "big")
        high = self._san_hwm.get(self._epoch, 0)
        if value <= high:
            _san.fail(
                "nonce-monotonic",
                f"epoch {self._epoch} sealed nonce {value} after {high}",
            )
        self._san_hwm[self._epoch] = value

    def _epoch_schedule(self, epoch: int) -> crypto.SealingKey:
        epoch_key = crypto.derive_key(self._master, "psp-epoch", bytes([epoch]))
        return crypto.sealing_key(epoch_key, epoch)

    def rotate(self) -> int:
        """Advance to the next epoch; the prior epoch stays accepted.

        Returns the new epoch. Both peers rotate on their own schedule —
        receivers accept current and previous epochs, so rotation never
        drops in-flight traffic (a property Appendix C's peering benchmark
        exercises at scale).
        """
        previous = self._epoch
        self._epoch = (self._epoch + 1) & 0xFF
        self._keys = {
            previous: self._keys[previous],
            self._epoch: self._epoch_schedule(self._epoch),
        }
        self._seal_key = self._keys[self._epoch]
        self._prefix = bytes([self._epoch])
        self.stats.rekeys += 1
        return self._epoch

    # The public seal/open entry points only describe their burst to one
    # private core (``_seal`` takes ``(plaintext, count)`` items). They never
    # call one another, so a wrapper that counts calls per entry point (the
    # perfbench tracer) sees each packet once.

    def seal(self, plaintext: bytes, aad: bytes = b"") -> bytes:
        """Encrypt one ILP header for the peer."""
        return self._seal(((plaintext, 1),), aad)[0]

    def seal_batch(self, plaintexts: Iterable[bytes], aad: bytes = b"") -> list[bytes]:
        """Seal many plaintexts back-to-back (``[seal(pt) for pt in ...]``)."""
        return self._seal([(plaintext, 1) for plaintext in plaintexts], aad)

    def seal_run(self, plaintext: bytes, count: int, aad: bytes = b"") -> list[bytes]:
        """Seal the *same* plaintext ``count`` times (a flow run's egress)."""
        return self._seal(((plaintext, count),), aad)

    def seal_gather(
        self, items: list[tuple[bytes, int]], aad: bytes = b""
    ) -> list[bytes]:
        """Seal several ``(plaintext, count)`` runs back-to-back, flat."""
        return self._seal(items, aad)

    def _seal(self, items: Sequence[tuple[bytes, int]], aad: bytes) -> list[bytes]:
        """Seal each ``(plaintext, count)`` item ``count`` times, in order.

        One nonce reservation covers the whole call and nonces advance
        exactly as they would per packet, so how a burst is split across
        calls never changes what any packet puts on the wire.
        """
        total = 0
        total_bytes = 0
        for plaintext, count in items:
            total += count
            total_bytes += count * len(plaintext)
        nonces = self._nonce.take(total)
        if _san.ENABLED:
            for nonce in nonces:
                self._san_check_nonce(nonce)
        runs: list[tuple[list[bytes], bytes]] = []
        offset = 0
        for plaintext, count in items:
            runs.append((nonces[offset : offset + count], plaintext))
            offset += count
        frames = self._seal_key.seal_many(self._prefix, runs, aad)
        stats = self.stats
        stats.packets_sealed += total
        stats.bytes_sealed += total_bytes
        return frames

    def open(self, blob: bytes, aad: bytes = b"") -> bytes:
        """Decrypt a sealed ILP header from the peer.

        Raises:
            PSPError: if the blob is malformed, the epoch unknown, or the
                authentication tag fails.
        """
        return self._open(blob, aad)

    def open_batch(self, blobs: Iterable[bytes], aad: bytes = b"") -> list[Optional[bytes]]:
        """Open many blobs; failures yield ``None`` instead of raising."""
        out: list[Optional[bytes]] = []
        for blob in blobs:
            try:
                out.append(self._open(blob, aad))
            except PSPError:
                out.append(None)
        return out

    def _open(self, blob: bytes, aad: bytes) -> bytes:
        """Open one blob; every failure counts one ``auth_failures``."""
        stats = self.stats
        if len(blob) < _MIN_BLOB:
            stats.auth_failures += 1
            raise PSPError("PSP blob too short")
        epoch = blob[0]
        schedule = self._keys.get(epoch)
        if schedule is None:
            # A peer may be one epoch ahead of us; derive forward once.
            if epoch != ((self._epoch + 1) & 0xFF):
                stats.auth_failures += 1
                raise PSPError(f"unknown PSP epoch {epoch}")
            schedule = self._keys[epoch] = self._epoch_schedule(epoch)
        try:
            plaintext = schedule.open(blob[1:_HEADER_SIZE], blob[_HEADER_SIZE:], aad)
        except crypto.CryptoError as exc:
            stats.auth_failures += 1
            raise PSPError("PSP authentication failed") from exc
        stats.packets_opened += 1
        return plaintext

    @staticmethod
    def overhead() -> int:
        """Wire bytes PSP adds beyond the plaintext header."""
        return _MIN_BLOB


@dataclass(slots=True)
class PeerKeyStore:
    """Per-node table of PSP contexts, keyed by peer address.

    The pipe-terminus consults this on every packet: the packet's outer L3
    source selects the context used to open its ILP header, and each
    forwarding destination's context seals the outgoing header (Figure 2).

    ``owner`` is this node's own address. Of the two ends of an
    association, the one whose address sorts lower seals from the upper
    half of the nonce space, so the two directions never share a nonce.
    The store keeps each peer's nonce counter for its lifetime: an
    association that is torn down and established again derives the same
    pairwise secret, so its counter carries on rather than restarting.
    """

    owner: str = ""
    contexts: dict[str, PSPContext] = field(default_factory=dict)
    _nonces: dict[str, crypto.NonceGenerator] = field(
        default_factory=dict, repr=False
    )

    def establish(self, peer: str, master_secret: bytes) -> PSPContext:
        nonces = self._nonces.get(peer)
        if nonces is None:
            nonces = upper_nonces() if self.owner < peer else lower_nonces()
            self._nonces[peer] = nonces
        ctx = PSPContext(master_secret, nonces=nonces)
        self.contexts[peer] = ctx
        return ctx

    def get(self, peer: str) -> PSPContext:
        try:
            return self.contexts[peer]
        except KeyError:
            raise PSPError(f"no PSP association with peer {peer}") from None

    def has(self, peer: str) -> bool:
        return peer in self.contexts

    def prefetch(self, peers: "set[str] | list[str]") -> dict[str, PSPContext]:
        """Resolve the contexts for a burst's distinct peers in one pass.

        The sharding stage calls this once per delivery event with the
        distinct next hops it is about to seal toward. Unknown peers are
        simply absent from the result (the caller counts the drop),
        mirroring a failed table probe.
        """
        contexts = self.contexts
        return {peer: contexts[peer] for peer in peers if peer in contexts}

    def remove(self, peer: str) -> None:
        self.contexts.pop(peer, None)

    def __len__(self) -> int:
        return len(self.contexts)


def pairwise_secret(addr_a: str, addr_b: str, realm: bytes = b"interedge") -> bytes:
    """Deterministic shared secret for a peer pair.

    Stands in for the out-of-band key exchange (e.g. Noise/IKE) that a real
    deployment would run when an association is created; both sides derive
    the same secret from their addresses, keeping simulations reproducible.
    """
    lo, hi = sorted((addr_a, addr_b))
    return crypto.derive_key(
        crypto.derive_key(realm.ljust(16, b"\x00"), "pair-root"),
        "pair",
        f"{lo}|{hi}".encode(),
    )
