"""Signatures and the rolling secret table (sections 4.2, 5.5.1).

Fig 4.1: a certificate's text is protected by a one-way function of the
text, the client identifier, the rolefile identifier and a secret known
only to the issuing service.  Because the secret never leaves the service,
forged or modified certificates fail the recomputation check, and a
certificate can only be validated by the instance of the service that
created it (preventing use out of context).

Section 5.5.1: rather than relying on a single long-lived secret, a service
may keep a *rolling table*.  New certificates are signed with the newest
secret; certificates signed with older secrets remain valid until those
secrets expire, bounding the damage from a compromised secret.

A service may also choose its own efficiency trade-off (section 4.2): the
signature length is configurable, and a service that issues few
certificates may use :class:`RecordingSigner`, which keeps a table of
issued signatures instead of using cryptography at all.
"""

from __future__ import annotations

import hashlib
import hmac
import math
import os
from dataclasses import dataclass
from typing import Optional

from repro.errors import FraudError
from repro.runtime.clock import Clock, ManualClock


@dataclass
class _Secret:
    index: int
    value: bytes
    created_at: float


class RollingSecretTable:
    """A table of service secrets with periodic generation and expiry.

    ``lifetime`` bounds how long a secret may be used for *validation*
    after creation; certificates signed with an expired secret fail.  Call
    :meth:`roll` (or let :meth:`maybe_roll` do it on a period) to generate
    a fresh signing secret.
    """

    def __init__(
        self,
        clock: Optional[Clock] = None,
        lifetime: float = 3600.0,
        roll_period: float = 600.0,
        seed: Optional[bytes] = None,
    ):
        self.clock = clock or ManualClock()
        self._lifetime = lifetime
        self.roll_period = roll_period
        self._secrets: dict[int, _Secret] = {}
        self._next_index = 0
        self._seed = seed
        # created_at of the oldest non-current secret (inf when there is
        # none): nothing can expire while it has not, so _expire skips
        # the scan until then.  Kept as a creation time, not a deadline,
        # so the skip test is the very float comparison the scan makes.
        self._oldest_created = math.inf
        self.roll()

    @property
    def lifetime(self) -> float:
        """Read-only: the cached expiry horizon depends on it."""
        return self._lifetime

    @property
    def current_index(self) -> int:
        return self._next_index - 1

    def roll(self) -> int:
        """Generate a new signing secret; returns its index."""
        index = self._next_index
        self._next_index += 1
        if self._seed is not None:
            value = hashlib.sha256(self._seed + index.to_bytes(8, "big")).digest()
        else:
            value = os.urandom(32)
        self._secrets[index] = _Secret(index, value, self.clock.now())
        self._oldest_created = -math.inf  # the old current may now expire
        self._expire()
        return index

    def maybe_roll(self) -> None:
        """Roll if the current secret is older than ``roll_period``."""
        current = self._secrets[self.current_index]
        if self.clock.now() - current.created_at >= self.roll_period:
            self.roll()

    def invalidate_all(self) -> None:
        """Emergency response to compromise: drop every secret and roll."""
        self._secrets.clear()
        self.roll()

    def get(self, index: int) -> Optional[bytes]:
        """The secret at ``index`` if it exists and has not expired."""
        self._expire()
        secret = self._secrets.get(index)
        return secret.value if secret is not None else None

    def live_indices(self) -> list[int]:
        self._expire()
        return sorted(self._secrets)

    def _expire(self) -> None:
        now = self.clock.now()
        if now - self._oldest_created <= self._lifetime:
            return
        current = self.current_index
        dead = [
            index
            for index, secret in self._secrets.items()
            if now - secret.created_at > self._lifetime and index != current
        ]
        for index in dead:
            del self._secrets[index]
        self._oldest_created = min(
            (s.created_at for i, s in self._secrets.items() if i != current),
            default=math.inf,
        )


class Signer:
    """HMAC-SHA256 certificate signer over a rolling secret table.

    ``signature_length`` lets a service tune security vs certificate size
    (section 4.2 allows for variable-length signatures; a given service
    generally issues a fixed length).
    """

    def __init__(self, secrets: RollingSecretTable, signature_length: int = 16):
        if not 4 <= signature_length <= 32:
            raise ValueError("signature_length must be between 4 and 32 bytes")
        self.secrets = secrets
        self.signature_length = signature_length
        self.signatures_computed = 0

    def sign(self, text: bytes) -> tuple[int, bytes]:
        """Sign ``text`` with the current secret; returns (index, signature)."""
        index = self.secrets.current_index
        secret = self.secrets.get(index)
        assert secret is not None
        return index, self._compute(secret, text)

    def verify(self, text: bytes, index: int, signature: bytes) -> bool:
        """Recompute the signature with the identified secret and compare."""
        secret = self.secrets.get(index)
        if secret is None:
            return False
        return hmac.compare_digest(self._compute(secret, text), signature)

    def require_valid(self, text: bytes, index: int, signature: bytes) -> None:
        if not self.verify(text, index, signature):
            raise FraudError("certificate signature check failed (forged or modified)")

    def _compute(self, secret: bytes, text: bytes) -> bytes:
        self.signatures_computed += 1
        return hmac.new(secret, text, hashlib.sha256).digest()[: self.signature_length]


class RecordingSigner:
    """A non-cryptographic signer that records every signature it issues.

    Suitable for services issuing a small number of certificates (the
    section 4.2 alternative to cryptography): "a service that issues only
    a small number of certificates may simply maintain a record of what
    has been issued".
    """

    def __init__(self) -> None:
        self._issued: set[tuple[bytes, int]] = set()
        self._counter = 0
        self.signatures_computed = 0
        self.signature_length = 8

    def sign(self, text: bytes) -> tuple[int, bytes]:
        self._counter += 1
        self.signatures_computed += 1
        token = self._counter.to_bytes(8, "big")
        self._issued.add((text, self._counter))
        return self._counter, token

    def verify(self, text: bytes, index: int, signature: bytes) -> bool:
        return (text, index) in self._issued and signature == index.to_bytes(8, "big")

    def require_valid(self, text: bytes, index: int, signature: bytes) -> None:
        if not self.verify(text, index, signature):
            raise FraudError("certificate not found in issue record")
