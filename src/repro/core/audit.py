"""Auditing hooks (section 4.13).

Every interaction between a client and a service — role entry, election,
revocation, validation failure — happens with the service's knowledge and
consent, so the service can answer "who currently has access and why".
Validation failures are recorded with the fraud / misuse / revocation
classification of section 4.2 so miscreant users and suspect applications
can be identified.

The log runs in one of two modes:

* **standalone** (no journal): entries accumulate in memory up to
  ``capacity``, then new ones are counted in ``dropped`` — the original
  bounded behaviour, used by unjournaled services and unit tests.
* **journal-backed** (after :meth:`attach_journal`): every entry is
  appended to the service's write-ahead journal — the durable substrate
  — and only a ring of the ``hot_window`` newest entries stays in
  memory.  Queries read *through* the journal, so nothing is ever lost
  to the ring, and the journal's ordering gives full change-data-capture:
  the role-tenure history of who held which role when
  (:meth:`role_history`).  The heap is *not* bounded: each entry stays
  in the journal as one sealed ``bytes`` record (about 160 B, never
  traversed by the garbage collector), so the journal grows O(history)
  until it is truncated.
"""

from __future__ import annotations

import enum
from collections import deque
from dataclasses import dataclass
from typing import Iterable, Optional


class AuditKind(enum.Enum):
    ROLE_ENTERED = "role-entered"
    ROLE_EXITED = "role-exited"
    DELEGATION_ISSUED = "delegation-issued"
    DELEGATION_ACCEPTED = "delegation-accepted"
    REVOCATION = "revocation"
    ROLE_REVOKED = "role-revoked"
    VALIDATION_OK = "validation-ok"
    FAIL_FRAUD = "fail-fraud"
    FAIL_MISUSE = "fail-misuse"
    FAIL_REVOKED = "fail-revoked"


@dataclass(frozen=True)
class AuditEntry:
    time: float
    kind: AuditKind
    client: Optional[str]
    detail: str
    data: tuple = ()


@dataclass(frozen=True)
class RoleTenure:
    """One closed-or-open interval of role tenure, recovered from the
    journal's audit stream: ``client`` held ``(role, args)`` from
    ``entered_at`` until ``ended_at`` (None while still held)."""

    role: str
    args: tuple
    client: str
    entered_at: float
    ended_at: Optional[float] = None
    end_kind: Optional[AuditKind] = None

    @property
    def open(self) -> bool:
        return self.ended_at is None


class AuditLog:
    """An append-only, queryable log of security-relevant events."""

    def __init__(self, capacity: int = 100_000, hot_window: int = 1024):
        self.capacity = capacity
        self.hot_window = hot_window
        self._entries: list[AuditEntry] = []
        self._journal = None
        self.dropped = 0
        self.spilled = 0   # entries aged out of the hot window (journal mode)

    def attach_journal(self, journal) -> None:
        """Switch to journal-backed mode: spill what's in memory into the
        journal and keep only a bounded hot window from here on."""
        self._journal = journal
        for entry in self._entries:
            journal.append("audit", self._encode(entry))
        spilling = self._entries
        self._entries = []
        hot = deque(spilling, maxlen=self.hot_window)
        self.spilled += len(spilling) - len(hot)
        self._hot: deque = hot

    @staticmethod
    def _encode(entry: AuditEntry) -> dict:
        return {
            "t": entry.time,
            "kind": entry.kind.value,
            "client": entry.client,
            "detail": entry.detail,
            "data": list(entry.data),
        }

    @staticmethod
    def _decode(data: dict) -> AuditEntry:
        return AuditEntry(
            data["t"],
            AuditKind(data["kind"]),
            data["client"],
            data["detail"],
            tuple(data["data"]),
        )

    def record(
        self,
        time: float,
        kind: AuditKind,
        client: Optional[str],
        detail: str,
        data: tuple = (),
    ) -> None:
        entry = AuditEntry(time, kind, client, detail, data)
        if self._journal is not None:
            self._journal.append("audit", self._encode(entry))
            if len(self._hot) == self._hot.maxlen:
                self.spilled += 1
            self._hot.append(entry)
            return
        if len(self._entries) >= self.capacity:
            self.dropped += 1
            return
        self._entries.append(entry)

    def recent(self, count: Optional[int] = None) -> list[AuditEntry]:
        """The newest entries served from memory alone — the hot window
        in journal mode, the tail of the list otherwise."""
        entries = list(self._hot) if self._journal is not None else self._entries
        if count is None:
            return list(entries)
        return list(entries[-count:])

    def _all(self) -> Iterable[AuditEntry]:
        if self._journal is None:
            return self._entries
        return (
            self._decode(record.data)
            for record in self._journal.read()
            if record.kind == "audit"
        )

    def entries(self, kind: Optional[AuditKind] = None) -> list[AuditEntry]:
        if kind is None:
            return list(self._all())
        return [e for e in self._all() if e.kind is kind]

    def failures(self) -> list[AuditEntry]:
        bad = {AuditKind.FAIL_FRAUD, AuditKind.FAIL_MISUSE, AuditKind.FAIL_REVOKED}
        return [e for e in self._all() if e.kind in bad]

    def fraud_by_client(self) -> dict[str, int]:
        """Tally fraudulent attempts per client (section 4.2: identify
        miscreant users)."""
        counts: dict[str, int] = {}
        for entry in self._all():
            if entry.kind is AuditKind.FAIL_FRAUD and entry.client:
                counts[entry.client] = counts.get(entry.client, 0) + 1
        return counts

    def current_members(self) -> dict[tuple[str, tuple], list[str]]:
        """Roles currently held, per (role, args) -> clients, computed by
        replaying entry/exit/revocation entries."""
        holders: dict[tuple[str, tuple], list[str]] = {}
        for entry in self._all():
            key_data = entry.data
            if entry.kind is AuditKind.ROLE_ENTERED and entry.client and key_data:
                holders.setdefault((key_data[0], tuple(key_data[1:])), []).append(entry.client)
            elif entry.kind in (AuditKind.ROLE_EXITED, AuditKind.ROLE_REVOKED) and key_data:
                key = (key_data[0], tuple(key_data[1:]))
                if entry.client and key in holders and entry.client in holders[key]:
                    holders[key].remove(entry.client)
        return {k: v for k, v in holders.items() if v}

    def role_history(self) -> list[RoleTenure]:
        """Change-data-capture over the audit stream: every tenure of
        every role, open and closed, in entry order.  An exit or
        revocation closes the *oldest* open tenure of the same
        (role, args, client), matching :meth:`current_members`."""
        tenures: list[RoleTenure] = []
        open_by_key: dict[tuple[str, tuple, str], list[int]] = {}
        for entry in self._all():
            key_data = entry.data
            if not key_data or not entry.client:
                continue
            key = (key_data[0], tuple(key_data[1:]), entry.client)
            if entry.kind is AuditKind.ROLE_ENTERED:
                open_by_key.setdefault(key, []).append(len(tenures))
                tenures.append(
                    RoleTenure(key[0], key[1], entry.client, entry.time)
                )
            elif entry.kind in (AuditKind.ROLE_EXITED, AuditKind.ROLE_REVOKED):
                indices = open_by_key.get(key)
                if indices:
                    index = indices.pop(0)
                    held = tenures[index]
                    tenures[index] = RoleTenure(
                        held.role, held.args, held.client, held.entered_at,
                        ended_at=entry.time, end_kind=entry.kind,
                    )
        return tenures

    def holders_at(self, time: float) -> dict[tuple[str, tuple], list[str]]:
        """Who held which role at virtual time ``time`` (CDC point query)."""
        holders: dict[tuple[str, tuple], list[str]] = {}
        for tenure in self.role_history():
            if tenure.entered_at <= time and (
                tenure.ended_at is None or time < tenure.ended_at
            ):
                holders.setdefault((tenure.role, tenure.args), []).append(tenure.client)
        return holders

    def __len__(self) -> int:
        if self._journal is not None:
            return self._journal.kind_counts.get("audit", 0)
        return len(self._entries)
