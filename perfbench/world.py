"""The benchmark's world: the paper's request path over ``SimLinkage``.

Two ``Login<i>`` credential shards and two byte-segment custode shards,
each with one follower replica, a ``Dept`` service whose ``Member`` role
needs a ``LoggedOn`` certificate from either login shard, one shared ACL
stored on custode 0 that protects every file on both custodes, journals
on every service and heartbeat monitors along every subscription edge.

A *session* is one principal holding ``LoggedOn`` (at its ring-routed
login shard), ``Member`` (at ``Dept``) and ``UseAcl`` (at the custode that
the ring placed its 64-byte file on).  Everything here goes through
public APIs only; nothing in ``src/`` knows the benchmark exists.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field
from typing import Optional

from repro.core import HostOS, OasisService, ServiceRegistry
from repro.core.credentials import RecordState
from repro.core.linkage import SimLinkage
from repro.core.sharding import (
    CredentialFleet,
    CredentialShard,
    StorageFleet,
    StorageShard,
)
from repro.core.types import ObjectType
from repro.errors import OasisError, RevokedError
from repro.mssa.acl import Acl
from repro.mssa.byte_segment import ByteSegmentCustode
from repro.runtime.clock import SimClock
from repro.runtime.network import Network
from repro.runtime.simulator import Simulator

LINK_DELAY = 0.010          # every link: lossless, 10 ms
HEARTBEAT_PERIOD = 0.5
HEARTBEAT_GRACE = 2.0
FILE_BYTES = 64
# A revoked session's custode record must leave TRUE within this much
# virtual time of the revocation, or the op counts as failed.  The
# expected figure is two 10 ms hops (login shard -> Dept -> custode).
FLIP_DEADLINE = 1.0
SETTLE_STEP = LINK_DELAY    # the settle loop advances one hop at a time

LOGIN_RDL = """
def LoggedOn(u, h)  u: userid  h: string
LoggedOn(u, h) <-
"""

# Member is the prerequisite role from a second service: a LoggedOn
# certificate from either login shard qualifies.
DEPT_RDL = """
import Login0.userid
Member(u) <- Login0.LoggedOn(u, h)*
Member(u) <- Login1.LoggedOn(u, h)*
"""


class BenchFailure(Exception):
    """An op whose outcome was wrong: wrong bytes read, or a read
    granted when it must be denied."""


@dataclass
class Session:
    user: str
    login: object               # LoggedOn RMC from the login shard
    member: object              # Member RMC from Dept
    use: object                 # UseAcl RMC from the file's custode
    fid: object
    data: bytes
    flipped_at_vt: Optional[float] = None
    flipped_at_wall: Optional[float] = None


@dataclass
class World:
    sim: Simulator
    net: Network
    linkage: SimLinkage
    logins: list
    dept: OasisService
    custodes: list
    cred_fleet: CredentialFleet
    storage_fleet: StorageFleet
    acl: object
    host: HostOS
    rng: random.Random
    sessions_created: int = 0
    live: list = field(default_factory=list)

    # -------------------------------------------------------------- services

    def services(self) -> list:
        return [*self.logins, self.dept, *(c.service for c in self.custodes)]

    # -------------------------------------------------------------- sessions

    def enter_session(self) -> Session:
        """Log a fresh principal on, enter Member and UseAcl, create its
        file and read it once (the cold first read)."""
        user = f"u{self.sessions_created}"
        self.sessions_created += 1
        client = self.host.create_domain().client_id
        login = self.cred_fleet.enter_role(user, client, "LoggedOn", (user, "bench"))
        member = self.dept.enter_role(client, "Member", credentials=(login,))
        custode = self.storage_fleet.place(f"file:{user}").custode
        data = self.rng.randbytes(FILE_BYTES)
        fid = custode.create_segment(self.acl, data)
        use = custode.enter_use_acl(client, self.acl, member)
        session = Session(user, login, member, use, fid, data)
        custode.service.credentials.watch(use.crr, self._flip_watch(session))
        if self.storage_fleet.read_segment(use, fid) != data:
            raise BenchFailure(f"first read of {fid} returned the wrong bytes")
        self.live.append(session)
        return session

    def _flip_watch(self, session: Session):
        crr = session.use.crr

        def on_change(record, old, new) -> None:
            # watches are keyed by table slot: ignore a later record that
            # reuses the slot
            if record.ref != crr or session.flipped_at_vt is not None:
                return
            if old is RecordState.TRUE and new is not RecordState.TRUE:
                session.flipped_at_vt = self.sim.now
                session.flipped_at_wall = time.perf_counter()

        return on_change

    def access(self, session: Session) -> None:
        """One granted access: validate LoggedOn through the credential
        fleet, Member at Dept, and read the file through the storage
        fleet."""
        self.cred_fleet.validate(session.login)
        self.dept.validate(session.member)
        if self.storage_fleet.read_segment(session.use, session.fid) != session.data:
            raise BenchFailure(f"read of {session.fid} returned the wrong bytes")

    def settle_flips(self, sessions: list) -> list:
        """Run the simulator one hop at a time until every session's
        custode record has left TRUE.  Returns the sessions still TRUE
        at the virtual-time deadline (empty when all flipped)."""
        deadline = self.sim.now + FLIP_DEADLINE
        pending = [s for s in sessions if s.flipped_at_vt is None]
        while pending and self.sim.now < deadline:
            self.sim.run_until(self.sim.now + SETTLE_STEP)
            pending = [s for s in pending if s.flipped_at_vt is None]
        return pending

    def require_denied(self, session: Session) -> None:
        """The re-read after the flip must fail closed with RevokedError."""
        try:
            self.storage_fleet.read_segment(session.use, session.fid)
        except RevokedError:
            return
        raise BenchFailure(f"read of {session.fid} granted after revocation")

    def take_live(self, position: int) -> Session:
        """Remove and return the live session at ``position`` (O(1))."""
        live = self.live
        live[position], live[-1] = live[-1], live[position]
        return live.pop()

    # -------------------------------------------------------------- counters

    def counters(self) -> dict:
        """A snapshot of every count the metrics are deltas of, read
        from the layers' own stats objects."""
        stats = self.net.stats
        out = {
            "events": self.sim.events_processed,
            "encoded_bytes": stats.encoded_bytes,
            "messages": stats.messages_sent,
            "coalesced": stats.coalesced,
            "intern_hits": stats.intern_hits,
            "intern_misses": stats.intern_misses,
        }
        journals = self.linkage.durable.journals().values()
        out["appends"] = sum(journal.stats.appends for journal in journals)
        for key in ("validations", "validity_hits", "signature_hits",
                    "records_visited", "records_changed", "rpc_retries"):
            out[key] = 0
        for service in self.services():
            # a validity-cache hit also counts as a signature-cache hit:
            # either way the HMAC was not recomputed
            out["validations"] += service.stats.validations
            out["validity_hits"] += service.stats.validity_cache_hits
            out["signature_hits"] += service.stats.signature_cache_hits
            totals = service.credentials.cascade_totals
            out["records_visited"] += totals.records_visited
            out["records_changed"] += totals.records_changed
            out["rpc_retries"] += self.linkage.relay_of(service.name).rpc.stats.retries
        replicas = [
            replica
            for fleet in (self.cred_fleet, self.storage_fleet)
            for shard in fleet.shards.values()
            for replica in shard.replicas
        ]
        out["replica_reads"] = sum(r.stats.validations for r in replicas)
        out["replica_warm"] = sum(r.stats.warm_hits for r in replicas)
        decisions = [
            snapshot
            for name, snapshot in self.storage_fleet.cache_counters().items()
            if name.endswith(":decisions")
        ]
        out["decision_hits"] = sum(d.hits for d in decisions)
        out["decision_misses"] = sum(d.misses for d in decisions)
        channels = self.linkage.all_channels()
        out["wire_sends"] = sum(c.stats.sends for c in channels)
        out["wire_batches"] = sum(c.stats.batches for c in channels)
        return out

    # ---------------------------------------------------------------- sweeps

    def end_of_run_breaches(self) -> list[str]:
        """Settle, then sweep the invariants every run must end with."""
        self.sim.run_until(self.sim.now + 2 * HEARTBEAT_PERIOD * HEARTBEAT_GRACE)
        breaches = []
        if self.net.unaccounted() != 0:
            breaches.append(f"net.unaccounted() == {self.net.unaccounted()}")
        breaches.extend(self.linkage.durable.conservation_breaches())
        dead = sum(
            len(journal.dead_letters())
            for journal in self.linkage.durable.journals().values()
        )
        if dead:
            breaches.append(f"{dead} dead letter(s) parked")
        for service in self.services():
            for issuer in service.credentials.external_services():
                unknown = sum(
                    1
                    for record in service.credentials.externals_of(issuer)
                    if record.state is RecordState.UNKNOWN
                )
                if unknown:
                    breaches.append(
                        f"{service.name}: {unknown} surrogate(s) of {issuer} UNKNOWN"
                    )
        return breaches


def build_world(seed: int, sessions: int) -> World:
    """Build the fleet and establish ``sessions`` standing sessions, all
    warm (every surrogate resolved, every cache primed by one access)."""
    sim = Simulator()
    net = Network(sim, seed=seed, default_delay=LINK_DELAY)
    clock = SimClock(sim)
    registry = ServiceRegistry()
    linkage = SimLinkage(net)
    userid = ObjectType("Login.userid")
    logins = []
    for index in range(2):
        login = OasisService(
            f"Login{index}", registry=registry, linkage=linkage, clock=clock
        )
        login.export_type(userid, "userid")
        login.add_rolefile("main", LOGIN_RDL)
        logins.append(login)
    dept = OasisService("Dept", registry=registry, linkage=linkage, clock=clock)
    dept.add_rolefile("main", DEPT_RDL)
    custodes = [
        ByteSegmentCustode(
            f"bsc{index}",
            registry=registry,
            linkage=linkage,
            clock=clock,
            login_service="Dept",
            login_role="Member",
        )
        for index in range(2)
    ]
    for service in [*logins, dept, *(c.service for c in custodes)]:
        linkage.enable_journal(service, seed=seed)
    # heartbeats along every subscription edge: login shards -> Dept
    # (LoggedOn surrogates), Dept -> custodes (Member surrogates), and
    # custode 0 -> custode 1 (the shared ACL's version surrogate)
    edges = [(login, dept) for login in logins]
    edges += [(dept, c.service) for c in custodes]
    edges.append((custodes[0].service, custodes[1].service))
    for issuer, subscriber in edges:
        linkage.monitor(
            issuer, subscriber, period=HEARTBEAT_PERIOD, grace=HEARTBEAT_GRACE
        )
    cred_fleet = CredentialFleet(
        [CredentialShard(login, followers=1) for login in logins]
    )
    storage_fleet = StorageFleet(
        [StorageShard(custode, followers=1) for custode in custodes]
    )
    acl = custodes[0].create_acl(Acl.parse("*=+rw", alphabet="rw"))
    world = World(
        sim=sim,
        net=net,
        linkage=linkage,
        logins=logins,
        dept=dept,
        custodes=custodes,
        cred_fleet=cred_fleet,
        storage_fleet=storage_fleet,
        acl=acl,
        host=HostOS("bench-host"),
        rng=random.Random(seed),
    )
    _open_remote_acl(world)
    for _ in range(sessions):
        world.enter_session()
    # settle every subscribe reply and outbox drain, then prime the
    # caches with one access per session
    sim.run_until(sim.now + 4 * LINK_DELAY)
    for session in world.live:
        world.access(session)
    return world


def _open_remote_acl(world: World) -> None:
    """Custode 1's first UseAcl entry under the ACL stored on custode 0
    fails closed: the ACL's version surrogate reads UNKNOWN until the
    subscribe reply arrives.  Run the simulator once, then retry."""
    custode = world.custodes[1]
    custode.create_segment(world.acl, bytes(FILE_BYTES))
    probe = world.host.create_domain().client_id
    login = world.cred_fleet.enter_role("probe", probe, "LoggedOn", ("probe", "bench"))
    member = world.dept.enter_role(probe, "Member", credentials=(login,))
    try:
        custode.enter_use_acl(probe, world.acl, member)
    except RevokedError:
        pass
    else:
        raise BenchFailure("remote-ACL entry succeeded before the subscribe reply")
    world.sim.run_until(world.sim.now + 4 * LINK_DELAY)
    try:
        custode.enter_use_acl(probe, world.acl, member)
    except OasisError as exc:
        raise BenchFailure(f"remote-ACL entry still failing after settle: {exc}")
