"""The three closed-loop workloads.

One client, every call synchronous, the simulator the only scheduler.
Each workload runs a fixed number of ops on a freshly built world, so
per-op costs that grow with history compare like for like between
commits.  Every op's outcome is checked; a wrong outcome or an error
from the system counts the op as failed and the loop carries on.

* ``access_hot`` — 2,048 standing sessions picked uniformly; one op
  validates ``LoggedOn`` through the credential fleet, ``Member`` at
  ``Dept`` and reads the session's file through the storage fleet.  The
  working set fits the default 4,096-entry caches, so caches and
  replicas serve nearly everything; codec, wire, cascade and kernel
  stay almost idle.
* ``session_churn`` — one op is one turnover: a root revocation of a
  random live session, settled until its custode record flips and the
  re-read is denied, then a fresh session's entry and cold first read.
  Smallest messages (one notification per cascade), the full entry
  path, and tables that grow with history.
* ``revoke_storm`` — the standing sessions revoked in batches of 64, one
  ``exit_roles`` call per login shard per batch, each batch settled to
  fail-closed at the custodes before the next.  One op is one revoked
  session.  Large batches, no entries, no cache work.
"""

from __future__ import annotations

import random
from collections import defaultdict
from dataclasses import dataclass, field
from time import perf_counter
from typing import Callable, Optional

from repro.errors import OasisError

from perfbench.world import BenchFailure, World

SESSIONS = 2048
ACCESS_OPS = 180_000
ACCESS_ADVANCE_EVERY = 20       # ops between heartbeat-time advances
ACCESS_ADVANCE = 0.010          # virtual seconds per advance
CHURN_OPS = 1400
STORM_BATCH = 64


@dataclass
class Samples:
    """What one timed phase measured."""

    ops: int = 0
    failed: int = 0
    wall_s: float = 0.0
    op_us: list = field(default_factory=list)        # one per op
    # per-phase samples, named as in the report
    extra: dict = field(default_factory=lambda: defaultdict(list))
    failures: list = field(default_factory=list)     # first few reasons

    def fail(self, reason: str) -> None:
        self.failed += 1
        if len(self.failures) < 5:
            self.failures.append(reason)


# called with (op index, op count) before each op; the traced run uses
# it to tell the first tenth of a run from the last
OpHook = Optional[Callable[[int, int], None]]


def access_hot(world: World, rng: random.Random, on_op: OpHook = None,
               ops: int = ACCESS_OPS) -> Samples:
    out = Samples(ops=ops)
    live = world.live
    sim = world.sim
    started = perf_counter()
    for index in range(ops):
        if on_op is not None:
            on_op(index, ops)
        session = live[rng.randrange(len(live))]
        t0 = perf_counter()
        try:
            world.access(session)
        except (OasisError, BenchFailure) as exc:
            out.fail(f"access {session.user}: {exc!r}")
        out.op_us.append((perf_counter() - t0) * 1e6)
        if index % ACCESS_ADVANCE_EVERY == ACCESS_ADVANCE_EVERY - 1:
            sim.run_until(sim.now + ACCESS_ADVANCE)
    out.wall_s = perf_counter() - started
    return out


def session_churn(world: World, rng: random.Random, on_op: OpHook = None,
                  ops: int = CHURN_OPS) -> Samples:
    out = Samples(ops=ops)
    sim = world.sim
    started = perf_counter()
    for index in range(ops):
        if on_op is not None:
            on_op(index, ops)
        session = world.take_live(rng.randrange(len(world.live)))
        failure = None
        t0 = perf_counter()
        vt0 = sim.now
        try:
            world.cred_fleet.exit_role(session.login)
            if world.settle_flips([session]):
                raise BenchFailure(f"{session.user} never flipped")
            out.extra["revoke_us"].append((session.flipped_at_wall - t0) * 1e6)
            out.extra["revoke_vt_ms"].append(
                (session.flipped_at_vt - vt0) * 1e3
            )
            world.require_denied(session)
        except (OasisError, BenchFailure) as exc:
            failure = f"revoke {session.user}: {exc!r}"
        t1 = perf_counter()
        try:
            world.enter_session()
        except (OasisError, BenchFailure) as exc:
            failure = failure or f"entry: {exc!r}"
        t2 = perf_counter()
        if failure is not None:
            out.fail(failure)
        else:
            out.extra["entry_us"].append((t2 - t1) * 1e6)
        out.op_us.append((t2 - t0) * 1e6)
    out.wall_s = perf_counter() - started
    return out


def revoke_storm(world: World, rng: random.Random, on_op: OpHook = None,
                 ops: Optional[int] = None) -> Samples:
    order = list(world.live)
    rng.shuffle(order)
    if ops is not None:
        order = order[:ops]
    out = Samples(ops=len(order))
    fleet = world.cred_fleet
    sim = world.sim
    started = perf_counter()
    for first in range(0, len(order), STORM_BATCH):
        if on_op is not None:
            on_op(first, len(order))
        batch = order[first:first + STORM_BATCH]
        by_shard = defaultdict(list)
        for session in batch:
            by_shard[session.login.issuer].append(session.login)
        t0 = perf_counter()
        vt0 = sim.now
        try:
            for issuer in sorted(by_shard):
                fleet.shards[issuer].leader.exit_roles(by_shard[issuer])
            missed = world.settle_flips(batch)
        except OasisError as exc:
            for session in batch:
                out.fail(f"revoke {session.user}: {exc!r}")
            continue
        out.extra["revoke_batch_us"].append((perf_counter() - t0) * 1e6)
        for session in missed:
            out.fail(f"{session.user} never flipped")
        missed_ids = {id(session) for session in missed}
        for session in batch:
            if id(session) in missed_ids:
                continue
            out.op_us.append((session.flipped_at_wall - t0) * 1e6)
            out.extra["revoke_vt_ms"].append((session.flipped_at_vt - vt0) * 1e3)
            try:
                world.require_denied(session)
            except (OasisError, BenchFailure) as exc:
                out.fail(f"re-read {session.user}: {exc!r}")
    out.wall_s = perf_counter() - started
    return out


WORKLOADS = {
    "access_hot": access_hot,
    "session_churn": session_churn,
    "revoke_storm": revoke_storm,
}
