"""Per-layer spans recorded from the benchmark's side of each layer's
public entry points.

:func:`install` wraps the entry points named in :data:`LAYERS` on their
classes (and :func:`attach` hooks the simulator's dispatch so events
named ``hb:``, ``flush:``, ``rpc:`` and ``journal-*`` count as spans of
their layer, and the garbage collector so collections count as
``python.gc`` spans).  A span's *self time* is its duration minus the time its
nested spans cover, so the self times of all spans add up to the time
covered by top-level spans; whatever the timed phase spent outside every
span is reported as ``trace.unattributed_share``.  The program itself
carries no instrumentation: an untraced run pays nothing.
"""

from __future__ import annotations

import copy
import functools
import gc
from time import perf_counter

from repro.core.credentials import CredentialRecordTable
from repro.core.engine import RoleEntryEngine
from repro.core.journal import JournalRelay, ServiceJournal
from repro.core.linkage import SimLinkage
from repro.core.secrets import Signer
from repro.core.service import OasisService
from repro.core.sharding import CredentialFleet, StorageFleet
from repro.mssa.custode import Custode
from repro.runtime.codec import WireCodec
from repro.runtime.network import Network
from repro.runtime.profile import SimProfile
from repro.runtime.rpc import RpcEndpoint
from repro.runtime.simulator import Simulator
from repro.runtime.wire import BatchedChannel

# layer -> (class, method) entry points timed as spans of that layer
LAYERS = {
    "core.engine": [(RoleEntryEngine, "evaluate")],
    "core.secrets": [(Signer, "sign"), (Signer, "require_valid")],
    "core.service": [
        (OasisService, "validate"),
        (OasisService, "enter_role"),
        (OasisService, "exit_role"),
        (OasisService, "exit_roles"),
    ],
    "core.sharding": [
        (CredentialFleet, "validate"),
        (CredentialFleet, "enter_role"),
        (StorageFleet, "read_segment"),
    ],
    "mssa.custode": [(Custode, "check_access")],
    "core.credentials.create_external": [(CredentialRecordTable, "create_external")],
    "core.credentials.update_external_many": [
        (CredentialRecordTable, "update_external_many")
    ],
    "core.credentials.cascade": [
        (CredentialRecordTable, "set_states"),
        (CredentialRecordTable, "revoke"),
        (CredentialRecordTable, "revoke_many"),
    ],
    "core.linkage": [(SimLinkage, "subscribe"), (SimLinkage, "publish")],
    "core.journal": [
        (ServiceJournal, "append"),
        (ServiceJournal, "append_notify"),
        (JournalRelay, "enqueue"),
        (JournalRelay, "drain"),
    ],
    "runtime.codec": [
        (WireCodec, "encode"),
        (WireCodec, "decode"),
        (WireCodec, "encode_items"),
        (WireCodec, "wrap_batch"),
    ],
    "runtime.wire": [(BatchedChannel, "send"), (BatchedChannel, "flush")],
    "runtime.network": [(Network, "send")],
    "runtime.rpc": [(RpcEndpoint, "call")],
    "runtime.heartbeat": [],
    "runtime.simulator": [(Simulator, "run_until")],
    "python.gc": [],
}

# simulator event-name prefix -> (layer, span label).  These events run
# from timers that captured private methods, so they are timed at
# dispatch instead of at a public entry point.
EVENT_BUCKETS = {
    "hb": ("runtime.heartbeat", "hb"),
    "flush": ("runtime.wire", "flush-timer"),
    "rpc": ("runtime.rpc", "rpc-timer"),
    "journal-drain": ("core.journal", "drain"),
    "journal-dlq": ("core.journal", "dlq"),
    "journal-tailsync": ("core.journal", "tailsync"),
}


# the interpreter's cyclic garbage collector, timed through gc.callbacks
GC_SITE = ("python.gc", "collect")


class Tracer:
    """Span accounting keyed by *site* (one entry point or event bucket).

    Growth: while :attr:`phase` is 0 (first tenth of the timed ops) or 1
    (last tenth), every span's duration also accrues to that phase, so
    µs per call late in a run can be compared with µs per call early.
    """

    def __init__(self) -> None:
        self.sites: list[tuple[str, str]] = []     # (layer, label)
        self._site_of: dict[tuple[str, str], int] = {}
        for layer, points in LAYERS.items():
            for cls, name in points:
                self._site(layer, f"{cls.__name__}.{name}")
        for layer, label in [*EVENT_BUCKETS.values(), GC_SITE]:
            self._site(layer, label)
        self.reset()

    def _site(self, layer: str, label: str) -> int:
        key = (layer, label)
        if key not in self._site_of:
            self._site_of[key] = len(self.sites)
            self.sites.append(key)
        return self._site_of[key]

    def site(self, layer: str, label: str) -> int:
        return self._site_of[(layer, label)]

    def reset(self) -> None:
        count = len(self.sites)
        self.self_s = [0.0] * count
        self.calls = [0] * count
        self.growth_s = [[0.0, 0.0] for _ in range(count)]
        self.growth_calls = [[0, 0] for _ in range(count)]
        self.top_s = 0.0           # wall time covered by top-level spans
        self.phase = None
        self._stack: list[list] = []

    @property
    def depth(self) -> int:
        return len(self._stack)

    def enter(self, site: int) -> None:
        self._stack.append([site, perf_counter(), 0.0])

    def exit(self) -> None:
        end = perf_counter()
        stack = self._stack
        site, start, child = stack.pop()
        duration = end - start
        self.self_s[site] += duration - child
        self.calls[site] += 1
        if stack:
            stack[-1][2] += duration
        else:
            self.top_s += duration
        phase = self.phase
        if phase is not None:
            self.growth_s[site][phase] += duration
            self.growth_calls[site][phase] += 1

    def freeze(self) -> "Tracer":
        """A copy of the accounts so far, untouched by later spans."""
        frozen = copy.copy(self)
        frozen.self_s = list(self.self_s)
        frozen.calls = list(self.calls)
        frozen.growth_s = [list(pair) for pair in self.growth_s]
        frozen.growth_calls = [list(pair) for pair in self.growth_calls]
        frozen._stack = [list(span) for span in self._stack]
        return frozen

    def set_op(self, index: int, ops: int) -> None:
        tenth = max(1, ops // 10)
        if index < tenth:
            self.phase = 0
        elif index >= ops - tenth:
            self.phase = 1
        else:
            self.phase = None

    # ----------------------------------------------------------- reporting

    def layer_self_s(self) -> dict[str, float]:
        out = {layer: 0.0 for layer in LAYERS}
        for (layer, _label), seconds in zip(self.sites, self.self_s):
            out[layer] += seconds
        return out

    def layer_calls(self) -> dict[str, int]:
        out = {layer: 0 for layer in LAYERS}
        for (layer, _label), calls in zip(self.sites, self.calls):
            out[layer] += calls
        return out

    def growth(self, layer: str, label: str) -> float:
        """µs per call over the last tenth of ops divided by µs per call
        over the first tenth; 0.0 when either tenth made no call."""
        site = self.site(layer, label)
        (first_s, last_s), (first_n, last_n) = (
            self.growth_s[site], self.growth_calls[site]
        )
        if not (first_n and last_n and first_s):
            return 0.0
        return (last_s / last_n) / (first_s / first_n)


def _wrap(tracer: Tracer, site: int, original):
    enter = tracer.enter
    exit_ = tracer.exit

    @functools.wraps(original)
    def traced(*args, **kwargs):
        enter(site)
        try:
            return original(*args, **kwargs)
        finally:
            exit_()

    return traced


def install(tracer: Tracer):
    """Wrap every entry point in :data:`LAYERS`; returns the undo.

    Install before the world is built, so objects that capture bound
    methods while they are set up capture the wrapped ones."""
    saved = []
    for layer, points in LAYERS.items():
        for cls, name in points:
            original = cls.__dict__[name]
            saved.append((cls, name, original))
            site = tracer.site(layer, f"{cls.__name__}.{name}")
            setattr(cls, name, _wrap(tracer, site, original))

    def uninstall() -> None:
        for cls, name, original in reversed(saved):
            setattr(cls, name, original)

    return uninstall


class _DispatchProfile(SimProfile):
    """The simulator's profile hook, closing the span its dispatch hook
    opened for a bucketed event (and keeping ``SimProfile`` totals)."""

    def __init__(self, tracer: Tracer):
        super().__init__()
        self._tracer = tracer

    def record(self, name: str, wall_s: float) -> None:
        if name.partition(":")[0] in EVENT_BUCKETS:
            self._tracer.exit()
        super().record(name, wall_s)


def attach(tracer: Tracer, sim: Simulator):
    """Time bucketed simulator events and garbage collections as spans
    (a collection would otherwise be charged to whichever span it
    interrupts).  Returns the detach function."""
    sites = {
        prefix: tracer.site(layer, label)
        for prefix, (layer, label) in EVENT_BUCKETS.items()
    }
    enter = tracer.enter
    exit_ = tracer.exit
    gc_site = tracer.site(*GC_SITE)

    def on_dispatch(_time: float, name: str) -> None:
        site = sites.get(name.partition(":")[0])
        if site is not None:
            enter(site)

    def on_gc(phase: str, _info: dict) -> None:
        if phase == "start":
            enter(gc_site)
        else:
            exit_()

    sim.set_tracer(on_dispatch)
    _DispatchProfile(tracer).attach(sim)
    gc.callbacks.append(on_gc)

    def detach() -> None:
        gc.callbacks.remove(on_gc)
        sim.set_tracer(None)
        sim.set_profile(None)

    return detach
