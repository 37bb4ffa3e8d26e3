"""Per-notification work must not grow with history (sections 4.9-4.10).

Each test builds the same scenario over n and 2n prior surrogates or
delivered outbox entries, then counts the rows or entries one handler
touches.  The counts come from container subclasses swapped in on the
test side, so they measure work, not time, and cannot flake.
"""

import pytest

from repro.core import HostOS, OasisService, ServiceRegistry
from repro.core.credentials import CredentialRecordTable, RecordState
from repro.core.linkage import SimLinkage
from repro.core.types import ObjectType
from repro.runtime.clock import SimClock
from repro.runtime.network import Network
from repro.runtime.simulator import Simulator

SIZES = (64, 128)


class CountingList(list):
    """A list that counts every element read by index or iteration."""

    touched = 0

    def __getitem__(self, key):
        self.touched += 1
        return super().__getitem__(key)

    def __iter__(self):
        for item in super().__iter__():
            self.touched += 1
            yield item


class CountingDict(dict):
    """A dict that counts every entry read by key or iteration."""

    touched = 0

    def __getitem__(self, key):
        self.touched += 1
        return super().__getitem__(key)

    def get(self, key, default=None):
        self.touched += 1
        return super().get(key, default)

    def _counted(self, view):
        for item in view:
            self.touched += 1
            yield item

    def __iter__(self):
        return self._counted(super().__iter__())

    def keys(self):
        return self._counted(super().keys())

    def values(self):
        return self._counted(super().values())

    def items(self):
        return self._counted(super().items())


# ------------------------------------------------------------ surrogates


def table_with_surrogates(n):
    """A table holding n surrogates of one issuer (plus a few of
    another), with its row list swapped for a counting one."""
    table = CredentialRecordTable("Files")
    for ref in range(n):
        table.create_external("Login", ref)
        table.update_external("Login", ref, RecordState.TRUE)
    for ref in range(4):
        table.create_external("Other", ref)
    table._rows = CountingList(table._rows)
    return table


def rows_touched(table, action):
    table._rows.touched = 0
    action(table)
    return table._rows.touched


@pytest.mark.parametrize(
    "action",
    [
        pytest.param(lambda t: t.create_external("Login", 10**6), id="create-new"),
        pytest.param(lambda t: t.create_external("Login", 3), id="create-existing"),
        pytest.param(
            lambda t: t.update_external_many("Login", [(3, RecordState.FALSE)]),
            id="update-one",
        ),
        pytest.param(
            lambda t: t.update_external_many("Login", [(10**6, RecordState.FALSE)]),
            id="update-unknown-ref",
        ),
    ],
)
def test_surrogate_handlers_touch_the_same_rows_at_n_and_2n(action):
    counts = [rows_touched(table_with_surrogates(n), action) for n in SIZES]
    assert counts[0] == counts[1], counts
    assert counts[0] <= 4, counts


# ---------------------------------------------------------------- outbox

LOGIN_RDL = """
def LoggedOn(u, h)  u: userid  h: string
LoggedOn(u, h) <-
"""

FILES_RDL = """
import Login.userid
Reader(u) <- Login.LoggedOn(u, h)*
"""


def world_with_delivered_history(n):
    """Journaled Login -> Files with n revocations already delivered
    through Login's outbox, and one more session still live."""
    sim = Simulator()
    net = Network(sim, seed=5, default_delay=0.01)
    clock = SimClock(sim)
    registry = ServiceRegistry()
    linkage = SimLinkage(net)
    login = OasisService("Login", registry=registry, linkage=linkage, clock=clock)
    login.export_type(ObjectType("Login.userid"), "userid")
    login.add_rolefile("main", LOGIN_RDL)
    files = OasisService("Files", registry=registry, linkage=linkage, clock=clock)
    files.add_rolefile("main", FILES_RDL)
    linkage.enable_journal(login)
    linkage.enable_journal(files)
    host = HostOS("asymptotics-host")
    certs = []
    for i in range(n + 1):
        domain = host.create_domain()
        cert = login.enter_role(domain.client_id, "LoggedOn", (f"u{i}", "h"))
        files.enter_role(domain.client_id, "Reader", credentials=(cert,))
        certs.append(cert)
    sim.run()
    for cert in certs[:n]:
        login.exit_role(cert)
    sim.run()
    journal = linkage.durable.journal("Login")
    # the subscribe replies went through the outbox too
    assert journal.stats.outbox_delivered == len(journal.outbox) > n
    return sim, linkage, login, certs[n]


def test_drain_and_quiescent_touch_the_same_entries_at_n_and_2n():
    counts = []
    for n in SIZES:
        sim, linkage, login, live = world_with_delivered_history(n)
        journal = linkage.durable.journal("Login")
        relay = linkage.relay_of("Login")
        history = len(journal.outbox)
        login.exit_role(live)  # journals one pending outbox entry
        assert len(journal.outbox) == history + 1
        counters = {}
        for name, value in vars(journal).items():
            if isinstance(value, dict):
                counters[name] = CountingDict(value)
                setattr(journal, name, counters[name])
        relay.drain()
        assert not relay.quiescent()  # the one entry is in flight
        counts.append(sum(counter.touched for counter in counters.values()))
        sim.run()
        assert relay.quiescent()
        assert journal.stats.outbox_delivered == history + 1
        assert linkage.durable.conservation_breaches() == []
    assert counts[0] == counts[1], counts
