"""Unit tests for signatures and the rolling secret table (sections 4.2, 5.5.1)."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.secrets import RecordingSigner, RollingSecretTable, Signer
from repro.errors import FraudError
from repro.runtime.clock import ManualClock


def make_signer(**kwargs):
    clock = ManualClock()
    table = RollingSecretTable(clock=clock, seed=b"test", **kwargs)
    return clock, table, Signer(table)


class ScanningSecretTable(RollingSecretTable):
    """The reference expiry: rescan every secret on every lookup."""

    def _expire(self) -> None:
        now = self.clock.now()
        dead = [
            index
            for index, secret in self._secrets.items()
            if now - secret.created_at > self.lifetime and index != self.current_index
        ]
        for index in dead:
            del self._secrets[index]


class TestRollingSecretTable:
    def test_roll_advances_index(self):
        _, table, _ = make_signer()
        first = table.current_index
        table.roll()
        assert table.current_index == first + 1

    def test_old_secrets_stay_valid_until_lifetime(self):
        clock, table, _ = make_signer(lifetime=100.0)
        first = table.current_index
        table.roll()
        assert table.get(first) is not None
        clock.advance(101.0)
        assert table.get(first) is None

    def test_secret_valid_at_exact_lifetime_refused_just_after(self):
        clock, table, _ = make_signer(lifetime=100.0)
        first = table.current_index
        clock.advance(40.0)
        table.roll()
        assert table.get(first) is not None   # caches the expiry horizon
        clock.set(100.0)                      # now - created_at == lifetime
        assert table.get(first) is not None
        clock.set(math.nextafter(100.0, math.inf))
        assert table.get(first) is None
        assert table.live_indices() == [table.current_index]

    def test_lifetime_is_read_only(self):
        _, table, _ = make_signer(lifetime=100.0)
        with pytest.raises(AttributeError):
            table.lifetime = 5.0

    def test_current_secret_never_expires(self):
        clock, table, _ = make_signer(lifetime=10.0)
        clock.advance(1000.0)
        assert table.get(table.current_index) is not None

    def test_maybe_roll_honours_period(self):
        clock, table, _ = make_signer(roll_period=50.0)
        index = table.current_index
        table.maybe_roll()
        assert table.current_index == index
        clock.advance(51.0)
        table.maybe_roll()
        assert table.current_index == index + 1

    def test_invalidate_all(self):
        _, table, _ = make_signer()
        old = table.current_index
        table.invalidate_all()
        assert table.get(old) is None
        assert table.get(table.current_index) is not None

    def test_seeded_tables_deterministic(self):
        t1 = RollingSecretTable(seed=b"x")
        t2 = RollingSecretTable(seed=b"x")
        assert t1.get(0) == t2.get(0)


@settings(max_examples=200, deadline=None)
@given(
    ops=st.lists(
        st.one_of(
            st.tuples(
                st.just("advance"),
                st.one_of(
                    st.sampled_from([0.0, 1e-9, 2.5, 5.0, 10.0]),
                    st.floats(0.0, 25.0, allow_nan=False),
                ),
            ),
            st.tuples(st.just("roll"), st.just(0.0)),
            st.tuples(st.just("invalidate"), st.just(0.0)),
        ),
        max_size=40,
    )
)
def test_cached_expiry_answers_like_the_full_scan(ops):
    clock = ManualClock()
    fast = RollingSecretTable(clock=clock, lifetime=10.0, seed=b"p")
    slow = ScanningSecretTable(clock=clock, lifetime=10.0, seed=b"p")
    for op, amount in ops:
        if op == "advance":
            clock.advance(amount)
        elif op == "roll":
            assert fast.roll() == slow.roll()
        else:
            fast.invalidate_all()
            slow.invalidate_all()
        for index in range(fast.current_index + 1):
            assert fast.get(index) == slow.get(index)
        assert fast.live_indices() == slow.live_indices()


class TestSigner:
    def test_sign_verify_roundtrip(self):
        _, _, signer = make_signer()
        index, sig = signer.sign(b"hello")
        assert signer.verify(b"hello", index, sig)

    def test_modified_text_fails(self):
        _, _, signer = make_signer()
        index, sig = signer.sign(b"hello")
        assert not signer.verify(b"hellO", index, sig)

    def test_wrong_signature_fails(self):
        _, _, signer = make_signer()
        index, sig = signer.sign(b"hello")
        assert not signer.verify(b"hello", index, b"\x00" * len(sig))

    def test_expired_secret_fails(self):
        clock, table, signer = make_signer(lifetime=10.0)
        index, sig = signer.sign(b"hello")
        table.roll()
        clock.advance(11.0)
        assert not signer.verify(b"hello", index, sig)

    def test_require_valid_raises_fraud(self):
        _, _, signer = make_signer()
        with pytest.raises(FraudError):
            signer.require_valid(b"x", 0, b"bad")

    def test_signature_length_respected(self):
        table = RollingSecretTable(seed=b"x")
        for length in (4, 16, 32):
            signer = Signer(table, signature_length=length)
            _, sig = signer.sign(b"t")
            assert len(sig) == length

    def test_bad_length_rejected(self):
        table = RollingSecretTable(seed=b"x")
        with pytest.raises(ValueError):
            Signer(table, signature_length=2)

    def test_different_services_cannot_validate(self):
        """Fig 4.1: certificates may only be validated by the issuing
        instance, as the secret is private to it."""
        t1 = RollingSecretTable(seed=b"svc1")
        t2 = RollingSecretTable(seed=b"svc2")
        s1, s2 = Signer(t1), Signer(t2)
        index, sig = s1.sign(b"cert")
        assert not s2.verify(b"cert", index, sig)


class TestRecordingSigner:
    def test_roundtrip(self):
        signer = RecordingSigner()
        index, sig = signer.sign(b"cert")
        assert signer.verify(b"cert", index, sig)

    def test_unissued_fails(self):
        signer = RecordingSigner()
        signer.sign(b"cert")
        assert not signer.verify(b"other", 1, (1).to_bytes(8, "big"))

    def test_require_valid(self):
        signer = RecordingSigner()
        with pytest.raises(FraudError):
            signer.require_valid(b"x", 5, b"12345678")
