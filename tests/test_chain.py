import hashlib
import random

import pytest
from hypothesis import given, settings, strategies as st

from blockclique.chain import (
    Address, Block, BlockStore, Endorsement, Ledger, ProtocolParams, Slot,
    Transaction, apply_block_to_ledger, block_to_record, covers, decode_block,
    encode_block, make_genesis, record_to_block, slot_timestamp,
    thread_of_address, validate_block_structure,
)
from blockclique.errors import InsufficientBalance, MissingParent, StructuralViolation


def params(t=4, t0=32.0, size=100_000, f=3, e=0):
    return ProtocolParams(thread_count=t, slot_interval=t0, max_block_size=size,
                          finality=f, endorsement_slots=e)


class TestProtocolParams:
    def test_derived_quantities(self):
        p = params(t=32, t0=32.0, size=12_000_000, f=64, e=8)
        assert p.finality_threshold == 64 * 9
        assert p.consensus_bitrate == pytest.approx(12e6)
        assert p.thread_bits == 5

    def test_thread_count_must_be_power_of_two(self):
        with pytest.raises(ValueError):
            params(t=12)

    @pytest.mark.parametrize("t", [1, 2, 4, 8, 16, 32, 64])
    def test_powers_of_two_accepted(self, t):
        assert params(t=t).thread_count == t


class TestSlots:
    def test_genesis_slot_time_zero(self):
        assert slot_timestamp(Slot(0, 0), params(t=32, t0=32.0)) == 0.0

    def test_offset_formula_point(self):
        assert slot_timestamp(Slot(3, 1), params(t=4, t0=32.0)) == 56.0

    def test_fractional_point(self):
        assert slot_timestamp(Slot(5, 2), params(t=32, t0=16.0)) == 34.5

    def test_timestamps_strictly_increase_with_slot_order(self):
        p = params(t=8, t0=2.0)
        slots = sorted(Slot(tau, i) for tau in range(8) for i in range(5))
        times = [slot_timestamp(s, p) for s in slots]
        assert all(a < b for a, b in zip(times, times[1:]))

    @given(st.integers(0, 31), st.integers(0, 1000), st.integers(0, 31), st.integers(0, 1000))
    def test_order_matches_timestamp_order(self, t1, i1, t2, i2):
        p = params(t=32, t0=32.0)
        s1, s2 = Slot(t1, i1), Slot(t2, i2)
        if s1 < s2:
            assert slot_timestamp(s1, p) < slot_timestamp(s2, p)
        elif s2 < s1:
            assert slot_timestamp(s2, p) < slot_timestamp(s1, p)


class TestAddressSharding:
    def test_five_bit_prefix_rule(self):
        digest = bytes([0b00101_000]) + b"\x00" * 31
        assert thread_of_address(Address(digest), params(t=32)) == 5

    def test_single_thread_maps_everything_to_zero(self):
        a = Address.from_seed("anything")
        assert thread_of_address(a, params(t=1)) == 0

    def test_two_bit_prefix(self):
        digest = bytes([0b11_000000]) + b"\x00" * 31
        assert thread_of_address(Address(digest), params(t=4)) == 3

    def test_assignment_covers_all_threads(self):
        p = params(t=4)
        seen = {thread_of_address(Address.from_seed(str(i)), p) for i in range(200)}
        assert seen == {0, 1, 2, 3}


# -- canonical serialization ---------------------------------------------------

_addresses = st.binary(min_size=32, max_size=32).map(Address)
_slots = st.builds(Slot, st.integers(0, 31), st.integers(0, 2**20))
_transactions = st.builds(
    Transaction, sender=_addresses, receiver=_addresses,
    amount=st.integers(0, 2**40), fee=st.integers(0, 2**20),
    nonce=st.integers(0, 2**40), size_bits=st.integers(0, 2**16),
)
_endorsements = st.builds(
    Endorsement, endorsed_block=st.binary(min_size=32, max_size=32),
    slot=_slots, endorsement_index=st.integers(0, 7), creator=st.integers(0, 2**30),
)
_blocks = st.builds(
    Block,
    slot=_slots,
    creator=st.integers(0, 2**30),
    parents=st.lists(st.binary(min_size=32, max_size=32), max_size=6).map(tuple),
    endorsements=st.lists(_endorsements, max_size=3).map(tuple),
    transactions=st.lists(_transactions, max_size=4).map(tuple),
    size_bits=st.integers(0, 2**40),
)


class TestSerialization:
    @settings(max_examples=80)
    @given(_blocks)
    def test_round_trip_preserves_block_and_id(self, block):
        again = decode_block(encode_block(block))
        assert again == block
        assert again.id == block.id

    @settings(max_examples=40)
    @given(_blocks)
    def test_trace_record_round_trip(self, block):
        # traces carry headers plus the transaction count
        rec = block_to_record(block)
        header_only = Block(block.slot, block.creator, block.parents,
                            block.endorsements, (), block.size_bits, block.tx_count)
        assert record_to_block(rec | {"id": header_only.id.hex()}) == header_only

    def test_genesis_ids_differ_by_thread(self):
        assert len({make_genesis(t).id for t in range(32)}) == 32

    def test_decode_rejects_trailing_bytes(self):
        with pytest.raises(ValueError):
            decode_block(encode_block(make_genesis(0)) + b"\x00")

    def test_block_id_bytes_pinned(self):
        # a layout change made to encoding and decoding together keeps every
        # round trip; the digest of one full block does not
        own = make_genesis(3).id
        slot = Slot(3, 7)
        block = Block(
            slot=slot, creator=41, parents=tuple(make_genesis(t).id for t in range(4)),
            endorsements=(Endorsement(own, slot, 0, 5), Endorsement(own, slot, 1, 2**40 + 9)),
            transactions=(
                Transaction(Address.from_seed("alice"), Address.from_seed("bob"), 1000,
                            fee=3, nonce=1),
                Transaction(Address.from_seed("bob"), Address.from_seed("carol"), 2**33,
                            nonce=2**50, size_bits=777),
            ),
            size_bits=4096,
        )
        data = encode_block(block)
        assert len(data) == 472
        assert hashlib.sha256(data).hexdigest() == \
            "c6c1a91f55c42307bb1271770f0c51bebd0eb46454b3694d3e4b9dc3f2ea9219"
        assert block.id.hex() == hashlib.sha256(data).hexdigest()


# -- structural validation -----------------------------------------------------

def chain_fixture(p=None):
    p = p or params()
    store = BlockStore(p)
    return p, store


def mk_block(store, thread, period, parents, **kw):
    return Block(slot=Slot(thread, period), creator=kw.pop("creator", 1),
                 parents=tuple(parents), size_bits=kw.pop("size_bits", 100), **kw)


def pairwise_ancestor_violations(block, store):
    """Reference for validation's ancestor-consistency messages: every
    (thread, parent) pair is checked, T² per block, stopping at the first
    uncovered ancestor of each thread."""
    parents = [store.get(pid) for pid in block.parents]
    out = []
    for tau, ref in enumerate(parents):
        ref_id = block.parents[tau]
        for parent in parents:
            if parent is ref or parent.is_genesis:
                continue
            anc_id = parent.parents[tau]
            if anc_id != ref_id and not covers(store.headers, store.headers[anc_id], ref):
                out.append(f"ancestor {anc_id.hex()[:12]} in thread {tau} is not "
                           f"covered by the declared parent")
                break
    return out


class TestValidation:
    def test_valid_block_accepted(self):
        p, store = chain_fixture()
        b = mk_block(store, 0, 1, store.genesis_ids)
        assert validate_block_structure(b, store, p) == []

    def test_size_limit(self):
        p, store = chain_fixture()
        b = mk_block(store, 0, 1, store.genesis_ids, size_bits=p.max_block_size + 1)
        assert any("size" in v for v in validate_block_structure(b, store, p))

    def test_own_thread_parent_must_be_older(self):
        p, store = chain_fixture()
        b1 = mk_block(store, 0, 1, store.genesis_ids)
        store.receive(b1)
        parents = list(store.genesis_ids)
        parents[0] = b1.id
        same_period = mk_block(store, 0, 1, parents)
        assert any("strictly smaller" in v
                   for v in validate_block_structure(same_period, store, p))

    def test_missing_parent_raises(self):
        p, store = chain_fixture()
        ghost = bytes(32)
        parents = [ghost] + store.genesis_ids[1:]
        with pytest.raises(MissingParent):
            validate_block_structure(mk_block(store, 0, 1, parents), store, p)

    def test_ancestor_consistency_violation(self):
        # thread-1 parent knows a newer thread-0 block than the declared parent
        p, store = chain_fixture()
        a0 = mk_block(store, 0, 1, store.genesis_ids)
        store.receive(a0)
        parents1 = list(store.genesis_ids)
        parents1[0] = a0.id
        b1 = mk_block(store, 1, 1, parents1)      # references a0 through thread 1
        store.receive(b1)
        bad_parents = list(store.genesis_ids)     # but thread-0 parent is genesis
        bad_parents[1] = b1.id
        bad = mk_block(store, 2, 1, bad_parents)
        assert any("not covered" in v for v in validate_block_structure(bad, store, p))

    def test_referencing_old_parent_in_unseen_thread_is_fine(self):
        # a producer that has not seen the latest thread-3 block may still
        # build a valid block on the older one
        p, store = chain_fixture()
        newer3 = mk_block(store, 3, 1, store.genesis_ids)
        store.receive(newer3)
        parents = list(store.genesis_ids)   # thread 3 parent stays genesis
        ok = mk_block(store, 0, 1, parents)
        assert validate_block_structure(ok, store, p) == []

    def test_transaction_sharding_rule(self):
        p, store = chain_fixture()
        sender = next(Address.from_seed(str(i)) for i in range(100)
                      if thread_of_address(Address.from_seed(str(i)), p) == 2)
        tx = Transaction(sender, Address.from_seed("r"), amount=1)
        wrong = Block(slot=Slot(0, 1), creator=1, parents=tuple(store.genesis_ids),
                      transactions=(tx,), size_bits=2000)
        assert any("sender" in v for v in validate_block_structure(wrong, store, p))
        right = Block(slot=Slot(2, 1), creator=1, parents=tuple(store.genesis_ids),
                      transactions=(tx,), size_bits=2000)
        assert validate_block_structure(right, store, p) == []

    def test_endorsement_must_reference_own_thread_parent(self):
        p = params(e=2)
        store = BlockStore(p)
        good = Endorsement(store.genesis_ids[0], Slot(0, 1), 0, creator=9)
        b = Block(slot=Slot(0, 1), creator=1, parents=tuple(store.genesis_ids),
                  endorsements=(good,), size_bits=100)
        assert validate_block_structure(b, store, p) == []
        bad = Endorsement(store.genesis_ids[1], Slot(0, 1), 0, creator=9)
        b2 = Block(slot=Slot(0, 1), creator=1, parents=tuple(store.genesis_ids),
                   endorsements=(bad,), size_bits=100)
        assert any("own-thread parent" in v for v in validate_block_structure(b2, store, p))

    def test_ancestor_violations_in_several_threads(self):
        # thread 0: two uncovered ancestors, the one reached through the
        # first parent reported; thread 3: one uncovered ancestor that two
        # parents name; threads 1 and 2: own parents of declared parents
        p, store = chain_fixture()
        g0, g1, g2, g3 = store.genesis_ids
        a0 = mk_block(store, 0, 1, store.genesis_ids)
        a0b = mk_block(store, 0, 2, [a0.id, g1, g2, g3])
        d3 = mk_block(store, 3, 1, store.genesis_ids)
        b1 = mk_block(store, 1, 1, [a0b.id, g1, g2, d3.id])
        b2 = mk_block(store, 2, 1, [a0.id, g1, g2, d3.id])
        f3 = mk_block(store, 3, 1, [a0.id, g1, g2, g3], creator=2)
        for b in (a0, a0b, d3, b1, b2, f3):
            assert store.receive(b) == [b]
        bad = mk_block(store, 1, 2, [g0, b1.id, b2.id, f3.id])
        got = validate_block_structure(bad, store, p)
        assert got == [
            f"ancestor {a0b.id.hex()[:12]} in thread 0 is not covered by the declared parent",
            f"ancestor {d3.id.hex()[:12]} in thread 3 is not covered by the declared parent",
        ]
        assert got == pairwise_ancestor_violations(bad, store)

    @pytest.mark.parametrize("t", [1, 2, 4, 8, 32])
    def test_ancestor_messages_match_pairwise_reference(self, t):
        # random parents per thread, mostly recent ones, and some own-thread
        # periods that are not larger; blocks carry no transactions and no
        # endorsements, so ancestor messages end the violation list
        rng = random.Random(t)
        p, store = chain_fixture(params(t=t))
        pools = [[gid] for gid in store.genesis_ids]
        flagged = 0
        for _ in range(1000):
            tau = rng.randrange(t)
            parents = [pool[-1] if rng.random() < 0.8 else rng.choice(pool)
                       for pool in pools]
            period = max(1, store.get(parents[tau]).period + rng.choice([0, 1, 1, 2]))
            b = mk_block(store, tau, period, parents, creator=rng.randrange(8))
            got = validate_block_structure(b, store, p)
            expected = pairwise_ancestor_violations(b, store)
            assert got[len(got) - len(expected):] == expected
            assert not any(v.startswith("ancestor ") for v in got[:len(got) - len(expected)])
            flagged += bool(expected)
            if not got and b.id not in store:
                store.receive(b)
                pools[tau].append(b.id)
        assert flagged > 100 or t == 1


class TestBlockStore:
    def test_out_of_order_buffering(self):
        p, store = chain_fixture()
        b1 = mk_block(store, 0, 1, store.genesis_ids)
        parents2 = list(store.genesis_ids)
        parents2[0] = b1.id
        b2 = mk_block(store, 0, 2, parents2)
        assert store.receive(b2) == []          # parent missing, buffered
        assert store.pending_count == 1
        accepted = store.receive(b1)
        assert [b.id for b in accepted] == [b1.id, b2.id]
        assert store.pending_count == 0

    def test_duplicate_is_ignored(self):
        p, store = chain_fixture()
        b1 = mk_block(store, 0, 1, store.genesis_ids)
        assert len(store.receive(b1)) == 1
        assert store.receive(b1) == []

    def test_unknown_parent_id_never_resolves(self):
        p, store = chain_fixture()
        parents = [bytes(32)] + store.genesis_ids[1:]
        orphan = mk_block(store, 0, 1, parents)
        assert store.receive(orphan) == []
        assert orphan.id not in store

    def test_invalid_block_raises(self):
        p, store = chain_fixture()
        b = mk_block(store, 0, 1, store.genesis_ids, size_bits=p.max_block_size + 1)
        with pytest.raises(StructuralViolation):
            store.receive(b)

    def test_waiting_pool_is_bounded(self):
        p = params()
        store = BlockStore(p, max_pending=3)
        ghost = bytes(32)
        for i in range(5):
            parents = [ghost] + store.genesis_ids[1:]
            store.receive(mk_block(store, 0, i + 1, parents, creator=i))
        assert store.pending_count == 3
        assert store.dropped_pending == 2
        # orphans with distinct missing parents: eviction must also drop the
        # victims' entries from the missing-parent index
        for i in range(200):
            parents = [bytes([1]) + i.to_bytes(31, "big")] + store.genesis_ids[1:]
            store.receive(mk_block(store, 0, i + 1, parents, creator=i))
        assert store.pending_count == 3
        indexed = [bid for waiters in store._waiting.values() for bid in waiters]
        assert sorted(indexed) == sorted(store._pending)
        assert len(store._waiting) == 3


class TestLedger:
    def test_empty_block_is_identity(self):
        led = Ledger({Address.from_seed("a"): 5})
        b = Block(slot=Slot(0, 1), creator=0, parents=(bytes(32),), size_bits=10)
        assert apply_block_to_ledger(led, b).balances == led.balances

    def test_transfer_arithmetic(self):
        a, r = Address.from_seed("a"), Address.from_seed("b")
        led = Ledger({a: 100})
        tx = Transaction(a, r, amount=60, fee=1)
        b = Block(slot=Slot(0, 1), creator=0, parents=(bytes(32),),
                  transactions=(tx,), size_bits=10)
        out = apply_block_to_ledger(led, b)
        assert out.balance(a) == 39
        assert out.balance(r) == 60

    def test_overdraft_rejected(self):
        a, r = Address.from_seed("a"), Address.from_seed("b")
        led = Ledger({a: 100})
        tx = Transaction(a, r, amount=101, fee=0)
        b = Block(slot=Slot(0, 1), creator=0, parents=(bytes(32),),
                  transactions=(tx,), size_bits=10)
        with pytest.raises(InsufficientBalance):
            apply_block_to_ledger(led, b)

    def test_apply_is_functional(self):
        a, r = Address.from_seed("a"), Address.from_seed("b")
        led = Ledger({a: 100})
        tx = Transaction(a, r, amount=10)
        b = Block(slot=Slot(0, 1), creator=0, parents=(bytes(32),),
                  transactions=(tx,), size_bits=10)
        apply_block_to_ledger(led, b)
        assert led.balance(a) == 100

    @settings(max_examples=30)
    @given(st.lists(st.tuples(st.integers(0, 19), st.integers(0, 19),
                              st.integers(0, 50)), min_size=1, max_size=30))
    def test_sharding_soundness_instrumented(self, transfers):
        # every balance decrease happens in a block of the sender's thread
        p = params(t=4)
        addrs = [Address.from_seed(f"acct{i}") for i in range(20)]
        balances = {a: 1000 for a in addrs}
        led = Ledger(dict(balances))
        for period, (si, ri, amount) in enumerate(transfers, start=1):
            sender, receiver = addrs[si], addrs[ri]
            tau = thread_of_address(sender, p)
            tx = Transaction(sender, receiver, amount=amount, nonce=period)
            block = Block(slot=Slot(tau, period), creator=0,
                          parents=(bytes(32),) * 4, transactions=(tx,), size_bits=2000)
            before = dict(led.balances)
            led = apply_block_to_ledger(led, block)
            for addr, old in before.items():
                if led.balance(addr) < old:
                    assert thread_of_address(addr, p) == block.thread
