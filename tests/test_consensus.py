import gc
import io
import random

import pytest

from blockclique.chain import (Block, BlockStore, HeaderMeta, ProtocolParams, Slot, covers,
                               incompatible, make_genesis, write_trace)
from blockclique import consensus
from blockclique.consensus import CompatibilityState, DagIndex, replay_trace
from blockclique.errors import CliqueExplosion, UnknownBlock, UnprocessedParent

from dag_gen import honest_instance, parent_respecting_shuffle, random_instance
from oracle_consensus import OracleConsensus


def params(t=2, f=3, e=0):
    return ProtocolParams(thread_count=t, slot_interval=32.0, max_block_size=10_000,
                          finality=f, endorsement_slots=e)


def blk(thread, period, parents, creator=1):
    return Block(slot=Slot(thread, period), creator=creator,
                 parents=tuple(parents), size_bits=100)


class TestPathPredicate:
    """``chain.covers``, the one own-thread walk, over a store's header map."""

    def test_reflexive(self):
        store = BlockStore(params())
        g0 = store.get(store.genesis_ids[0])
        assert covers(store.headers, g0, g0)

    def test_genesis_reaches_descendants(self):
        store = BlockStore(params())
        g0, g1 = store.genesis_ids
        a = blk(0, 1, [g0, g1])
        b = blk(0, 2, [a.id, g1])
        store.receive(a)
        store.receive(b)
        h = store.headers
        assert covers(h, h[g0], h[b.id])
        assert not covers(h, h[b.id], h[g0])

    def test_siblings_unrelated(self):
        store = BlockStore(params())
        g0, g1 = store.genesis_ids
        a = blk(0, 1, [g0, g1])
        b = blk(0, 2, [g0, g1])
        store.receive(a)
        store.receive(b)
        h = store.headers
        assert not covers(h, h[a.id], h[b.id])
        assert not covers(h, h[b.id], h[a.id])

    def test_unknown_block_raises(self):
        store = BlockStore(params())
        with pytest.raises(UnknownBlock):
            store.get(bytes(32))


class TestIncompatibilityPredicates:
    """``chain.incompatible``, the one direct-conflict rule, over a state's
    header map."""

    @staticmethod
    def conflict(st, id1, id2):
        return incompatible(st.headers, st.headers[id1], st.headers[id2])

    def test_thread_incompatible_same_parent(self):
        st = CompatibilityState(params())
        g0, g1 = st.genesis_ids
        a, b = blk(0, 1, [g0, g1]), blk(0, 2, [g0, g1])
        st.extend_meta(HeaderMeta.from_block(a))
        st.extend_meta(HeaderMeta.from_block(b))
        assert self.conflict(st, a.id, b.id)

    def test_parent_child_not_thread_incompatible(self):
        st = CompatibilityState(params())
        g0, g1 = st.genesis_ids
        a = blk(0, 1, [g0, g1])
        b = blk(0, 2, [a.id, g1])
        st.extend_meta(HeaderMeta.from_block(a))
        st.extend_meta(HeaderMeta.from_block(b))
        assert not self.conflict(st, a.id, b.id)

    def test_genesis_never_incompatible(self):
        st = CompatibilityState(params())
        g0, g1 = st.genesis_ids
        a = blk(0, 1, [g0, g1])
        st.extend_meta(HeaderMeta.from_block(a))
        assert not self.conflict(st, g0, a.id)
        assert not self.conflict(st, a.id, g0)

    def _grandpa_setup(self):
        st = CompatibilityState(params())
        g0, g1 = st.genesis_ids
        x = blk(0, 1, [g0, g1])
        y = blk(1, 1, [g0, g1])
        st.extend_meta(HeaderMeta.from_block(x))
        st.extend_meta(HeaderMeta.from_block(y))
        return st, g0, g1, x, y

    def test_mutual_grandparent_references_conflict(self):
        st, g0, g1, x, y = self._grandpa_setup()
        c = blk(0, 2, [x.id, g1])   # ignores y, references its grandparent in 1
        d = blk(1, 2, [g0, y.id])   # ignores x, references its grandparent in 0
        st.extend_meta(HeaderMeta.from_block(c))
        st.extend_meta(HeaderMeta.from_block(d))
        assert self.conflict(st, c.id, d.id)
        assert self.conflict(st, d.id, c.id)  # symmetric

    def test_referencing_the_parent_itself_is_compatible(self):
        st, g0, g1, x, y = self._grandpa_setup()
        c = blk(0, 2, [x.id, g1])
        st.extend_meta(HeaderMeta.from_block(c))
        assert not self.conflict(st, c.id, y.id)


class TestExtend:
    def test_first_block_single_clique(self):
        st = CompatibilityState(params())
        b = blk(0, 1, st.genesis_ids)
        assert st.extend_meta(HeaderMeta.from_block(b)) == "active"
        cliques = st.maximal_cliques()
        assert len(cliques) == 1
        assert cliques[0][0] == frozenset([*st.genesis_ids, b.id])

    def test_two_maximal_cliques_on_thread_conflict(self):
        st = CompatibilityState(params())
        g0, g1 = st.genesis_ids
        st.extend_meta(HeaderMeta.from_block(blk(0, 1, [g0, g1])))
        st.extend_meta(HeaderMeta.from_block(blk(0, 2, [g0, g1])))
        assert len(st.maximal_cliques()) == 2
        for members, _ in st.maximal_cliques():
            assert g0 in members and g1 in members

    def test_mutually_incompatible_parents_discarded(self):
        st = CompatibilityState(params())
        g0, g1 = st.genesis_ids
        a, b = blk(0, 1, [g0, g1]), blk(0, 2, [g0, g1])
        st.extend_meta(HeaderMeta.from_block(a))
        st.extend_meta(HeaderMeta.from_block(b))
        # references both sides of a thread conflict through threads 0 and 1
        c1 = blk(1, 1, [a.id, g1])
        st.extend_meta(HeaderMeta.from_block(c1))
        mixed = blk(1, 2, [b.id, c1.id])
        assert st.extend_meta(HeaderMeta.from_block(mixed)) == "stale"
        assert mixed.id in st.stale_set

    def test_unprocessed_parent_raises(self):
        st = CompatibilityState(params())
        g0, g1 = st.genesis_ids
        a = blk(0, 1, [g0, g1])
        child = blk(0, 2, [a.id, g1])
        with pytest.raises(UnprocessedParent):
            st.extend_meta(HeaderMeta.from_block(child))

    def test_stale_parent_makes_block_stale_at_admission(self):
        st = CompatibilityState(params(t=1, f=1))
        g0 = st.genesis_ids[0]
        main = blk(0, 1, [g0])
        fork = blk(0, 2, [g0])
        st.add_block(HeaderMeta.from_block(main))
        st.add_block(HeaderMeta.from_block(fork))
        tip = main.id
        for i in range(3, 7):
            nxt = blk(0, i, [tip])
            st.add_block(HeaderMeta.from_block(nxt))
            tip = nxt.id
        assert st.status(fork.id) == "stale"
        late = blk(0, 99, [fork.id])
        assert st.add_block(HeaderMeta.from_block(late))[0] == "stale"

    def test_clique_explosion_cap(self):
        st = CompatibilityState(params(t=1, f=3), clique_cap=4)
        g0 = st.genesis_ids[0]
        for i in range(1, 7):
            st.extend_meta(HeaderMeta.from_block(blk(0, i, [g0], creator=i)))
        with pytest.raises(CliqueExplosion):
            st.maximal_cliques()


class TestBlockcliqueSelection:
    def test_higher_fitness_wins(self):
        st = CompatibilityState(params(t=1, f=3))
        g0 = st.genesis_ids[0]
        a = blk(0, 1, [g0])
        b = blk(0, 2, [g0])
        st.extend_meta(HeaderMeta.from_block(a))
        st.extend_meta(HeaderMeta.from_block(b))
        child = blk(0, 3, [a.id])
        st.extend_meta(HeaderMeta.from_block(child))
        bc = st.blockclique
        assert a.id in bc and child.id in bc and b.id not in bc

    def test_tie_broken_by_smaller_id_sum(self):
        st = CompatibilityState(params(t=1, f=3))
        g0 = st.genesis_ids[0]
        a = blk(0, 1, [g0], creator=1)
        b = blk(0, 1, [g0], creator=2)
        st.extend_meta(HeaderMeta.from_block(a))
        st.extend_meta(HeaderMeta.from_block(b))
        expected = min([a, b], key=lambda x: int.from_bytes(x.id, "big"))
        assert expected.id in st.blockclique

    def test_single_clique_selected(self):
        st = CompatibilityState(params())
        st.extend_meta(HeaderMeta.from_block(blk(0, 1, st.genesis_ids)))
        assert st.blockclique == st.maximal_cliques()[0][0]


class TestCliqueCache:
    """A view with edges keeps its ranked clique list across an edge-free
    admission, a false twin's admission and a settlement that only
    finalizes; ``check_invariants`` re-enumerates it."""

    def _forked(self):
        st = CompatibilityState(params())
        g0, g1 = st.genesis_ids
        a, b = blk(0, 1, [g0, g1]), blk(0, 2, [g0, g1])
        st.add_block(HeaderMeta.from_block(a))
        st.add_block(HeaderMeta.from_block(b))
        assert len(st.maximal_cliques()) == 2
        return st, a, b

    def test_kept_until_a_block_stales(self):
        st, a, b = self._forked()
        g0, g1 = st.genesis_ids
        y = blk(1, 1, [g0, g1])     # no edge: joins both cliques
        st.extend_meta(HeaderMeta.from_block(y))
        assert st.view._cliques is not None
        assert all(y.id in members for members, _ in st.maximal_cliques())
        st.check_invariants()
        tip, settled = y.id, []
        for i in range(2, 6):
            x = blk(1, i, [a.id, tip])      # a's false twin: joins a's clique only
            st.extend_meta(HeaderMeta.from_block(x))
            assert st.view._cliques is not None
            assert [x.id in members for members, _ in st.maximal_cliques()] == \
                [a.id in members for members, _ in st.maximal_cliques()]
            final, stale = st.update_finality()
            settled.append((bool(final), bool(stale), st.view._cliques is not None))
            st.check_invariants()
            tip = x.id
        # finals alone keep the list; b's staling drops it
        assert (True, False, True) in settled and settled[-1] == (True, True, False)
        assert st.status(b.id) == "stale"

    def test_enumeration_leaves_no_cycle(self):
        # the Bron-Kerbosch recursion leaves no reference cycle behind, so
        # reference counting alone frees what an enumeration built
        st = CompatibilityState(params(t=1, f=3))
        g0 = st.genesis_ids[0]
        for i in range(1, 4):
            st.extend_meta(HeaderMeta.from_block(blk(0, i, [g0], creator=i)))
        st.view._cliques = None
        gc.collect()
        gc.disable()
        try:
            assert len(st.maximal_cliques()) == 3
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_invariant_catches_a_misranked_list(self):
        st, _, _ = self._forked()
        st.check_invariants()
        st.view._cliques = st.view._cliques[::-1]
        with pytest.raises(AssertionError, match="cached cliques"):
            st.check_invariants()


class TestFinality:
    def test_gap_exactly_at_threshold_keeps_fork_active(self):
        st = CompatibilityState(params(t=1, f=3))
        g0 = st.genesis_ids[0]
        main = blk(0, 1, [g0])
        fork = blk(0, 2, [g0])
        st.add_block(HeaderMeta.from_block(main))
        st.add_block(HeaderMeta.from_block(fork))
        tip = main.id
        for i in range(3, 6):        # blockclique leads by exactly threshold
            nxt = blk(0, i, [tip])
            st.add_block(HeaderMeta.from_block(nxt))
            tip = nxt.id
        assert st.status(fork.id) == "active"
        nxt = blk(0, 6, [tip])       # one more: strictly beyond
        st.add_block(HeaderMeta.from_block(nxt))
        assert st.status(fork.id) == "stale"

    def test_losing_fork_four_behind_settles_stale(self):
        st = CompatibilityState(params(t=1, f=3))
        g0 = st.genesis_ids[0]
        main = blk(0, 1, [g0])
        fork = blk(0, 2, [g0])
        fork_child = blk(0, 3, [fork.id])
        st.add_block(HeaderMeta.from_block(main))
        st.add_block(HeaderMeta.from_block(fork))
        st.add_block(HeaderMeta.from_block(fork_child))
        tip = main.id
        stale_events = []
        for i in range(4, 10):
            nxt = blk(0, i, [tip])
            _, _, stale = st.add_block(HeaderMeta.from_block(nxt))
            stale_events.extend(stale)
            tip = nxt.id
        assert st.status(fork.id) == "stale"
        assert st.status(fork_child.id) == "stale"
        assert set(stale_events) == {fork.id, fork_child.id}

    def test_honest_liveness_depth_rule(self):
        # in a conflict-free chain a block is final once strictly more than
        # threshold fitness sits above it
        f = 3
        st = CompatibilityState(params(t=1, f=f))
        g0 = st.genesis_ids[0]
        tip = g0
        chain = []
        for i in range(1, 10):
            nxt = blk(0, i, [tip])
            st.add_block(HeaderMeta.from_block(nxt))
            chain.append(nxt)
            tip = nxt.id
            for depth, b in enumerate(reversed(chain)):
                expected = "final" if depth > f else "active"
                assert st.status(b.id) == expected, (i, depth)

    def test_monotone_settlement(self):
        rng = random.Random(5)
        for _ in range(30):
            p, blocks = random_instance(rng, max_blocks=14)
            st = CompatibilityState(p)
            settled: dict[bytes, str] = {}
            for b in blocks:
                st.add_block(HeaderMeta.from_block(b))
                for bid, verdict in settled.items():
                    assert st.status(bid) == verdict
                for bid in st.final_set:
                    settled[bid] = "final"
                for bid in st.stale_set:
                    settled[bid] = "stale"

    def test_blockclique_pairwise_compatible(self):
        rng = random.Random(9)
        for _ in range(20):
            p, blocks = random_instance(rng, max_blocks=14)
            st = CompatibilityState(p)
            for b in blocks:
                st.add_block(HeaderMeta.from_block(b))
            bc = sorted(st.blockclique)
            for i, a in enumerate(bc):
                for b in bc[i + 1:]:
                    assert not incompatible(st.headers, st.headers[a], st.headers[b])
                    assert b not in st.view._incompat.get(a, ())

    def test_final_tip_is_parent_first(self):
        # the unvalidated trace of the CLI's final-parent-off-final-chain
        # test: b0 sits at period 0 over g1, also at period 0, and its id is
        # smaller than g1's. Once both are final, b0 must be thread 1's tip:
        # a tip chosen by the larger (period, id) stays g1 and leaves b0 out
        # of the finals, which the processed-set key check catches
        p = params(t=2, f=1)
        store = BlockStore(p, validate=False)
        st = CompatibilityState(p, index=DagIndex(store.headers))
        g0, g1 = st.genesis_ids
        b0 = blk(1, 0, [g0, g1], creator=5)
        b1 = blk(0, 1, [g0, b0.id], creator=3)
        b2 = blk(1, 1, [b1.id, b0.id], creator=0)
        b3 = blk(0, 2, [g0, b0.id], creator=0)
        assert b0.id < g1
        for b in (b0, b1, b2, b3):
            for adm in store.receive(b):
                st.add_block(HeaderMeta.from_block(adm))
            st.check_invariants()
        assert {g1, b0.id} <= st.final_set


class TestBestParents:
    def test_fresh_state_returns_genesis(self):
        st = CompatibilityState(params(t=4))
        assert st.best_parents() == st.genesis_ids

    def test_tip_advances_per_thread(self):
        st = CompatibilityState(params())
        b = blk(0, 1, st.genesis_ids)
        st.add_block(HeaderMeta.from_block(b))
        assert st.best_parents() == [b.id, st.genesis_ids[1]]

    def test_pure_function_of_state(self):
        st = CompatibilityState(params())
        st.add_block(HeaderMeta.from_block(blk(0, 1, st.genesis_ids)))
        assert st.best_parents() == st.best_parents()

    def test_falls_back_to_latest_final(self):
        st = CompatibilityState(params(t=1, f=1))
        g0 = st.genesis_ids[0]
        tip = g0
        for i in range(1, 6):
            nxt = blk(0, i, [tip])
            st.add_block(HeaderMeta.from_block(nxt))
            tip = nxt.id
        assert st.best_parents() == [tip]


class TestOrderIndependence:
    def test_honest_sets_converge_in_any_order(self):
        # per-block settlement on a set frozen mid-race is a bet whose outcome
        # legitimately depends on arrival order; honest production (bounded
        # view lag, races grown to a decisive finish) is order-free
        rng = random.Random(17)
        for _ in range(12):
            p, blocks = honest_instance(rng)
            reference = None
            for _ in range(4):
                st = CompatibilityState(p)
                for b in parent_respecting_shuffle(blocks, rng):
                    st.add_block(HeaderMeta.from_block(b))
                outcome = (frozenset(st.blockclique), frozenset(st.final_set),
                           frozenset(st.stale_set))
                if reference is None:
                    reference = outcome
                else:
                    assert outcome == reference


class TestOracleEquivalence:
    def test_engine_matches_oracle_stepwise(self):
        rng = random.Random(23)
        for _ in range(40):
            p, blocks = random_instance(rng, max_blocks=12)
            engine = CompatibilityState(p)
            oracle = OracleConsensus(p)
            for b in blocks:
                s_e, _, _ = engine.add_block(HeaderMeta.from_block(b))
                s_o = oracle.add_block(b)
                assert s_e == s_o, "admission verdicts diverged"
                snap = oracle.snapshot()
                assert {m for m, _ in engine.maximal_cliques()} == snap["cliques"]
                assert engine.blockclique == snap["blockclique"]
                assert engine.final_set == snap["final"]
                assert engine.stale_set == snap["stale"]


class TestAncestry:
    """No active ancestor directly conflicts with its descendant, which lets
    the index's scan skip them. The index's conflicts of an active block,
    restricted to the active set, are exactly its direct conflicts there, and
    the relation is symmetric. The one-pass descendant search finds exactly
    the active descendants, and the descendant fitness, the sum of the
    child weights over a block's active own-thread subtree, is exactly their
    sum; multi-clique finality reads it as is, and the blocks it puts over
    the threshold are exactly the deep set that settlement finds from the
    thread totals. The state's invariants hold after every step. Wherever
    admission asks it (no parent is stale),
    the final-frontier check, which walks only the finals above each final
    parent, agrees with a direct-conflict test against every final block."""

    @staticmethod
    def _check_walks(p, blocks):
        engine = CompatibilityState(p)
        reference = OracleConsensus(p)
        headers = engine.headers
        for b in blocks:
            meta_b = HeaderMeta.from_block(b)
            if engine.stale_set.isdisjoint(meta_b.parents):
                assert engine.view._frontier_compatible(meta_b) == (
                    not any(incompatible(headers, meta_b, headers[f])
                            for f in engine.final_set))
            engine.add_block(HeaderMeta.from_block(b))
            engine.check_invariants()
            reference.meta[b.id] = engine.headers[b.id]
            active = engine.active
            above = {bid: reference._ancestors(bid) for bid in active}
            exact = {}
            # a private index holds exactly the state's active blocks
            assert engine.index.live.keys() == active.keys()
            conflicts = engine.index.conflicts
            for bid, meta in active.items():
                for aid in above[bid] & active.keys():
                    assert not incompatible(headers, meta, active[aid])
                direct = {x for x in conflicts.get(bid, ()) if x in active}
                assert direct == {x for x in active
                                  if x != bid and incompatible(headers, meta, active[x])}
                assert all(bid in conflicts[x] for x in conflicts.get(bid, ()))
                below = sorted(d for d in active if bid in above[d])
                assert sorted(engine.view._descendants({bid})) == below
                exact[bid] = sum(active[d].fitness for d in below)
                assert TestAncestry._subtree_weight(engine, bid) == exact[bid]
            assert engine.view._deep_blocks() == {
                a: d for a, d in exact.items() if d > engine.view.threshold}

    @staticmethod
    def _subtree_weight(engine, bid):
        """The sum of ``_weight`` over the active blocks whose own-thread
        chain reaches ``bid`` through active blocks."""
        active = engine.active
        total = 0
        for y, meta in active.items():
            while meta.id != bid and meta.own_parent in active:
                meta = active[meta.own_parent]
            if meta.id == bid:
                total += engine.view._weight[y]
        return total

    def test_random_instances(self):
        rng = random.Random(31)
        for _ in range(40):
            self._check_walks(*random_instance(rng, max_blocks=16))

    def test_long_random_instances(self):
        # long enough for a stale removal to pull an active ancestor's
        # descendant fitness back under the threshold
        rng = random.Random(47)
        for _ in range(20):
            self._check_walks(*random_instance(rng, max_blocks=24))

    def test_honest_instances(self):
        rng = random.Random(37)
        for _ in range(12):
            self._check_walks(*honest_instance(rng))

    def test_grandpa_conflict_with_a_final_block(self):
        # y1 and y2 finalize on thread 1's chain. c names the final genesis
        # g1 as its thread-1 parent, and its own parent a is newer than g0,
        # which y2 names in thread 0: c is grandpa-incompatible with the
        # final y2, and only the frontier check stales it for that
        p = params(t=2, f=1)
        st = CompatibilityState(p)
        g0, g1 = st.genesis_ids
        ys = []
        for k in range(1, 5):
            ys.append(blk(1, k, [g0, ys[-1].id if ys else g1]))
        a = blk(0, 1, [g0, g1])
        c = blk(0, 2, [a.id, g1])
        self._check_walks(p, ys + [a, c])
        for b in ys + [a]:
            st.add_block(HeaderMeta.from_block(b))
        assert {ys[0].id, ys[1].id} <= st.final_set
        assert st.add_block(HeaderMeta.from_block(c))[0] == "stale"


class TestForkedThreads:
    """Settlement on a thread whose total child weight is over the threshold
    although its active blocks are not one chain, so the total overstates
    some block's descendant fitness: finality and staling match the oracle
    after every step."""

    @staticmethod
    def _run(p, blocks):
        engine = CompatibilityState(p)
        oracle = OracleConsensus(p)
        for b in blocks:
            assert engine.add_block(HeaderMeta.from_block(b))[0] == oracle.add_block(b)
            engine.check_invariants()
            snap = oracle.snapshot()
            assert engine.final_set == snap["final"]
            assert engine.stale_set == snap["stale"]
        return engine

    def test_two_roots_neither_deep(self):
        # a1 is final, and a2 and b both name it as their own parent: two
        # active roots whose weights together exceed the threshold of 1
        p = params(t=1, f=1)
        g0 = make_genesis(0).id
        a1 = blk(0, 1, [g0])
        a2 = blk(0, 2, [a1.id])
        a3 = blk(0, 3, [a2.id])
        b = blk(0, 4, [a1.id])
        b1 = blk(0, 5, [b.id])
        st = self._run(p, [a1, a2, a3, b, b1])
        assert st.final_set == {g0, a1.id}
        assert set(st.active) == {a2.id, a3.id, b.id, b1.id}
        assert st.view._thread_weight[0] > st.view.threshold
        assert st.view._deep_blocks() == {}

    def test_chain_forking_above_its_root(self):
        # a1 is the root; b1 and b2 fork on it. a1 is deep, but each clique
        # leaves one branch outside until c1 makes {a1, b1, c1} deep enough
        p = params(t=1, f=1)
        g0 = make_genesis(0).id
        a1 = blk(0, 1, [g0])
        b1 = blk(0, 2, [a1.id])
        b2 = blk(0, 3, [a1.id])
        c1 = blk(0, 4, [b1.id])
        c2 = blk(0, 5, [c1.id])
        st = self._run(p, [a1, b1, b2])
        assert st.final_set == {g0}
        assert st.view._deep_blocks() == {a1.id: 2}
        st = self._run(p, [a1, b1, b2, c1, c2])
        assert a1.id in st.final_set and b2.id in st.stale_set

    def test_forked_thread_beside_a_chain(self):
        # thread 0 forks above its root while thread 1 stays one chain
        p = params(t=2, f=2)
        g0, g1 = make_genesis(0).id, make_genesis(1).id
        x1 = blk(0, 1, [g0, g1])
        y1 = blk(1, 1, [x1.id, g1])
        x2 = blk(0, 2, [x1.id, y1.id])
        x3 = blk(0, 3, [x1.id, y1.id])
        y2 = blk(1, 2, [x2.id, y1.id])
        x4 = blk(0, 4, [x2.id, y2.id])
        y3 = blk(1, 3, [x4.id, y2.id])
        self._run(p, [x1, y1, x2, x3, y2, x4, y3])


class TestSharedHeaders:
    """States that share one ``DagIndex`` still each process only what they
    are fed: a shared index changes no state's statuses, cliques or
    settlement, and it keeps a block live until every state has settled it.
    Handles that have processed the same clean set share its view, and a
    handle copies a view that another holds before changing it."""

    def test_header_in_map_but_not_processed(self):
        p = params()
        index = DagIndex()
        fed = CompatibilityState(p, index=index)
        other = CompatibilityState(p, index=index)
        g0, g1 = fed.genesis_ids
        a = blk(0, 1, [g0, g1])
        child = blk(0, 2, [a.id, g1])
        fed.extend_meta(HeaderMeta.from_block(a))
        assert a.id in index.headers and a.id in index.live
        assert other.status(a.id) is None
        with pytest.raises(UnprocessedParent):
            other.extend_meta(HeaderMeta.from_block(child))
        assert other.extend_meta(HeaderMeta.from_block(a)) == "active"
        assert other.extend_meta(HeaderMeta.from_block(child)) == "active"

    @staticmethod
    def _outcome(st, blocks):
        return ([st.status(b.id) for b in blocks], st.maximal_cliques(),
                st.final_set, st.stale_set)

    def _check_sharing(self, p, blocks, rng):
        orders = [parent_respecting_shuffle(blocks, rng) for _ in range(3)]
        index = DagIndex()
        shared = [CompatibilityState(p, index=index) for _ in orders]
        private = [CompatibilityState(p) for _ in orders]
        for step in range(len(blocks)):
            for order, st, ref in zip(orders, shared, private):
                meta = HeaderMeta.from_block(order[step])
                assert st.add_block(meta) == ref.add_block(meta)
                st.check_invariants()
                assert self._outcome(st, blocks) == self._outcome(ref, blocks)
                # one header object per id, whichever state read it first
                assert all(index.headers[bid] is meta for bid, meta in st.active.items())
                assert st.active.keys() <= index.live.keys()
        # a live block is one that some state has not settled
        for bid in index.live:
            assert any(st.status(bid) in (None, "active") for st in shared)

    def test_views_shared_then_diverge(self):
        # three handles share one view per clean set; a conflicting block
        # puts the first on a private copy that is never published, and
        # the handle that last held the shared view then changes it in place
        p = params(t=1, f=3)
        index = DagIndex()
        handles = [CompatibilityState(p, index=index) for _ in range(3)]
        private = [CompatibilityState(p) for _ in handles]
        g0 = handles[0].genesis_ids[0]
        a1 = blk(0, 1, [g0])
        a2 = blk(0, 2, [a1.id])
        b2 = blk(0, 3, [a1.id])     # thread-incompatible with a2
        blocks = [a1, a2, b2]

        def feed(i, block):
            meta = HeaderMeta.from_block(block)
            assert handles[i].add_block(meta) == private[i].add_block(meta)
            for st, ref in zip(handles, private):
                st.check_invariants()
                assert self._outcome(st, blocks) == self._outcome(ref, blocks)

        assert handles[0].view is handles[1].view is handles[2].view
        for i in range(3):
            feed(i, a1)
        shared = handles[0].view
        assert handles[1].view is handles[2].view is shared and index.published(shared)
        feed(0, a2)
        grown = handles[0].view
        assert grown is not shared and index.published(grown) and handles[1].view is shared
        feed(1, a2)
        assert handles[1].view is grown and grown.holders == 2
        feed(0, b2)
        dirty = handles[0].view
        assert dirty is not grown and not dirty.clean and not index.published(dirty)
        feed(1, b2)
        assert handles[1].view is grown and not index.published(grown) and not grown.clean
        feed(2, b2)
        assert handles[2].view is shared and index.published(shared) and shared.clean
        feed(2, a2)
        assert {id(st.view) for st in handles} == {id(dirty), id(grown), id(shared)}
        assert not index.views

    def test_one_protocol_per_index(self):
        index = DagIndex()
        CompatibilityState(params(t=2), index=index)
        with pytest.raises(ValueError):
            CompatibilityState(params(t=3), index=index)
        with pytest.raises(ValueError):
            CompatibilityState(params(t=2), clique_cap=4, index=index)

    def test_random_instances(self):
        rng = random.Random(41)
        for _ in range(30):
            p, blocks = random_instance(rng, max_blocks=16)
            self._check_sharing(p, blocks, rng)

    def test_honest_instances(self):
        rng = random.Random(43)
        for _ in range(10):
            p, blocks = honest_instance(rng)
            self._check_sharing(p, blocks, rng)

    def test_settled_in_bursts(self):
        # each handle extends by one to three blocks between settlements, so
        # the others settle while its adopted finals are not yet settled in
        # the index, and the first handle to process a block may stale it at
        # admission, before any other has added it to the index. An adopted
        # view is settled, so the private state settles wherever its handle
        # adopts one (CompatibilityState). A handle reports as settled the
        # union of what its private state settled since the handle last did,
        # at those adoptions too
        rng = random.Random(7)
        for i in range(200):
            p, blocks = honest_instance(rng) if i % 4 == 0 else random_instance(rng)
            index = DagIndex()
            runs = []
            for _ in range(3):
                order = parent_respecting_shuffle(blocks, rng)
                bursts = []
                while order:
                    size = rng.randint(1, 3)
                    bursts.append(order[:size])
                    order = order[size:]
                runs.append((CompatibilityState(p, index=index), CompatibilityState(p), bursts))
            for step in range(len(blocks)):     # a burst holds at least one block
                for st, ref, bursts in runs:
                    if step >= len(bursts):
                        continue
                    final, stale = set(), set()
                    for b in bursts[step]:
                        held = st.view
                        meta = HeaderMeta.from_block(b)
                        assert st.extend_meta(meta) == ref.extend_meta(meta)
                        if st.view is not held and index.published(st.view):
                            ref_final, ref_stale = ref.update_finality()
                            final.update(ref_final)
                            stale.update(ref_stale)
                    ref_final, ref_stale = ref.update_finality()
                    got_final, got_stale = st.update_finality()
                    assert set(got_final) == final.union(ref_final)
                    assert set(got_stale) == stale.union(ref_stale)
                    st.check_invariants()
                    assert [st.status(b.id) for b in blocks] == [ref.status(b.id) for b in blocks]
                    assert st.maximal_cliques() == ref.maximal_cliques()


class TestAdoptionPath:
    """The handle's per-step path: each header carries its id's integer, a
    processed block fed again is answered from the view's statuses whatever
    the shared index publishes, and a view's settlement reports per earlier
    tips stay exact across its own finalizations."""

    def test_header_integer_is_the_id(self):
        rng = random.Random(5)
        p, blocks = random_instance(rng, max_blocks=16)
        store = BlockStore(p)
        for b in blocks:
            store.receive(b)
        index = DagIndex()
        CompatibilityState(p, index=index)
        metas = [*index.genesis, *store.headers.values()]
        assert len(metas) == len(blocks) + 2 * p.thread_count
        assert all(m.num == int.from_bytes(m.id, "big") for m in metas)

    def test_refed_header_returns_its_status(self):
        # the other handles move on from the set the first holds, so only
        # the first holds its view. No view is published under the key of a
        # processed set grown by a block it holds, so each processed block
        # fed again is answered by the view, which changes neither in the
        # handle nor in the index's settle counts
        p = params(t=1, f=2)
        index = DagIndex()
        handles = [CompatibilityState(p, index=index) for _ in range(3)]
        metas, parent = [], make_genesis(0).id
        for period in range(1, 6):
            metas.append(HeaderMeta.from_block(blk(0, period, [parent])))
            parent = metas[-1].id
        for st in handles:
            for meta in metas[:4]:
                st.add_block(meta)
        for st in handles[1:]:
            st.add_block(metas[4])
        first = handles[0]
        view, key, settled = first.view, first.view.key, dict(index._settled)
        assert view.holders == 1
        refed = [*first.genesis_ids, *(m.id for m in metas[:4])]
        before = [first.status(bid) for bid in refed]
        assert {"final", "active"} <= set(before)
        for bid, status in zip(refed, before):
            assert first.extend_meta(index.headers[bid]) == status
            assert first.update_finality() == ([], [])
            assert first.view is view and view.key == key and index._settled == settled
        first.check_invariants()
        assert [first.status(bid) for bid in refed] == before

    def test_finals_since_every_earlier_tips(self):
        # one view, finalizing in place, asked for its finals since each
        # earlier tips tuple before and after each finalization
        p = params(t=2, f=2)
        st = CompatibilityState(p)
        g0, g1 = st.genesis_ids
        blocks, parents = [], [g0, g1]
        for period in range(1, 7):
            for tau in range(2):
                b = blk(tau, period, parents)
                parents = [b.id if s == tau else parents[s] for s in range(2)]
                blocks.append(b)
        view = st.view
        history = []    # (tips, final set) after each settlement
        for b in blocks:
            st.add_block(HeaderMeta.from_block(b))
            assert st.view is view
            history.append((view._latest_final, frozenset(view.final_set)))
            for tips, then in history:
                fresh = consensus._slot_order(st.headers, view.final_set - then)
                assert view.finals_since(tips) == fresh
        assert len({id(tips) for tips, _ in history}) > 3 and view.final_set - history[0][1]


class TestReplay:
    def _trace(self, blocks, p):
        buf = io.StringIO()
        write_trace([make_genesis(t) for t in range(p.thread_count)], buf)
        write_trace(blocks, buf)
        buf.seek(0)
        return buf

    def test_fig_two_cliques_reported(self):
        p = params()
        st = CompatibilityState(p)
        g0, g1 = st.genesis_ids
        a, b = blk(0, 1, [g0, g1]), blk(0, 2, [g0, g1])
        records, violations = replay_trace(self._trace([a, b], p), p)
        assert violations == []
        by_id = {r["id"]: r for r in records}
        assert by_id[a.id.hex()]["cliques"] == 1
        assert by_id[b.id.hex()]["cliques"] == 1
        assert {r["status"] for r in records} == {"active"}

    def test_empty_trace(self):
        p = params()
        records, violations = replay_trace(io.StringIO(""), p)
        assert records == [] and violations == []

    def test_unresolved_block_reported(self):
        p = params()
        ghost = bytes(31) + b"\x01"
        orphan = blk(0, 1, [ghost, bytes(32)])
        records, violations = replay_trace(self._trace([orphan], p), p)
        assert violations == []
        assert records[-1]["status"] == "unresolved"

    def test_stored_ids_are_interned(self, monkeypatch):
        # blocks name genesis parents, and c arrives before its parent b, so
        # the waiting pool releases it: every stored header names its parents
        # by the header map's own id objects, not by the trace's copies
        stores, late = [], []

        class RecordingStore(BlockStore):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                stores.append(self)

            def _buffer(self, block, missing):
                late.append(block.id)
                super()._buffer(block, missing)

        monkeypatch.setattr(consensus, "BlockStore", RecordingStore)
        p = params()
        g0, g1 = (make_genesis(t).id for t in range(2))
        a = blk(0, 1, [g0, g1])
        b = blk(1, 1, [a.id, g1])
        c = blk(0, 2, [a.id, b.id])
        d = blk(1, 2, [c.id, b.id])
        records, violations = replay_trace(self._trace([a, c, b, d], p), p)
        assert violations == [] and late == [c.id]
        assert {r["status"] for r in records} == {"active"}
        (store,) = stores
        headers = store.headers
        assert len(headers) == 6 and store.pending_count == 0
        for bid, meta in headers.items():
            assert bid is meta.id
            assert all(pid is headers[pid].id for pid in meta.parents)
            assert meta.own_parent is None or meta.own_parent is headers[meta.own_parent].id

    def test_replay_is_byte_stable(self):
        rng = random.Random(3)
        p, blocks = random_instance(rng, max_blocks=15)
        out1, _ = replay_trace(self._trace(blocks, p), p)
        out2, _ = replay_trace(self._trace(blocks, p), p)
        assert out1 == out2
