"""Incremental compatibility graph, maximal-clique enumeration, blockclique
selection, and final/stale settlement.

Two blocks conflict when they are thread-incompatible (same thread, same
own-thread parent), grandpa-incompatible (neither covers the other's parent in
its own thread), or when either descends from a block in conflict with the
other. The first two are the direct conflicts, and ``chain.incompatible`` is
their one predicate. Direct conflicts are facts about two headers, the same
at every node, so a ``DagIndex`` computes a block's once, when the block
enters it, and every state sharing the index reads them; the final-frontier
check calls the predicate itself. Inherited conflicts are materialized as
explicit edges at admission time, which keeps the incompatibility graph
transitively closed under descent: a block's edge set always contains every
edge of its parents, so the recursive compatibility definition reduces to
local edge checks.

Maximal cliques of compatible blocks are enumerated as maximal independent
sets of the (sparse) incompatibility graph via pivoted Bron-Kerbosch on the
complement. The conflict-free common case short-circuits to a single clique.

Finality needs each active block's descendant fitness. Admission adds a new
block's fitness to the weight of each of its T active parents and to that
parent's thread total, with no walk over ancestors. A block's descendant
fitness is then the sum of the weights over its active own-thread subtree:
the blocks above it in its thread, itself included. Settlement examines only
the threads whose total exceeds the threshold, as no block of another thread
can be deep. On a thread whose active blocks form one chain it walks up from
the root, subtracting weights.

Headers must be ancestor-consistent, as structural validation enforces: every
thread-τ ancestor of a block lies on the own-thread chain of its τ-parent, so
the own-thread subtree sums count exactly a block's active descendants.
Consensus trusts this rule and does not re-check it; ``replay --no-validate``
feeds unchecked headers. Their shape (``chain.shape_violations``) is checked
by the block store even then.
"""

from __future__ import annotations

import logging
from typing import Iterable, Optional

from .chain import (Block, BlockStore, HeaderMeta, ProtocolParams, covers, incompatible,
                    make_genesis, read_trace)
from .errors import CliqueExplosion, StructuralViolation, UnprocessedParent

log = logging.getLogger(__name__)

STATUS_ACTIVE = "active"
STATUS_FINAL = "final"
STATUS_STALE = "stale"

DEFAULT_CLIQUE_CAP = 1024

# a thread's ``CompatibilityState._tip`` when its active blocks are not one chain
_FORKED = object()


class DagIndex:
    """The process's header map (``headers``) and, per live block, the ids
    of the live blocks that directly conflict with it (``conflicts``, kept
    symmetric and sparse). A block is live from ``add`` until every state
    sharing the index has settled it: a state's active blocks are all live,
    so its direct conflicts are ``conflicts[b]`` restricted to its active
    set. Settlement is monotone, so dropping a block then is exact.
    ``threads[τ]`` holds the live thread-τ blocks in the order they were
    added, which is parent-first: a state adds a block only after its
    parents, and an active parent is live."""

    def __init__(self, headers: Optional[dict[bytes, HeaderMeta]] = None):
        self.headers: dict[bytes, HeaderMeta] = {} if headers is None else headers
        self.conflicts: dict[bytes, set[bytes]] = {}
        self.live: dict[bytes, HeaderMeta] = {}
        self.threads: list[dict[bytes, HeaderMeta]] = []
        self._genesis: list[HeaderMeta] = []
        self._settled: dict[bytes, int] = {}    # id -> states that settled it, until all have
        self._states = 0

    def register(self, thread_count: int) -> list[HeaderMeta]:
        """Count one more state that will call ``settle``, and return the
        genesis headers of its threads. They are built once per index and
        shared, as ``covers`` compares headers by identity."""
        self._states += 1
        gs = self._genesis
        while len(gs) < thread_count:
            g = HeaderMeta.from_block(make_genesis(len(gs)))
            gs.append(self.headers.setdefault(g.id, g))
            self.threads.append({})
        return gs[:thread_count]

    def add(self, meta: HeaderMeta) -> None:
        """Record a block's direct conflicts with the live blocks, in both
        directions; a no-op for a live block. The walk down its own-thread
        parent chains skips its live ancestors: an ancestor x never directly
        conflicts with it, as its parent in x's thread is x or above x, so it
        covers x.own_parent and differs from it."""
        bid = meta.id
        live = self.live
        if bid in live:
            return
        meta = self.headers.setdefault(bid, meta)
        above = set()
        for pid in meta.parents:
            while pid in live:
                above.add(pid)
                pid = live[pid].own_parent
        headers, conflicts = self.headers, self.conflicts
        for x in live.values():
            if x.id not in above and incompatible(headers, meta, x):
                conflicts.setdefault(bid, set()).add(x.id)
                conflicts.setdefault(x.id, set()).add(bid)
        live[bid] = meta
        self.threads[meta.thread][bid] = meta

    def settle(self, bid: bytes) -> None:
        """One state has settled the block (final or stale); once all have,
        it leaves the live set and its conflicts with it."""
        count = self._settled.get(bid, 0) + 1
        if count < self._states:
            self._settled[bid] = count
            return
        self._settled.pop(bid, None)
        meta = self.live.pop(bid, None)
        if meta is not None:
            del self.threads[meta.thread][bid]
        for other in self.conflicts.pop(bid, ()):
            self.conflicts[other].discard(bid)


class CompatibilityState:
    """Single-owner consensus state machine over block headers.

    Blocks must be fed in a parent-respecting order (``UnprocessedParent``
    otherwise). Settlement is monotone: once a block id lands in the final or
    stale set it never moves. The active, final and stale sets partition the
    blocks this state has processed. It reads a ``DagIndex`` (shared by a
    simulation's states), or owns a private one; a header in the index is not
    processed until fed.
    """

    def __init__(self, params: ProtocolParams, clique_cap: int = DEFAULT_CLIQUE_CAP,
                 index: Optional[DagIndex] = None):
        self.params = params
        self.threshold = params.finality_threshold
        self.clique_cap = clique_cap
        self.index = DagIndex() if index is None else index
        genesis = self.index.register(params.thread_count)
        self.headers = self.index.headers
        self.active: dict[bytes, HeaderMeta] = {}
        self._incompat: dict[bytes, set[bytes]] = {}
        self._edge_count = 0
        # per active block, the fitness of the active blocks naming it as a
        # parent; per thread, the sum of that over its active blocks, and the
        # threads where that total exceeds the threshold
        self._weight: dict[bytes, int] = {}
        self._thread_weight = [0] * params.thread_count
        self._over: set[int] = set()
        # per thread, the top of its active blocks while they form one
        # own-parent chain, None while it has none, else _FORKED
        self._tip: list = [None] * params.thread_count
        self._latest_final: list[Optional[tuple[int, bytes]]] = [None] * params.thread_count
        self.final_set: set[bytes] = set()
        self.stale_set: set[bytes] = set()
        self._total_fitness = 0
        self._cliques: Optional[list[tuple[frozenset, int]]] = None
        self.genesis_ids = [g.id for g in genesis]
        for g in genesis:
            self.index.add(g)
            self._admit(g, all_active=False)

    # -- queries -------------------------------------------------------------

    def status(self, block_id: bytes) -> Optional[str]:
        if block_id in self.final_set:
            return STATUS_FINAL
        if block_id in self.stale_set:
            return STATUS_STALE
        if block_id in self.active:
            return STATUS_ACTIVE
        return None

    # -- graph growth ---------------------------------------------------------

    def extend(self, block: Block) -> str:
        """Insert one structurally valid block; returns its resulting status."""
        return self.extend_meta(HeaderMeta.from_block(block))

    def extend_meta(self, meta: HeaderMeta) -> str:
        """Insert one header whose parents were processed; returns its status.
        The header is trusted to be ancestor-consistent (module docstring)."""
        status = self.status(meta.id)
        if status is not None:
            return status
        active, parents = self.active, meta.parents
        # only a parent that is not active can be unprocessed, stale, or a
        # final block that the new one conflicts with
        all_active = all(map(active.__contains__, parents))
        if not all_active:
            final, stale = self.final_set, self.stale_set
            for p in parents:
                if p not in active and p not in final and p not in stale:
                    raise UnprocessedParent(f"parent {p.hex()[:16]} not processed")
        meta = self.headers.setdefault(meta.id, meta)
        if not all_active and (not stale.isdisjoint(parents)
                               or not self._frontier_compatible(meta)):
            # a stale parent, or a conflict with an already-final block: can
            # never join the blockclique again
            return self._stale(meta.id)

        incompat = self._incompat
        conflicts: set[bytes] = set()
        if self._edge_count:
            active_parents = parents if all_active else [p for p in parents if p in active]
            for p in active_parents:
                edges = incompat.get(p)
                if edges:
                    conflicts |= edges
            # parents carrying mutual conflicts make the block permanently
            # stale; edges are symmetric, so the parents' edges cover every pair
            if not conflicts.isdisjoint(active_parents):
                return self._stale(meta.id)

        self.index.add(meta)
        direct = self.index.conflicts.get(meta.id)
        if direct:
            # descendants of a direct conflict inherit the new edge; those of
            # a parent's conflict are in that parent's edges already
            seeds = {x for x in direct if x in active and x not in conflicts}
            if seeds:
                conflicts |= seeds
                conflicts.update(self._descendants(seeds))
        if conflicts and not conflicts.isdisjoint(parents):
            # incompatible with one of its own parents under the recursive rule
            return self._stale(meta.id)

        self._admit(meta, all_active)
        if conflicts:
            mine = incompat.setdefault(meta.id, set())
            for cid in conflicts:
                if cid not in mine:
                    mine.add(cid)
                    incompat.setdefault(cid, set()).add(meta.id)
                    self._edge_count += 1
        return STATUS_ACTIVE

    def _frontier_compatible(self, meta: HeaderMeta) -> bool:
        """Whether no settled-final block directly conflicts with the block.

        Active blocks never conflict with finals (a block only finalizes once
        nothing active conflicts with it), so this needs checking only at
        admission. A final block at or below the block's parent in its thread
        is covered by that parent and cannot conflict. An active parent has
        every final of its thread below it; above a final parent, the finals
        to test are the walk down from its thread's final tip to it. A walk
        that reaches genesis without meeting the parent (only unvalidated
        headers make one) counts as a conflict."""
        headers = self.headers
        final = self.final_set
        for tau, pid in enumerate(meta.parents):
            if pid not in final:
                continue
            cur = headers[self._latest_final[tau][1]]
            while cur.id != pid:
                if cur.is_genesis or incompatible(headers, meta, cur):
                    return False
                cur = headers[cur.own_parent]
        return True

    def _stale(self, bid: bytes) -> str:
        self.stale_set.add(bid)
        self.index.settle(bid)
        return STATUS_STALE

    def _admit(self, meta: HeaderMeta, all_active: bool) -> None:
        """Make the block active: its fitness joins the weight of each active
        parent and that parent's thread total, T steps with no chain walk."""
        bid, fit, tau = meta.id, meta.fitness, meta.thread
        weight, totals, threshold = self._weight, self._thread_weight, self.threshold
        for sigma, pid in enumerate(meta.parents):
            if all_active or pid in weight:
                weight[pid] += fit
                total = totals[sigma] = totals[sigma] + fit
                if total > threshold:
                    self._over.add(sigma)
        weight[bid] = 0
        self.active[bid] = meta
        tip = self._tip[tau]
        if tip is None:
            self._tip[tau] = bid
        elif tip is not _FORKED:
            self._tip[tau] = bid if meta.own_parent == tip else _FORKED
        self._total_fitness += fit
        self._cliques = None

    def _chain_tip(self, tau: int):
        """Thread τ's ``_tip`` recounted from its active blocks, which the
        index lists parent-first: they form one chain exactly when each names
        the one before it as its own-thread parent."""
        active = self.active
        tip = None
        for bid, meta in self.index.threads[tau].items():
            if bid in active:
                if tip is not None and meta.own_parent != tip:
                    return _FORKED
                tip = bid
        return tip

    def _deep_blocks(self) -> dict[bytes, int]:
        """The active blocks whose descendant fitness exceeds the threshold,
        mapped to it, parent-first within each thread.

        A block's descendant fitness is the sum of ``_weight`` over its active
        own-thread subtree, which for ancestor-consistent headers is the
        fitness of its active descendants. It never grows going up a thread
        and never exceeds the thread's total, so only the threads in
        ``_over`` are examined, in the index's parent-first order. On a
        chain, the walk up from its root subtracts each block's weight and
        stops at the first block that is not deep; on any other thread, one
        pass from the top sums each subtree."""
        threshold = self.threshold
        deep: dict[bytes, int] = {}
        active, weight = self.active, self._weight
        for tau in self._over:
            if self._tip[tau] is not _FORKED:
                total = self._thread_weight[tau]
                for bid in self.index.threads[tau]:
                    if bid in active:
                        deep[bid] = total
                        total -= weight[bid]
                        if total <= threshold:
                            break
                continue
            below: dict[Optional[bytes], int] = {}
            found = []
            for bid in reversed(self.index.threads[tau]):
                if bid in active:
                    d = below.pop(bid, 0) + weight[bid]
                    own = active[bid].own_parent
                    below[own] = below.get(own, 0) + d
                    if d > threshold:
                        found.append((bid, d))
            deep.update(reversed(found))
        return deep

    def _descendants(self, seeds: set[bytes]) -> list[bytes]:
        """Ids of active blocks having an active seed as a strict ancestor,
        in one pass over ``active``. Its insertion order is parent-first, as
        a block is admitted after its parents, and a path between two active
        blocks runs through active blocks only: ancestors of an active block
        are never stale, and descendants of one are never final."""
        reach = set(seeds)
        out: list[bytes] = []
        for bid, meta in self.active.items():
            if not reach.isdisjoint(meta.parents):
                reach.add(bid)
                out.append(bid)
        return out

    # -- cliques ---------------------------------------------------------------

    def maximal_cliques(self) -> list[tuple[frozenset, int]]:
        """Maximal cliques of compatible active blocks with their total
        fitness, sorted best-first per the blockclique rule: maximum total
        fitness, ties broken by the smaller big-integer sum of member ids,
        then lexicographically. The first entry is the blockclique."""
        if self._cliques is not None:
            return self._cliques
        if not self.active:
            self._cliques = [(frozenset(), 0)]
            return self._cliques
        if self._edge_count == 0:
            self._cliques = [(frozenset(self.active), self._total_fitness)]
            return self._cliques
        cliques = self._enumerate_cliques()
        ranked = sorted(
            ((members, sum(self.active[m].fitness for m in members))
             for members in cliques),
            key=lambda c: (-c[1], _id_sum(c[0]), tuple(sorted(c[0]))),
        )
        self._cliques = ranked
        return ranked

    def _enumerate_cliques(self) -> list[frozenset]:
        """Pivoted Bron-Kerbosch. Blocks without an edge join every clique and
        stay out of the recursion; inside it, a candidate compatible with all
        other candidates is in every maximal clique of its branch, so it is
        taken without branching. Any pivot yields each maximal clique once;
        the one with the fewest edges is the cheap pick."""
        incompat = self._incompat
        degree = {v: len(edges) for v, edges in incompat.items() if edges}
        results: list[frozenset] = []
        cap = self.clique_cap

        def bk(r: list, p: set, x: set) -> None:
            free = [v for v in p if p.isdisjoint(incompat[v])]
            r = r + free
            p = p.difference(free)
            for v in free:
                x = x - incompat[v]
            if not p:
                if not x:
                    results.append(frozenset(r))
                    if len(results) > cap:
                        raise CliqueExplosion(f"more than {cap} maximal cliques")
                return
            pivot = min(p | x, key=degree.__getitem__)
            ext = p & (incompat[pivot] | {pivot})
            for v in ext:
                edges = incompat[v]
                rest = p - edges
                rest.discard(v)
                bk(r + [v], rest, x - edges)
                p.discard(v)
                x.add(v)

        bk([v for v in self.active if v not in degree], set(degree), set())
        return results

    @property
    def blockclique(self) -> frozenset:
        """Members of the best-ranked maximal clique."""
        return self.maximal_cliques()[0][0]

    # -- settlement --------------------------------------------------------------

    def update_finality(self) -> tuple[list[bytes], list[bytes]]:
        """Settle blocks on the current graph snapshot.

        Returns (newly final, newly stale) ids, both sorted in slot order.
        Staling applies to every block whose best containing clique trails the
        blockclique by strictly more than the finality threshold, plus all its
        active descendants. Finality applies to blocks present in all maximal
        cliques whose in-clique descendants cumulate fitness above the
        threshold. Both rules are evaluated on the same pre-removal snapshot.
        """
        cliques = self.maximal_cliques()
        deep = self._deep_blocks()
        if not deep and len(cliques) == 1:
            return [], []
        bc_fitness = cliques[0][1]
        threshold = self.threshold
        incompat = self._incompat

        newly_stale: set[bytes] = set()
        if len(cliques) > 1:
            best_fit: dict[bytes, int] = {}
            for members, fit in cliques:
                for m in members:
                    if fit > best_fit.get(m, -1):
                        best_fit[m] = fit
            cutoff = bc_fitness - threshold
            newly_stale = {bid for bid in self.active if best_fit.get(bid, 0) < cutoff}
            if newly_stale:
                newly_stale.update(self._descendants(newly_stale))

        newly_final: list[bytes] = []
        if len(cliques) == 1:
            newly_final = [bid for bid in deep if not incompat.get(bid)]
        else:
            # an edge-free block is in every clique; the fitness of its
            # descendants inside a clique is its exact descendant fitness
            # minus that of those outside, which all have edges. y descends
            # from x iff y's parent in x's thread covers x
            meta_map = self.headers
            outsiders = [[meta_map[v] for v, edges in incompat.items()
                          if edges and v not in members] for members, _ in cliques]
            for bid, desc in deep.items():
                if bid in newly_stale or incompat.get(bid):
                    continue
                x = meta_map[bid]
                for out in outsiders:
                    outside = sum(y.fitness for y in out
                                  if covers(meta_map, x, meta_map[y.parents[x.thread]]))
                    if desc - outside > threshold:
                        newly_final.append(bid)
                        break

        if newly_stale or newly_final:
            # stale descendants go before their ancestors and finals
            # parent-first, so that each removal takes the top or the root of
            # a chain and leaves its thread a chain
            if newly_stale:
                for bid in [b for b in reversed(self.active) if b in newly_stale]:
                    self._remove(bid, stale=True)
            for bid in newly_final:
                self._remove(bid, stale=False)
            self._cliques = None

        headers = self.headers
        order = lambda bid: (headers[bid].period, headers[bid].thread, bid)
        return sorted(newly_final, key=order), sorted(newly_stale, key=order)

    def _remove(self, bid: bytes, stale: bool) -> None:
        """Settle an active block. A final block's parents finalize in the
        same pass (they are edge-free and deeper), so only a stale one takes
        its fitness back from its parents' weights."""
        active, weight, totals = self.active, self._weight, self._thread_weight
        meta = active.pop(bid)
        self._total_fitness -= meta.fitness
        edges = self._incompat.pop(bid, None)
        if edges:
            for other in edges:
                oset = self._incompat.get(other)
                if oset is not None:
                    oset.discard(bid)
                    self._edge_count -= 1
        tau = meta.thread
        totals[tau] -= weight.pop(bid)
        if totals[tau] <= self.threshold:
            self._over.discard(tau)
        tip = self._tip[tau]
        if tip == bid:
            self._tip[tau] = meta.own_parent if meta.own_parent in active else None
        elif tip is _FORKED or meta.own_parent in active:
            # a forked thread may now be one chain; a chain loses a middle
            # block only if it is split in two
            self._tip[tau] = self._chain_tip(tau)
        self.index.settle(bid)
        if stale:
            self.stale_set.add(bid)
            for sigma, pid in enumerate(meta.parents):
                if pid in weight:
                    weight[pid] -= meta.fitness
                    totals[sigma] -= meta.fitness
                    if totals[sigma] <= self.threshold:
                        self._over.discard(sigma)
        else:
            self.final_set.add(bid)
            cur = self._latest_final[tau]
            if cur is None or (meta.period, bid) > cur:
                self._latest_final[tau] = (meta.period, bid)

    def check_invariants(self) -> None:
        """Recount the bookkeeping from the active headers; raise
        AssertionError on the first mismatch. The active, final and stale
        sets are disjoint; ``_incompat`` is symmetric, joins active blocks
        only, and holds ``_edge_count`` edges; ``_weight``, the thread totals,
        ``_over`` and ``_tip`` match their definitions; and every deep block
        lies in a thread that settlement examines, where ``_deep_blocks``
        finds it with its exact descendant fitness."""
        active, final, stale = self.active, self.final_set, self.stale_set
        if not (final.isdisjoint(active) and stale.isdisjoint(active)
                and final.isdisjoint(stale)):
            raise AssertionError("the active, final and stale sets overlap")
        ends = 0
        for bid, others in self._incompat.items():
            if bid not in active or not others <= active.keys():
                raise AssertionError(f"edge at inactive block {bid.hex()[:16]}")
            if any(bid not in self._incompat[o] for o in others):
                raise AssertionError(f"asymmetric edge at {bid.hex()[:16]}")
            ends += len(others)
        if ends != 2 * self._edge_count:
            raise AssertionError(f"{ends} edge ends for {self._edge_count} edges")
        weight = dict.fromkeys(active, 0)
        for meta in active.values():
            for pid in meta.parents:
                if pid in weight:
                    weight[pid] += meta.fitness
        if weight != self._weight:
            raise AssertionError("_weight differs from a recount")
        totals = [0] * self.params.thread_count
        for bid, w in weight.items():
            totals[active[bid].thread] += w
        if totals != self._thread_weight:
            raise AssertionError("thread totals differ from a recount")
        for tau in range(self.params.thread_count):
            blocks = [m for m in active.values() if m.thread == tau]
            roots = [m for m in blocks if m.own_parent not in active]
            named = [m.own_parent for m in blocks if m.own_parent in active]
            tops = [m.id for m in blocks if m.id not in named]
            if not blocks:
                tip = None
            elif len(roots) == 1 and len(set(named)) == len(named):
                tip = tops[0]
            else:
                tip = _FORKED
            if self._tip[tau] != tip:
                raise AssertionError(f"thread {tau}'s chain tip is wrong")
        desc = dict(weight)
        for bid in reversed(active):     # children before parents
            own = active[bid].own_parent
            if own in desc:
                desc[own] += desc[bid]
        deep = {bid: d for bid, d in desc.items() if d > self.threshold}
        if self._over != {tau for tau, total in enumerate(totals) if total > self.threshold}:
            raise AssertionError("_over differs from a recount")
        if any(active[bid].thread not in self._over for bid in deep):
            raise AssertionError("a thread holding a deep block is not examined")
        if self._deep_blocks() != deep:
            raise AssertionError("_deep_blocks differs from a recount")

    # -- producer support -----------------------------------------------------

    def best_parents(self) -> list[bytes]:
        """Per thread, the blockclique member with the greatest period (falls
        back to the latest final block of the thread once pruned)."""
        bc = self.blockclique
        best: list[Optional[tuple[int, bytes]]] = list(self._latest_final)
        for bid in bc:
            meta = self.active[bid]
            cur = best[meta.thread]
            if cur is None or (meta.period, bid) > cur:
                best[meta.thread] = (meta.period, bid)
        out = []
        for tau, entry in enumerate(best):
            if entry is None:
                raise RuntimeError(f"thread {tau} has no candidate parent")
            out.append(entry[1])
        return out

    def add_block(self, block: Block) -> tuple[str, list[bytes], list[bytes]]:
        """Extend with one block and settle; the one-call driving loop."""
        status = self.extend(block)
        if status == STATUS_STALE:
            return status, [], []
        final, stale = self.update_finality()
        if block.id in self.stale_set:
            status = STATUS_STALE
        return status, final, stale


def _id_sum(members: Iterable[bytes]) -> int:
    total = 0
    for m in members:
        total += int.from_bytes(m, "big")
    return total


def replay_trace(fp, params: ProtocolParams, oracle=None, validate: bool = True,
                 clique_cap: int = DEFAULT_CLIQUE_CAP):
    """Replay a DAG trace file through a fresh consensus instance.

    Yields one record per input block, in input order, after the whole trace
    has been absorbed: ``{"id", "status", "cliques"}`` where status is one of
    active/final/stale/unresolved and ``cliques`` counts the maximal cliques
    containing the block at the end of the replay (the full clique count for
    final blocks, zero for stale or unresolved ones).
    """
    store = BlockStore(params, oracle=oracle, validate=validate)
    state = CompatibilityState(params, clique_cap=clique_cap, index=DagIndex(store.headers))
    seen_order: list[bytes] = []
    violations: list[tuple[bytes, list[str]]] = []
    for block in read_trace(fp):
        if block.is_genesis:
            if block.id in state.genesis_ids:
                continue
            violations.append((block.id, ["non-canonical genesis block"]))
            seen_order.append(block.id)
            continue
        seen_order.append(block.id)
        try:
            admitted = store.receive(block)
        except StructuralViolation as e:
            violations.append((block.id, e.violations))
            continue
        for adm in admitted:
            if not adm.is_genesis:
                state.add_block(adm)
    violations.extend(store.rejected)
    bad = {bid for bid, _ in violations}
    cliques = state.maximal_cliques()
    records = []
    for bid in seen_order:
        if bid in bad:
            records.append({"id": bid.hex(), "status": "invalid", "cliques": 0})
            continue
        status = state.status(bid)
        if status is None:
            records.append({"id": bid.hex(), "status": "unresolved", "cliques": 0})
        elif status == STATUS_ACTIVE:
            n = sum(1 for members, _ in cliques if bid in members)
            records.append({"id": bid.hex(), "status": status, "cliques": n})
        elif status == STATUS_FINAL:
            records.append({"id": bid.hex(), "status": status, "cliques": len(cliques)})
        else:
            records.append({"id": bid.hex(), "status": status, "cliques": 0})
    return records, violations
