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

Headers must be ancestor-consistent, as structural validation enforces: every
thread-τ ancestor of a block lies on the own-thread chain of its τ-parent, so
a block's active ancestors are T own-thread walks. Consensus trusts this rule
and does not re-check it; ``replay --no-validate`` feeds unchecked headers.
Their shape (``chain.shape_violations``) is checked by the block store even
then.
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


class DagIndex:
    """The process's header map (``headers``) and, per live block, the ids
    of the live blocks that directly conflict with it (``conflicts``, kept
    symmetric and sparse). A block is live from ``add`` until every state
    sharing the index has settled it: a state's active blocks are all live,
    so its direct conflicts are ``conflicts[b]`` restricted to its active
    set. Settlement is monotone, so dropping a block then is exact."""

    def __init__(self, headers: Optional[dict[bytes, HeaderMeta]] = None):
        self.headers: dict[bytes, HeaderMeta] = {} if headers is None else headers
        self.conflicts: dict[bytes, set[bytes]] = {}
        self.live: dict[bytes, HeaderMeta] = {}
        self._settled: dict[bytes, int] = {}    # id -> states that settled it, until all have
        self._states = 0

    def register(self) -> None:
        """Count one more state that will call ``settle``."""
        self._states += 1

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

    def settle(self, bid: bytes) -> None:
        """One state has settled the block (final or stale); once all have,
        it leaves the live set and its conflicts with it."""
        count = self._settled.get(bid, 0) + 1
        if count < self._states:
            self._settled[bid] = count
            return
        self._settled.pop(bid, None)
        self.live.pop(bid, None)
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
        self.index.register()
        self.headers = self.index.headers
        self.active: dict[bytes, HeaderMeta] = {}
        self._incompat: dict[bytes, set[bytes]] = {}
        self._edge_count = 0
        self._desc_fitness: dict[bytes, int] = {}
        # the active blocks whose descendant fitness exceeds the threshold
        self._deep: dict[bytes, None] = {}
        self._latest_final: list[Optional[tuple[int, bytes]]] = [None] * params.thread_count
        self.final_set: set[bytes] = set()
        self.stale_set: set[bytes] = set()
        self._total_fitness = 0
        self._cliques: Optional[list[tuple[frozenset, int]]] = None
        self.genesis_ids: list[bytes] = []
        for tau in range(params.thread_count):
            g = HeaderMeta.from_block(make_genesis(tau))
            self.index.add(g)
            self.genesis_ids.append(g.id)
            self._admit(self.headers[g.id])

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
        active, final, stale = self.active, self.final_set, self.stale_set
        for p in meta.parents:
            if p not in active and p not in final and p not in stale:
                raise UnprocessedParent(f"parent {p.hex()[:16]} not processed")
        meta = self.headers.setdefault(meta.id, meta)

        if not stale.isdisjoint(meta.parents):
            return self._stale(meta.id)
        if not self._frontier_compatible(meta):
            # in conflict with an already-final block: can never join the
            # blockclique again
            return self._stale(meta.id)

        incompat = self._incompat
        active_parents = [p for p in meta.parents if p in active]
        # parents carrying mutual conflicts make the block permanently stale;
        # edges are symmetric, so one test per parent covers every pair
        for p in active_parents:
            edges = incompat.get(p)
            if edges and not edges.isdisjoint(active_parents):
                return self._stale(meta.id)

        self.index.add(meta)
        mine = self.index.conflicts.get(meta.id)
        direct = {x for x in mine if x in active} if mine else set()

        conflicts: set[bytes] = set()
        for p in active_parents:
            edges = incompat.get(p)
            if edges:
                conflicts |= edges
        # descendants of a direct conflict inherit the new edge; those of a
        # parent's conflict are in that parent's edges already
        seeds = direct - conflicts
        if seeds:
            conflicts |= seeds
            conflicts.update(self._descendants(seeds))
        if conflicts and not conflicts.isdisjoint(meta.parents):
            # incompatible with one of its own parents under the recursive rule
            return self._stale(meta.id)

        self._admit(meta)
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

    def _admit(self, meta: HeaderMeta) -> None:
        bid = meta.id
        self._bump_ancestors(meta, meta.fitness)
        self.active[bid] = meta
        self._desc_fitness[bid] = 0
        self._total_fitness += meta.fitness
        self._cliques = None

    def _bump_ancestors(self, meta: HeaderMeta, delta: int) -> None:
        """Add ``delta`` to the descendant fitness of ``meta``'s active strict
        ancestors, keeping ``_deep`` in step. Per thread they are the active
        top of its parent's own-thread chain, exactly for ancestor-consistent
        headers; the T walks are disjoint, as each stays in its thread."""
        active, desc, deep, threshold = self.active, self._desc_fitness, self._deep, self.threshold
        for pid in meta.parents:
            while pid in active:
                d = desc[pid] = desc[pid] + delta
                if d > threshold:
                    deep[pid] = None
                elif delta < 0:
                    deep.pop(pid, None)
                pid = active[pid].own_parent

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
        desc = self._desc_fitness
        if len(cliques) == 1:
            newly_final = [bid for bid in self._deep if not incompat.get(bid)]
        else:
            # an edge-free block is in every clique; the fitness of its
            # descendants inside a clique is its exact _desc_fitness minus
            # that of those outside, which all have edges. y descends from x
            # iff y's parent in x's thread covers x
            meta_map = self.headers
            outsiders = [[meta_map[v] for v, edges in incompat.items()
                          if edges and v not in members] for members, _ in cliques]
            for bid in self._deep:
                if bid in newly_stale or incompat.get(bid):
                    continue
                x = meta_map[bid]
                for out in outsiders:
                    outside = sum(y.fitness for y in out
                                  if covers(meta_map, x, meta_map[y.parents[x.thread]]))
                    if desc[bid] - outside > threshold:
                        newly_final.append(bid)
                        break

        if newly_stale or newly_final:
            # remove stale descendants before their ancestors so weight
            # decrements still propagate through intermediate blocks
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
        meta = self.active.pop(bid)
        self._total_fitness -= meta.fitness
        edges = self._incompat.pop(bid, None)
        if edges:
            for other in edges:
                oset = self._incompat.get(other)
                if oset is not None:
                    oset.discard(bid)
                    self._edge_count -= 1
        self._desc_fitness.pop(bid, None)
        self._deep.pop(bid, None)
        self.index.settle(bid)
        if stale:
            self.stale_set.add(bid)
            # the block no longer counts toward its ancestors' settled weight
            self._bump_ancestors(meta, -meta.fitness)
        else:
            self.final_set.add(bid)
            cur = self._latest_final[meta.thread]
            if cur is None or (meta.period, bid) > cur:
                self._latest_final[meta.thread] = (meta.period, bid)

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
