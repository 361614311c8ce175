"""Independent consensus oracle for cross-checking the incremental engine.

Everything here is recomputed from scratch at every step with deliberately
naive algorithms: pairwise compatibility by direct recursive evaluation of the
definition (no materialized inheritance), maximal cliques by subset
enumeration, settlement from the definitions. It shares no code path with the
engine beyond the block header fields.
"""

from __future__ import annotations

from itertools import combinations

from blockclique.chain import HeaderMeta


class OracleConsensus:
    def __init__(self, params):
        self.params = params
        self.threshold = params.finality_threshold
        self.meta: dict[bytes, HeaderMeta] = {}
        self.active: list[bytes] = []
        self.final: set[bytes] = set()
        self.stale: set[bytes] = set()
        from blockclique.chain import make_genesis
        for tau in range(params.thread_count):
            g = HeaderMeta.from_block(make_genesis(tau))
            self.meta[g.id] = g
            self.active.append(g.id)

    # -- path / incompatibility predicates, straight from the definitions ----

    def _path(self, a: bytes, b: bytes) -> bool:
        ma, mb = self.meta[a], self.meta[b]
        if ma.thread != mb.thread:
            return False
        cur = mb
        while cur.period > ma.period:
            cur = self.meta[cur.own_parent]
        return cur.id == a

    def _ti(self, a: bytes, b: bytes) -> bool:
        ma, mb = self.meta[a], self.meta[b]
        return (not ma.is_genesis and not mb.is_genesis and a != b
                and ma.thread == mb.thread and ma.own_parent == mb.own_parent)

    def _gpi(self, a: bytes, b: bytes) -> bool:
        ma, mb = self.meta[a], self.meta[b]
        if ma.is_genesis or mb.is_genesis or a == b:
            return False
        if self._path(ma.own_parent, mb.parents[ma.thread]):
            return False
        if self._path(mb.own_parent, ma.parents[mb.thread]):
            return False
        return True

    def _compatible(self, a: bytes, b: bytes, memo: dict) -> bool:
        """Recursive compatibility over the current head graph: not
        thread/grandpa incompatible, and compatible with each other's active
        parents. Settled-final parents impose no constraint."""
        if a == b:
            return True
        key = (a, b) if a < b else (b, a)
        cached = memo.get(key)
        if cached is not None:
            return cached
        ma, mb = self.meta[a], self.meta[b]
        ok = not self._ti(a, b) and not self._gpi(a, b)
        if ok and not mb.is_genesis:
            for p in mb.parents:
                if p in self.active_set and not self._compatible(a, p, memo):
                    ok = False
                    break
        if ok and not ma.is_genesis:
            for p in ma.parents:
                if p in self.active_set and not self._compatible(p, b, memo):
                    ok = False
                    break
        memo[key] = ok
        return ok

    # -- cliques by subset enumeration ----------------------------------------

    def _cliques(self, memo: dict) -> list[frozenset]:
        ids = list(self.active)
        conflict: dict[bytes, set[bytes]] = {i: set() for i in ids}
        for a, b in combinations(ids, 2):
            if not self._compatible(a, b, memo):
                conflict[a].add(b)
                conflict[b].add(a)
        universal = [i for i in ids if not conflict[i]]
        conflicted = [i for i in ids if conflict[i]]
        if not conflicted:
            return [frozenset(ids)]
        base = frozenset(universal)
        # every conflict-free subset of the conflicted blocks, grown one block
        # at a time: a subset holding a conflicting pair is never extended,
        # as no superset of it is conflict-free
        subsets: list[list[bytes]] = [[]]
        for v in conflicted:
            subsets += [s + [v] for s in subsets if not any(u in conflict[v] for u in s)]
        out = []
        for chosen in subsets:
            chosen_set = set(chosen)
            maximal = True
            for v in conflicted:
                if v in chosen_set:
                    continue
                if not (conflict[v] & chosen_set):
                    maximal = False
                    break
            if maximal:
                out.append(base | chosen_set)
        return out

    def _fitness(self, members) -> int:
        return sum(self.meta[m].fitness for m in members)

    @staticmethod
    def _id_sum(members) -> int:
        return sum(int.from_bytes(m, "big") for m in members)

    def _best(self, cliques: list[frozenset]) -> frozenset:
        return min(cliques, key=lambda c: (-self._fitness(c), self._id_sum(c),
                                           tuple(sorted(c))))

    # -- ancestry -------------------------------------------------------------

    def _ancestors(self, bid: bytes) -> set[bytes]:
        out: set[bytes] = set()
        stack = list(self.meta[bid].parents)
        while stack:
            p = stack.pop()
            if p in out:
                continue
            out.add(p)
            stack.extend(self.meta[p].parents)
        return out

    # -- one protocol step ------------------------------------------------------

    def add_block(self, block) -> str:
        meta = HeaderMeta.from_block(block)
        self.meta[meta.id] = meta
        self.active_set = set(self.active)
        if any(p in self.stale for p in meta.parents):
            self.stale.add(meta.id)
            return "stale"
        # conflicting with any settled-final block is terminal (finals are
        # forever part of the blockclique)
        for f in self.final:
            if self._ti(meta.id, f) or self._gpi(meta.id, f):
                self.stale.add(meta.id)
                return "stale"
        memo: dict = {}
        discard = False
        for p1, p2 in combinations([p for p in meta.parents if p in self.active_set], 2):
            if not self._compatible(p1, p2, memo):
                discard = True
                break
        if not discard:
            self.active.append(meta.id)
            self.active_set.add(meta.id)
            memo = {}
            for p in set(meta.parents):
                if p in self.active_set and not self._compatible(meta.id, p, memo):
                    discard = True
                    break
            if discard:
                self.active.remove(meta.id)
                self.active_set.discard(meta.id)
        if discard:
            self.stale.add(meta.id)
            return "stale"
        self._settle()
        return "stale" if meta.id in self.stale else "active"

    def _settle(self) -> None:
        memo: dict = {}
        self.active_set = set(self.active)
        cliques = self._cliques(memo)
        best = self._best(cliques)
        best_fitness = self._fitness(best)
        cutoff = best_fitness - self.threshold

        newly_stale: set[bytes] = set()
        if len(cliques) > 1:
            for bid in self.active:
                top = max(self._fitness(c) for c in cliques if bid in c)
                if top < cutoff:
                    newly_stale.add(bid)
            for bid in self.active:
                if bid not in newly_stale and self._ancestors(bid) & newly_stale:
                    newly_stale.add(bid)

        newly_final: list[bytes] = []
        for bid in self.active:
            if bid in newly_stale:
                continue
            if not all(bid in c for c in cliques):
                continue
            for c in cliques:
                weight = sum(self.meta[x].fitness for x in c
                             if x != bid and bid in self._ancestors(x))
                if weight > self.threshold:
                    newly_final.append(bid)
                    break

        for bid in newly_stale:
            self.active.remove(bid)
            self.stale.add(bid)
        for bid in newly_final:
            self.active.remove(bid)
            self.final.add(bid)

    # -- observables ------------------------------------------------------------

    def snapshot(self) -> dict:
        self.active_set = set(self.active)
        memo: dict = {}
        cliques = self._cliques(memo)
        return {
            "cliques": {frozenset(c) for c in cliques},
            "blockclique": frozenset(self._best(cliques)),
            "final": set(self.final),
            "stale": set(self.stale),
        }
