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

While a view has edges, admission and finality keep its ranked clique list
rather than enumerate it again. Every maximal independent set containing a
new vertex v is (C minus v's neighbours) plus v for an old maximal set C
(Tsukiyama et al., "A new algorithm for generating all the maximal independent
sets", SIAM J. Comput. 1977); three cases need no search at all:

- An admitted block with no edge joins every clique.
- A false twin, an admitted block with exactly the edges of an active parent
  p, joins exactly the cliques that hold p. It is not adjacent to p (it would
  be stale), so a maximal clique holding p takes it too. One without p holds
  a neighbour of p, which is the block's neighbour. Conversely, a maximal
  clique holding the block holds p, whose neighbours are the block's.
  A block's edges always contain its active parents' edges, so the test is
  one size comparison.
- Finals have no edge, so they lie in every clique, and a settlement that
  finalizes blocks and stales none removes them from each.

Any other admission, any stale removal, and the first edge drop the list. The
list keeps each clique's id sum beside it for the ranking.

Finality needs each active block's descendant fitness. Admission adds a new
block's fitness to the weight of each of its T active parents and to that
parent's thread total, with no walk over ancestors. A block's descendant
fitness is then the sum of the weights over its active own-thread subtree:
the blocks above it in its thread, itself included. Settlement examines only
the threads whose total exceeds the threshold, as no block of another thread
can be deep, with one pass over each from the top, children before parents.

With more than one clique, an edge-free deep block x lies in every clique,
and its descendants outside a clique all have edges, so the final rule
subtracts, per clique, the fitness of the outsiders that descend from x. That
needs no chain walk: an active block y descends from x, of thread τ, exactly
when the period of y's τ-parent q is at least x's period.

- If y descends from x, q covers x, so its period is at least x's.
- Conversely, the finals of τ lie on x's own-thread chain below x: an active
  block never conflicts with a final, and one off that chain would. So a
  final q is below x's period. An active q at or above it that does not
  cover x lies on another branch of τ. The two blocks just above the fork
  point, one on each branch, are thread-incompatible. Neither is stale, as
  x and q are active, nor final, as a block conflicting with a final is
  stale and so are its descendants. So the two share an edge, edges are
  closed under descent, and x would not be edge-free.

Headers must be ancestor-consistent, as structural validation enforces: every
thread-τ ancestor of a block lies on the own-thread chain of its τ-parent, so
the own-thread subtree sums count exactly a block's active descendants. Like
those sums, the descent test assumes validated headers: its proof needs
ancestor consistency and periods that rise along each thread's chain. Consensus
trusts these rules and does not re-check them; ``replay --no-validate`` feeds
unchecked headers. ``check_invariants`` compares the descent test with the
descendants it finds by following parents. The headers' shape
(``chain.shape_violations``) is checked by the block store even without
validation.

Every node of a simulation runs this state machine over the same blocks, and
most nodes process the same sets. A ``CompatibilityState`` is one node's
handle on a ``ConsensusView``, which holds all of the bookkeeping above, and
handles whose processed sets are equal share one view where that is exact.
The ``DagIndex`` publishes views under a key of the processed set S: its size
times 2^256 plus the XOR of its blocks' 256-bit ids, a Zobrist-style hash
(Zobrist, "A New Hashing Method with Application for Game Playing", 1970), in
one integer. Ids are SHA-256 digests, so two sets of one size share a key with
probability 2^-256. A handle extending S by one block first looks up the key
of the grown set and adopts the view published under it, if there is one;
otherwise it extends its own view in place when no other handle holds it, and
a copy when one does. Only a *clean* view is published: settled
(``update_finality`` ran after its last admission), with no edge and no stale
block. Sharing is exact because:

- Cleanliness is a property of S alone. Every edge and every stale block
  stems from a direct conflict between two processed blocks: an edge joins
  the descendants of one; admission stales a block for a stale parent, an
  edge, or a direct conflict with a final block; and the clique rule needs
  two cliques, hence an edge. Conversely, if S holds a directly conflicting
  pair, the later of the two to be processed meets the earlier active (an
  edge, or a stale block), final (admission stales it) or stale. Edges leave
  a view only with a staled block, so a clean view was clean all along.
- In a clean view there are no edges, so there is one clique.
- A settled clean view is a function of S. Descendant fitness only grows as
  blocks are added, and a descendant of an active block is never final, so
  the final blocks are exactly the deep blocks of S: those whose descendants
  in S weigh more than the threshold. The rest of S is active, and weights,
  thread totals, final tips and the clique follow from those two sets. Only
  the insertion order of ``active`` depends on the processing order, and
  nothing reads that order on a clean view.
- So an adopted view equals the view a private state would reach in the
  handle's own order. ``update_finality`` then returns the blocks finalized
  since the handle last asked, each thread's chain from the new final tip
  down to the old one (below). An adoption stales nothing.
- A hit shows the block b unprocessed, so an adoption, most steps of an
  honest run, is a lookup and a holder swap with no status check: were b in
  S, the published set would share its XOR with S minus b while being a
  different set, the 2^-256 collision that the key already assumes.

A view keeps its finals only as per-thread final tips. No two finals conflict,
so none share an own parent, and a final's own parent is final: each thread's
finals form one own-parent chain from its genesis, named by its top. The tip
rule is parent-first: settlement finalizes parent-first within a thread, so
each new final extends the chain and becomes the tip. A block neither active
nor stale is final when its thread's tip covers it (``chain.covers``), and a
copy costs O(T + active), not O(history).

A dirty view is never published: which blocks stale can depend on the order
in which they arrived. A handle that replays a trace owns its index and never
shares a view.

Views come and go on every copy and adoption, but an index's handles stay, so
the index keeps a block live until every handle has settled it there. A handle
settles what its view stales at admission and what its ``update_finality``
returns, whose finals are always ``finals_since`` the final tips it kept at
its last settlement: those its own view or an adopted one finalized since,
each once. Adoption goes from a clean view to a clean view, so the handle had
staled nothing, and finals only grow, so after each ``update_finality`` it has
settled exactly its view's settled blocks. So where every handle is between
settlements, as in the simulator when a block enters the index, a block is
live exactly when some held view has not settled it. In between, the live set
can only be larger, and every reader restricts it to a view's active blocks.
"""

from __future__ import annotations

import logging
import weakref
from collections import Counter
from itertools import compress
from operator import ne
from typing import Iterable, Optional

from .chain import (BlockStore, HeaderMeta, ProtocolParams, covers, incompatible, make_genesis,
                    read_trace)
from .errors import CliqueExplosion, StructuralViolation, UnprocessedParent

log = logging.getLogger(__name__)

STATUS_ACTIVE = "active"
STATUS_FINAL = "final"
STATUS_STALE = "stale"

DEFAULT_CLIQUE_CAP = 1024

# one block in the size part of a processed-set key, above the 256-bit XOR
_ONE_BLOCK = 1 << 256


class DagIndex:
    """The process's header map (``headers``); per live block, the ids of the
    live blocks that directly conflict with it (``conflicts``, kept symmetric
    and sparse); and the consensus views of the handles that share it.

    A block is live from ``add`` until every handle has settled it (module
    docstring): a view's active blocks are all live, so its direct conflicts
    are ``conflicts[b]`` restricted to its active set. Settlement is monotone,
    so dropping a block then is exact. ``threads[τ]`` holds the live thread-τ
    blocks in the order they were added, which is parent-first: a view adds a
    block only after its parents, and an active parent is live.

    ``handles`` holds the handles sharing the index, which share one protocol
    and clique cap; ``views`` maps a processed-set key to the clean view
    published under it (module docstring), held by some handle. The index
    refers to both weakly, so that a finished run's consensus state is freed
    when its handles are, without waiting for the cycle collector."""

    def __init__(self, headers: Optional[dict[bytes, HeaderMeta]] = None):
        self.headers: dict[bytes, HeaderMeta] = {} if headers is None else headers
        self.conflicts: dict[bytes, set[bytes]] = {}
        self.live: dict[bytes, HeaderMeta] = {}
        self.threads: list[dict[bytes, HeaderMeta]] = []
        self.genesis: list[HeaderMeta] = []
        self.rules: Optional[tuple[ProtocolParams, int]] = None
        self.handles: weakref.WeakSet[CompatibilityState] = weakref.WeakSet()
        self.views: dict[int, weakref.ref[ConsensusView]] = {}
        self._handle_count = 0    # never falls: a dead handle keeps its unsettled blocks live
        self._settled: dict[bytes, int] = {}    # id -> handles that settled it, until all have

    def attach(self, handle: CompatibilityState) -> None:
        """Add a handle. The first fixes the rules and builds the genesis
        headers, once per index, as ``covers`` compares headers by identity."""
        rules = (handle.params, handle.clique_cap)
        if self.rules is None:
            self.rules = rules
            for tau in range(handle.params.thread_count):
                g = HeaderMeta.from_block(make_genesis(tau))
                self.genesis.append(self.headers.setdefault(g.id, g))
                self.threads.append({})
        elif rules != self.rules:
            raise ValueError("handles sharing a DagIndex need one protocol and clique cap")
        self.handles.add(handle)
        self._handle_count += 1

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
            x = live.get(pid)
            while x is not None:
                above.add(x.id)
                x = live.get(x.own_parent)
        headers, conflicts = self.headers, self.conflicts
        for xid in live.keys() - above:
            if incompatible(headers, meta, live[xid]):
                conflicts.setdefault(bid, set()).add(xid)
                conflicts.setdefault(xid, set()).add(bid)
        live[bid] = meta
        self.threads[meta.thread][bid] = meta

    def lookup(self, key: int) -> Optional[ConsensusView]:
        """The view published under a processed-set key, if any."""
        ref = self.views.get(key)
        return None if ref is None else ref()

    def published(self, view: ConsensusView) -> bool:
        return self.lookup(view.key) is view

    def publish(self, view: ConsensusView) -> None:
        """Publish a clean, settled view under its key, unless one is."""
        if view.key not in self.views:
            self.views[view.key] = weakref.ref(view)

    def unpublish(self, view: ConsensusView) -> None:
        if self.published(view):
            del self.views[view.key]

    def settle(self, ids: Iterable[bytes]) -> None:
        """One handle has settled these blocks (final or stale), each once; a
        block all have settled leaves the live set, and its conflicts too."""
        settled, conflicts, handles = self._settled, self.conflicts, self._handle_count
        for bid in ids:
            count = settled.get(bid, 0) + 1
            if count < handles:
                settled[bid] = count
                continue
            settled.pop(bid, None)
            del self.threads[self.live.pop(bid).thread][bid]
            for other in conflicts.pop(bid, ()):
                conflicts[other].discard(bid)

    def check_invariants(self) -> None:
        """Recount the sharing layer over the handles; raise AssertionError on
        the first mismatch. Every attached handle is alive, each view's
        ``holders`` counts the handles holding it, and a view held twice is
        published. Every published view is held, clean, settled, and stored
        under its processed set's key. The settle counts match a recount, and
        the live set is exactly the added blocks some handle has not settled."""
        handles = list(self.handles)
        if len(handles) != self._handle_count:
            raise AssertionError(f"{self._handle_count} handles attached, {len(handles)} alive")
        holders = Counter(h.view for h in handles)
        for view, count in holders.items():
            if view.holders != count:
                raise AssertionError(f"a view counts {view.holders} holders, {count} hold it")
            if view.holders > 1 and not self.published(view):
                raise AssertionError("a shared view is not published")
        for key in self.views:
            view = self.lookup(key)
            if view is None or view not in holders:
                raise AssertionError("a published view is not held")
            if not view.clean or view._deep_blocks():
                raise AssertionError("a published view is not clean and settled")
            if key != _set_key(view.processed()):
                raise AssertionError("a published view is stored under a wrong key")
        recount = dict.fromkeys(self.live, 0)
        for h in handles:
            view = h.view
            # finals adopted since the handle last settled are not settled here yet
            unsettled = view.active.keys() | view.finals_since(h._tips)
            for bid in view.processed():
                recount[bid] = recount.get(bid, 0) + (bid not in unsettled)
        for bid, count in recount.items():
            if (count < len(handles)) != (bid in self.live):
                raise AssertionError(f"block {bid.hex()[:16]} is live but settled by every "
                                     "handle, or dropped but unsettled by one")
        if self._settled != {bid: c for bid, c in recount.items() if c and bid in self.live}:
            raise AssertionError("settle counts differ from a recount")


class ConsensusView:
    """The consensus bookkeeping of one processed set, shared by the handles
    that hold it (``holders``) and changed only while one handle does.

    Blocks must be fed in a parent-respecting order (``UnprocessedParent``
    otherwise). Settlement is monotone: once a block is final or stale it
    never moves. The active, final and stale sets partition the processed
    blocks, the finals kept as chains below their tips (module docstring).
    ``key`` is the processed set's key. The view reads its handles'
    ``DagIndex``; a header in the index is not processed until fed."""

    def __init__(self, params: ProtocolParams, clique_cap: int, index: DagIndex):
        self.params = params
        self.threshold = params.finality_threshold
        self.clique_cap = clique_cap
        self.index = index
        self.headers = index.headers
        self.holders = 0
        self.active: dict[bytes, HeaderMeta] = {}
        self._incompat: dict[bytes, set[bytes]] = {}    # only blocks with an edge
        # per active block, the fitness of the active blocks naming it as a
        # parent; per thread, the sum of that over its active blocks, and the
        # threads where that total exceeds the threshold
        self._weight: dict[bytes, int] = {}
        self._thread_weight = [0] * params.thread_count
        self._over: set[int] = set()
        # per thread, the header of its final tip, the last block finalized
        # there; replaced, never changed, so a handle can keep an old one
        self._latest_final: tuple[Optional[HeaderMeta], ...] = (None,) * params.thread_count
        self._finals_memo: tuple = (None, {})
        self.stale_set: set[bytes] = set()
        self._total_fitness = 0
        self._cliques: Optional[list[tuple[frozenset, int]]] = None
        self._id_sums: list[int] = []    # beside a cached list with edges; replaced, never changed
        self.key = _set_key(g.id for g in index.genesis)
        for g in index.genesis:
            index.add(g)
            self._admit(g, all_active=False)

    def copy(self) -> ConsensusView:
        """A copy, held by no handle yet."""
        view = ConsensusView.__new__(ConsensusView)
        view.__dict__.update(self.__dict__)
        view.holders = 0
        view.active = dict(self.active)
        view._incompat = {bid: set(edges) for bid, edges in self._incompat.items()}
        view._weight = dict(self._weight)
        view._thread_weight = list(self._thread_weight)
        view._over = set(self._over)
        view.stale_set = set(self.stale_set)
        return view

    @property
    def clean(self) -> bool:
        """No edge and no stale block: a property of the processed set alone
        (module docstring)."""
        return not self._incompat and not self.stale_set

    @property
    def final_set(self) -> set[bytes]:
        """The final blocks: each thread's chain below its final tip."""
        return set(self._walk_finals((None,) * self.params.thread_count))

    def processed(self) -> list[bytes]:
        return [*self.active, *self.final_set, *self.stale_set]

    # -- queries -------------------------------------------------------------

    def status(self, block_id: bytes) -> Optional[str]:
        if block_id in self.active:
            return STATUS_ACTIVE
        if block_id in self.stale_set:
            return STATUS_STALE
        meta = self.headers.get(block_id)
        tip = meta and self._latest_final[meta.thread]
        if tip and meta.period <= tip.period and covers(self.headers, meta, tip):
            return STATUS_FINAL
        return None

    # -- graph growth ---------------------------------------------------------

    def extend_meta(self, meta: HeaderMeta, key: int) -> str:
        """Insert one unprocessed header whose parents were processed;
        ``key`` is the key of the grown set. Returns the header's status."""
        active, parents = self.active, meta.parents
        # only a parent that is not active can be unprocessed, stale, or a
        # final block that the new one conflicts with
        all_active = all(map(active.__contains__, parents))
        compatible = all_active or self._frontier_compatible(meta)
        self.index.add(meta)
        meta = self.headers[meta.id]
        self.key = key
        if not compatible or not (all_active or self.stale_set.isdisjoint(parents)):
            # a stale parent, or a conflict with an already-final block: can
            # never join the blockclique again
            return self._stale(meta.id)

        incompat = self._incompat
        conflicts: set[bytes] = set()
        if incompat:
            active_parents = parents if all_active else [p for p in parents if p in active]
            for p in active_parents:
                edges = incompat.get(p)
                if edges:
                    conflicts |= edges
            # parents carrying mutual conflicts make the block permanently
            # stale; edges are symmetric, so the parents' edges cover every pair
            if not conflicts.isdisjoint(active_parents):
                return self._stale(meta.id)

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
            # added one by one: a set merged from the parents' edges is sized for their total
            mine = incompat[meta.id] = set()
            for cid in conflicts:
                mine.add(cid)
                incompat.setdefault(cid, set()).add(meta.id)
        self._join_cliques(meta, conflicts)
        return STATUS_ACTIVE

    def _frontier_compatible(self, meta: HeaderMeta) -> bool:
        """Whether no final block directly conflicts with the block; raises
        ``UnprocessedParent`` for a parent the view has not processed.

        Active blocks never conflict with finals (a block only finalizes once
        nothing active conflicts with it), so this needs checking only at
        admission. A final at or below the block's parent in its thread is
        covered by that parent, and an active parent has every final of its
        thread below it. A parent neither active nor stale must be final: the
        walk by id down its thread's chain from the tip meets it, passing the
        finals to test, or reaches genesis, for an unprocessed parent."""
        headers, active, stale = self.headers, self.active, self.stale_set
        above = []
        for tau, pid in enumerate(meta.parents):
            if pid in active or pid in stale:
                continue
            cur = self._latest_final[tau]
            while cur and cur.id != pid:
                above.append(cur)
                cur = headers.get(cur.own_parent)
            if not cur:
                raise UnprocessedParent(f"parent {pid.hex()[:16]} not processed")
        return not any(incompatible(headers, meta, x) for x in above)

    def _stale(self, bid: bytes) -> str:
        self.stale_set.add(bid)
        return STATUS_STALE

    def _admit(self, meta: HeaderMeta, all_active: bool) -> None:
        """Make the block active: its fitness joins the weight of each active
        parent and that parent's thread total, T steps with no chain walk."""
        bid, fit = meta.id, meta.fitness
        weight, totals, threshold = self._weight, self._thread_weight, self.threshold
        for sigma, pid in enumerate(meta.parents):
            if all_active or pid in weight:
                weight[pid] += fit
                total = totals[sigma] = totals[sigma] + fit
                if total > threshold:
                    self._over.add(sigma)
        weight[bid] = 0
        self.active[bid] = meta
        self._total_fitness += fit

    def _join_cliques(self, meta: HeaderMeta, conflicts: set[bytes]) -> None:
        """Keep the cached clique list across the block's admission where
        that needs no search (module docstring), or drop it: a block with no
        edge joins every clique, and one with the edges of an active parent
        joins the cliques that hold that parent. ``conflicts``, the block's
        edges, contains each active parent's."""
        cliques, self._cliques = self._cliques, None
        if cliques is None or not self._incompat:
            return
        twin = None
        if conflicts:
            incompat, size = self._incompat, len(conflicts)
            twin = next((p for p in meta.parents if len(incompat.get(p, ())) == size), None)
            if twin is None:
                return
        bid, fit, num = meta.id, meta.fitness, meta.num
        self._rank((members | {bid}, f + fit, s + num) if twin is None or twin in members
                   else (members, f, s) for (members, f), s in zip(cliques, self._id_sums))

    def _deep_blocks(self) -> dict[bytes, int]:
        """The active blocks whose descendant fitness exceeds the threshold,
        mapped to it, parent-first within each thread.

        A block's descendant fitness is the sum of ``_weight`` over its active
        own-thread subtree, which for ancestor-consistent headers is the
        fitness of its active descendants. It never grows going up a thread
        and never exceeds the thread's total, so only the threads in
        ``_over`` are examined. Each gets one pass over the index's thread
        list from the top, children before parents, which sums every subtree
        and hands it to the block's own parent (``below``; an own parent is
        in its child's thread, so one map serves every thread)."""
        threshold, weight = self.threshold, self._weight
        below: dict[Optional[bytes], int] = {}
        found = []
        for tau in self._over:
            for bid, meta in reversed(self.index.threads[tau].items()):
                w = weight.get(bid)
                if w is not None:
                    d = below.pop(bid, 0) + w
                    below[meta.own_parent] = below.get(meta.own_parent, 0) + d
                    if d > threshold:
                        found.append((bid, d))
        return dict(reversed(found))

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
        if not self._incompat:
            self._cliques = [(frozenset(self.active), self._total_fitness)]
            return self._cliques
        self._rank(self._scored_cliques())
        return self._cliques

    def _scored_cliques(self) -> Iterable[tuple[frozenset, int, int]]:
        """(members, fitness, id sum) of each maximal clique, enumerated."""
        active = self.active
        for members in self._enumerate_cliques():
            yield (members, *_weigh(active, members))

    def _rank(self, scored: Iterable[tuple[frozenset, int, int]]) -> None:
        """Cache the cliques scored as (members, fitness, id sum), ranked."""
        ranked = _ranked(scored)
        self._cliques = [(members, fit) for members, fit, _ in ranked]
        self._id_sums = [s for _, _, s in ranked]

    def _enumerate_cliques(self) -> list[frozenset]:
        """Pivoted Bron-Kerbosch. Blocks without an edge join every clique and
        stay out of the recursion; inside it, a candidate compatible with all
        other candidates is in every maximal clique of its branch, so it is
        taken without branching. Any pivot yields each maximal clique once;
        the one with the fewest edges is the cheap pick."""
        degree = {v: len(edges) for v, edges in self._incompat.items()}
        results: list[frozenset] = []
        self._bron_kerbosch([v for v in self.active if v not in degree], set(degree), set(),
                            degree, results)
        return results

    def _bron_kerbosch(self, r: list, p: set, x: set, degree: dict[bytes, int],
                       results: list[frozenset]) -> None:
        """One branch: clique ``r``, candidates ``p``, excluded ``x``. A
        method rather than a closure, which would refer to itself and leave a
        reference cycle holding the results behind every enumeration."""
        incompat = self._incompat
        free = [v for v in p if p.isdisjoint(incompat[v])]
        r = r + free
        p = p.difference(free)
        for v in free:
            x = x - incompat[v]
        if not p:
            if not x:
                results.append(frozenset(r))
                if len(results) > self.clique_cap:
                    raise CliqueExplosion(f"more than {self.clique_cap} maximal cliques")
            return
        pivot = min(p | x, key=degree.__getitem__)
        ext = p & (incompat[pivot] | {pivot})
        for v in ext:
            edges = incompat[v]
            rest = p - edges
            rest.discard(v)
            self._bron_kerbosch(r + [v], rest, x - edges, degree, results)
            p.discard(v)
            x.add(v)

    @property
    def blockclique(self) -> frozenset:
        """Members of the best-ranked maximal clique."""
        return self.maximal_cliques()[0][0]

    # -- settlement --------------------------------------------------------------

    def update_finality(self) -> list[bytes]:
        """Settle blocks on the current graph snapshot.

        Returns the newly stale ids, sorted in slot order; the newly final
        ones are ``finals_since`` the final tips before the call. Staling
        applies to every block whose best containing clique trails the
        blockclique by strictly more than the finality threshold, plus all its
        active descendants. Finality applies to blocks present in all maximal
        cliques whose in-clique descendants cumulate fitness above the
        threshold. Both rules are evaluated on the same pre-removal snapshot.
        """
        cliques = self.maximal_cliques()
        deep = self._deep_blocks()
        if not deep and len(cliques) == 1:
            return []
        bc_fitness = cliques[0][1]
        threshold = self.threshold
        incompat = self._incompat

        newly_stale: set[bytes] = set()
        cutoff = bc_fitness - threshold
        if len(cliques) > 1 and cliques[-1][1] < cutoff:
            # the blocks that no clique at or above the cutoff holds, as every
            # active block lies in a maximal clique. They are closed under
            # descent: an active descendant y of x has every edge of x and
            # none to x, so each maximal clique holding y holds x, and x's
            # best clique is at least y's
            newly_stale = self.active.keys() - frozenset().union(
                *(members for members, fit in cliques if fit >= cutoff))

        newly_final: list[bytes] = []
        if len(cliques) == 1:
            newly_final = [bid for bid in deep if bid not in incompat]
        else:
            # an edge-free block is in every clique; the fitness of its
            # descendants inside a clique is its exact descendant fitness
            # minus that of those outside, which all have edges. An active y
            # descends from an edge-free active x exactly when y's parent in
            # x's thread is at x's period or above (module docstring)
            headers = self.headers
            outsiders = [[headers[v] for v in incompat if v not in members]
                         for members, _ in cliques]
            for bid, desc in deep.items():
                if bid in newly_stale or bid in incompat:
                    continue
                x = headers[bid]
                tau, period = x.thread, x.period
                for out in outsiders:
                    outside = sum(y.fitness for y in out
                                  if headers[y.parents[tau]].period >= period)
                    if desc - outside > threshold:
                        newly_final.append(bid)
                        break

        if newly_stale or newly_final:
            # removals follow a fixed order, never a set's hash order: stale
            # blocks children first (admission order reversed), finals
            # parent-first
            if newly_stale:
                for bid in [b for b in reversed(self.active) if b in newly_stale]:
                    self._remove(bid, stale=True)
            for bid in newly_final:
                self._remove(bid, stale=False)
            if newly_stale or len(cliques) == 1:
                self._cliques = None
            else:
                # finals have no edge, so they leave every clique
                gone = frozenset(newly_final)
                fit, num = _weigh(self.headers, gone)
                self._rank((members - gone, f - fit, s - num)
                           for (members, f), s in zip(cliques, self._id_sums))

        return _slot_order(self.headers, newly_stale)

    def finals_since(self, before: tuple) -> list[bytes]:
        """The blocks finalized since the per-thread final tips were
        ``before``, in slot order, kept until the view's own tips change per
        ``before`` tuple, keyed by its identity and holding it lest that be
        reused: the handles adopting a view arrive from a few earlier ones."""
        latest, answers = self._finals_memo
        if latest is not self._latest_final:
            latest, answers = self._finals_memo = (self._latest_final, {})
        kept = answers.get(id(before))
        if kept is None:
            kept = answers[id(before)] = (before, self._walk_finals(before))
        return list(kept[1])

    def _walk_finals(self, before: tuple) -> list[bytes]:
        """``finals_since`` unkept: each thread's finals form one own-parent
        chain from its genesis (module docstring), walked down from the tip."""
        latest, headers = self._latest_final, self.headers
        out = []
        for tau in compress(range(len(latest)), map(ne, before, latest)):
            stop = before[tau] and before[tau].id
            bid = latest[tau].id
            while bid != stop:
                out.append(bid)
                bid = headers[bid].own_parent
        return _slot_order(headers, out) if len(out) > 1 else out

    def _remove(self, bid: bytes, stale: bool) -> None:
        """Settle an active block. A final block's parents finalize in the
        same pass (they are edge-free and deeper), so only a stale one takes
        its fitness back from its parents' weights."""
        weight, totals = self._weight, self._thread_weight
        meta = self.active.pop(bid)
        self._total_fitness -= meta.fitness
        incompat = self._incompat
        for other in incompat.pop(bid, ()):
            edges = incompat[other]
            edges.discard(bid)
            if not edges:
                del incompat[other]
        tau = meta.thread
        totals[tau] -= weight.pop(bid)
        if totals[tau] <= self.threshold:
            self._over.discard(tau)
        if stale:
            self.stale_set.add(bid)
            for sigma, pid in enumerate(meta.parents):
                if pid in weight:
                    weight[pid] -= meta.fitness
                    totals[sigma] -= meta.fitness
                    if totals[sigma] <= self.threshold:
                        self._over.discard(sigma)
        else:
            # parent-first, so the block's own parent is the thread's tip
            latest = list(self._latest_final)
            latest[tau] = meta
            self._latest_final = tuple(latest)

    def check_invariants(self) -> None:
        """Recount the bookkeeping from the active headers; raise
        AssertionError on the first mismatch. The active, final and stale
        sets are disjoint; ``_incompat`` is symmetric, joins active blocks
        only, holds no empty edge set, and is closed under descent (an
        active block has every edge of each active parent); ``_weight``, the
        thread totals and ``_over`` match their definitions; and every deep
        block lies in a thread that settlement examines, where
        ``_deep_blocks`` finds it with its exact descendant fitness. For an
        edge-free active x and a non-genesis active y other than x, y
        descends from x exactly when y's parent in x's thread is at x's
        period or above (the final rule's descent test, against descendants
        found by following parents). ``key`` is the processed set's key. A cached
        clique list equals a fresh enumeration, ranked, in members, fitness,
        order and id sums."""
        active, final, stale = self.active, self.final_set, self.stale_set
        if self.key != _set_key(self.processed()):
            raise AssertionError("the view's key differs from its processed set's")
        if not (final.isdisjoint(active) and stale.isdisjoint(active)
                and final.isdisjoint(stale)):
            raise AssertionError("the active, final and stale sets overlap")
        for bid, others in self._incompat.items():
            if bid not in active or not others <= active.keys():
                raise AssertionError(f"edge at inactive block {bid.hex()[:16]}")
            if not others:
                raise AssertionError(f"empty edge set at {bid.hex()[:16]}")
            if any(bid not in self._incompat[o] for o in others):
                raise AssertionError(f"asymmetric edge at {bid.hex()[:16]}")
        for bid, meta in active.items():
            edges = self._incompat.get(bid, set())
            if any(not edges.issuperset(self._incompat.get(p, ())) for p in meta.parents):
                raise AssertionError(f"block {bid.hex()[:16]} lacks an edge of an "
                                     "active parent")
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
        headers = self.headers
        for x in active.values():
            if x.id in self._incompat:
                continue
            below = set(self._descendants({x.id}))
            for y in active.values():
                if y is not x and not y.is_genesis and (
                        (y.id in below) != (headers[y.parents[x.thread]].period >= x.period)):
                    raise AssertionError(f"the descent test fails for {y.id.hex()[:16]} "
                                         f"and edge-free {x.id.hex()[:16]}")
        cliques = self._cliques
        if cliques is not None and self._incompat:
            fresh = _ranked(self._scored_cliques())
            if ([(members, fit) for members, fit, _ in fresh] != cliques
                    or [s for _, _, s in fresh] != self._id_sums):
                raise AssertionError("the cached cliques differ from a re-enumeration")
        elif cliques is not None and cliques != [(frozenset(active), self._total_fitness)]:
            raise AssertionError("the cached clique differs from the active set")

    # -- producer support -----------------------------------------------------

    def best_parents(self) -> list[bytes]:
        """Per thread, the blockclique member with the greatest period (falls
        back to the latest final block of the thread once pruned)."""
        best = list(self._latest_final)
        for bid in self.blockclique:
            meta = self.active[bid]
            cur = best[meta.thread]
            if (cur is None or meta.period > cur.period
                    or meta.period == cur.period and bid > cur.id):
                best[meta.thread] = meta
        out = []
        for tau, entry in enumerate(best):
            if entry is None:
                raise RuntimeError(f"thread {tau} has no candidate parent")
            out.append(entry.id)
        return out


class CompatibilityState:
    """One node's consensus state machine over block headers: a handle on the
    ``ConsensusView`` of the blocks it has processed (``view``), shared with
    the other handles of its ``DagIndex`` where that is exact (module
    docstring). It answers every query exactly as a private state fed the
    same blocks in the same order would, where that state also settles at the
    handle's adoptions, as adopted views are settled; the simulator and
    replay settle after every block. Without an index it owns a private one
    and never shares. A view the last ``extend_meta`` adopted is published
    and settled, so ``update_finality`` takes it as such without a lookup."""

    def __init__(self, params: ProtocolParams, clique_cap: int = DEFAULT_CLIQUE_CAP,
                 index: Optional[DagIndex] = None):
        self.params = params
        self.clique_cap = clique_cap
        self.index = DagIndex() if index is None else index
        self.index.attach(self)
        self.headers = self.index.headers
        self.genesis_ids = [g.id for g in self.index.genesis]
        view = self.index.lookup(_set_key(self.genesis_ids))
        if view is None:
            view = ConsensusView(params, clique_cap, self.index)
            self.index.publish(view)
        view.holders += 1
        self.view = view
        # the view's final tips as of the last settlement
        self._tips = view._latest_final
        self._adopted = False    # the last extend_meta adopted the view

    # -- queries -------------------------------------------------------------

    @property
    def active(self) -> dict[bytes, HeaderMeta]:
        return self.view.active

    @property
    def final_set(self) -> set[bytes]:
        return self.view.final_set

    @property
    def stale_set(self) -> set[bytes]:
        return self.view.stale_set

    def status(self, block_id: bytes) -> Optional[str]:
        return self.view.status(block_id)

    def maximal_cliques(self) -> list[tuple[frozenset, int]]:
        """Maximal cliques of compatible active blocks with their total
        fitness, best first; the first entry is the blockclique
        (``ConsensusView.maximal_cliques``)."""
        return self.view.maximal_cliques()

    @property
    def blockclique(self) -> frozenset:
        """Members of the best-ranked maximal clique."""
        return self.view.blockclique

    def best_parents(self) -> list[bytes]:
        """Per thread, the blockclique member with the greatest period (falls
        back to the latest final block of the thread once pruned)."""
        return self.view.best_parents()

    def check_invariants(self) -> None:
        """The view's invariants, then the sharing layer's."""
        self.view.check_invariants()
        self.index.check_invariants()

    # -- graph growth ---------------------------------------------------------

    def extend_meta(self, meta: HeaderMeta) -> str:
        """Insert one header whose parents were processed; returns its status.
        The header is trusted to be ancestor-consistent (module docstring).
        Adopts the view published for the grown set if there is one, else
        grows its own view, copied first if another handle holds it."""
        view = self.view
        self._adopted = False
        key = (view.key + _ONE_BLOCK) ^ meta.num
        ref = self.index.views.get(key)
        shared = ref and ref()
        if shared is not None:
            # the block was unprocessed (module docstring), the set is clean
            # and the block has no descendant in it, so it is active there
            shared.holders += 1
            view.holders -= 1
            if not view.holders:
                self.index.unpublish(view)
            self.view, self._adopted = shared, True
            return STATUS_ACTIVE
        status = view.status(meta.id)
        if status is not None:
            return status
        if view.holders > 1:
            view.holders -= 1
            view = self.view = view.copy()
            view.holders = 1
        else:
            self.index.unpublish(view)
        status = view.extend_meta(meta, key)
        if status == STATUS_STALE:
            self.index.settle((meta.id,))
        return status

    # -- settlement --------------------------------------------------------------

    def update_finality(self) -> tuple[list[bytes], list[bytes]]:
        """Settle blocks on the current graph snapshot by the rules of
        ``ConsensusView.update_finality``. Returns (newly final, newly stale)
        ids, both sorted in slot order, as a private state would, and settles
        them in the index. The finals are those since the last settlement,
        whether the handle's view or an adopted one finalized them. A
        published view was settled when published and has not changed since;
        a clean view is published once settled."""
        view = self.view
        if self._adopted or self.index.published(view):
            if view._latest_final is self._tips:
                return [], []
            stale = []
        else:
            stale = view.update_finality()
            if view.clean:
                self.index.publish(view)
        final = [] if view._latest_final is self._tips else view.finals_since(self._tips)
        self._tips = view._latest_final
        if final or stale:
            self.index.settle(final + stale)
        return final, stale

    def add_block(self, meta: HeaderMeta) -> tuple[str, list[bytes], list[bytes]]:
        """Extend with one header and settle; the one-call driving loop."""
        status = self.extend_meta(meta)
        if status == STATUS_STALE:
            return status, [], []
        final, stale = self.update_finality()
        if meta.id in self.stale_set:
            status = STATUS_STALE
        return status, final, stale


def _set_key(ids: Iterable[bytes]) -> int:
    """A processed set's key: its size times 2^256 plus the XOR of its ids,
    grown one block at a time as ``CompatibilityState.extend_meta`` does."""
    key = 0
    for bid in ids:
        key = (key + _ONE_BLOCK) ^ int.from_bytes(bid, "big")
    return key


def _slot_order(headers: dict[bytes, HeaderMeta], ids: Iterable[bytes]) -> list[bytes]:
    return sorted(ids, key=lambda bid: (headers[bid].period, headers[bid].thread, bid))


def _weigh(headers: dict[bytes, HeaderMeta], members: Iterable[bytes]) -> tuple[int, int]:
    fit = num = 0
    for m in members:
        meta = headers[m]
        fit += meta.fitness
        num += meta.num
    return fit, num


class _Lexical:
    """Orders cliques by their sorted members, sorting only when compared."""

    __slots__ = ("members",)

    def __init__(self, members: frozenset):
        self.members = members

    def __lt__(self, other: _Lexical) -> bool:
        return sorted(self.members) < sorted(other.members)


def _ranked(scored: Iterable[tuple[frozenset, int, int]]) -> list[tuple[frozenset, int, int]]:
    """Cliques scored as (members, fitness, id sum), best first per the
    blockclique rule. The lexicographic tie-break is computed only where
    fitness and id sum tie."""
    return sorted(scored, key=lambda c: (-c[1], c[2], _Lexical(c[0])))


def replay_trace(fp, params: ProtocolParams, validate: bool = True):
    """Replay a DAG trace file through a fresh consensus instance.

    Yields one record per input block, in input order, after the whole trace
    has been absorbed: ``{"id", "status", "cliques"}`` where status is one of
    active/final/stale/unresolved and ``cliques`` counts the maximal cliques
    containing the block at the end of the replay (the full clique count for
    final blocks, zero for stale or unresolved ones).
    """
    store = BlockStore(params, validate=validate)
    state = CompatibilityState(params, index=DagIndex(store.headers))
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
                state.add_block(store.headers[adm.id])
    violations.extend(store.rejected)
    bad = {bid for bid, _ in violations}
    final, cliques = state.final_set, state.maximal_cliques()
    records = []
    for bid in seen_order:
        status, n = "unresolved", 0
        if bid in bad:
            status = "invalid"
        elif bid in final:
            status, n = STATUS_FINAL, len(cliques)
        elif bid in state.active:
            status, n = STATUS_ACTIVE, sum(bid in members for members, _ in cliques)
        elif bid in state.stale_set:
            status = STATUS_STALE
        records.append({"id": bid.hex(), "status": status, "cliques": n})
    return records, violations
