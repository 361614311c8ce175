"""Outside-in tracing: spans around calls into the package's public functions.

The tracer patches module and class attributes of ``blockclique`` from the
outside, so nothing under ``src/`` knows it is being measured. Each patched
function opens a span; a span's self time is its duration minus the time of
the spans opened inside it. Spans are aggregated by name as they close
(calls, self time, total time), and a few names also keep every duration so
that percentiles can be taken. ``Tracer.remove`` restores every attribute.
"""

from __future__ import annotations

import heapq
from collections import Counter
from functools import cached_property
from time import perf_counter_ns
from types import SimpleNamespace

from blockclique import chain, cli, consensus, netsim, security, selection


class Tracer:
    def __init__(self):
        self.stack: list[list[int]] = []
        self.stats: dict[str, list[int]] = {}      # name -> [calls, self_ns, total_ns]
        self.samples: dict[str, list[int]] = {}    # name -> every duration, in ns
        self.counts: Counter = Counter()
        self.maxima: dict[str, int] = {}
        self.states: list = []                      # consensus instances built this call
        self._last_cliques: dict[int, object] = {}
        self._sim_cfg = None
        self._last_pop = None
        self._patches: list[tuple[object, str, object]] = []

    # -- spans -------------------------------------------------------------

    def span(self, name: str, fn, *args, **kwargs):
        """Call ``fn`` inside a span called ``name``."""
        frame = [0]
        stats = self.stats.get(name)
        if stats is None:
            stats = self.stats[name] = [0, 0, 0]
        stack = self.stack
        stack.append(frame)
        start = perf_counter_ns()
        try:
            return fn(*args, **kwargs)
        finally:
            dur = perf_counter_ns() - start
            stack.pop()
            stats[0] += 1
            stats[1] += dur - frame[0]
            stats[2] += dur
            if stack:
                stack[-1][0] += dur
            samples = self.samples.get(name)
            if samples is not None:
                samples.append(dur)

    def _patch(self, owner, attr: str, name: str, before=None, after=None) -> None:
        orig = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        span = self.span

        def wrapper(*args, **kwargs):
            if before is not None:
                before(args)
            result = span(name, orig, *args, **kwargs)
            if after is not None:
                after(args, result)
            return result

        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, orig))

    def _bump_max(self, key: str, value: int) -> None:
        if value > self.maxima.get(key, -1):
            self.maxima[key] = value

    # -- installation --------------------------------------------------------

    def install(self) -> None:
        p = self._patch
        cs = consensus.CompatibilityState
        self.samples["consensus.extend"] = []
        p(cs, "__init__", "consensus.init", after=lambda a, r: self.states.append(a[0]))
        p(cs, "extend_meta", "consensus.extend", before=self._before_extend,
          after=self._after_extend)
        p(cs, "update_finality", "consensus.settle")
        p(cs, "maximal_cliques", "consensus.cliques", after=self._after_cliques)
        p(cs, "best_parents", "consensus.best_parents")
        # cli calls its own bindings of replay_trace and analyze
        p(cli, "replay_trace", "consensus.replay")

        p(selection.SelectionOracle, "draw_block_producer", "selection.draw")
        p(selection.SelectionOracle, "draw_endorsers", "selection.draw")

        p(netsim, "run_simulation", "netsim.run", before=self._before_sim,
          after=self._after_sim)
        p(netsim, "build_topology", "netsim.topology")
        probe = SimpleNamespace(heappush=self._heappush, heappop=self._heappop)
        self._patches.append((netsim, "heapq", netsim.heapq))
        netsim.heapq = probe

        block_id = chain.Block.__dict__["id"]
        traced_id = cached_property(
            lambda block: self.span("chain.block_id", block_id.func, block))
        traced_id.__set_name__(chain.Block, "id")
        self._patches.append((chain.Block, "id", block_id))
        chain.Block.id = traced_id
        p(chain, "validate_block_structure", "chain.validate")
        p(chain.BlockStore, "receive", "chain.receive",
          after=lambda a, r: self._bump_max("chain.pending_peak", a[0].pending_count))
        p(chain, "record_to_block", "chain.decode")

        p(cli, "analyze", "security.analyze", after=self._after_analyze)
        p(security, "attack_duration_stats", "security.duration")
        p(security, "newcomer_safety_threshold", "security.threshold")
        p(security, "simulate_attacks", "security.mc",
          after=lambda a, r: self.counts.update({"security.mc.walk_slots": int(r.durations.sum())}))

        p(cli, "main", "cli.main")
        p(cli, "canonical_json", "cli.format")
        p(cli, "write_csv", "cli.format")

    def remove(self) -> None:
        for owner, attr, orig in reversed(self._patches):
            setattr(owner, attr, orig)
        self._patches.clear()

    # -- hooks ---------------------------------------------------------------

    def _before_extend(self, args) -> None:
        self.counts["consensus.active.sum"] += len(args[0].active)

    def _after_extend(self, args, status) -> None:
        if status == consensus.STATUS_STALE:
            self.counts["consensus.extend.stale"] += 1

    def _after_cliques(self, args, cliques) -> None:
        key = id(args[0])
        if self._last_cliques.get(key) is cliques:
            self.counts["consensus.cliques.hits"] += 1
        self._last_cliques[key] = cliques
        self._bump_max("consensus.cliques.max", len(cliques))

    def _before_sim(self, args) -> None:
        self._sim_cfg = args[0]

    def _after_sim(self, args, metrics) -> None:
        self.counts["netsim.transmissions"] += metrics.transmissions
        # the loop pops one event past the horizon and drops it unprocessed
        last = self._last_pop
        if last is not None and last[0] > self._sim_cfg.duration:
            self.counts[f"netsim.pop.{last[2]}"] -= 1
        self._last_pop = None

    def _after_analyze(self, args, record) -> None:
        self._bump_max("security.matrix_order", args[0].span - 1)

    # the simulator's heap entries are (time, seq, kind, a, b)
    def _heappush(self, heap, item) -> None:
        self.counts[f"netsim.push.{item[2]}"] += 1
        heapq.heappush(heap, item)

    def _heappop(self, heap):
        item = heapq.heappop(heap)
        self.counts[f"netsim.pop.{item[2]}"] += 1
        self._last_pop = item
        return item

    # -- per-call bookkeeping ------------------------------------------------

    def end_call(self) -> None:
        """Fold the consensus instances of the finished call into the counts."""
        held = admitted = 0
        for state in self.states:
            settled = len(state.final_set) + len(state.stale_set)
            held += settled
            admitted += len(state.active) + settled - len(state.genesis_ids)
        if self.states:
            self.counts["consensus.states"] += len(self.states)
            self.counts["consensus.settled_ids"] += held
            self.counts["consensus.admitted"] += admitted
        self.states.clear()
        self._last_cliques.clear()


def layer_of(span_name: str) -> str:
    return span_name.split(".", 1)[0]
