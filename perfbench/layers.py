"""Per-layer figures from two traced passes, and the laws they must obey.

Times are the mean of the two passes; counts come from the first pass after
checking that the second repeats them exactly. Each law that does not hold is
a failed check that marks the run incorrect.
"""

from __future__ import annotations

from blockclique import netsim

from tracing import layer_of

LAYERS = ("chain", "selection", "consensus", "security", "netsim", "cli", "bench")

# spans whose calls and self time are reported under their own names
SPANS = (
    "consensus.extend", "consensus.settle", "consensus.cliques", "consensus.best_parents",
    "selection.draw",
    "chain.block_id", "chain.validate", "chain.receive", "chain.decode",
    "security.analyze", "security.duration", "security.threshold", "security.mc",
    "cli.format",
)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _counts(tracer) -> dict:
    """Every deterministic count of one pass."""
    out = {f"{name}.calls": st[0] for name, st in tracer.stats.items()}
    out.update(tracer.counts)
    out.update(tracer.maxima)
    return out


def _self_s(tracer, names) -> float:
    return sum(tracer.stats.get(n, (0, 0, 0))[1] for n in names) / 1e9


def _p99_us(samples: list[int]) -> float:
    if not samples:
        return 0.0
    ordered = sorted(samples)
    return ordered[min(len(ordered) - 1, int(0.99 * len(ordered)))] / 1e3


def layer_metrics(passes, untraced_wall: float, checks) -> dict:
    (first, wall_a), (second, wall_b) = passes
    counts, again = _counts(first), _counts(second)
    differing = sorted(k for k in set(counts) | set(again) if counts.get(k) != again.get(k))
    checks.check(not differing, "deterministic counts differ between the two traced "
                                "passes: " + ", ".join(differing)[:300])
    for tracer, wall in passes:
        total_self = sum(st[1] for st in tracer.stats.values()) / 1e9
        checks.check(abs(total_self - wall) <= 0.01 * wall + 1e-3,
                     f"layer self times add up to {total_self:.4f} s, "
                     f"traced wall time is {wall:.4f} s")
        checks.check(all(st[1] >= 0 for st in tracer.stats.values()),
                     "a span has negative self time")
        checks.check(not tracer.stack, "a span was left open")
    c = counts.get
    extends = c("consensus.extend.calls", 0)
    checks.check(extends == c("consensus.admitted", 0),
                 f"extend_meta calls {extends} differ from admitted headers "
                 f"{c('consensus.admitted', 0)} summed over all nodes")
    arrivals = c(f"netsim.push.{netsim._EV_ARRIVE}", 0)
    checks.check(arrivals == c("netsim.transmissions", 0),
                 "arrival events differ from the reported transmissions")

    def mean_self(names) -> float:
        return (_self_s(first, names) + _self_s(second, names)) / 2

    m: dict[str, tuple[float, str]] = {}
    for name in SPANS:
        m[f"{name}.calls"] = (c(f"{name}.calls", 0), "count")
        m[f"{name}.self_s"] = (mean_self([name]), "s")
    for layer in LAYERS:
        names = [n for n in first.stats if layer_of(n) == layer]
        m[f"{layer}.self_s"] = (mean_self(names), "s")
    m["netsim.topology_s"] = (mean_self(["netsim.topology"]), "s")

    m["consensus.extend.p99_us"] = (
        (_p99_us(first.samples["consensus.extend"])
         + _p99_us(second.samples["consensus.extend"])) / 2, "us")
    m["consensus.extend.stale_frac"] = (_ratio(c("consensus.extend.stale", 0), extends), "ratio")
    m["consensus.active.mean"] = (_ratio(c("consensus.active.sum", 0), extends), "count")
    m["consensus.cliques.hit_frac"] = (
        _ratio(c("consensus.cliques.hits", 0), c("consensus.cliques.calls", 0)), "ratio")
    m["consensus.cliques.max"] = (c("consensus.cliques.max", 0), "count")
    m["consensus.settled_ids_per_node"] = (
        _ratio(c("consensus.settled_ids", 0), c("consensus.states", 0)), "count")

    arrived = c(f"netsim.pop.{netsim._EV_ARRIVE}", 0)
    m["netsim.transmissions"] = (c("netsim.transmissions", 0), "count")
    m["netsim.wasted_tx_frac"] = (
        _ratio(arrived - c(f"netsim.push.{netsim._EV_PROCESS}", 0), arrived), "ratio")
    m["chain.pending_peak"] = (c("chain.pending_peak", 0), "count")
    m["security.matrix_order"] = (c("security.matrix_order", 0), "count")
    m["security.mc.walk_slots"] = (c("security.mc.walk_slots", 0), "count")

    traced_wall = (wall_a + wall_b) / 2
    m["trace.wall_s"] = (traced_wall, "s")
    m["trace.overhead_frac"] = (_ratio(traced_wall, untraced_wall) - 1.0, "ratio")
    return {name: {"value": value, "unit": unit} for name, (value, unit) in sorted(m.items())}
