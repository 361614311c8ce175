"""Deterministic discrete-event simulation of a random peer-to-peer network of
consensus nodes, in two halves that meet only in ``run_simulation``.

``network_schedule`` is the network half, on a virtual clock (a priority
queue of (time, sequence) events, so identical configurations give
bit-identical runs). Per slot, the selected producer (unless it misses)
creates a full synthetic block and relays it; a copy queues on the sender's
sequential upload channel, then costs size/bandwidth plus the link latency,
and its receiver pays a verification delay (time only) before processing
and relaying it. The schedule yields each processing step, numbering blocks
densely in creation order, and reads no block id, header or consensus state.
``run_simulation`` is the consensus half: it builds each block on its
producer's best parents and feeds every step to that node's handle.

The schedule cannot depend on consensus: every (time, sequence) key is
unique, so no event's payload is compared; slot times are fixed, and
producers and misses come from the seed; every block is full and costs the
same to verify; and a node relays a block before consensus processes it. A
withholding attacker would break this, as its release times depend on its
own consensus state: an attacked run will need the schedule to take release
events back from ``run_simulation``.

A node's consensus state needs a block's parents before the block itself, and
the event order guarantees it without any out-of-order buffer: each upload
channel is a FIFO queue, a node relays a block only after processing it, and
verification costs the same for every block. So a parent reaches every node's
processing step before its child, and a break in that order raises
``UnprocessedParent`` instead of going unnoticed.

Holder flags, one per node, record who holds each block some node lacks;
relay, the channel and arrival skip a copy for a holder. They are dropped
once every node holds the block, when every queued copy would be skipped
anyway. A transmission reserves two sequence numbers, for the send-done that
frees its channel and for its arrival. The send-done enters the heap only
when a transmission waits on it: at once if the channel's queue is not
empty, else when a relay queues there before the send-done's key; after it,
the channel is free, as the send-done would have popped with nothing to
send. So every event with an effect keeps its (time, sequence) key.

Headers and their direct conflicts are facts every node agrees on: the
run's one ``DagIndex`` holds them, so a block's direct conflicts are computed
once. Each node's consensus state is a handle; nodes that have processed the
same conflict-free set share one view of it (``consensus`` module
docstring), so in an honest run most calls adopt a view already computed.
"""

from __future__ import annotations

import hashlib
import heapq
import logging
import math
import struct
from collections import deque
from dataclasses import dataclass, field, replace
from typing import Mapping, Optional

import numpy as np

from .chain import (Block, Endorsement, HeaderMeta, ProtocolParams, Slot, check_number,
                    field_values, slot_timestamp)
from .consensus import CompatibilityState, DagIndex
from .errors import TopologyError
from .selection import SelectionOracle

log = logging.getLogger(__name__)

DEFAULT_HEADER_BITS = 6720

_EV_SLOT = 0
_EV_ARRIVE = 1
_EV_PROCESS = 2
_EV_SEND_DONE = 3
_FREE = (-math.inf, -1)    # a free channel's send-done, below every event's key


@dataclass(frozen=True)
class SimConfig:
    node_count: int = 128
    mean_bandwidth: float = 32e6        # bits/s
    mean_latency: float = 0.100         # seconds
    protocol: ProtocolParams = field(default_factory=ProtocolParams)
    miss_rate: float = 0.0
    header_size: int = DEFAULT_HEADER_BITS
    tx_size: int = 1040
    block_verify_time: float = 0.050
    tx_verify_time: float = 0.000025
    duration: float = 600.0
    seed: int = 0
    endorsements_enabled: bool = False

    def __post_init__(self):
        for name, low in (("node_count", 1), ("header_size", 0), ("tx_size", 1),
                          ("seed", -math.inf)):
            check_number(name, getattr(self, name), integral=True, low=low)
        check_number("mean_bandwidth", self.mean_bandwidth, integral=False, low=0, open_low=True)
        check_number("miss_rate", self.miss_rate, integral=False, low=0, high=1)
        # a negative delay would void the parent-first argument (module docstring)
        for name in ("mean_latency", "block_verify_time", "tx_verify_time", "duration"):
            check_number(name, getattr(self, name), integral=False, low=0)
        if not isinstance(self.protocol, ProtocolParams):
            raise ValueError(f"protocol must be ProtocolParams, got {self.protocol!r}")
        if not isinstance(self.endorsements_enabled, bool):
            raise ValueError(f"endorsements_enabled must be a bool, "
                             f"got {self.endorsements_enabled!r}")

    @property
    def tx_per_block(self) -> int:
        """Transactions fitting in a full block beside the header (and the
        endorsements, when those are simulated)."""
        payload = self.protocol.max_block_size - self.header_size
        if self.endorsements_enabled:
            payload -= self.protocol.endorsement_slots * self.tx_size
        if payload < 0:
            raise ValueError("header does not fit in the block size")
        return payload // self.tx_size

    @property
    def warmup(self) -> float:
        """Metrics ignore blocks created during the first settlement spans."""
        p = self.protocol
        return 2.0 * p.finality * p.slot_interval / p.thread_count

    @classmethod
    def from_dict(cls, d: Mapping) -> "SimConfig":
        kwargs = field_values(cls, d, "config")
        if "protocol" in kwargs:
            kwargs["protocol"] = ProtocolParams.from_dict(kwargs["protocol"])
        return cls(**kwargs)


_OVERRIDE_ALIASES = {"N": "node_count", "B": "mean_bandwidth", "L": "mean_latency",
                     "mu": "miss_rate", "S_H": "header_size", "S_tx": "tx_size"}
_PROTOCOL_ALIASES = {"T": "thread_count", "t0": "slot_interval", "S_B": "max_block_size",
                     "F": "finality", "E": "endorsement_slots"}


def apply_overrides(cfg: SimConfig, overrides: Mapping[str, str]) -> SimConfig:
    """Apply ``key=value`` overrides; keys accept both field names and the
    short protocol aliases (N, B, L, T, t0, S_B, F, E, mu, C_B, ...)."""
    cfg_kwargs: dict = {}
    proto_kwargs: dict = {}
    bitrate = None
    for key, raw in overrides.items():
        if key == "C_B":
            bitrate = float(raw)
        elif _PROTOCOL_ALIASES.get(key, key) in ProtocolParams.__dataclass_fields__:
            proto_kwargs[_PROTOCOL_ALIASES.get(key, key)] = raw
        elif _OVERRIDE_ALIASES.get(key, key) in SimConfig.__dataclass_fields__:
            cfg_kwargs[_OVERRIDE_ALIASES.get(key, key)] = raw
        else:
            raise KeyError(f"unknown override {key!r}")
    proto = cfg.protocol
    if proto_kwargs:
        proto = replace(proto, **{name: _parse(raw, type(getattr(proto, name)))
                                  for name, raw in proto_kwargs.items()})
    if bitrate is not None:
        proto = replace(proto, max_block_size=int(
            bitrate * proto.slot_interval / proto.thread_count))
    parsed = {name: raw if name == "protocol" else _parse(raw, type(getattr(cfg, name)))
              for name, raw in cfg_kwargs.items()}
    if proto is not cfg.protocol:
        parsed["protocol"] = proto
    return replace(cfg, **parsed)


def _parse(raw, kind):
    if isinstance(raw, kind):
        return raw
    if kind is bool:
        return str(raw).lower() in ("1", "true", "yes", "on")
    return kind(float(raw)) if kind is int else kind(raw)


@dataclass
class NetworkTopology:
    """Random peer graph. ``successors`` lists the links each node initiates
    (out-degree floor(4 b / B)); messages flow both ways over a link, so the
    relay fan-out of a node is ``peers`` (initiated plus accepted links) with
    the symmetric per-link latency."""

    bandwidths: list[float]             # per-node upload bits/s
    successors: list[list[int]]
    latencies: list[list[float]]        # aligned with successors
    peers: list[list[int]]
    peer_latency: list[dict[int, float]]
    resampled: int = 0


def _derive_seed(seed: int, label: str) -> int:
    digest = hashlib.sha256(label.encode() + struct.pack(">Q", seed & (2**64 - 1))).digest()
    return int.from_bytes(digest[:8], "big")


def _miss_draw(seed: int, slot: Slot, index: int) -> float:
    msg = b"blockclique.sim.miss.v1" + struct.pack(
        ">QIQI", seed & (2**64 - 1), slot.thread, slot.period, index)
    return int.from_bytes(hashlib.sha256(msg).digest()[:8], "big") / 2.0 ** 64


def build_topology(cfg: SimConfig, max_retries: int = 100) -> NetworkTopology:
    """Random peer graph: node upload bandwidth uniform in [B/2, 3B/2], each
    node initiates floor(4 b / B) links to distinct random peers, per-link
    latency uniform in [0, 2 L]. Disconnected samples are redrawn."""
    n = cfg.node_count
    if n < 2:
        raise TopologyError("need at least two nodes")
    rng = np.random.default_rng(np.random.PCG64(_derive_seed(cfg.seed, "blockclique.sim.topology")))
    b_mean = cfg.mean_bandwidth
    for attempt in range(max_retries):
        bandwidths = b_mean / 2.0 + rng.random(n) * b_mean
        successors: list[list[int]] = []
        latencies: list[list[float]] = []
        for u in range(n):
            degree = min(int(4.0 * bandwidths[u] / b_mean), n - 1)
            others = np.concatenate([np.arange(u), np.arange(u + 1, n)])
            succ = rng.choice(others, size=degree, replace=False)
            successors.append([int(s) for s in succ])
            latencies.append([float(x) for x in rng.random(degree) * 2.0 * cfg.mean_latency])
        peers, peer_latency = _link_graph(n, successors, latencies)
        if _connected(n, peers):
            if attempt:
                log.info("topology connected after %d resample(s)", attempt)
            return NetworkTopology([float(b) for b in bandwidths], successors,
                                   latencies, peers, peer_latency, resampled=attempt)
    raise TopologyError(f"no weakly connected topology within {max_retries} draws")


def _link_graph(n: int, successors: list[list[int]],
                latencies: list[list[float]]) -> tuple[list[list[int]], list[dict[int, float]]]:
    peer_latency: list[dict[int, float]] = [{} for _ in range(n)]
    for u, succ in enumerate(successors):
        for j, v in enumerate(succ):
            # keep the first latency drawn when both ends initiated a link
            if v not in peer_latency[u]:
                peer_latency[u][v] = latencies[u][j]
                peer_latency[v][u] = latencies[u][j]
    peers = [list(peer_latency[u]) for u in range(n)]
    return peers, peer_latency


def _connected(n: int, peers: list[list[int]]) -> bool:
    seen = bytearray(n)
    stack = [0]
    seen[0] = 1
    count = 1
    while stack:
        u = stack.pop()
        for v in peers[u]:
            if not seen[v]:
                seen[v] = 1
                count += 1
                stack.append(v)
    return count == n


@dataclass
class SimMetrics:
    throughput: float
    stale_rate: float
    confirmation_time: Optional[float]
    t_half: Optional[float]
    blocks_produced: int
    blocks_final: int
    blocks_stale: int
    blocks_active: int
    slots_scheduled: int
    slots_missed: int
    tx_per_block: int
    warmup: float
    max_processing_lag: float
    max_clique_count: int
    transmissions: int
    block_records: Optional[list] = None    # populated on request, not serialized
    propagation: Optional[list] = None

    def to_dict(self) -> dict:
        return {k: v for k, v in self.__dict__.items()
                if k not in ("block_records", "propagation")}


@dataclass
class NetworkStats:
    """The network half's measures: per block, by number, its creation time,
    when half the nodes held it and, if ``arrivals`` starts as a list, every
    (node, arrival time); then the run's totals."""

    created: list[float] = field(default_factory=list)
    half_at: list[Optional[float]] = field(default_factory=list)
    arrivals: Optional[list[list[tuple[int, float]]]] = None
    slots_scheduled: int = 0
    slots_missed: int = 0
    transmissions: int = 0
    max_lag: float = 0.0


def network_schedule(cfg: SimConfig, net: Optional[NetworkStats] = None):
    """Yield every processing step of a run in event order, as (time, node,
    block number, slot where the node creates the block, else None), and
    record the run's measurements in ``net`` (module docstring)."""
    net = NetworkStats() if net is None else net
    params = cfg.protocol
    topo = build_topology(cfg)
    oracle = SelectionOracle(_derive_seed(cfg.seed, "blockclique.sim.selection"),
                             cfg.node_count)
    miss_seed = _derive_seed(cfg.seed, "blockclique.sim.miss")
    n = cfg.node_count
    send_queue: list[deque] = [deque() for _ in range(n)]
    half_needed = math.ceil(n / 2)
    # bound at call time: a tracer may swap this module's ``heapq``
    heappush, heappop = heapq.heappush, heapq.heappop

    created, half_at, arrivals = net.created, net.half_at, net.arrivals
    holders: list[int] = []
    have: list[Optional[bytearray]] = []    # per block some node lacks, who holds it
    max_lag = 0.0
    slots_missed = 0
    transmissions = 0

    wire_extra = params.endorsement_slots * cfg.tx_size if cfg.endorsements_enabled else 0
    wire_bits = params.max_block_size + wire_extra    # every simulated block is full
    send_time = [wire_bits / b for b in topo.bandwidths]
    links = [list(peer_lat.items()) for peer_lat in topo.peer_latency]    # in ``peers`` order
    # per sender, the send-done entry held back for the transmission on its
    # channel, None once it is in the heap, or _FREE
    held: list = [_FREE] * n
    verify_cost = cfg.block_verify_time + cfg.tx_per_block * cfg.tx_verify_time

    heap: list[tuple] = []
    seq = 0
    for period in range(1, int(cfg.duration / params.slot_interval) + 1):
        for tau in range(params.thread_count):
            slot = Slot(tau, period)
            ts = slot_timestamp(slot, params)
            if ts <= cfg.duration:
                heappush(heap, (ts, seq, _EV_SLOT, slot, None))
                seq += 1
    net.slots_scheduled = seq

    def start_send(sender: int, now: float) -> None:
        nonlocal seq, transmissions
        q = send_queue[sender]
        while q:
            dst, lat, k, flags = q.popleft()
            if flags[dst]:
                continue
            done = now + send_time[sender]
            transmissions += 1
            entry = (done, seq, _EV_SEND_DONE, sender, None)
            heappush(heap, (done + lat, seq + 1, _EV_ARRIVE, dst, k))
            seq += 2
            if q:
                heappush(heap, entry)
                entry = None
            held[sender] = entry
            return
        held[sender] = _FREE

    while heap:
        now, cur, kind, a, k = heappop(heap)
        if now > cfg.duration:
            break
        if kind == _EV_ARRIVE:
            flags = have[k]
            if flags is None or flags[a]:
                continue
            flags[a] = 1
            count = holders[k] + 1
            holders[k] = count
            if count == half_needed:
                half_at[k] = now
            if count == n:
                have[k] = None
            if arrivals is not None:
                arrivals[k].append((a, now))
            heappush(heap, (now + verify_cost, seq, _EV_PROCESS, a, k))
            seq += 1
            continue
        if kind == _EV_SEND_DONE:
            start_send(a, now)
            continue
        if kind == _EV_PROCESS:
            node, slot = a, None
            lag = now - created[k]
            if lag > max_lag:
                max_lag = lag
        else:
            slot = a
            if cfg.miss_rate > 0.0 and _miss_draw(miss_seed, slot, 0) < cfg.miss_rate:
                slots_missed += 1
                continue
            node = oracle.draw_block_producer(slot)
            k = len(created)
            created.append(now)
            holders.append(1)
            have.append(bytearray(n))
            have[k][node] = 1
            half_at.append(now if half_needed <= 1 else None)
            if arrivals is not None:
                arrivals.append([(node, now)])
        # relay: queue the block for each link peer missing it (module docstring)
        flags = have[k]
        if flags is not None:
            q = send_queue[node]
            for dst, lat in links[node]:
                if not flags[dst]:
                    q.append((dst, lat, k, flags))
            entry = held[node]
            if q and entry is not None:
                if entry < (now, cur):
                    start_send(node, now)
                else:
                    heappush(heap, entry)
                    held[node] = None
        yield now, node, k, slot
    net.slots_missed, net.transmissions, net.max_lag = slots_missed, transmissions, max_lag


def run_simulation(cfg: SimConfig, collect_blocks: bool = False,
                   collect_propagation: bool = False) -> SimMetrics:
    """Run the full network simulation and measure it, driving every node's
    consensus handle over ``network_schedule(cfg)``. ``collect_blocks``
    attaches one record per measured block; ``collect_propagation`` attaches
    every (node, arrival time) pair per block for offline plotting."""
    params = cfg.protocol
    index = DagIndex()
    headers = index.headers
    states = [CompatibilityState(params, index=index) for _ in range(cfg.node_count)]
    endorsing = cfg.endorsements_enabled and params.endorsement_slots
    oracle = SelectionOracle(_derive_seed(cfg.seed, "blockclique.sim.selection"), cfg.node_count)
    miss_seed = _derive_seed(cfg.seed, "blockclique.sim.miss")
    tx_count = cfg.tx_per_block
    metas: list[HeaderMeta] = []    # by block number
    settle: dict[bytes, tuple[str, float]] = {}   # at the creating node
    max_cliques = 1

    net = NetworkStats(arrivals=[] if collect_propagation else None)
    for now, node, k, slot in network_schedule(cfg, net):
        state = states[node]
        if slot is not None:
            parents = tuple(state.best_parents())
            endorsers = oracle.draw_endorsers(slot, params.endorsement_slots) if endorsing else ()
            endorsements = tuple(
                Endorsement(parents[slot.thread], slot, i, endorser)
                for i, endorser in enumerate(endorsers)
                if cfg.miss_rate == 0.0 or _miss_draw(miss_seed, slot, i + 1) >= cfg.miss_rate)
            block = Block(slot=slot, creator=node, parents=parents,
                          endorsements=endorsements, size_bits=params.max_block_size,
                          tx_count=tx_count)
            metas.append(HeaderMeta.from_block(block))
            index.add(metas[k])
        state.extend_meta(metas[k])
        final, stale = state.update_finality()
        cliques = len(state.maximal_cliques())
        if cliques > max_cliques:
            max_cliques = cliques
        if final or stale:
            for verdict, settled in (("final", final), ("stale", stale)):
                for bid in settled:
                    meta = headers[bid]
                    if meta.creator == node and not meta.is_genesis and bid not in settle:
                        settle[bid] = (verdict, now)

    # -- measurements over blocks created after the warm-up -------------------
    warmup = cfg.warmup
    created, half_at = net.created, net.half_at
    scope = [k for k, t in enumerate(created) if t >= warmup]
    verdicts = [settle.get(metas[k].id, (None, None)) for k in scope]
    conf_times = [when - created[k] for k, (verdict, when) in zip(scope, verdicts)
                  if verdict == "final"]
    halves = [None if half_at[k] is None else half_at[k] - created[k] for k in scope]
    half_times = [h for h in halves if h is not None]
    produced, finals = len(scope), len(conf_times)
    stales = sum(verdict == "stale" for verdict, _ in verdicts)
    span = cfg.duration - warmup
    metrics = SimMetrics(
        throughput=finals * tx_count / span if span > 0 else 0.0,
        stale_rate=stales / produced if produced else 0.0,
        confirmation_time=sum(conf_times) / len(conf_times) if conf_times else None,
        t_half=sum(half_times) / len(half_times) if half_times else None,
        blocks_produced=produced,
        blocks_final=finals,
        blocks_stale=stales,
        blocks_active=produced - finals - stales,
        slots_scheduled=net.slots_scheduled,
        slots_missed=net.slots_missed,
        tx_per_block=tx_count,
        warmup=warmup,
        max_processing_lag=net.max_lag,
        max_clique_count=max_cliques,
        transmissions=net.transmissions,
    )
    if collect_blocks:
        metrics.block_records = [
            {"id": metas[k].id.hex(), "thread": metas[k].thread, "period": metas[k].period,
             "created": created[k], "half_propagation": half, "settled": when,
             "status": verdict or "active"}
            for k, half, (verdict, when) in zip(scope, halves, verdicts)]
    if collect_propagation:
        metrics.propagation = [{"id": metas[k].id.hex(), "created": created[k],
                                "arrivals": [[u, t] for u, t in net.arrivals[k]]}
                               for k in scope]
    return metrics
