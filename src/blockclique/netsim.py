"""Deterministic discrete-event simulation of a random peer-to-peer network of
consensus nodes.

The engine runs on a virtual clock: a priority queue of (time, sequence)
events replaces wall-clock execution, so identical configurations yield
bit-identical metrics. Per slot, the selected producer (unless it misses)
builds a full synthetic block on its local best parents and relays it;
deliveries queue on the sender's sequential upload channel, then cost
size/bandwidth plus the edge latency. Receivers pay a verification delay
before updating their consensus state and forwarding. Verification is modeled
as a time cost only; blocks are honest by construction and are not
re-validated at every node.

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

Headers and their direct conflicts are facts every node agrees on: a run
keeps one ``DagIndex``, filled as blocks are created, that every node's
consensus state reads, so a block's direct conflicts are computed once. Each
node's state is a handle, called once per block it processes; nodes that
have processed the same conflict-free set share one consensus view of it
(``consensus`` module docstring), so in an honest run most calls adopt a view
another node has already computed.
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

from .chain import Block, Endorsement, HeaderMeta, ProtocolParams, Slot, slot_timestamp
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
        kwargs = {k: d[k] for k in cls.__dataclass_fields__ if k in d and k != "protocol"}
        if "protocol" in d:
            kwargs["protocol"] = ProtocolParams.from_dict(d["protocol"])
        return cls(**kwargs)


_OVERRIDE_ALIASES = {
    "N": "node_count",
    "B": "mean_bandwidth",
    "L": "mean_latency",
    "mu": "miss_rate",
    "S_H": "header_size",
    "S_tx": "tx_size",
}
_PROTOCOL_ALIASES = {
    "T": "thread_count",
    "t0": "slot_interval",
    "S_B": "max_block_size",
    "F": "finality",
    "E": "endorsement_slots",
}


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


def run_simulation(cfg: SimConfig, collect_blocks: bool = False,
                   collect_propagation: bool = False) -> SimMetrics:
    """Run the full network simulation and measure it.

    ``collect_blocks`` attaches one record per measured block;
    ``collect_propagation`` additionally attaches every (node, arrival time)
    pair per block for offline plotting.
    """
    params = cfg.protocol
    topo = build_topology(cfg)
    oracle = SelectionOracle(_derive_seed(cfg.seed, "blockclique.sim.selection"),
                             cfg.node_count)
    miss_seed = _derive_seed(cfg.seed, "blockclique.sim.miss")
    n = cfg.node_count
    index = DagIndex()
    headers = index.headers
    states = [CompatibilityState(params, index=index) for _ in range(n)]
    send_queue: list[deque] = [deque() for _ in range(n)]
    half_needed = math.ceil(n / 2)
    prop: Optional[dict[bytes, list]] = {} if collect_propagation else None
    # bound at call time: a tracer may swap this module's ``heapq``
    heappush, heappop = heapq.heappush, heapq.heappop

    created_at: dict[bytes, float] = {}
    holders: dict[bytes, int] = {}
    have: dict[bytes, bytearray] = {}     # per block some node lacks, who holds it
    half_at: dict[bytes, float] = {}
    settle: dict[bytes, tuple[str, float]] = {}   # at the creating node
    max_lag = 0.0
    max_cliques = 1
    slots_missed = 0
    transmissions = 0

    wire_extra = params.endorsement_slots * cfg.tx_size if cfg.endorsements_enabled else 0
    # every simulated block is full
    wire_bits = params.max_block_size + wire_extra
    send_time = [wire_bits / b for b in topo.bandwidths]
    links = [list(peer_lat.items()) for peer_lat in topo.peer_latency]    # in ``peers`` order
    # per sender, the send-done entry held back for the transmission on its
    # channel, None once it is in the heap, or _FREE
    held: list = [_FREE] * n
    tx_count = cfg.tx_per_block
    verify_cost = cfg.block_verify_time + tx_count * cfg.tx_verify_time

    heap: list[tuple] = []
    seq = 0
    n_periods = int(cfg.duration / params.slot_interval)
    slots_scheduled = 0
    for period in range(1, n_periods + 1):
        for tau in range(params.thread_count):
            slot = Slot(tau, period)
            ts = slot_timestamp(slot, params)
            if ts <= cfg.duration:
                heappush(heap, (ts, seq, _EV_SLOT, slot, None))
                seq += 1
                slots_scheduled += 1

    def relay(sender: int, block_id: bytes, now: float, cur: int) -> None:
        """At event (now, cur), queue a block for each link peer missing it on
        the sender's upload channel, then start the channel or push its
        held-back send-done (module docstring)."""
        flags = have.get(block_id)
        if flags is None:
            return
        q = send_queue[sender]
        for dst, lat in links[sender]:
            if not flags[dst]:
                q.append((dst, lat, block_id, flags))
        entry = held[sender]
        if not q or entry is None:
            return
        if entry < (now, cur):
            start_send(sender, now)
        else:
            heappush(heap, entry)
            held[sender] = None

    def start_send(sender: int, now: float) -> None:
        nonlocal seq, transmissions
        q = send_queue[sender]
        while q:
            dst, lat, bid, flags = q.popleft()
            if flags[dst]:
                continue
            done = now + send_time[sender]
            transmissions += 1
            entry = (done, seq, _EV_SEND_DONE, sender, None)
            heappush(heap, (done + lat, seq + 1, _EV_ARRIVE, dst, bid))
            seq += 2
            if q:
                heappush(heap, entry)
                entry = None
            held[sender] = entry
            return
        held[sender] = _FREE

    def process(node_idx: int, block_id: bytes, now: float, cur: int) -> None:
        nonlocal max_lag, max_cliques
        lag = now - created_at[block_id]
        if lag > max_lag:
            max_lag = lag
        relay(node_idx, block_id, now, cur)
        state = states[node_idx]
        state.extend_meta(headers[block_id])
        final, stale = state.update_finality()
        cliques = len(state.maximal_cliques())
        if cliques > max_cliques:
            max_cliques = cliques
        for verdict, settled in (("final", final), ("stale", stale)):
            for bid in settled:
                meta = headers[bid]
                if meta.creator == node_idx and not meta.is_genesis and bid not in settle:
                    settle[bid] = (verdict, now)

    while heap:
        now, cur, kind, a, b = heappop(heap)
        if now > cfg.duration:
            break
        if kind == _EV_ARRIVE:
            flags = have.get(b)
            if flags is None or flags[a]:
                continue
            flags[a] = 1
            count = holders[b] + 1
            holders[b] = count
            if count == half_needed:
                half_at[b] = now
            if count == n:
                del have[b]
            if prop is not None:
                prop[b].append((a, now))
            heappush(heap, (now + verify_cost, seq, _EV_PROCESS, a, b))
            seq += 1
        elif kind == _EV_SEND_DONE:
            start_send(a, now)
        elif kind == _EV_PROCESS:
            process(a, b, now, cur)
        else:
            slot = a
            if cfg.miss_rate > 0.0 and _miss_draw(miss_seed, slot, 0) < cfg.miss_rate:
                slots_missed += 1
                continue
            producer = oracle.draw_block_producer(slot)
            parents = tuple(states[producer].best_parents())
            endorsements = ()
            if cfg.endorsements_enabled and params.endorsement_slots:
                picked = []
                for i, endorser in enumerate(
                        oracle.draw_endorsers(slot, params.endorsement_slots)):
                    if cfg.miss_rate > 0.0 and _miss_draw(miss_seed, slot, i + 1) < cfg.miss_rate:
                        continue
                    picked.append(Endorsement(parents[slot.thread], slot, i, endorser))
                endorsements = tuple(picked)
            block = Block(slot=slot, creator=producer, parents=parents,
                          endorsements=endorsements, size_bits=params.max_block_size,
                          tx_count=tx_count)
            bid = block.id
            index.add(HeaderMeta.from_block(block))
            created_at[bid] = now
            holders[bid] = 1
            have[bid] = flags = bytearray(n)
            flags[producer] = 1
            if half_needed <= 1:
                half_at[bid] = now
            if prop is not None:
                prop[bid] = [(producer, now)]
            process(producer, bid, now, cur)

    # -- measurements over blocks created after the warm-up -------------------
    warmup = cfg.warmup
    scope = [bid for bid, t in created_at.items() if t >= warmup]
    produced = len(scope)
    finals = stales = 0
    conf_times: list[float] = []
    half_times: list[float] = []
    records = [] if collect_blocks else None
    for bid in scope:
        verdict, when = settle.get(bid, (None, None))
        if verdict == "final":
            finals += 1
            conf_times.append(when - created_at[bid])
        elif verdict == "stale":
            stales += 1
        if bid in half_at:
            half_times.append(half_at[bid] - created_at[bid])
        if records is not None:
            records.append({
                "id": bid.hex(),
                "thread": headers[bid].thread,
                "period": headers[bid].period,
                "created": created_at[bid],
                "half_propagation": half_at[bid] - created_at[bid] if bid in half_at else None,
                "settled": when,
                "status": verdict or "active",
            })
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
        slots_scheduled=slots_scheduled,
        slots_missed=slots_missed,
        tx_per_block=tx_count,
        warmup=warmup,
        max_processing_lag=max_lag,
        max_clique_count=max_cliques,
        transmissions=transmissions,
    )
    if collect_blocks:
        metrics.block_records = records
    if prop is not None:
        metrics.propagation = [
            {"id": bid.hex(), "created": created_at[bid],
             "arrivals": [[n, t] for n, t in prop[bid]]}
            for bid in scope
        ]
    return metrics
