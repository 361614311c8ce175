"""Random structurally-valid DAG instances for consensus testing."""

from __future__ import annotations

import random

from blockclique.chain import (
    Block, BlockStore, Endorsement, HeaderMeta, ProtocolParams, Slot, validate_block_structure,
)
from blockclique.errors import MissingParent


def random_instance(rng: random.Random, max_blocks: int = 20):
    """A random valid block set (parents-first order) under random small
    protocol parameters. Forks and same-parent siblings are frequent, so
    thread and grandpa conflicts both occur."""
    t = rng.choice([1, 2, 4])
    f = rng.choice([1, 2, 3])
    e = rng.choice([0, 2])
    params = ProtocolParams(thread_count=t, slot_interval=4.0, max_block_size=10_000,
                            finality=f, endorsement_slots=e)
    store = BlockStore(params, validate=True)
    by_thread: list[list[bytes]] = [[gid] for gid in store.genesis_ids]
    blocks: list[Block] = []
    target = rng.randint(4, max_blocks)
    attempts = 0
    while len(blocks) < target and attempts < 30 * max_blocks:
        attempts += 1
        tau = rng.randrange(t)
        parents = []
        for t2 in range(t):
            pool = by_thread[t2]
            if rng.random() < 0.7:
                parents.append(pool[-1])
            else:
                parents.append(rng.choice(pool))
        own = store.get(parents[tau])
        period = own.period + rng.choice([1, 1, 1, 2])
        n_end = rng.randint(0, e) if e else 0
        slot = Slot(tau, period)
        endorsements = tuple(
            Endorsement(parents[tau], slot, i, creator=rng.randrange(4))
            for i in range(n_end)
        )
        block = Block(slot=slot, creator=rng.randrange(8), parents=tuple(parents),
                      endorsements=endorsements, size_bits=rng.randrange(50, 200))
        if block.id in store:
            continue
        try:
            if validate_block_structure(block, store, params):
                continue
        except MissingParent:
            continue
        store.receive(block)
        by_thread[tau].append(block.id)
        blocks.append(block)
    return params, blocks


def parent_respecting_shuffle(blocks: list[Block], rng: random.Random) -> list[Block]:
    """Random topological order of a valid block set."""
    placed: set[bytes] = set()
    remaining = list(blocks)
    known = {b.id for b in blocks}
    out = []
    while remaining:
        ready = [b for b in remaining
                 if all(p in placed or p not in known for p in b.parents)]
        pick = rng.choice(ready)
        remaining.remove(pick)
        placed.add(pick.id)
        out.append(pick)
    return out


def honest_instance(rng: random.Random, steps: int | None = None):
    """A block set as honest operation produces it: producers extend their
    current best parents, except for occasional single blocks built on a
    slightly stale view (the propagation races of a real network). Losing
    branches stay within the settlement threshold, so per-block settlement
    reaches the same end state in every parent-respecting order; every race
    is then grown to a decisive finish."""
    from blockclique.consensus import CompatibilityState

    t = rng.choice([1, 2, 4])
    e = rng.choice([0, 2])
    params = ProtocolParams(thread_count=t, slot_interval=4.0, max_block_size=10_000,
                            finality=3, endorsement_slots=e)
    engine = CompatibilityState(params)
    store = BlockStore(params, validate=True)
    blocks: list[Block] = []
    snapshots: list[list[bytes]] = []
    target = steps if steps is not None else rng.randint(6, 16)
    guard = 0

    def emit(parents, tau, n_end, size):
        own = engine.headers[parents[tau]]
        slot = Slot(tau, own.period + 1)
        ends = tuple(Endorsement(parents[tau], slot, i, creator=rng.randrange(4))
                     for i in range(n_end))
        block = Block(slot=slot, creator=rng.randrange(8), parents=tuple(parents),
                      endorsements=ends, size_bits=size)
        if block.id in store:
            return None
        store.receive(block)
        engine.add_block(HeaderMeta.from_block(block))
        blocks.append(block)
        return block

    while len(blocks) < target and guard < 20 * target:
        guard += 1
        if len(engine.maximal_cliques()) == 1:
            snapshots.append(engine.best_parents())
            if len(snapshots) > 5:
                snapshots.pop(0)
        tau = rng.randrange(t)
        if snapshots and rng.random() < 0.25:
            # stale view: a single plain fork block off an older frontier
            emit(rng.choice(snapshots), tau, 0, rng.randrange(50, 200))
        else:
            n_end = rng.randint(0, e) if e else 0
            emit(engine.best_parents(), tau, n_end, rng.randrange(50, 200))

    tail = 2 * params.finality_threshold + 4
    added = 0
    guard = 0
    while (added < tail or len(engine.maximal_cliques()) > 1) and guard < 600:
        guard += 1
        if emit(engine.best_parents(), added % t, 0, 60) is not None:
            added += 1
    return params, blocks
