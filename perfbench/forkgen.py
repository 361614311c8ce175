"""Fork-heavy DAG traces for the ``fork_replay`` workload.

The generator does not use ``blockclique.consensus``: it keeps its own
per-thread view of the honest tips, so a change to consensus cannot alter the
input it is measured on. Per slot an honest producer builds on the current
view. In every run of ``FORK_EVERY`` slots, one slot drawn at random also
gets a second block, built on a view between T and 2T slots old. Spacing the
forks evenly keeps the replay cost of one trace close to that of another.
Honest producers never build on a fork, so each fork conflicts with the
honest blocks above its own-thread parent until consensus settles it stale.
With probability ``LATE_RATE`` an honest block is emitted two or three places
late, after its child, so replay has to park the child in the block store's
waiting pool.

Every block is checked with ``BlockStore(validate=True)`` as it is generated.
"""

from __future__ import annotations

import random
from collections import deque

from blockclique.chain import DEFAULT_TX_SIZE_BITS, Block, BlockStore, ProtocolParams, Slot

CREATORS = 128
FORK_EVERY = 20
LATE_RATE = 0.02


def fork_trace(seed: int, periods: int) -> list[Block]:
    """Blocks of a ``periods``-long trace in emission order."""
    rng = random.Random(seed)
    params = ProtocolParams()
    t = params.thread_count
    tx_count = params.max_block_size // DEFAULT_TX_SIZE_BITS
    store = BlockStore(params, validate=True)
    tips = list(store.genesis_ids)
    views: deque[tuple] = deque(maxlen=2 * t + 1)
    created: list[tuple[float, Block]] = []

    def add(block: Block, delay: float) -> None:
        if store.receive(block) != [block]:
            raise RuntimeError(f"generated block {block.id.hex()[:16]} was not admitted")
        created.append((len(created) + delay, block))

    fork_at = -1
    for period in range(1, periods + 1):
        for tau in range(t):
            slot_index = (period - 1) * t + tau
            if slot_index % FORK_EVERY == 0:
                fork_at = rng.randrange(FORK_EVERY)
            views.append(tuple(tips))
            slot = Slot(tau, period)
            if len(views) > t and slot_index % FORK_EVERY == fork_at:
                old = views[-1 - rng.randint(t, len(views) - 1)]
                add(Block(slot, rng.randrange(CREATORS), old,
                          size_bits=params.max_block_size, tx_count=tx_count), 0.0)
            honest = Block(slot, rng.randrange(CREATORS), tuple(tips),
                           size_bits=params.max_block_size, tx_count=tx_count)
            add(honest, rng.choice((2.5, 3.5)) if rng.random() < LATE_RATE else 0.0)
            tips[tau] = honest.id
    created.sort(key=lambda entry: entry[0])
    return [block for _, block in created]
