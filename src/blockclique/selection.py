"""Deterministic Sybil-resistant selection oracle.

Draws are a wire-format constant shared by every implementation: the draw for
(seed, slot, role, index) hashes the domain tag ``blockclique.select.v1``
followed by the big-endian fields

    u64 seed | u32 slot.thread | u64 slot.period | u8 role | u32 index

with SHA-256, takes the first 8 bytes as a big-endian integer r, and picks the
node whose cumulative-weight interval contains (r * total_weight) >> 64.
Role 0 selects block producers, role 1 endorsers.
"""

from __future__ import annotations

import bisect
import hashlib
import struct
from typing import Sequence

from .chain import Slot

ROLE_BLOCK = 0
ROLE_ENDORSEMENT = 1

_DOMAIN = b"blockclique.select.v1"
_FMT = struct.Struct(">QIQBI")


def _draw_u64(seed: int, slot: Slot, role: int, index: int) -> int:
    msg = _DOMAIN + _FMT.pack(seed, slot.thread, slot.period, role, index)
    return int.from_bytes(hashlib.sha256(msg).digest()[:8], "big")


class SelectionOracle:
    """Pure-function selection of producers and endorsers for every slot.

    Uniform weights model a uniform resource distribution; arbitrary integer
    weights plug in a stake distribution. The distribution is fixed for a run.
    """

    def __init__(self, seed: int, node_weights: Sequence[tuple[int, int]] | int):
        if isinstance(node_weights, int):
            node_weights = [(n, 1) for n in range(node_weights)]
        if not node_weights:
            raise ValueError("node_weights must not be empty")
        self.seed = seed & 0xFFFF_FFFF_FFFF_FFFF
        self.nodes = [n for n, _ in node_weights]
        self._cum = []
        total = 0
        for _, w in node_weights:
            if w < 0:
                raise ValueError("weights must be non-negative")
            total += w
        if total <= 0:
            raise ValueError("total weight must be positive")
        acc = 0
        for _, w in node_weights:
            acc += w
            self._cum.append(acc)
        self.total_weight = total

    def _pick(self, r: int) -> int:
        target = (r * self.total_weight) >> 64
        return self.nodes[bisect.bisect_right(self._cum, target)]

    def draw_block_producer(self, slot: Slot) -> int:
        return self._pick(_draw_u64(self.seed, slot, ROLE_BLOCK, 0))

    def draw_endorsers(self, slot: Slot, endorsement_slots: int) -> list[int]:
        return [
            self._pick(_draw_u64(self.seed, slot, ROLE_ENDORSEMENT, i))
            for i in range(endorsement_slots)
        ]
