"""Core domain types for the multithreaded block DAG: protocol parameters,
slots, addresses, transactions, blocks and their headers, the own-thread
chain walk, the block store, and the balance ledger.

Canonical block serialization (the wire format, all integers big-endian):

    u32 slot.thread | u64 slot.period | u64 creator
    u32 parent count   | 32 bytes per parent id
    u32 endorsement count | per endorsement:
        32B endorsed_block | u32 slot.thread | u64 slot.period | u32 index | u64 creator
    u32 transaction count | per transaction:
        32B sender | 32B receiver | u64 amount | u64 fee | u64 nonce | u32 size_bits
    u64 tx_count | u64 size_bits

The block id is the SHA-256 digest of this serialization.
"""

from __future__ import annotations

import hashlib
import json
import logging
import math
import numbers
import struct
from dataclasses import dataclass, field
from functools import cached_property, total_ordering
from typing import Iterable, Iterator, Mapping, Optional

from .errors import InsufficientBalance, MissingParent, StructuralViolation, UnknownBlock

log = logging.getLogger(__name__)

DIGEST_SIZE = 32
DEFAULT_TX_SIZE_BITS = 1040


def check_number(name: str, value, integral: bool, low: float, high: float = math.inf,
                 open_low: bool = False) -> None:
    """Raise ValueError unless ``value`` is a number (an integer if
    ``integral``, else finite; never a bool) in [low, high], or in
    (low, high] if ``open_low``."""
    ok = (isinstance(value, numbers.Integral if integral else numbers.Real)
          and not isinstance(value, bool)
          and (integral or math.isfinite(value))
          and (low < value if open_low else low <= value) and value <= high)
    if not ok:
        kind = "an integer" if integral else "a finite number"
        bounds = f"{'(' if open_low else '['}{low}, {high}]"
        raise ValueError(f"{name} must be {kind} in {bounds}, got {value!r}")


def field_values(cls, d, what: str) -> dict:
    """``d`` as keyword arguments of the dataclass ``cls``, every key a field."""
    if not isinstance(d, Mapping):
        raise ValueError(f"{what} must be a JSON object, got {d!r}")
    if unknown := [k for k in d if k not in cls.__dataclass_fields__]:
        raise ValueError(f"unknown {what} keys: {', '.join(map(repr, unknown))}")
    return dict(d)


@dataclass(frozen=True)
class ProtocolParams:
    """Protocol parameter tuple; thread_count must be a power of two."""

    thread_count: int = 32
    slot_interval: float = 32.0
    max_block_size: int = 12_000_000
    finality: int = 64
    endorsement_slots: int = 0

    def __post_init__(self):
        for name in ("thread_count", "max_block_size", "finality"):
            check_number(name, getattr(self, name), integral=True, low=1)
        check_number("endorsement_slots", self.endorsement_slots, integral=True, low=0)
        check_number("slot_interval", self.slot_interval, integral=False, low=0, open_low=True)
        t = self.thread_count
        if t & (t - 1):
            raise ValueError(f"thread_count must be a power of two, got {t}")

    @property
    def thread_bits(self) -> int:
        return self.thread_count.bit_length() - 1

    @property
    def finality_threshold(self) -> int:
        """Fitness gap beyond which a trailing clique settles stale."""
        return self.finality * (self.endorsement_slots + 1)

    @property
    def consensus_bitrate(self) -> float:
        """Sustained block-data rate in bits per second."""
        return self.thread_count * self.max_block_size / self.slot_interval

    @classmethod
    def from_dict(cls, d: Mapping) -> "ProtocolParams":
        return cls(**field_values(cls, d, "protocol"))


@total_ordering
@dataclass(frozen=True, order=False)
class Slot:
    """A (thread, period) block slot position."""

    thread: int
    period: int

    def __post_init__(self):
        if self.thread < 0 or self.period < 0:
            raise ValueError(f"invalid slot ({self.thread}, {self.period})")

    # Slots are totally ordered by timestamp; for any fixed thread count this
    # is the lexicographic (period, thread) order.
    def __lt__(self, other: "Slot") -> bool:
        return (self.period, self.thread) < (other.period, other.thread)


def slot_timestamp(slot: Slot, params: ProtocolParams) -> float:
    """Protocol time of a slot in seconds since genesis."""
    if slot.thread >= params.thread_count:
        raise ValueError(f"slot thread {slot.thread} out of range")
    t0 = params.slot_interval
    return slot.period * t0 + slot.thread * t0 / params.thread_count


@dataclass(frozen=True)
class Address:
    """A 32-byte account address; its digest prefix fixes the owning thread."""

    digest: bytes

    def __post_init__(self):
        if len(self.digest) != DIGEST_SIZE:
            raise ValueError(f"address digest must be {DIGEST_SIZE} bytes")

    @classmethod
    def from_seed(cls, seed: bytes | str) -> "Address":
        if isinstance(seed, str):
            seed = seed.encode()
        return cls(hashlib.sha256(seed).digest())


def thread_of_address(address: Address, params: ProtocolParams) -> int:
    """Thread owning an address: the top log2(T) bits of its digest."""
    bits = params.thread_bits
    if bits == 0:
        return 0
    return int.from_bytes(address.digest, "big") >> (8 * DIGEST_SIZE - bits)


@dataclass(frozen=True)
class Transaction:
    sender: Address
    receiver: Address
    amount: int
    fee: int = 0
    nonce: int = 0
    size_bits: int = DEFAULT_TX_SIZE_BITS

    def __post_init__(self):
        if self.amount < 0 or self.fee < 0:
            raise ValueError("amount and fee must be non-negative")


@dataclass(frozen=True)
class Endorsement:
    """Attestation of the previous block in a thread, filling one of E slots."""

    endorsed_block: bytes
    slot: Slot
    endorsement_index: int
    creator: int


@dataclass(frozen=True)
class Block:
    """A slot-addressed DAG node. Genesis blocks carry no parents; every other
    block references exactly one parent per thread.

    ``transactions`` may be left empty with an explicit ``tx_count`` for
    synthetic load (the simulator never materializes transaction lists).
    """

    slot: Slot
    creator: int
    parents: tuple[bytes, ...]
    endorsements: tuple[Endorsement, ...] = ()
    transactions: tuple[Transaction, ...] = ()
    size_bits: int = 0
    tx_count: int = -1  # -1 means len(transactions)

    def __post_init__(self):
        if self.tx_count < 0:
            object.__setattr__(self, "tx_count", len(self.transactions))

    @property
    def is_genesis(self) -> bool:
        return not self.parents

    @property
    def thread(self) -> int:
        return self.slot.thread

    @cached_property
    def id(self) -> bytes:
        return hashlib.sha256(encode_block(self)).digest()


_U32 = struct.Struct(">I")
_U64 = struct.Struct(">Q")
# the fixed-width runs of the serialization, each packed in one call
_HEAD = struct.Struct(">IQQI")            # slot thread, period, creator, parent count
_ENDORSEMENT = struct.Struct(">IQIQ")     # after the endorsed block id
_TRANSACTION = struct.Struct(">32s32sQQQI")
_TAIL = struct.Struct(">QQ")              # tx_count, size_bits


def encode_block(block: Block) -> bytes:
    slot, parents = block.slot, block.parents
    out = [_HEAD.pack(slot.thread, slot.period, block.creator, len(parents))]
    if any(map(DIGEST_SIZE.__ne__, map(len, parents))):
        raise ValueError("parent ids must be 32 bytes")
    out += parents
    out.append(_U32.pack(len(block.endorsements)))
    for e in block.endorsements:
        out += (e.endorsed_block,
                _ENDORSEMENT.pack(e.slot.thread, e.slot.period, e.endorsement_index, e.creator))
    out.append(_U32.pack(len(block.transactions)))
    out += [_TRANSACTION.pack(tx.sender.digest, tx.receiver.digest, tx.amount, tx.fee,
                              tx.nonce, tx.size_bits) for tx in block.transactions]
    out.append(_TAIL.pack(block.tx_count, block.size_bits))
    return b"".join(out)


class _Reader:
    def __init__(self, data: bytes):
        self.data = data
        self.pos = 0

    def take(self, n: int) -> bytes:
        if self.pos + n > len(self.data):
            raise ValueError("truncated block encoding")
        b = self.data[self.pos:self.pos + n]
        self.pos += n
        return b

    def u32(self) -> int:
        return _U32.unpack(self.take(4))[0]

    def u64(self) -> int:
        return _U64.unpack(self.take(8))[0]

    def slot(self) -> Slot:
        return Slot(self.u32(), self.u64())


def decode_block(data: bytes) -> Block:
    r = _Reader(data)
    slot = r.slot()
    creator = r.u64()
    parents = tuple(r.take(DIGEST_SIZE) for _ in range(r.u32()))
    endorsements = tuple(
        Endorsement(r.take(DIGEST_SIZE), r.slot(), r.u32(), r.u64())
        for _ in range(r.u32())
    )
    transactions = tuple(
        Transaction(
            Address(r.take(DIGEST_SIZE)), Address(r.take(DIGEST_SIZE)),
            r.u64(), r.u64(), r.u64(), r.u32(),
        )
        for _ in range(r.u32())
    )
    tx_count = r.u64()
    size_bits = r.u64()
    if r.pos != len(data):
        raise ValueError("trailing bytes in block encoding")
    return Block(slot, creator, parents, endorsements, transactions, size_bits, tx_count)


def make_genesis(thread: int) -> Block:
    """The protocol-given genesis block of a thread (period 0, no parents)."""
    return Block(slot=Slot(thread, 0), creator=0, parents=(), size_bits=0, tx_count=0)


def fitness(block: Block) -> int:
    """Block fitness: one for the block itself plus one per filled
    endorsement slot."""
    return 1 + len(block.endorsements)


@dataclass(frozen=True, slots=True, eq=False)
class HeaderMeta:
    """Immutable header facts of one block: what validation and consensus
    read. Each process keeps one map from block id to header, so that
    ``covers`` may compare headers by identity. A header built from its
    parents' stored headers names them by those headers' own id objects, so
    a block store's ids are interned: one object per block, which the map's
    key, ``id`` and every child's ``parents`` and ``own_parent`` share.
    ``num`` is the id as a big-endian integer, computed once."""

    id: bytes
    num: int
    thread: int
    period: int
    creator: int
    parents: tuple[bytes, ...]
    own_parent: Optional[bytes]
    fitness: int
    is_genesis: bool

    @classmethod
    def from_block(cls, block: Block,
                   parents: Optional[list["HeaderMeta"]] = None) -> "HeaderMeta":
        """Header of a genesis block or of one that passed ``shape_violations``.
        Given the parents' stored headers, it names each parent by the
        stored header's id object rather than the block's copy."""
        ids = block.parents if parents is None else tuple([parent.id for parent in parents])
        own = ids[block.thread] if ids else None
        return cls(block.id, int.from_bytes(block.id, "big"), block.thread, block.slot.period,
                   block.creator, ids, own, fitness(block), block.is_genesis)


def covers(headers: Mapping[bytes, HeaderMeta], anc: HeaderMeta, tip: HeaderMeta) -> bool:
    """Whether ``anc`` is ``tip`` or lies on its own-thread chain: walk the
    own-thread parents of ``tip`` down to ``anc``'s period."""
    cur = tip
    while cur.period > anc.period:
        cur = headers[cur.own_parent]
    return cur is anc


def incompatible(headers: Mapping[bytes, HeaderMeta], a: HeaderMeta, b: HeaderMeta) -> bool:
    """Whether two headers directly conflict. Genesis and identical headers
    never do; two blocks of one thread on the same own-thread parent are
    thread-incompatible; otherwise they are grandpa-incompatible when
    neither one's parent in the other's thread covers that other's
    own-thread parent."""
    if a.is_genesis or b.is_genesis or a.id == b.id:
        return False
    if a.thread == b.thread and a.own_parent == b.own_parent:
        return True
    return (not covers(headers, headers[a.own_parent], headers[b.parents[a.thread]])
            and not covers(headers, headers[b.own_parent], headers[a.parents[b.thread]]))


class BlockStore:
    """Single-owner store of the headers of structurally valid blocks.

    Blocks whose parents are unknown are buffered in a bounded waiting pool and
    re-processed when the missing parents arrive. Genesis blocks are seeded at
    construction. ``headers`` is the process's header map, which a consensus
    state may share. Its ids are interned: a stored header's ``parents`` and
    ``own_parent`` are the parents' own id objects, taken from the headers
    that admission looks up anyway, so id comparisons in validation and
    consensus succeed on identity, and a header holds no copy of an id.
    """

    def __init__(self, params: ProtocolParams, oracle=None, validate: bool = True,
                 max_pending: int = 10_000):
        self.params = params
        self.oracle = oracle
        self.validate = validate
        self.max_pending = max_pending
        self.headers: dict[bytes, HeaderMeta] = {}
        self._waiting: dict[bytes, list[bytes]] = {}   # missing id -> waiting block ids
        self._pending: dict[bytes, Block] = {}         # waiting block id -> block
        self.rejected: list[tuple[bytes, list[str]]] = []
        self.dropped_pending = 0
        self.genesis_ids: list[bytes] = []
        for tau in range(params.thread_count):
            g = HeaderMeta.from_block(make_genesis(tau))
            self.genesis_ids.append(g.id)
            self.headers[g.id] = g

    def __contains__(self, block_id: bytes) -> bool:
        return block_id in self.headers

    def get(self, block_id: bytes) -> HeaderMeta:
        try:
            return self.headers[block_id]
        except KeyError:
            raise UnknownBlock(block_id.hex()) from None

    @property
    def pending_count(self) -> int:
        return len(self._pending)

    def receive(self, block: Block) -> list[Block]:
        """Accept a block, buffering it if parents are missing.

        Returns the list of blocks admitted by this call, in admission order
        (the given block plus any waiting blocks it unblocked). Raises
        StructuralViolation when the given block itself is permanently
        invalid; invalid blocks released from the waiting pool are dropped
        and recorded in ``rejected``. Without validation, a header that
        fails ``shape_violations`` raises ValueError.
        """
        headers = self.headers
        if block.id in headers or block.id in self._pending:
            return []
        accepted: list[Block] = []
        queue = [(block, True)]
        while queue:
            blk, direct = queue.pop(0)
            parents = list(map(headers.get, blk.parents))
            if None in parents:
                self._buffer(blk, [p for p, h in zip(blk.parents, parents) if h is None])
                continue
            if self.validate:
                violations = validate_block_structure(blk, self, self.params, self.oracle,
                                                      parents)
                if violations:
                    if direct:
                        raise StructuralViolation(blk.id, violations)
                    self.rejected.append((blk.id, violations))
                    log.warning("dropped invalid buffered block %s: %s",
                                blk.id.hex()[:16], "; ".join(violations))
                    continue
            elif not blk.is_genesis:
                shape = shape_violations(blk, parents, self.params.thread_count)
                if shape:
                    raise ValueError(f"block {blk.id.hex()[:12]}: {'; '.join(shape)}")
            headers[blk.id] = HeaderMeta.from_block(blk, parents)
            accepted.append(blk)
            # release any blocks that were waiting on this one
            for rid in self._waiting.pop(blk.id, ()):
                pending = self._pending.get(rid)
                if pending is not None and not any(
                    p not in headers for p in pending.parents
                ):
                    del self._pending[rid]
                    queue.append((pending, False))
        return accepted

    def _buffer(self, block: Block, missing: list[bytes]) -> None:
        if block.id in self._pending:
            return
        if len(self._pending) >= self.max_pending:
            victim_id, victim = next(iter(self._pending.items()))
            del self._pending[victim_id]
            for p in victim.parents:
                waiters = self._waiting.get(p)
                if waiters is not None and victim_id in waiters:
                    waiters.remove(victim_id)
                    if not waiters:
                        del self._waiting[p]
            self.dropped_pending += 1
            log.warning("waiting pool full; dropped pending block %s", victim_id.hex()[:16])
        self._pending[block.id] = block
        for m in missing:
            self._waiting.setdefault(m, []).append(block.id)


def shape_violations(block: Block, parents: list[HeaderMeta],
                     thread_count: int) -> list[str]:
    """Check the shape of a non-genesis header, given its parents' stored
    headers: its thread is below T, it names T parents, and parent τ lies in
    thread τ. Consensus indexes headers by these facts, so a block store
    admits no header that fails here, with or without validation."""
    if block.thread >= thread_count:
        return [f"thread {block.thread} out of range for T={thread_count}"]
    if len(parents) != thread_count:
        return [f"expected {thread_count} parents, got {len(parents)}"]
    return [f"parent {tau} lies in thread {parent.thread}"
            for tau, parent in enumerate(parents) if parent.thread != tau]


def validate_block_structure(block: Block, store: BlockStore, params: ProtocolParams,
                             oracle=None, parents: Optional[list[HeaderMeta]] = None
                             ) -> list[str]:
    """Check the structural validity of a block against known blocks.

    Returns a list of violations (empty when the block is valid). Raises
    MissingParent when some parent is not yet in the store; the caller is
    expected to buffer the block and retry once parents arrive. A caller
    that has looked up the parents' stored headers passes them as
    ``parents``, in the block's parent order.
    """
    t = params.thread_count
    if block.is_genesis:
        if block.id != make_genesis(block.thread).id:
            return ["non-canonical genesis block"]
        return []
    if parents is None:
        parents = list(map(store.headers.get, block.parents))
        if None in parents:
            raise MissingParent(block.id, [p for p, h in zip(block.parents, parents)
                                           if h is None])
    violations = shape_violations(block, parents, t)
    if violations:
        return violations
    if block.slot.period < 1:
        violations.append("non-genesis block in period 0")
    if block.size_bits > params.max_block_size:
        violations.append(f"size {block.size_bits} exceeds limit {params.max_block_size}")
    if violations:
        return violations
    headers = store.headers
    own = parents[block.thread]
    if own.period >= block.slot.period:
        violations.append("own-thread parent period is not strictly smaller")

    # Ancestor consistency: every thread-tau ancestor reachable through any
    # parent must lie on the own-thread chain of the declared parent in tau.
    # Stored parents passed this check themselves, so a parent's latest
    # thread-tau ancestor is its own thread-tau parent, and a genesis parent
    # has none. Stored headers passed shape_violations, so a grandparent's
    # thread is its column: one set union of the T parent tuples gives the
    # distinct grandparents, and each is tested once against the declared
    # parent in its thread, except the declared parents and their own
    # parents, which they cover (on the fork_replay traces, none is left to
    # test). Only when a test fails are the messages built: the first
    # uncovered ancestor per thread, in parent order.
    grandparents = set().union(*[parent.parents for parent in parents])
    grandparents.difference_update(block.parents, [parent.own_parent for parent in parents])
    uncovered = set()
    for anc_id in grandparents:
        anc = headers[anc_id]
        if not covers(headers, anc, parents[anc.thread]):
            uncovered.add(anc_id)
    if uncovered:
        columns = zip(*(parent.parents for parent in parents if not parent.is_genesis))
        for tau, column in enumerate(columns):
            anc_id = next((a for a in column if a in uncovered), None)
            if anc_id is not None:
                violations.append(
                    f"ancestor {anc_id.hex()[:12]} in thread {tau} is not covered "
                    f"by the declared parent"
                )

    for tx in block.transactions:
        if thread_of_address(tx.sender, params) != block.thread:
            violations.append("transaction sender not assigned to the block thread")
            break

    e_max = params.endorsement_slots
    seen_idx = set()
    for e in block.endorsements:
        if not (0 <= e.endorsement_index < e_max):
            violations.append(f"endorsement index {e.endorsement_index} out of range")
            continue
        if e.endorsement_index in seen_idx:
            violations.append("duplicate endorsement index")
            continue
        seen_idx.add(e.endorsement_index)
        if e.slot != block.slot:
            violations.append("endorsement slot differs from block slot")
        if e.endorsed_block != block.parents[block.thread]:
            violations.append("endorsement does not reference the own-thread parent")
        if oracle is not None:
            expected = oracle.draw_endorsers(block.slot, e_max)[e.endorsement_index]
            if e.creator != expected:
                violations.append("endorsement creator does not match the selection draw")
    return violations


@dataclass(frozen=True)
class Ledger:
    """Address balances after processing some set of blocks."""

    balances: Mapping[Address, int] = field(default_factory=dict)

    def balance(self, address: Address) -> int:
        return self.balances.get(address, 0)


def apply_block_to_ledger(ledger: Ledger, block: Block) -> Ledger:
    """Apply a block's transactions; all-or-nothing on overdraft.

    Transactions are applied in block order, so later transactions see the
    credits of earlier ones.
    """
    balances = dict(ledger.balances)
    for tx in block.transactions:
        debit = tx.amount + tx.fee
        have = balances.get(tx.sender, 0)
        if have < debit:
            raise InsufficientBalance(
                f"sender has {have}, needs {debit} (block {block.id.hex()[:12]})"
            )
        balances[tx.sender] = have - debit
        balances[tx.receiver] = balances.get(tx.receiver, 0) + tx.amount
    return Ledger(balances)


# --- DAG trace files: one JSON object per line, one block per object -------

def block_to_record(block: Block) -> dict:
    return {
        "id": block.id.hex(),
        "slot": {"thread": block.slot.thread, "period": block.slot.period},
        "creator": block.creator,
        "parents": [p.hex() for p in block.parents],
        "endorsements": [
            {
                "endorsed_block": e.endorsed_block.hex(),
                "slot": {"thread": e.slot.thread, "period": e.slot.period},
                "endorsement_index": e.endorsement_index,
                "creator": e.creator,
            }
            for e in block.endorsements
        ],
        "size_bits": block.size_bits,
        "tx_count": block.tx_count,
    }


def record_to_block(record: Mapping) -> Block:
    """Rebuild a header-level block from a trace record (transactions stay
    synthetic; only the count survives the trace). A record of the wrong
    shape or types raises ValueError: computing the id encodes the block,
    which checks every integer field's type and range."""
    try:
        block = Block(
            slot=Slot(record["slot"]["thread"], record["slot"]["period"]),
            creator=record["creator"],
            parents=tuple(map(bytes.fromhex, record["parents"])),
            endorsements=tuple(
                Endorsement(
                    bytes.fromhex(e["endorsed_block"]),
                    Slot(e["slot"]["thread"], e["slot"]["period"]),
                    e["endorsement_index"],
                    e["creator"],
                )
                for e in record.get("endorsements", ())
            ),
            size_bits=record["size_bits"],
            tx_count=record["tx_count"],
        )
        bid = block.id
        declared = record.get("id")
        if declared is not None and bytes.fromhex(declared) != bid:
            raise ValueError(f"trace record id {declared[:12]} does not match content")
    except (TypeError, struct.error) as e:
        raise ValueError(f"trace record of the wrong shape ({e})") from None
    return block


def write_trace(blocks: Iterable[Block], fp) -> None:
    for b in blocks:
        fp.write(json.dumps(block_to_record(b), sort_keys=True) + "\n")


def read_trace(fp) -> Iterator[Block]:
    for line in fp:
        line = line.strip()
        if line:
            yield record_to_block(json.loads(line))
