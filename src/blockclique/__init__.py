"""Blockclique: a multithreaded block-DAG ledger with transaction sharding,
clique-based Nakamoto consensus, a finality-attack analyzer, and a
discrete-event peer-to-peer network simulator."""

from .chain import (
    Address,
    Block,
    BlockStore,
    Endorsement,
    HeaderMeta,
    Ledger,
    ProtocolParams,
    Slot,
    Transaction,
    apply_block_to_ledger,
    decode_block,
    encode_block,
    fitness,
    make_genesis,
    slot_timestamp,
    thread_of_address,
    validate_block_structure,
)
from .consensus import CompatibilityState, DagIndex, replay_trace
from .selection import SelectionOracle
from .security import (
    ThreatModel,
    attack_duration_stats,
    attack_success_probability,
    closed_form_success,
    duration_tail_bound,
    jump_probabilities,
    newcomer_safety_threshold,
    simulate_attacks,
)
from .netsim import NetworkTopology, SimConfig, SimMetrics, build_topology, run_simulation

__version__ = "0.1.0"
