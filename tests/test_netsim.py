import hashlib
import heapq
import json
import math
from collections import Counter
from dataclasses import asdict, replace
from pathlib import Path
from types import SimpleNamespace

import pytest

from blockclique.chain import ProtocolParams
from blockclique.cli import canonical_json
from blockclique.consensus import CompatibilityState
from blockclique.errors import TopologyError
from blockclique import netsim
from blockclique.netsim import (NetworkTopology, SimConfig, apply_overrides, build_topology,
                                network_schedule, run_simulation)

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def toy_config(**kw):
    proto = ProtocolParams(
        thread_count=kw.pop("T", 2), slot_interval=kw.pop("t0", 4.0),
        max_block_size=kw.pop("S_B", 100_000), finality=kw.pop("F", 4),
        endorsement_slots=kw.pop("E", 0))
    defaults = dict(node_count=8, mean_bandwidth=32e6, mean_latency=0.01,
                    protocol=proto, miss_rate=0.0, duration=240.0, seed=7)
    defaults.update(kw)
    return SimConfig(**defaults)


class TestConfig:
    def test_tx_per_block_formula(self):
        cfg = SimConfig(protocol=ProtocolParams(max_block_size=12_000_000),
                        header_size=6720, tx_size=1040)
        assert cfg.tx_per_block == (12_000_000 - 6720) // 1040 == 11532

    def test_round_trip_dict(self):
        cfg = toy_config(seed=99)
        assert SimConfig.from_dict(asdict(cfg)) == cfg

    def test_default_round_trip_dict(self):
        assert SimConfig.from_dict(asdict(SimConfig())) == SimConfig()

    def test_overrides_short_aliases(self):
        cfg = apply_overrides(SimConfig(), {"N": "8", "T": "2", "t0": "4",
                                            "mu": "0.1", "S_B": "50000"})
        assert cfg.node_count == 8
        assert cfg.protocol.thread_count == 2
        assert cfg.protocol.slot_interval == 4.0
        assert cfg.miss_rate == 0.1
        assert cfg.protocol.max_block_size == 50_000

    def test_bitrate_override_sets_block_size(self):
        cfg = apply_overrides(SimConfig(), {"T": "32", "t0": "32", "C_B": "12e6"})
        assert cfg.protocol.max_block_size == 12_000_000

    def test_unknown_override_rejected(self):
        with pytest.raises(KeyError):
            apply_overrides(SimConfig(), {"bogus": "1"})

    @pytest.mark.parametrize("field, value", [
        ("node_count", 0), ("node_count", "abc"), ("node_count", 8.0), ("node_count", True),
        ("mean_bandwidth", 0.0), ("mean_bandwidth", -5.0), ("mean_bandwidth", math.inf),
        ("mean_latency", -1.0), ("miss_rate", math.nan), ("miss_rate", 1.5),
        ("tx_size", 0), ("header_size", -1), ("block_verify_time", -1.0),
        ("tx_verify_time", -1e-6), ("duration", -1.0), ("seed", 1.5),
        ("endorsements_enabled", "yes"), ("protocol", {"thread_count": 2}),
    ])
    def test_bad_value_rejected(self, field, value):
        with pytest.raises(ValueError, match=field):
            replace(toy_config(), **{field: value})

    @pytest.mark.parametrize("name", ["toy.json", "throughput_12mbps_desk.json",
                                      "throughput_12mbps_full.json"])
    def test_shipped_configs_load(self, name):
        data = json.loads((CONFIGS / name).read_text())
        cfg = SimConfig.from_dict(data)
        assert cfg.seed == data["seed"] and asdict(cfg.protocol) == data["protocol"]

    def test_unknown_keys_named(self):
        # a misspelt key once ran its default without a word
        data = {"node_count": 8, "duration": 30, "protocl": {"thread_count": 2}, "sed": 5}
        with pytest.raises(ValueError, match="unknown config keys: 'protocl', 'sed'"):
            SimConfig.from_dict(data)
        with pytest.raises(ValueError, match="unknown protocol keys: 'thread_cont'"):
            SimConfig.from_dict({"protocol": {"thread_cont": 2}})
        with pytest.raises(ValueError, match="unknown protocol keys: 'thread_cont'"):
            ProtocolParams.from_dict({"thread_cont": 2})

    @pytest.mark.parametrize("data", [[1, 2], "x", {"protocol": [1]},
                                      {"protocol": {"thread_count": "32"}}])
    def test_from_dict_rejects_wrong_json(self, data):
        with pytest.raises(ValueError):
            SimConfig.from_dict(data)


class TestTopology:
    def test_degree_rule(self):
        cfg = toy_config(node_count=32)
        topo = build_topology(cfg)
        b_mean = cfg.mean_bandwidth
        for u, succ in enumerate(topo.successors):
            assert len(succ) == int(4 * topo.bandwidths[u] / b_mean)
            assert u not in succ
            assert len(set(succ)) == len(succ)

    def test_bandwidth_range(self):
        topo = build_topology(toy_config(node_count=64))
        b = cfg_b = toy_config().mean_bandwidth
        assert all(cfg_b / 2 <= x <= 3 * cfg_b / 2 for x in topo.bandwidths)

    def test_latency_range_and_symmetry(self):
        cfg = toy_config(node_count=32)
        topo = build_topology(cfg)
        for u in range(32):
            for v, lat in topo.peer_latency[u].items():
                assert 0 <= lat <= 2 * cfg.mean_latency
                assert topo.peer_latency[v][u] == lat

    def test_deterministic_given_seed(self):
        a = build_topology(toy_config(seed=5))
        b = build_topology(toy_config(seed=5))
        assert a.successors == b.successors
        assert a.bandwidths == b.bandwidths
        assert a.latencies == b.latencies

    def test_connected(self):
        topo = build_topology(toy_config(node_count=64))
        seen = {0}
        stack = [0]
        while stack:
            u = stack.pop()
            for v in topo.peers[u]:
                if v not in seen:
                    seen.add(v)
                    stack.append(v)
        assert len(seen) == 64

    def test_too_few_nodes(self):
        with pytest.raises(TopologyError):
            build_topology(toy_config(node_count=1))


class TestSimulation:
    def test_uncontended_network_reaches_ceiling(self):
        cfg = toy_config()
        m = run_simulation(cfg)
        ceiling = cfg.tx_per_block * cfg.protocol.thread_count / cfg.protocol.slot_interval
        assert m.stale_rate == 0.0
        assert m.max_clique_count == 1
        assert m.throughput <= ceiling
        # only the not-yet-final tail is missing
        assert m.throughput > 0.85 * ceiling

    def test_determinism_bit_identical(self):
        cfg = toy_config(seed=123)
        assert run_simulation(cfg).to_dict() == run_simulation(cfg).to_dict()

    def test_throughput_ceiling_never_exceeded(self):
        for seed in (1, 2, 3):
            cfg = toy_config(seed=seed, duration=120.0)
            m = run_simulation(cfg)
            ceiling = cfg.tx_per_block * cfg.protocol.thread_count / cfg.protocol.slot_interval
            assert m.throughput <= ceiling + 1e-9

    def test_miss_rate_scales_throughput(self):
        base = run_simulation(toy_config(duration=400.0))
        degraded = run_simulation(toy_config(duration=400.0, miss_rate=0.2))
        ratio = degraded.throughput / base.throughput
        realized = degraded.slots_missed / degraded.slots_scheduled
        assert ratio == pytest.approx(1 - realized, rel=0.08)

    def test_block_count_conservation(self):
        m = run_simulation(toy_config())
        assert m.blocks_final + m.blocks_stale + m.blocks_active == m.blocks_produced

    def test_honest_single_clique_invariant(self):
        cfg = toy_config()
        m = run_simulation(cfg)
        assert m.max_processing_lag < cfg.protocol.slot_interval / 2
        assert m.stale_rate == 0.0 and m.max_clique_count == 1

    def test_causality_and_half_propagation(self):
        cfg = toy_config(duration=120.0)
        m = run_simulation(cfg, collect_blocks=True, collect_propagation=True)
        by_id = {r["id"]: r for r in m.block_records}
        for entry in m.propagation:
            rec = by_id[entry["id"]]
            created = rec["created"]
            arrivals = sorted(t for _, t in entry["arrivals"])
            assert arrivals[0] == created           # the producer holds it first
            assert all(t >= created for t in arrivals)
            if rec["half_propagation"] is not None:
                k = math.ceil(cfg.node_count / 2)
                assert rec["half_propagation"] == pytest.approx(arrivals[k - 1] - created)

    def test_endorsements_enabled_toy_run(self):
        cfg = toy_config(E=2, endorsements_enabled=True, duration=160.0)
        m = run_simulation(cfg)
        assert m.stale_rate == 0.0
        assert m.tx_per_block == (100_000 - 6720 - 2 * 1040) // 1040

    def test_header_integers_are_the_ids(self, monkeypatch):
        # every header a run's handles are fed carries its id's integer
        fed = []
        extend = CompatibilityState.extend_meta
        monkeypatch.setattr(CompatibilityState, "extend_meta",
                            lambda st, meta: fed.append(meta) or extend(st, meta))
        run_simulation(toy_config(duration=60.0))
        assert fed and all(m.num == int.from_bytes(m.id, "big") for m in fed)

    def test_confirmation_near_finality_horizon(self):
        # fast toy net: confirmation ~ F t0/T plus one slot and small lag
        cfg = toy_config(duration=400.0)
        m = run_simulation(cfg)
        p = cfg.protocol
        horizon = p.finality * p.slot_interval / p.thread_count
        slot_gap = p.slot_interval / p.thread_count
        assert m.confirmation_time is not None
        assert horizon <= m.confirmation_time < horizon + slot_gap + 10 * (m.t_half + 0.2)


class TestConsensusFreeSchedule:
    """Which node processes which block, and when, does not depend on
    consensus: the (time, node, block number) of every handle call that
    ``run_simulation`` makes equals ``network_schedule(cfg)`` drained alone,
    at F=64 and at F=8, which change settlement, staling and the cliques
    kept (on these runs not the parents: the best clique is the same). A
    call's time is that of the event popped last, the step's own event; a
    block's number is the order of its first ``extend_meta`` call, which is
    its creator's at its creation."""

    @staticmethod
    def _logged_run(monkeypatch, cfg):
        nodes: dict = {}
        numbers: dict = {}
        now = [None]
        log: dict = {"extend_meta": [], "update_finality": [], "maximal_cliques": [],
                     "best_parents": []}

        def timed_pop(heap):
            item = heapq.heappop(heap)
            now[0] = item[0]
            return item

        def logged(name, orig):
            def call(st, *args):
                entry = (now[0], nodes[st])
                if args:
                    entry += (numbers.setdefault(args[0].id, len(numbers)),)
                log[name].append(entry)
                return orig(st, *args)
            return call

        init = CompatibilityState.__init__

        def logged_init(st, *args, **kwargs):
            init(st, *args, **kwargs)
            nodes[st] = len(nodes)

        monkeypatch.setattr(CompatibilityState, "__init__", logged_init)
        for name in log:
            monkeypatch.setattr(CompatibilityState, name,
                                logged(name, getattr(CompatibilityState, name)))
        monkeypatch.setattr(netsim, "heapq",
                            SimpleNamespace(heappush=heapq.heappush, heappop=timed_pop))
        m = run_simulation(cfg, collect_blocks=True)
        monkeypatch.undo()
        return log, len(numbers), m

    def _check(self, monkeypatch, overrides):
        desk = SimConfig.from_dict(json.loads((CONFIGS / "throughput_12mbps_desk.json").read_text()))
        base = apply_overrides(desk, {"duration": "600", **overrides})
        schedule = list(network_schedule(base))
        steps = [(t, node, k) for t, node, k, _ in schedule]
        creations = [(t, node) for t, node, _, slot in schedule if slot is not None]
        runs = []
        for f in ("64", "8"):
            log, blocks, m = self._logged_run(monkeypatch, apply_overrides(base, {"F": f}))
            assert log["extend_meta"] == steps
            assert log["update_finality"] == log["maximal_cliques"] == [step[:2] for step in steps]
            assert log["best_parents"] == creations
            assert blocks == len(creations) == m.slots_scheduled - m.slots_missed
            runs.append(m)
        m64, m8 = runs
        assert (m64.transmissions, m64.max_processing_lag) == (m8.transmissions, m8.max_processing_lag)
        # F=64's longer warm-up measures a suffix of F=8's blocks, with the
        # same creation and half-propagation times
        late = m8.block_records[len(m8.block_records) - len(m64.block_records):]
        assert [(r["created"], r["half_propagation"]) for r in m64.block_records] == \
            [(r["created"], r["half_propagation"]) for r in late]
        return m64, m8

    def test_desk(self, monkeypatch):
        m64, m8 = self._check(monkeypatch, {})
        assert (m64.max_clique_count, m8.max_clique_count) == (1, 1)
        assert m64.confirmation_time > m8.confirmation_time

    def test_forked(self, monkeypatch):
        m64, m8 = self._check(monkeypatch, {"T": "4", "C_B": "12000000"})
        assert m64.max_clique_count > m8.max_clique_count > 1
        assert m8.blocks_stale > 0


class TestForkingRun:
    """A run whose latency far exceeds the slot gap forks: nodes settle many
    cliques and stale blocks, so the multi-clique paths run under network
    timing. Its metrics and block records are pinned byte for byte."""

    DIGEST = "0ea5c995f70a36d03144462b560989051f6e21dd6c624a26b913ab1556d8b4cc"

    def test_pinned_outcome(self):
        path = Path(__file__).resolve().parent.parent / "configs" / "toy.json"
        cfg = replace(SimConfig.from_dict(json.loads(path.read_text())),
                      node_count=32, mean_latency=4.0)
        m = run_simulation(cfg, collect_blocks=True)
        assert m.max_clique_count == 6
        assert (m.blocks_stale, m.blocks_final, m.blocks_produced) == (33, 69, 113)
        text = canonical_json(m.to_dict()) + canonical_json(m.block_records)
        assert hashlib.sha256(text.encode()).hexdigest() == self.DIGEST


class TestTiedEvents:
    """With equal bandwidths, equal latencies and dyadic delays, event times
    tie exactly and only the sequence numbers order the events: every send
    takes 0.125 s, every link 0.0625 s and every verification 0.0625 s.
    Metrics and every propagation arrival are pinned byte for byte."""

    DIGESTS = {
        7: "e4f9c7727a1d5dfdef2bc98708de04c0d1f73edbe045b28d86ba1d33b7a41cee",
        8: "1b265a5c315470643c5dba4f5a7af38cbf5cc548b556f86af31ef1f99beaeaf1",
        9: "4aaa1c1a526c72cb824f2c537a80d87810eb1a21d5faa64623ff6d203e4a4f34",
    }
    # slots 0.5 s apart, less than a block takes to reach every node
    BUSY_DIGEST = "49b87442203ecb3a14f97775f62670e4c4b708444d18a05a2518c42d40afdddd"
    LATENCY = 0.0625

    @classmethod
    def _uniform_topology(cls, cfg, max_retries=100):
        topo = build_topology(cfg, max_retries)
        return NetworkTopology([cfg.mean_bandwidth] * cfg.node_count, topo.successors,
                               [[cls.LATENCY] * len(s) for s in topo.successors], topo.peers,
                               [dict.fromkeys(lat, cls.LATENCY) for lat in topo.peer_latency])

    def _run(self, monkeypatch, **overrides):
        """The run's digest; per event time, the events popped at it; and
        the send-dones pushed at a slot event for that very instant, which
        only a held-back send-done meeting the slot's relay produces."""
        popped: Counter = Counter()
        last = [None]
        meets = [0]

        def counting_pop(heap):
            item = last[0] = heapq.heappop(heap)
            popped[item[0]] += 1
            return item

        def counting_push(heap, item):
            cur = last[0]
            if item[2] == netsim._EV_SEND_DONE and cur[2] == netsim._EV_SLOT and item[0] == cur[0]:
                meets[0] += 1
            heapq.heappush(heap, item)

        monkeypatch.setattr(netsim, "build_topology", self._uniform_topology)
        monkeypatch.setattr(netsim, "heapq",
                            SimpleNamespace(heappush=counting_push, heappop=counting_pop))
        settings = dict(node_count=32, duration=120, mean_bandwidth=800_000,
                        block_verify_time=0.0625, tx_verify_time=0)
        cfg = toy_config(**{**settings, **overrides})
        m = run_simulation(cfg, collect_propagation=True)
        text = canonical_json(m.to_dict()) + canonical_json(m.propagation)
        return hashlib.sha256(text.encode()).hexdigest(), popped, meets[0]

    @pytest.mark.parametrize("seed", sorted(DIGESTS))
    def test_pinned_outcome(self, monkeypatch, seed):
        digest, popped, _ = self._run(monkeypatch, seed=seed)
        assert sum(count > 1 for count in popped.values()) >= 500
        assert digest == self.DIGESTS[seed]

    def test_slot_meets_held_send_done(self, monkeypatch):
        # a producer's channel frees at the very instant of its slot: the
        # held-back send-done is due then but pops after the slot event, so
        # the transmission it starts takes later sequence numbers
        digest, _, meets = self._run(monkeypatch, node_count=16, duration=60, t0=1.0, seed=7)
        assert meets >= 10
        assert digest == self.BUSY_DIGEST


class TestSharedViews:
    """Nodes share consensus views, yet every node answers as a private state
    fed the same headers in the same order would: after each block it
    processes, its admission status, settlement lists (which give the
    creator's verdicts), cliques and best parents, and at the end the status
    of every block it processed. Each node's view keeps its invariants after
    every settlement under network timing, and the private states' final and
    stale sets only grow."""

    @staticmethod
    def _recorded_run(monkeypatch, cfg):
        steps: dict = {}    # handle -> [[header, status, settled, cliques, parents], ...]
        extend, settle = CompatibilityState.extend_meta, CompatibilityState.update_finality

        def recording_extend(st, meta):
            status = extend(st, meta)
            steps.setdefault(st, []).append([meta, status])
            return status

        def recording_settle(st):
            settled = settle(st)
            st.view.check_invariants()
            steps[st][-1] += [settled, st.maximal_cliques(), st.best_parents()]
            return settled

        monkeypatch.setattr(CompatibilityState, "extend_meta", recording_extend)
        monkeypatch.setattr(CompatibilityState, "update_finality", recording_settle)
        run_simulation(cfg)
        monkeypatch.undo()
        return steps

    def _check(self, monkeypatch, cfg):
        steps = self._recorded_run(monkeypatch, cfg)
        assert len(steps) == cfg.node_count
        for handle, record in steps.items():
            private = CompatibilityState(cfg.protocol)
            final, stale = set(), set()
            for meta, status, settled, cliques, parents in record:
                assert private.extend_meta(meta) == status
                assert private.update_finality() == settled
                assert private.maximal_cliques() == cliques
                assert private.best_parents() == parents
                assert final <= private.final_set and stale <= private.stale_set
                final, stale = set(private.final_set), set(private.stale_set)
            assert [handle.status(m.id) for m, *_ in record] == \
                [private.status(m.id) for m, *_ in record]
        return steps

    @staticmethod
    def _toy(latency):
        path = Path(__file__).resolve().parent.parent / "configs" / "toy.json"
        return replace(SimConfig.from_dict(json.loads(path.read_text())),
                       node_count=32, mean_latency=latency)

    def test_clean_run(self, monkeypatch):
        handles = list(self._check(monkeypatch, self._toy(1.0)))
        assert len({id(h.view) for h in handles}) < len(handles)
        handles[0].check_invariants()

    def test_forking_run(self, monkeypatch):
        # the pinned forking config of TestForkingRun
        handles = list(self._check(monkeypatch, self._toy(4.0)))
        assert any(h.stale_set for h in handles)
        handles[0].check_invariants()
