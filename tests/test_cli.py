import io
import json
import math
import os
import random

import pytest

from blockclique.chain import ProtocolParams, make_genesis, write_trace
from blockclique.cli import canonical_json, main

from dag_gen import random_instance


def run(argv):
    return main(argv)


class TestCanonicalJson:
    def test_sorted_keys_and_float_format(self):
        s = canonical_json({"b": 1.0 / 3.0, "a": 1, "c": [True, None, "x"]})
        assert s == '{"a":1,"b":0.333333333333,"c":[true,null,"x"]}'

    def test_non_finite_becomes_null(self):
        assert canonical_json({"x": math.inf}) == '{"x":null}'

    def test_twelve_significant_digits(self):
        assert canonical_json(123456.789012345) == "123456.789012"


class TestSimulateCommand:
    def test_toy_config_runs_and_writes_outputs(self, tmp_path, capsys):
        code = run(["simulate", "--config", "configs/toy.json",
                    "--out", str(tmp_path), "--blocks"])
        assert code == 0
        metrics = json.loads((tmp_path / "metrics.json").read_text())
        assert metrics["stale_rate"] == 0.0
        assert metrics["manifest"] == "manifest.json"
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert "metrics.json" in manifest["outputs"]
        assert "blocks.csv" in manifest["outputs"]
        header = (tmp_path / "blocks.csv").read_text().splitlines()[0]
        assert header.startswith("id,thread,period,created")

    def test_overrides_and_determinism(self, tmp_path):
        args = ["simulate", "--override", "N=8", "T=2", "t0=4", "S_B=100000",
                "F=4", "duration=120", "--seed", "5"]
        assert run(args + ["--out", str(tmp_path / "a")]) == 0
        assert run(args + ["--out", str(tmp_path / "b")]) == 0
        a = (tmp_path / "a" / "metrics.json").read_bytes()
        b = (tmp_path / "b" / "metrics.json").read_bytes()
        assert a == b

    def test_override_flag_given_twice_keeps_both(self, tmp_path):
        base = ["simulate", "--config", "configs/toy.json", "--seed", "3"]
        assert run(base + ["--override", "N=6", "T=4", "duration=60",
                           "--out", str(tmp_path / "one")]) == 0
        assert run(base + ["--override", "N=6", "--override", "T=4", "duration=60",
                           "--out", str(tmp_path / "two")]) == 0
        one = (tmp_path / "one" / "metrics.json").read_bytes()
        assert (tmp_path / "two" / "metrics.json").read_bytes() == one

    def test_malformed_config_exit_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert run(["simulate", "--config", str(bad), "--out", str(tmp_path)]) == 2
        assert "config error" in capsys.readouterr().err

    def test_bad_override_exit_2(self, tmp_path):
        assert run(["simulate", "--override", "nonsense=1",
                    "--out", str(tmp_path)]) == 2

    @pytest.mark.parametrize("override", ["B=0", "S_tx=0", "L=-1", "B=-5",
                                          "block_verify_time=-1", "mu=nan"])
    def test_bad_value_exit_2(self, tmp_path, capsys, override):
        assert run(["simulate", "--config", "configs/toy.json", "--override", override,
                    "--out", str(tmp_path)]) == 2
        assert "config error" in capsys.readouterr().err

    @pytest.mark.parametrize("config", [
        [1, 2], {"node_count": "abc"},
        # misspelt keys, once run as their defaults
        {"node_count": 8, "duration": 30, "protocl": {"thread_count": 2}, "sed": 5},
        {"node_count": 8, "protocol": {"thread_cont": 2}}])
    def test_bad_config_file_exit_2(self, tmp_path, capsys, config):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(config))
        assert run(["simulate", "--config", str(bad), "--out", str(tmp_path)]) == 2
        assert "config error" in capsys.readouterr().err



class TestAttackCommand:
    def test_reference_point(self, capsys):
        assert run(["attack", "--beta", "0.45", "--mu", "0.01",
                    "--F", "64", "--E", "0"]) == 0
        rec = json.loads(capsys.readouterr().out)
        assert 0.5e-6 < rec["p_success"] < 2e-6

    def test_duration_flag(self, capsys):
        assert run(["attack", "--beta", "0.5", "--mu", "0.1",
                    "--F", "64", "--E", "8", "--duration"]) == 0
        rec = json.loads(capsys.readouterr().out)
        assert rec["mean_slots"] == pytest.approx(410, rel=0.05)

    def test_threshold_mode(self, capsys):
        assert run(["attack", "--threshold", "--mu", "0.01"]) == 0
        rec = json.loads(capsys.readouterr().out)
        assert round(rec["beta_star"], 3) == 0.497

    def test_closed_form_domain_error_exit_2(self, capsys):
        assert run(["attack", "--beta", "0.3", "--F", "8", "--E", "2",
                    "--closed-form"]) == 2
        assert "domain error" in capsys.readouterr().err

    def test_sweep_csv(self, capsys):
        assert run(["attack", "--mu", "0.01", "--F", "8", "--E", "0", "--beta", "0.1",
                    "--sweep", "beta=0.05:0.45:0.05"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0].startswith("beta,mu,gamma")
        assert len(lines) == 10  # header + 9 sweep points
        betas = [float(l.split(",")[0]) for l in lines[1:]]
        assert betas == pytest.approx([0.05 * i for i in range(1, 10)])

    def test_missing_beta_exit_2(self, capsys):
        assert run(["attack", "--mu", "0.01"]) == 2

    def test_sweep_finite_where_probabilities_underflow(self, capsys):
        assert run(["attack", "--mu", "0.01", "--F", "64", "--E", "8", "--beta", "0.05",
                    "--sweep", "beta=0.05:0.45:0.01"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        header = lines[0].split(",")
        rows = [dict(zip(header, line.split(","))) for line in lines[1:]]
        assert len(rows) == 41
        log10s = [float(r["log10_p"]) for r in rows]
        assert all(math.isfinite(x) for x in log10s)
        assert all(a < b for a, b in zip(log10s, log10s[1:]))
        assert all(0.0 <= float(r["p_success"]) <= 1.0 for r in rows)

    def test_sweep_manifest_reruns(self, tmp_path, capsys):
        argv = ["attack", "--beta", "0.1", "--mu", "0.01", "--F", "8", "--E", "2",
                "--start", "-12", "--duration", "--tail", "8,16",
                "--sweep", "beta=0.1:0.3:0.1"]
        assert run(argv + ["--out", str(tmp_path / "a")]) == 0
        manifest = json.loads((tmp_path / "a" / "manifest.json").read_text())
        assert manifest["outputs"] == ["sweep.csv"]
        c = manifest["config"]
        assert c == {"beta": 0.1, "mu": 0.01, "F": 8, "E": 2, "start": -12,
                     "duration": True, "tail": [8, 16], "sweep": "beta=0.1:0.3:0.1",
                     "threshold": False, "closed_form": False}
        rerun = ["attack", "--beta", str(c["beta"]), "--mu", str(c["mu"]),
                 "--F", str(c["F"]), "--E", str(c["E"]), "--start", str(c["start"]),
                 "--tail", ",".join(map(str, c["tail"])), "--sweep", c["sweep"],
                 "--out", str(tmp_path / "b")] + (["--duration"] if c["duration"] else [])
        assert run(rerun) == 0
        assert ((tmp_path / "a" / "sweep.csv").read_bytes()
                == (tmp_path / "b" / "sweep.csv").read_bytes())

    @pytest.mark.parametrize("sweep", ["foo=0.1:0.3:0.1", "start=-6:-2:2"])
    def test_sweep_rejects_keys_it_cannot_sweep(self, sweep, capsys):
        assert run(["attack", "--beta", "0.3", "--mu", "0.01", "--F", "8", "--E", "0",
                    "--sweep", sweep]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "beta, mu, F, E" in captured.err

    @pytest.mark.parametrize("sweep", ["E=0:2:0.5", "F=2:3:0.5"])
    def test_sweep_rejects_non_integer_f_and_e(self, sweep, capsys):
        assert run(["attack", "--beta", "0.3", "--mu", "0.01", "--F", "8", "--E", "2",
                    "--sweep", sweep]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "must be integers" in captured.err

    def test_threshold_manifest_records_e(self, tmp_path, capsys):
        assert run(["attack", "--threshold", "--mu", "0.01", "--E", "3",
                    "--out", str(tmp_path)]) == 0
        config = json.loads((tmp_path / "manifest.json").read_text())["config"]
        assert config["E"] == 3 and config["mu"] == 0.01 and config["threshold"]


class TestReplayCommand:
    def _write_trace(self, path, params, blocks):
        with open(path, "w") as fp:
            write_trace([make_genesis(t) for t in range(params.thread_count)], fp)
            write_trace(blocks, fp)

    def test_replay_outputs_statuses(self, tmp_path, capsys):
        rng = random.Random(4)
        params, blocks = random_instance(rng, max_blocks=12)
        trace = tmp_path / "trace.jsonl"
        self._write_trace(trace, params, blocks)
        code = run(["replay", "--trace", str(trace),
                    "--override", f"T={params.thread_count}",
                    f"F={params.finality}", f"E={params.endorsement_slots}",
                    "t0=4", "S_B=10000"])
        assert code == 0
        out = capsys.readouterr().out.strip().splitlines()
        assert len(out) == len(blocks)
        statuses = {json.loads(l)["status"] for l in out}
        assert statuses <= {"active", "final", "stale"}

    def test_replay_deterministic_bytes(self, tmp_path, capsys):
        rng = random.Random(11)
        params, blocks = random_instance(rng, max_blocks=12)
        trace = tmp_path / "trace.jsonl"
        self._write_trace(trace, params, blocks)
        argv = ["replay", "--trace", str(trace),
                "--override", f"T={params.thread_count}", f"F={params.finality}",
                f"E={params.endorsement_slots}", "t0=4", "S_B=10000"]
        assert run(argv) == 0
        first = capsys.readouterr().out
        assert run(argv) == 0
        assert capsys.readouterr().out == first

    def test_override_flag_given_twice_keeps_both(self, tmp_path, capsys):
        rng = random.Random(11)
        params, blocks = random_instance(rng, max_blocks=12)
        trace = tmp_path / "trace.jsonl"
        self._write_trace(trace, params, blocks)
        pairs = [f"T={params.thread_count}", f"F={params.finality}",
                 f"E={params.endorsement_slots}", "t0=4", "S_B=10000"]
        outputs = []
        for flags in (["--override", *pairs], ["--override", *pairs[:2], "--override", *pairs[2:]]):
            assert run(["replay", "--trace", str(trace), *flags,
                        "--out", str(tmp_path / str(len(outputs)))]) == 0
            outputs.append((tmp_path / str(len(outputs)) / "replay.jsonl").read_bytes())
        assert outputs[0] == outputs[1]

    def test_empty_trace_ok(self, tmp_path, capsys):
        trace = tmp_path / "empty.jsonl"
        trace.write_text("")
        assert run(["replay", "--trace", str(trace)]) == 0
        assert capsys.readouterr().out == ""

    def test_malformed_trace_exit_2(self, tmp_path, capsys):
        trace = tmp_path / "junk.jsonl"
        trace.write_text("this is not json\n")
        assert run(["replay", "--trace", str(trace)]) == 2

    @pytest.mark.parametrize("record", [
        '{"slot": 5}',
        '[1]',
        '"x"',
        '{"slot": {"thread": 0, "period": 1}, "creator": 0, "parents": [1], '
        '"size_bits": 0, "tx_count": 0}',
        '{"slot": {"thread": 0, "period": 1}, "creator": -1, "parents": [], '
        '"size_bits": 0, "tx_count": 0}',
        '{"slot": {"thread": 0, "period": 1}, "creator": 0, "parents": [], '
        '"size_bits": 1e3, "tx_count": 0}',
    ])
    def test_record_of_wrong_json_type_exit_2(self, tmp_path, capsys, record):
        trace = tmp_path / "bad.jsonl"
        trace.write_text(record + "\n")
        assert run(["replay", "--trace", str(trace)]) == 2
        assert "malformed trace" in capsys.readouterr().err

    @pytest.mark.parametrize("config", [[1, 2], {"protocol": {"thread_count": "32"}},
                                        {"thread_cont": 2}, {"protocol": {"thread_cont": 2}}])
    def test_bad_config_file_exit_2(self, tmp_path, capsys, config):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(config))
        trace = tmp_path / "empty.jsonl"
        trace.write_text("")
        assert run(["replay", "--config", str(bad), "--trace", str(trace)]) == 2
        assert "config error" in capsys.readouterr().err

    def test_simulate_config_read_through_protocol(self, tmp_path, capsys):
        # a full simulate config gives replay its "protocol" object
        trace = tmp_path / "empty.jsonl"
        trace.write_text("")
        assert run(["replay", "--config", "configs/toy.json", "--trace", str(trace),
                    "--out", str(tmp_path)]) == 0
        config = json.loads((tmp_path / "manifest.json").read_text())["config"]
        assert config == json.loads(open("configs/toy.json").read())["protocol"]

    def test_structural_violation_exit_4(self, tmp_path, capsys):
        p = ProtocolParams(thread_count=2, slot_interval=4.0, max_block_size=1000,
                           finality=3, endorsement_slots=0)
        from blockclique.chain import Block, Slot
        g = [make_genesis(t) for t in range(2)]
        too_big = Block(slot=Slot(0, 1), creator=1,
                        parents=(g[0].id, g[1].id), size_bits=5000)
        trace = tmp_path / "trace.jsonl"
        self._write_trace(trace, p, [too_big])
        code = run(["replay", "--trace", str(trace),
                    "--override", "T=2", "F=3", "E=0", "t0=4", "S_B=1000"])
        assert code == 4
        captured = capsys.readouterr()
        assert "structural violation" in captured.err
        assert json.loads(captured.out.splitlines()[0])["status"] == "invalid"

    def test_no_validate_ancestor_inconsistent_trace(self, tmp_path, capsys):
        # e names g0 as its thread-0 parent, yet its thread-1 parent c
        # descends from a, which sits above g0 in thread 0
        p = ProtocolParams(thread_count=2, slot_interval=4.0, max_block_size=10_000,
                           finality=3, endorsement_slots=0)
        from blockclique.chain import Block, Slot
        g = [make_genesis(t) for t in range(2)]
        a = Block(slot=Slot(0, 1), creator=1, parents=(g[0].id, g[1].id), size_bits=100)
        c = Block(slot=Slot(1, 1), creator=1, parents=(a.id, g[1].id), size_bits=100)
        e = Block(slot=Slot(0, 2), creator=1, parents=(g[0].id, c.id), size_bits=100)
        trace = tmp_path / "trace.jsonl"
        self._write_trace(trace, p, [a, c, e])
        argv = ["replay", "--trace", str(trace), "--override", "T=2", "F=3", "E=0",
                "t0=4", "S_B=10000"]
        assert run(argv) == 4
        capsys.readouterr()
        assert run(argv + ["--no-validate"]) in (0, 2, 3, 4)
        assert len(capsys.readouterr().out.splitlines()) == 3

    def test_no_validate_final_parent_off_final_chain(self, tmp_path, capsys):
        # b0 is a non-genesis block at period 0 in thread 1. Once b0 and g1
        # are final, g1 stays thread 1's final tip, so the walk down from it
        # to b3's final parent b0 reaches genesis without meeting b0
        p = ProtocolParams(thread_count=2, slot_interval=4.0, max_block_size=10_000,
                           finality=1, endorsement_slots=0)
        from blockclique.chain import Block, Slot
        g0, g1 = (make_genesis(t).id for t in range(2))
        b0 = Block(slot=Slot(1, 0), creator=5, parents=(g0, g1), size_bits=100)
        b1 = Block(slot=Slot(0, 1), creator=3, parents=(g0, b0.id), size_bits=100)
        b2 = Block(slot=Slot(1, 1), creator=0, parents=(b1.id, b0.id), size_bits=100)
        b3 = Block(slot=Slot(0, 2), creator=0, parents=(g0, b0.id), size_bits=100)
        trace = tmp_path / "trace.jsonl"
        self._write_trace(trace, p, [b0, b1, b2, b3])
        argv = ["replay", "--trace", str(trace), "--override", "T=2", "F=1", "E=0",
                "t0=4", "S_B=10000", "--no-validate"]
        assert run(argv) in (0, 2, 3, 4)
        assert len(capsys.readouterr().out.splitlines()) == 4

    @pytest.mark.parametrize("thread, parent_count", [(1, 1), (5, 2)])
    def test_no_validate_header_without_own_thread_parent(self, tmp_path, capsys,
                                                          thread, parent_count):
        # at T=2, a thread-1 block with one parent and a thread-5 block both
        # lack a parent in their own thread: validation rejects them, and
        # without it the header cannot be read
        p = ProtocolParams(thread_count=2, slot_interval=4.0, max_block_size=10_000,
                           finality=3, endorsement_slots=0)
        from blockclique.chain import Block, Slot
        g = [make_genesis(t).id for t in range(2)]
        b = Block(slot=Slot(thread, 1), creator=1, parents=tuple(g[:parent_count]),
                  size_bits=100)
        trace = tmp_path / "trace.jsonl"
        self._write_trace(trace, p, [b])
        argv = ["replay", "--trace", str(trace), "--override", "T=2", "F=3", "E=0",
                "t0=4", "S_B=10000"]
        assert run(argv) == 4
        capsys.readouterr()
        assert run(argv + ["--no-validate"]) == 2
        assert "malformed trace" in capsys.readouterr().err

    def test_no_validate_random_traces_never_raise(self, tmp_path, capsys):
        # per thread, each parent is any block made so far in that thread,
        # and each period is the largest so far plus 0 or 1: own-thread
        # parents need not be older, and ancestors need not be consistent.
        # Such a trace exits 0. Past the first 300 traces, some blocks also
        # break the header shape consensus indexes by: an extra parent, a
        # thread at or above T, or a parent slot naming a block of another
        # thread. Such a trace is malformed and exits 2
        from blockclique.chain import Block, Slot
        rng = random.Random(5)
        trace = tmp_path / "trace.jsonl"
        shapes = [None] * 300 + ["extra parent", "thread out of range",
                                 "cross-thread parent"] * 200
        for shape in shapes:
            f = rng.choice([1, 2])
            pools = [[make_genesis(t).id] for t in range(4)]
            top = 0
            blocks = []
            misshapen = False
            for _ in range(rng.randint(4, 24)):
                tau = rng.randrange(4)
                top += rng.randint(0, 1)
                parents = [rng.choice(pool) for pool in pools]
                thread = tau
                if shape is not None and rng.random() < 0.25:
                    misshapen = True
                    if shape == "extra parent":
                        parents.append(rng.choice(rng.choice(pools)))
                    elif shape == "thread out of range":
                        # thread + 1 parents, so that the thread indexes one
                        thread = tau + 4
                        parents += [rng.choice(rng.choice(pools)) for _ in range(tau + 1)]
                    else:
                        slot = rng.randrange(4)
                        other = (slot + rng.randint(1, 3)) % 4
                        parents[slot] = rng.choice(pools[other])
                b = Block(slot=Slot(thread, top), creator=rng.randrange(8),
                          parents=tuple(parents), size_bits=100)
                pools[tau].append(b.id)
                blocks.append(b)
            self._write_trace(trace, ProtocolParams(thread_count=4), blocks)
            argv = ["replay", "--trace", str(trace), "--override", "T=4", f"F={f}",
                    "E=0", "t0=4", "S_B=10000", "--no-validate"]
            code = run(argv)
            assert code == (2 if misshapen else 0)
            capsys.readouterr()

    def test_unresolved_cycle_attempt(self, tmp_path, capsys):
        p = ProtocolParams(thread_count=2, slot_interval=4.0, max_block_size=10_000,
                           finality=3, endorsement_slots=0)
        from blockclique.chain import Block, Slot
        g = [make_genesis(t) for t in range(2)]
        orphan = Block(slot=Slot(0, 1), creator=1,
                       parents=(bytes(31) + b"\x99", g[1].id), size_bits=100)
        trace = tmp_path / "trace.jsonl"
        self._write_trace(trace, p, [orphan])
        assert run(["replay", "--trace", str(trace), "--override", "T=2",
                    "F=3", "E=0", "t0=4", "S_B=10000"]) == 0
        out = capsys.readouterr().out.strip().splitlines()
        assert json.loads(out[-1])["status"] == "unresolved"
