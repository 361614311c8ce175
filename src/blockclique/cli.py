"""Command-line front end: reproducible simulation, attack-analysis, and
trace-replay experiments.

All data outputs are byte-stable for a fixed (config, seed): JSON is written
with sorted keys and floats at 12 significant digits. Each run also writes a
manifest (command, resolved config, seed, wall times, output names); the
manifest carries wall-clock timestamps and is the one run artifact that is not
byte-reproducible.
"""

from __future__ import annotations

import argparse
import json
import logging
import math
import os
import sys
import time
from dataclasses import asdict, dataclass, field

from . import __version__
from .chain import ProtocolParams
from .consensus import replay_trace
from .errors import BlockcliqueError, CliqueExplosion, DomainError
from .netsim import SimConfig, apply_overrides, run_simulation
from .security import ThreatModel, analyze, closed_form_success

log = logging.getLogger(__name__)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_CLIQUE_EXPLOSION = 3
EXIT_STRUCTURAL = 4

MANIFEST_NAME = "manifest.json"


def format_float(x: float) -> str:
    return f"{x:.12g}"


def canonical_json(obj) -> str:
    """Deterministic JSON: sorted keys, fixed float formatting."""
    out: list[str] = []
    _write_json(obj, out)
    return "".join(out)


def _write_json(obj, out: list[str]) -> None:
    if obj is None or isinstance(obj, bool):
        out.append(json.dumps(obj))
    elif isinstance(obj, int):
        out.append(str(obj))
    elif isinstance(obj, float):
        out.append(format_float(obj) if math.isfinite(obj) else "null")
    elif isinstance(obj, str):
        out.append(json.dumps(obj))
    elif isinstance(obj, dict):
        out.append("{")
        for i, key in enumerate(sorted(obj)):
            if i:
                out.append(",")
            out.append(json.dumps(str(key)))
            out.append(":")
            _write_json(obj[key], out)
        out.append("}")
    elif isinstance(obj, (list, tuple)):
        out.append("[")
        for i, item in enumerate(obj):
            if i:
                out.append(",")
            _write_json(item, out)
        out.append("]")
    else:
        raise TypeError(f"cannot serialize {type(obj)!r}")


@dataclass
class RunManifest:
    command: str
    config: dict
    seed: int
    started: float
    finished: float = 0.0
    outputs: list[str] = field(default_factory=list)
    build_id: str = f"blockclique-{__version__}"

    def write(self, out_dir: str) -> str:
        path = os.path.join(out_dir, MANIFEST_NAME)
        with open(path, "w") as fp:
            fp.write(canonical_json(asdict(self)) + "\n")
        return path


def _write_output(out_dir: str, name: str, text: str, manifest: RunManifest) -> str:
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, name)
    with open(path, "w") as fp:
        fp.write(text)
    manifest.outputs.append(name)
    return path


def _csv_cell(v) -> str:
    if v is None:
        return ""
    if isinstance(v, float):
        return format_float(v)
    return str(v)


def write_csv(rows: list[dict], columns: list[str]) -> str:
    lines = [",".join(columns)]
    for row in rows:
        lines.append(",".join(_csv_cell(row.get(c)) for c in columns))
    return "\n".join(lines) + "\n"


def _parse_overrides(pairs: list[str]) -> dict:
    overrides = {}
    for pair in pairs:
        if "=" not in pair:
            raise ValueError(f"override {pair!r} is not key=value")
        key, value = pair.split("=", 1)
        overrides[key] = value
    return overrides


def _load_sim_config(args) -> SimConfig:
    cfg = SimConfig()
    if args.config:
        with open(args.config) as fp:
            cfg = SimConfig.from_dict(json.load(fp))
    if args.override:
        cfg = apply_overrides(cfg, _parse_overrides(args.override))
    if args.seed is not None:
        cfg = apply_overrides(cfg, {"seed": str(args.seed)})
    return cfg


def cmd_simulate(args) -> int:
    try:
        cfg = _load_sim_config(args)
        cfg.tx_per_block  # validates header/block size coherence
    except (OSError, ValueError, KeyError, TypeError, OverflowError) as e:
        print(f"config error: {e}", file=sys.stderr)
        return EXIT_CONFIG
    manifest = RunManifest("simulate", asdict(cfg), cfg.seed, started=time.time())
    try:
        metrics = run_simulation(cfg, collect_blocks=args.blocks,
                                 collect_propagation=args.prop_trace)
    except CliqueExplosion as e:
        print(f"clique explosion: {e}", file=sys.stderr)
        return EXIT_CLIQUE_EXPLOSION
    except BlockcliqueError as e:
        print(f"simulation error: {e}", file=sys.stderr)
        return EXIT_CONFIG
    record = metrics.to_dict()
    record["manifest"] = MANIFEST_NAME
    _write_output(args.out, "metrics.json", canonical_json(record) + "\n", manifest)
    if args.blocks:
        columns = ["id", "thread", "period", "created", "half_propagation",
                   "settled", "status"]
        _write_output(args.out, "blocks.csv",
                      write_csv(metrics.block_records, columns), manifest)
    if args.prop_trace:
        lines = [canonical_json(entry) for entry in metrics.propagation]
        _write_output(args.out, "propagation.jsonl",
                      "\n".join(lines) + ("\n" if lines else ""), manifest)
    manifest.finished = time.time()
    manifest.write(args.out)
    print(canonical_json(record))
    return EXIT_OK


SWEEP_KEYS = ("beta", "mu", "F", "E")


def _sweep_values(expr: str) -> tuple[str, list[float]]:
    key, _, rng = expr.partition("=")
    if key not in SWEEP_KEYS:
        raise ValueError(f"sweep key must be one of {', '.join(SWEEP_KEYS)}, got {key!r}")
    parts = rng.split(":")
    if len(parts) != 3:
        raise ValueError(f"sweep must be key=start:stop:step, got {expr!r}")
    start, stop, step = (float(p) for p in parts)
    if step <= 0:
        raise ValueError("sweep step must be positive")
    values = []
    k = 0
    while True:
        v = start + k * step
        if v > stop + 1e-12:
            break
        values.append(round(v, 12))
        k += 1
    if key in ("F", "E") and any(v != int(v) for v in values):
        raise ValueError(f"sweep values for {key} must be integers, got {expr!r}")
    return key, values


def cmd_attack(args) -> int:
    started = time.time()
    try:
        tails = [int(x) for x in args.tail.split(",")] if args.tail else None
        if args.threshold and args.beta is None:
            from .security import newcomer_safety_threshold
            record = {
                "mu": args.mu,
                "beta_star": newcomer_safety_threshold(args.mu),
            }
            name, text = "attack.json", canonical_json(record) + "\n"
        elif args.beta is None:
            print("error: --beta is required unless --threshold is given", file=sys.stderr)
            return EXIT_CONFIG
        elif args.sweep:
            key, values = _sweep_values(args.sweep)
            rows = []
            for v in values:
                tm = _threat_model(args, {key: v})
                rec = analyze(tm, start=args.start, with_duration=args.duration,
                              tail_slots=tails)
                rows.append(rec)
            columns = ["beta", "mu", "gamma", "finality", "endorsement_slots",
                       "start", "p_success", "log10_p", "mean_slots", "std_slots",
                       "beta_star"]
            name, text = "sweep.csv", write_csv(rows, columns)
        else:
            tm = _threat_model(args, {})
            record = analyze(tm, start=args.start, with_duration=args.duration,
                             tail_slots=tails)
            if args.closed_form:
                record["p_closed_form"] = closed_form_success(tm)
            name, text = "attack.json", canonical_json(record) + "\n"
    except (DomainError, ValueError) as e:
        print(f"domain error: {e}", file=sys.stderr)
        return EXIT_CONFIG
    if args.out:
        inputs = {
            "beta": args.beta, "mu": args.mu, "F": args.F, "E": args.E,
            "start": args.start, "duration": args.duration, "tail": tails,
            "sweep": args.sweep, "threshold": args.threshold,
            "closed_form": args.closed_form,
        }
        manifest = RunManifest("attack", inputs, 0, started=started)
        _write_output(args.out, name, text, manifest)
        manifest.finished = time.time()
        manifest.write(args.out)
    sys.stdout.write(text)
    return EXIT_OK


def _threat_model(args, overrides: dict) -> ThreatModel:
    fields = {key: getattr(args, key) for key in SWEEP_KEYS}
    fields.update(overrides)
    return ThreatModel(
        attacker_share=fields["beta"],
        miss_rate=fields["mu"],
        finality=int(fields["F"]),
        endorsement_slots=int(fields["E"]),
    )


def cmd_replay(args) -> int:
    params = ProtocolParams()
    if args.config:
        try:
            with open(args.config) as fp:
                loaded = json.load(fp)
            if not isinstance(loaded, dict):
                raise ValueError(f"config must be a JSON object, got {loaded!r}")
            params = ProtocolParams.from_dict(loaded.get("protocol", loaded))
        except (OSError, ValueError) as e:
            print(f"config error: {e}", file=sys.stderr)
            return EXIT_CONFIG
    if args.override:
        try:
            cfg = apply_overrides(SimConfig(protocol=params),
                                  _parse_overrides(args.override))
            params = cfg.protocol
        except (ValueError, KeyError, OverflowError) as e:
            print(f"config error: {e}", file=sys.stderr)
            return EXIT_CONFIG
    manifest = RunManifest("replay", asdict(params), 0, started=time.time())
    try:
        with open(args.trace) as fp:
            records, violations = replay_trace(
                fp, params, validate=not args.no_validate)
    except CliqueExplosion as e:
        print(f"clique explosion: {e}", file=sys.stderr)
        return EXIT_CLIQUE_EXPLOSION
    except (OSError, ValueError, KeyError, json.JSONDecodeError) as e:
        print(f"malformed trace: {e}", file=sys.stderr)
        return EXIT_CONFIG
    lines = [canonical_json(rec) for rec in records]
    text = "\n".join(lines) + ("\n" if lines else "")
    if args.out:
        _write_output(args.out, "replay.jsonl", text, manifest)
        manifest.finished = time.time()
        manifest.write(args.out)
    sys.stdout.write(text)
    for bid, v in violations:
        print(f"structural violation {bid.hex()[:16]}: {'; '.join(v)}", file=sys.stderr)
    return EXIT_STRUCTURAL if violations else EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="blockclique",
        description="Multithreaded block-DAG consensus laboratory",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="run the peer-to-peer network simulator")
    sim.add_argument("--config", help="JSON config file mirroring SimConfig fields")
    sim.add_argument("--override", nargs="*", action="extend", default=[],
                     help="key=value overrides (N, B, L, T, t0, S_B, C_B, F, E, mu, ...)")
    sim.add_argument("--seed", type=int, default=None)
    sim.add_argument("--out", default=".", help="output directory")
    sim.add_argument("--blocks", action="store_true", help="write per-block CSV")
    sim.add_argument("--prop-trace", action="store_true",
                     help="write per-block propagation JSON lines")
    sim.set_defaults(func=cmd_simulate)

    atk = sub.add_parser("attack", help="finality-fork attack analysis")
    atk.add_argument("--beta", type=float, default=None, help="attacker resource share")
    atk.add_argument("--mu", type=float, default=0.0, help="honest miss rate")
    atk.add_argument("--F", type=int, default=64, help="finality parameter")
    atk.add_argument("--E", type=int, default=0, help="endorsement slots per block")
    atk.add_argument("--start", type=int, default=None,
                     help="start fitness difference (default: -(F-1)(E+1))")
    atk.add_argument("--duration", action="store_true",
                     help="include attack duration mean/std")
    atk.add_argument("--threshold", action="store_true",
                     help="newcomer safety threshold for --mu")
    atk.add_argument("--closed-form", action="store_true",
                     help="include the E=0 closed-form probability")
    atk.add_argument("--tail", default=None, help="comma-separated slot counts "
                     "for duration tail bounds")
    atk.add_argument("--sweep", default=None, help="key=start:stop:step sweep, "
                     "emits CSV (e.g. beta=0.05:0.45:0.05)")
    atk.add_argument("--out", default=None, help="optional output directory")
    atk.set_defaults(func=cmd_attack)

    rep = sub.add_parser("replay", help="replay a DAG trace through consensus")
    rep.add_argument("--trace", required=True, help="JSON-lines DAG trace file")
    rep.add_argument("--config", help="JSON file carrying protocol parameters")
    rep.add_argument("--override", nargs="*", action="extend", default=[],
                     help="protocol overrides (T, t0, S_B, F, E)")
    rep.add_argument("--no-validate", action="store_true",
                     help="skip structural validation")
    rep.add_argument("--out", default=None, help="optional output directory")
    rep.set_defaults(func=cmd_replay)
    return parser


def main(argv=None) -> int:
    level = os.environ.get("BLOCKCLIQUE_LOG", "WARNING").upper()
    logging.basicConfig(level=getattr(logging, level, logging.WARNING),
                        format="%(levelname)s %(name)s: %(message)s")
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
