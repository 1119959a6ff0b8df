"""Experiment harness: training, evaluation, ingestion, and RSU commands.

Exit codes: 0 success, 1 runtime/IO error, 2 usage error, 3 domain "no result"
(out-of-zone fetch). Every file-producing run writes a manifest next to its
primary output; `replay --manifest` re-executes the frozen configuration and
reproduces the outputs byte for byte.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from typing import Optional

from . import __version__, imitation, qlearn, rsu, world
from .rnn import TrainingError

TOOL = "cavlab"

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_USAGE = 2
EXIT_NONE = 3


class CliError(Exception):
    """Runtime failure reported on stderr with exit code 1."""


def _load_json(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise CliError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise CliError(f"{path}: invalid JSON: {exc}") from exc


def _write_text(path: str, text: str) -> None:
    try:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    except OSError as exc:
        raise CliError(f"cannot write {path}: {exc}") from exc


def _write_manifest(primary_output: str, subcommand: str, config: dict, outputs: dict) -> None:
    manifest = {
        "tool": TOOL,
        "tool_version": __version__,
        "subcommand": subcommand,
        "config": config,
        "outputs": outputs,
    }
    _write_text(primary_output + ".manifest.json", json.dumps(manifest, indent=2, sort_keys=True) + "\n")


def _sections(config_path: Optional[str]) -> dict:
    if not config_path:
        return {}
    doc = _load_json(config_path)
    if not isinstance(doc, dict):
        raise CliError(f"{config_path}: configuration must be a JSON object")
    return doc


def _road_config(doc: dict) -> world.RoadConfig:
    return world.RoadConfig.from_dict(doc.get("road", {}))


def _reward_config(doc: dict) -> world.RewardConfig:
    return world.RewardConfig.from_dict(doc.get("reward", {}))


# --- sim-train ---

def _resolve_sim_train(args) -> dict:
    doc = _sections(args.config)
    road = _road_config(doc)
    if road.max_steps * road.max_agent_speed < road.length:
        raise CliError(
            f"max_steps={road.max_steps} cannot traverse length={road.length} "
            f"at max speed {road.max_agent_speed}; not a trainable configuration"
        )
    reward = _reward_config(doc)
    learn_doc = dict(doc.get("learn", {}))
    if args.episodes is not None:
        learn_doc["episodes"] = args.episodes
    if args.v2v:
        learn_doc["v2v"] = True
    learn = qlearn.LearnConfig.from_dict(learn_doc)
    return {
        "road": vars_dataclass(road),
        "reward": vars_dataclass(reward),
        "learn": vars_dataclass(learn),
    }


def vars_dataclass(cfg) -> dict:
    from dataclasses import asdict

    d = asdict(cfg)
    for key, value in list(d.items()):
        if isinstance(value, tuple):
            d[key] = list(value)
    return d


def _run_sim_train_one(config: dict, metrics_out: str, qtable_out: str) -> None:
    road = world.RoadConfig.from_dict(config["road"])
    reward = world.RewardConfig.from_dict(config["reward"])
    learn = qlearn.LearnConfig.from_dict(config["learn"])
    table, buckets = qlearn.train(road, reward, learn)
    _write_text(metrics_out, qlearn.metrics_to_csv(buckets))
    _write_text(qtable_out, table.to_json() + "\n")


def cmd_sim_train(args) -> int:
    config = _resolve_sim_train(args)
    seeds = [int(s) for s in args.seeds.split(",")] if args.seeds else [args.seed]
    multi = args.seeds is not None
    for seed in seeds:
        cfg = json.loads(json.dumps(config))
        cfg["learn"]["seed"] = seed
        metrics_out = _seed_path(args.metrics_out, seed) if multi else args.metrics_out
        qtable_out = _seed_path(args.qtable_out, seed) if multi else args.qtable_out
        _run_sim_train_one(cfg, metrics_out, qtable_out)
        _write_manifest(
            metrics_out,
            "sim-train",
            cfg,
            {"metrics": metrics_out, "qtable": qtable_out},
        )
    return EXIT_OK


def _seed_path(path: str, seed: int) -> str:
    root, ext = os.path.splitext(path)
    return f"{root}.seed{seed}{ext}"


# --- sim-eval ---

def _run_sim_eval(road, reward_cfg, qtable_path: str, seed: int, runs: int, trace_out: str) -> list:
    """Greedy rollouts of a saved Q-table; writes the trace CSV, returns (steps, event) per run."""
    try:
        with open(qtable_path, "r", encoding="utf-8") as fh:
            table = qlearn.QTable.from_json(fh.read())
    except OSError as exc:
        raise CliError(f"cannot read {qtable_path}: {exc}") from exc
    except (ValueError, KeyError, TypeError) as exc:
        raise CliError(f"{qtable_path}: invalid Q-table: {exc}") from exc
    lines = [qlearn.TRACE_HEADER]
    stats = list(qlearn.run_episodes(road, reward_cfg, table, seed, runs, trace=lines))
    _write_text(trace_out, "\n".join(lines) + "\n")
    return stats


def cmd_sim_eval(args) -> int:
    doc = _sections(args.config)
    road = _road_config(doc)
    reward_cfg = _reward_config(doc)
    stats = _run_sim_eval(road, reward_cfg, args.qtable, args.seed, args.runs, args.trace_out)
    config = {
        "road": vars_dataclass(road),
        "reward": vars_dataclass(reward_cfg),
        "qtable": args.qtable,
        "seed": args.seed,
        "runs": args.runs,
    }
    _write_manifest(args.trace_out, "sim-eval", config, {"trace": args.trace_out})
    goals = [s for s, e in stats if e == world.GOAL]
    print(
        f"runs={len(stats)} goals={len(goals)} "
        f"mean_time_to_goal={sum(goals)/len(goals):.2f}" if goals else f"runs={len(stats)} goals=0"
    )
    return EXIT_OK


# --- ingest ---

def cmd_ingest(args) -> int:
    try:
        with open(args.xml, "rb") as fh:
            data = fh.read()
    except OSError as exc:
        raise CliError(f"cannot read {args.xml}: {exc}") from exc
    try:
        timesteps = imitation.parse_fcd(data)
    except imitation.FcdParseError as exc:
        raise CliError(f"{args.xml}: {exc}") from exc

    zone = imitation.MergeZone(args.zone_x_min, args.zone_x_max, args.zone_lane_prefix)
    filt = imitation.FilterConfig(d_min=args.d_min, merge_zone=zone, t_min=args.t_min, t_max=args.t_max)
    enc = imitation.EncoderConfig(k=args.neighbors, v_norm=args.v_norm, d_norm=args.d_norm)

    trajectories = imitation.extract_ego_sequences(timesteps, args.ego)
    samples = []
    rejects = []
    counts: dict[str, int] = {}
    for i, traj in enumerate(trajectories):
        verdict = imitation.classify_positive(traj, filt)
        if verdict.positive:
            samples.append(imitation.encode_features(traj, enc, sequence_id=f"{traj.ego_id}#{i}"))
        else:
            rejects.append({"ego_id": traj.ego_id, "index": i, "steps": len(traj), "reason": verdict.reason})
            counts[verdict.reason] = counts.get(verdict.reason, 0) + 1
    try:
        imitation.write_dataset(samples, args.out)
    except OSError as exc:
        raise CliError(f"cannot write {args.out}: {exc}") from exc
    report_path = args.report_out or args.out + ".rejects.json"
    _write_text(report_path, json.dumps({"rejected": rejects, "by_reason": counts}, indent=2, sort_keys=True) + "\n")

    config = {
        "xml": args.xml,
        "ego": args.ego,
        "filter": {
            "d_min": args.d_min,
            "zone_x_min": args.zone_x_min,
            "zone_x_max": args.zone_x_max,
            "zone_lane_prefix": args.zone_lane_prefix,
            "t_min": args.t_min,
            "t_max": args.t_max,
        },
        "encoder": {"k": args.neighbors, "v_norm": args.v_norm, "d_norm": args.d_norm},
    }
    _write_manifest(args.out, "ingest", config, {"dataset": args.out, "report": report_path})
    print(f"positives={len(samples)} rejected={len(rejects)}")
    return EXIT_OK


# --- imitate-train / imitate-eval ---

def cmd_imitate_train(args) -> int:
    try:
        samples = imitation.read_dataset(args.dataset)
    except OSError as exc:
        raise CliError(f"cannot read {args.dataset}: {exc}") from exc
    except ValueError as exc:
        raise CliError(str(exc)) from exc
    if not samples:
        raise CliError(f"{args.dataset}: dataset is empty")
    try:
        artifact, history = imitation.train_policy(
            samples,
            split_ratio=args.split,
            hidden_dim=args.hidden,
            epochs=args.epochs,
            patience=args.patience,
            lr=args.lr,
            seed=args.seed,
        )
    except (imitation.InsufficientDataError, imitation.EncoderMismatchError) as exc:
        raise CliError(str(exc)) from exc
    except TrainingError as exc:
        raise CliError(f"training failed: {exc}") from exc
    imitation.save_artifact(artifact, args.artifact_out)
    config = {
        "dataset": args.dataset,
        "split": args.split,
        "hidden": args.hidden,
        "epochs": args.epochs,
        "patience": args.patience,
        "lr": args.lr,
        "seed": args.seed,
    }
    _write_manifest(args.artifact_out, "imitate-train", config, {"artifact": args.artifact_out})
    final_train = history.train_mse[-1] if history.train_mse else math.nan
    final_val = history.val_mse[-1] if history.val_mse else math.nan
    print(f"epochs_run={len(history.train_mse)} train_mse={final_train:.6g} val_mse={final_val:.6g}")
    return EXIT_OK


def cmd_imitate_eval(args) -> int:
    try:
        artifact = imitation.load_artifact(args.artifact)
    except imitation.ArtifactError as exc:
        raise CliError(f"{args.artifact}: {exc}") from exc
    try:
        samples = imitation.read_dataset(args.dataset)
    except (OSError, ValueError) as exc:
        raise CliError(f"cannot read {args.dataset}: {exc}") from exc
    if not samples:
        raise CliError(f"{args.dataset}: dataset is empty")
    try:
        report = imitation.evaluate_policy(artifact, samples)
    except imitation.EncoderMismatchError as exc:
        raise CliError(f"encoder mismatch: {exc}") from exc
    except imitation.InsufficientDataError as exc:
        raise CliError(str(exc)) from exc
    _write_text(args.csv_out, imitation.eval_rows_to_csv(report.rows))
    config = {"artifact": args.artifact, "dataset": args.dataset}
    _write_manifest(args.csv_out, "imitate-eval", config, {"csv": args.csv_out})
    print(f"speed_rmse={report.speed_rmse:.6g} angle_rmse={report.angle_rmse:.6g}")
    return EXIT_OK


# --- rsu-serve / rsu-fetch ---

def cmd_rsu_serve(args) -> int:
    doc = _load_json(args.config)
    try:
        cfg = rsu.RsuConfig.from_dict(doc)
    except (TypeError, ValueError) as exc:
        raise CliError(f"{args.config}: invalid RSU configuration: {exc}") from exc
    try:
        served = rsu.serve(cfg)
    except imitation.ArtifactError as exc:
        raise CliError(f"artifact load failed: {exc}") from exc
    except OSError as exc:
        raise CliError(f"cannot bind {cfg.host}:{cfg.port}: {exc}") from exc
    print(f"served={served}")
    return EXIT_OK


def cmd_rsu_fetch(args) -> int:
    host, _, port = args.endpoint.rpartition(":")
    if not host or not port.isdigit():
        raise CliError(f"endpoint must be host:port, got {args.endpoint!r}")
    try:
        artifact = rsu.fetch(host, int(port), args.id, args.x, args.y, timeout=args.timeout)
    except rsu.RsuError as exc:
        raise CliError(str(exc)) from exc
    except imitation.ArtifactError as exc:
        raise CliError(f"payload verification failed: {exc}") from exc
    if artifact is None:
        print("outside geofence: no policy served", file=sys.stderr)
        return EXIT_NONE
    imitation.save_artifact(artifact, args.out)
    print(f"artifact written to {args.out}")
    return EXIT_OK


# --- replay ---

def cmd_replay(args) -> int:
    manifest = _load_json(args.manifest)
    sub = manifest.get("subcommand")
    config = manifest.get("config", {})
    outputs = manifest.get("outputs", {})

    def out_path(name: str) -> str:
        path = outputs[name]
        if args.out_dir:
            path = os.path.join(args.out_dir, os.path.basename(path))
        return path

    if sub == "sim-train":
        _run_sim_train_one(config, out_path("metrics"), out_path("qtable"))
    elif sub == "sim-eval":
        road = world.RoadConfig.from_dict(config["road"])
        reward_cfg = world.RewardConfig.from_dict(config["reward"])
        _run_sim_eval(road, reward_cfg, config["qtable"], config["seed"], config["runs"], out_path("trace"))
    elif sub == "imitate-train":
        ns = argparse.Namespace(
            dataset=config["dataset"],
            split=config["split"],
            hidden=config["hidden"],
            epochs=config["epochs"],
            patience=config["patience"],
            lr=config["lr"],
            seed=config["seed"],
            artifact_out=out_path("artifact"),
        )
        return cmd_imitate_train(ns)
    elif sub == "imitate-eval":
        ns = argparse.Namespace(
            artifact=config["artifact"], dataset=config["dataset"], csv_out=out_path("csv")
        )
        return cmd_imitate_eval(ns)
    elif sub == "ingest":
        filt = config["filter"]
        enc = config["encoder"]
        ns = argparse.Namespace(
            xml=config["xml"],
            ego=config["ego"],
            d_min=filt["d_min"],
            zone_x_min=filt["zone_x_min"],
            zone_x_max=filt["zone_x_max"],
            zone_lane_prefix=filt["zone_lane_prefix"],
            t_min=filt["t_min"],
            t_max=filt["t_max"],
            neighbors=enc["k"],
            v_norm=enc["v_norm"],
            d_norm=enc["d_norm"],
            out=out_path("dataset"),
            report_out=out_path("report"),
        )
        return cmd_ingest(ns)
    else:
        raise CliError(f"manifest subcommand {sub!r} is not replayable")
    return EXIT_OK


# --- argument parsing ---

def _positive_int(value: str) -> int:
    n = int(value)
    if n < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {n}")
    return n


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog=TOOL, description=__doc__.splitlines()[0])
    parser.add_argument("--version", action="version", version=f"{TOOL} {__version__}")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("sim-train", help="train the lane/speed policy by Q-learning")
    p.add_argument("--episodes", type=_positive_int, default=None)
    p.add_argument("--v2v", action="store_true", help="share neighbor speeds in the state")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seeds", default=None, help="comma-separated seeds; outputs get .seed<N> suffixes")
    p.add_argument("--config", default=None, help="JSON file with road/reward/learn sections")
    p.add_argument("--metrics-out", required=True)
    p.add_argument("--qtable-out", required=True)
    p.set_defaults(func=cmd_sim_train)

    p = sub.add_parser("sim-eval", help="greedy rollouts from a trained Q-table with per-step trace")
    p.add_argument("--qtable", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--runs", type=_positive_int, default=10)
    p.add_argument("--config", default=None)
    p.add_argument("--trace-out", required=True)
    p.set_defaults(func=cmd_sim_eval)

    p = sub.add_parser("ingest", help="parse an FCD XML log into a training dataset")
    p.add_argument("--xml", required=True)
    p.add_argument("--ego", required=True, help="glob pattern on vehicle id")
    p.add_argument("--d-min", type=float, default=2.0)
    p.add_argument("--zone-x-min", type=float, default=-math.inf)
    p.add_argument("--zone-x-max", type=float, default=math.inf)
    p.add_argument("--zone-lane-prefix", default="")
    p.add_argument("--t-min", type=int, default=10)
    p.add_argument("--t-max", type=int, default=500)
    p.add_argument("--neighbors", type=int, default=4)
    p.add_argument("--v-norm", type=float, default=30.0)
    p.add_argument("--d-norm", type=float, default=50.0)
    p.add_argument("--out", required=True)
    p.add_argument("--report-out", default=None)
    p.set_defaults(func=cmd_ingest)

    p = sub.add_parser("imitate-train", help="train the merge policy from a dataset")
    p.add_argument("--dataset", required=True)
    p.add_argument("--epochs", type=_positive_int, default=200)
    p.add_argument("--patience", type=int, default=20)
    p.add_argument("--hidden", type=int, default=32)
    p.add_argument("--lr", type=float, default=1e-3)
    p.add_argument("--split", type=float, default=0.8)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--artifact-out", required=True)
    p.set_defaults(func=cmd_imitate_train)

    p = sub.add_parser("imitate-eval", help="evaluate a policy artifact against a dataset")
    p.add_argument("--artifact", required=True)
    p.add_argument("--dataset", required=True)
    p.add_argument("--csv-out", required=True)
    p.set_defaults(func=cmd_imitate_eval)

    p = sub.add_parser("rsu-serve", help="serve the policy artifact to approaching vehicles")
    p.add_argument("--config", required=True, help="JSON RsuConfig (host, port, geofence, artifact_path)")
    p.set_defaults(func=cmd_rsu_serve)

    p = sub.add_parser("rsu-fetch", help="fetch the policy from a roadside unit")
    p.add_argument("--endpoint", required=True, help="host:port")
    p.add_argument("--id", required=True)
    p.add_argument("--x", type=float, required=True)
    p.add_argument("--y", type=float, required=True)
    p.add_argument("--timeout", type=float, default=5.0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_rsu_fetch)

    p = sub.add_parser("replay", help="re-run a recorded manifest")
    p.add_argument("--manifest", required=True)
    p.add_argument("--out-dir", default=None, help="redirect outputs into this directory")
    p.set_defaults(func=cmd_replay)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    try:
        return args.func(args)
    except (CliError, world.ConfigError, world.SpawnError) as exc:
        print(f"{TOOL}: error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except KeyboardInterrupt:
        return 130


def entry() -> None:
    raise SystemExit(main())
