"""Experiment harness: training, evaluation, ingestion, and RSU commands.

Exit codes: 0 success, 1 runtime/IO error, 2 usage error, 3 domain "no result"
(out-of-zone fetch). Each file-producing subcommand resolves its arguments
into jobs of (config, outputs) and runs each job; every job writes a manifest
next to its primary output with the config, the outputs and the SHA-256 of
each input and output file. A job two of whose paths name one file is refused.
`replay --manifest` runs the recorded job again, refuses to when an input file
has changed, and exits 1 when an output's bytes differ from the recorded ones.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import math
import os
import sys
from dataclasses import asdict, fields
from typing import Callable, NamedTuple, Optional

from . import __version__, imitation, qlearn, rsu, world
from .config import ConfigError, check_types
from .rnn import TrainingError

TOOL = "cavlab"

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_USAGE = 2
EXIT_NONE = 3


class CliError(Exception):
    """Runtime failure reported on stderr with exit code 1."""


@contextlib.contextmanager
def _reading(path: str, what: str = ""):
    """The one rule for a failed read of input `path`: CliError `cannot read <path>: ...` or `<path>: <what><error>`."""
    try:
        yield
    except OSError as exc:
        raise CliError(f"cannot read {path}: {exc}") from exc
    except (KeyError, TypeError, ValueError, RecursionError) as exc:  # RecursionError: JSON nested too deep
        raise CliError(f"{path}: {what}{exc}") from exc


@contextlib.contextmanager
def _writing(path: str):
    """Report an OSError on `path` as the CliError `cannot write <path>: ...`."""
    try:
        yield
    except OSError as exc:
        raise CliError(f"cannot write {path}: {exc}") from exc


def _load_json(path: str) -> dict:
    with _reading(path, "invalid JSON: "), open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict):
        raise CliError(f"{path}: expected a JSON object")
    return doc


def _write_text(path: str, text: str) -> None:
    with _writing(path), open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


def _sha256(path: str) -> str:
    digest = hashlib.sha256()
    with _reading(path), open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


@contextlib.contextmanager
def _invalid_config(source: str):
    """Report a missing key, a wrong type or an out-of-range value as a CliError."""
    try:
        yield
    except (KeyError, TypeError, ValueError) as exc:
        raise CliError(f"{source}: invalid configuration: {exc!r}") from exc


# --- sim-train / sim-eval ---

SIM_SECTIONS = {"road": world.RoadConfig, "reward": world.RewardConfig, "learn": qlearn.LearnConfig}


def _sim_sections(doc: dict, *names: str) -> dict:
    """The named sections of a `--config` document, with every default filled in."""
    unknown = set(doc) - set(SIM_SECTIONS)
    if unknown:
        raise ConfigError(f"unknown sections {sorted(unknown)}; expected road, reward and learn")
    return {name: asdict(SIM_SECTIONS[name].from_dict(doc.get(name, {}))) for name in names}


def _resolve_sim_train(args) -> list:
    doc = _load_json(args.config) if args.config else {}
    with _invalid_config(args.config):
        learn = doc.get("learn", {})
        if isinstance(learn, dict):  # any other section is refused by LearnConfig.from_dict in _sim_sections
            learn = dict(learn)
            if args.episodes is not None:
                learn["episodes"] = args.episodes
            if args.v2v:
                learn["v2v"] = True
        config = _sim_sections({**doc, "learn": learn}, *SIM_SECTIONS)
    with _invalid_config("--seeds"):
        seeds = [int(s) for s in args.seeds.split(",")] if args.seeds else [args.seed]
    jobs = []
    for seed in seeds:
        outputs = {"metrics": args.metrics_out, "qtable": args.qtable_out}
        if args.seeds:  # each seed's files get a .seed<N> suffix
            outputs = {name: "{0}.seed{2}{1}".format(*os.path.splitext(path), seed) for name, path in outputs.items()}
        jobs.append(({**config, "learn": {**config["learn"], "seed": seed}}, outputs))
    return jobs


def _run_sim_train(config: dict, outputs: dict) -> None:
    with _invalid_config("sim-train"):
        road, reward, learn = check_types(config, SIM_SECTIONS).values()
    if road.max_steps * road.max_agent_speed < road.length:
        raise CliError(
            f"max_steps={road.max_steps} cannot traverse length={road.length} "
            f"at max speed {road.max_agent_speed}; not a trainable configuration"
        )
    table, buckets = qlearn.train(road, reward, learn)
    _write_text(outputs["metrics"], qlearn.metrics_to_csv(buckets))
    _write_text(outputs["qtable"], table.to_json() + "\n")


def _resolve_sim_eval(args) -> list:
    doc = _load_json(args.config) if args.config else {}
    with _invalid_config(args.config):
        config = _sim_sections(doc, "road", "reward")
    config.update(qtable=args.qtable, seed=args.seed, runs=args.runs)
    return [(config, {"trace": args.trace_out})]


def _run_sim_eval(config: dict, outputs: dict) -> str:
    """Greedy rollouts of a saved Q-table, with a per-step trace."""
    with _invalid_config("sim-eval"):
        kinds = {"road": SIM_SECTIONS["road"], "reward": SIM_SECTIONS["reward"],
                 "qtable": str, "seed": int, "runs": int}
        road, reward, path, seed, runs = check_types(config, kinds).values()
        if runs < 0:
            raise ValueError(f"runs must be >= 0, got {runs}")
    with _reading(path, "invalid Q-table: "), open(path, "r", encoding="utf-8") as fh:
        table = qlearn.QTable.from_json(fh.read())
    lines = [qlearn.TRACE_HEADER]
    stats = list(qlearn.run_episodes(road, reward, table, seed, runs, trace=lines))
    _write_text(outputs["trace"], "\n".join(lines) + "\n")
    goals = [s for s, e in stats if e == world.GOAL]
    mean = f" mean_time_to_goal={sum(goals)/len(goals):.2f}" if goals else ""
    return f"runs={len(stats)} goals={len(goals)}{mean}"


# --- ingest ---

def _resolve_ingest(args) -> list:
    config = {
        "xml": args.xml,
        "ego": args.ego,
        "filter": {f.name: getattr(args, f.name) for f in fields(imitation.FilterConfig)},
        "encoder": {f.name: getattr(args, f.name) for f in fields(imitation.EncoderConfig)},
    }
    return [(config, {"dataset": args.out, "report": args.report_out or args.out + ".rejects.json"})]


def _run_ingest(config: dict, outputs: dict) -> str:
    with _invalid_config("ingest"):
        xml, ego, filt, enc = check_types(config, {"xml": str, "ego": str, "filter": imitation.FilterConfig,
                                                   "encoder": imitation.EncoderConfig}).values()
    with _reading(xml), open(xml, "rb") as fh:
        timesteps = imitation.parse_fcd(fh)

    trajectories = imitation.extract_ego_sequences(timesteps, ego)
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
    with _writing(outputs["dataset"]):
        imitation.write_dataset(samples, outputs["dataset"])
    report = {"rejected": rejects, "by_reason": counts}
    _write_text(outputs["report"], json.dumps(report, indent=2, sort_keys=True) + "\n")
    return f"positives={len(samples)} rejected={len(rejects)}"


# --- imitate-train / imitate-eval ---

def _read_samples(path: str) -> list:
    with _reading(path, "invalid dataset: "):
        samples = imitation.read_dataset(path)
    if not samples:
        raise CliError(f"{path}: dataset is empty")
    return samples


def _resolve_imitate_train(args) -> list:
    settings = {f.name: getattr(args, f.name) for f in fields(imitation.TrainConfig)}
    return [({"dataset": args.dataset, **settings}, {"artifact": args.artifact_out})]


def _run_imitate_train(config: dict, outputs: dict) -> str:
    with _invalid_config("imitate-train"):
        cfg = imitation.TrainConfig.from_dict({key: value for key, value in config.items() if key != "dataset"})
    samples = _read_samples(config["dataset"])
    try:
        artifact, history = imitation.train_policy(samples, cfg)
    except TrainingError as exc:
        raise CliError(f"training failed: {exc}") from exc
    except ValueError as exc:  # too few sequences or mixed encoders
        raise CliError(str(exc)) from exc
    with _writing(outputs["artifact"]):
        imitation.save_artifact(artifact, outputs["artifact"])
    final_train = history.train_mse[-1] if history.train_mse else math.nan
    final_val = history.val_mse[-1] if history.val_mse else math.nan
    return f"epochs_run={len(history.train_mse)} train_mse={final_train:.6g} val_mse={final_val:.6g}"


def _resolve_imitate_eval(args) -> list:
    return [({"artifact": args.artifact, "dataset": args.dataset}, {"csv": args.csv_out})]


def _run_imitate_eval(config: dict, outputs: dict) -> str:
    with _invalid_config("imitate-eval"):
        path, dataset = check_types(config, {"artifact": str, "dataset": str}).values()
    with _reading(path):
        artifact = imitation.load_artifact(path)
    samples = _read_samples(dataset)
    try:
        report = imitation.evaluate_policy(artifact, samples)
    except imitation.EncoderMismatchError as exc:
        raise CliError(f"encoder mismatch: {exc}") from exc
    except imitation.InsufficientDataError as exc:
        raise CliError(str(exc)) from exc
    _write_text(outputs["csv"], imitation.eval_rows_to_csv(report.rows))
    return f"speed_rmse={report.speed_rmse:.6g} angle_rmse={report.angle_rmse:.6g}"


# --- the table of file-producing subcommands ---

class Pipeline(NamedTuple):
    resolve: Callable  # args -> [(config, outputs)], one job per output set
    run: Callable      # (config, outputs) -> summary line for stdout, or None
    outputs: tuple     # the names in `outputs`; the manifest goes next to the first
    inputs: tuple = ()  # the config keys that name input files


PIPELINES = {
    "sim-train": Pipeline(_resolve_sim_train, _run_sim_train, ("metrics", "qtable")),
    "sim-eval": Pipeline(_resolve_sim_eval, _run_sim_eval, ("trace",), ("qtable",)),
    "ingest": Pipeline(_resolve_ingest, _run_ingest, ("dataset", "report"), ("xml",)),
    "imitate-train": Pipeline(_resolve_imitate_train, _run_imitate_train, ("artifact",), ("dataset",)),
    "imitate-eval": Pipeline(_resolve_imitate_eval, _run_imitate_eval, ("csv",), ("artifact", "dataset")),
}


def _check_digests(what: str, digests: dict, recorded: Optional[dict]) -> None:
    """Raise a CliError naming each key whose digest is not the `recorded` one; None checks nothing."""
    if recorded is not None:
        differ = sorted(k for k in digests.keys() | recorded.keys() if digests.get(k) != recorded.get(k))
        if differ:
            raise CliError(f"{what}: {', '.join(differ)}")


def _execute(subcommand: str, config: dict, outputs: dict, recorded: Optional[dict] = None) -> None:
    """Run one job, write its manifest and print its summary.

    The job is refused before it reads or writes anything when two of its
    paths name one file. `recorded` is a manifest being replayed: the job is
    refused when an input file no longer matches the manifest's `inputs`, and
    fails after the run when an output does not match its `digests`.
    """
    pipeline = PIPELINES[subcommand]
    manifest_path = outputs[pipeline.outputs[0]] + ".manifest.json"
    seen: dict[str, str] = {}
    for name, path in [*((key, config[key]) for key in pipeline.inputs), *outputs.items(), ("manifest", manifest_path)]:
        real = os.path.realpath(path)
        if real in seen:
            raise CliError(f"{seen[real]} and {name} {path} are the same file")
        seen[real] = f"{name} {path}"
    recorded = recorded or {}
    inputs = {config[key]: _sha256(config[key]) for key in pipeline.inputs}
    _check_digests("input changed since the manifest was written", inputs, recorded.get("inputs"))
    summary = pipeline.run(config, outputs)
    digests = {name: _sha256(path) for name, path in outputs.items()}
    manifest = {"tool": TOOL, "tool_version": __version__, "subcommand": subcommand,
                "config": config, "outputs": outputs, "inputs": inputs, "digests": digests}
    _write_text(manifest_path, json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    if summary is not None:
        print(summary)
    _check_digests("output differs from the manifest's digest", digests, recorded.get("digests"))


def cmd_pipeline(args) -> int:
    for config, outputs in PIPELINES[args.subcommand].resolve(args):
        _execute(args.subcommand, config, outputs)
    return EXIT_OK


# --- rsu-serve / rsu-fetch ---

def cmd_rsu_serve(args) -> int:
    with _invalid_config(args.config):
        cfg = rsu.RsuConfig.from_dict(_load_json(args.config))
    with _reading(cfg.artifact_path):
        artifact = imitation.load_artifact(cfg.artifact_path)
    try:
        served = rsu.serve(cfg, artifact)
    except OSError as exc:
        raise CliError(f"cannot bind {cfg.host}:{cfg.port}: {exc}") from exc
    print(f"served={served}")
    return EXIT_OK


def cmd_rsu_fetch(args) -> int:
    host, _, port = args.endpoint.rpartition(":")
    if not host or not port.isdecimal():  # the digits int() reads: isdigit() also passes '²'
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
    with _writing(args.out):
        imitation.save_artifact(artifact, args.out)
    print(f"artifact written to {args.out}")
    return EXIT_OK


# --- replay ---

def _names_files(doc, keys) -> bool:
    return isinstance(doc, dict) and all(isinstance(doc.get(key), str) for key in keys)


def cmd_replay(args) -> int:
    manifest = _load_json(args.manifest)
    sub = manifest.get("subcommand")
    pipeline = PIPELINES.get(sub) if isinstance(sub, str) else None
    if pipeline is None:
        raise CliError(f"{args.manifest}: manifest subcommand {sub!r} is not replayable")
    config, outputs = manifest.get("config"), manifest.get("outputs")
    if not (_names_files(config, pipeline.inputs) and _names_files(outputs, pipeline.outputs)
            and all(isinstance(manifest.get(key), (dict, type(None))) for key in ("inputs", "digests"))):
        raise CliError(f"{args.manifest}: malformed {sub} manifest: config needs file names under "
                       f"{list(pipeline.inputs)} and outputs under {list(pipeline.outputs)}; "
                       "inputs and digests, where given, are objects")
    outputs = {name: outputs[name] for name in pipeline.outputs}
    if args.out_dir:
        outputs = {name: os.path.join(args.out_dir, os.path.basename(path)) for name, path in outputs.items()}
    _execute(sub, config, outputs, manifest)
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
    p.set_defaults(func=cmd_pipeline)

    p = sub.add_parser("sim-eval", help="greedy rollouts from a trained Q-table with per-step trace")
    p.add_argument("--qtable", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--runs", type=_positive_int, default=10)
    p.add_argument("--config", default=None)
    p.add_argument("--trace-out", required=True)
    p.set_defaults(func=cmd_pipeline)

    p = sub.add_parser("ingest", help="parse an FCD XML log into a training dataset")
    p.add_argument("--xml", required=True)
    p.add_argument("--ego", required=True, help="glob pattern on vehicle id")
    p.add_argument("--d-min", type=float, default=imitation.FilterConfig.d_min)
    p.add_argument("--zone-x-min", type=float, default=imitation.FilterConfig.zone_x_min)
    p.add_argument("--zone-x-max", type=float, default=imitation.FilterConfig.zone_x_max)
    p.add_argument("--zone-lane-prefix", default=imitation.FilterConfig.zone_lane_prefix)
    p.add_argument("--t-min", type=int, default=imitation.FilterConfig.t_min)
    p.add_argument("--t-max", type=int, default=imitation.FilterConfig.t_max)
    p.add_argument("--neighbors", dest="k", type=int, default=imitation.EncoderConfig.k, metavar="NEIGHBORS")
    p.add_argument("--v-norm", type=float, default=imitation.EncoderConfig.v_norm)
    p.add_argument("--d-norm", type=float, default=imitation.EncoderConfig.d_norm)
    p.add_argument("--out", required=True)
    p.add_argument("--report-out", default=None)
    p.set_defaults(func=cmd_pipeline)

    p = sub.add_parser("imitate-train", help="train the merge policy from a dataset")
    p.add_argument("--dataset", required=True)
    p.add_argument("--epochs", type=_positive_int, default=imitation.TrainConfig.epochs)
    p.add_argument("--patience", type=int, default=imitation.TrainConfig.patience)
    p.add_argument("--hidden", type=int, default=imitation.TrainConfig.hidden)
    p.add_argument("--lr", type=float, default=imitation.TrainConfig.lr)
    p.add_argument("--split", type=float, default=imitation.TrainConfig.split)
    p.add_argument("--seed", type=int, default=imitation.TrainConfig.seed)
    p.add_argument("--artifact-out", required=True)
    p.set_defaults(func=cmd_pipeline)

    p = sub.add_parser("imitate-eval", help="evaluate a policy artifact against a dataset")
    p.add_argument("--artifact", required=True)
    p.add_argument("--dataset", required=True)
    p.add_argument("--csv-out", required=True)
    p.set_defaults(func=cmd_pipeline)

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
    except (CliError, ConfigError, world.SpawnError) as exc:
        print(f"{TOOL}: error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except KeyboardInterrupt:
        return 130


def entry() -> None:
    raise SystemExit(main())
