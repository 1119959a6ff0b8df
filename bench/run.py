"""cavlab benchmark: the sim, ingest, imitate and rsu pipelines end to end.

    python3 bench/run.py --workload {sim,ingest,imitate,rsu} --seed N --seconds S --trace {0,1}

Run it from the repository root; it uses cavlab from `src/` and needs only the
standard library and numpy. It makes the workload's inputs from --seed under
`.bench_work/`, then runs whole repetitions of the workload, each in a fresh
process (bench/worker.py), until --seconds have passed, and checks every
repetition's outputs. The last line of stdout is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {name: {"value", "unit"}}}

With --trace 0 the metrics are the end-to-end ones, medians over the
repetitions. With --trace 1 each repetition is a pair of runs on the same
input, one plain and one traced (bench/tracer.py), and the metrics are the
per-layer ones plus the tracing overhead; the spans and the full layer report
are written to `.bench_work/<workload>/trace/`. See bench/README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import random
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import checks  # noqa: E402
import gen  # noqa: E402

ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_work")
MIN_ROUNDS = 3
ROUND_TIMEOUT_S = 60

SIZES = {
    "full": {"episodes": 4000, "runs": 20, "ingest_egos": 120, "imitate_egos": 40, "held": 8,
             "epochs": 40, "hellos": 1000, "raw": 100, "feature_samples": 20},
    "tiny": {"episodes": 400, "runs": 4, "ingest_egos": 20, "imitate_egos": 20, "held": 4,
             "epochs": 15, "hellos": 20, "raw": 5, "feature_samples": 5},
}
GEOFENCE = {"x_min": 0.0, "x_max": 200.0, "y_min": -10.0, "y_max": 10.0}

END_TO_END = {"setup_s": "s", "wall_s": "s", "work_per_s": "1/s", "peak_rss_mb": "MB",
              "call_p50_ms": "ms", "call_p90_ms": "ms"}

PER_LAYER = {
    "world.spawn_world.calls": "count", "world.spawn_world.self_s": "s",
    "world.scan_full.calls": "count", "world.scan_full.self_s": "s",
    "world.apply_action.calls": "count", "world.apply_action.self_s": "s",
    "world.reward.self_s": "s",
    "qlearn.encode_state.self_s": "s", "qlearn.select_action.self_s": "s",
    "qlearn.q_update.calls": "count", "qlearn.q_update.self_s": "s",
    "qlearn.train.self_s": "s", "rng.draws": "count", "rng.self_s": "s",
    "qlearn.states": "count", "sim.steps_per_s": "1/s",
    "imitation.parse_fcd.s": "s", "imitation.parse_fcd.mb_per_s": "MB/s",
    "imitation.extract_ego_sequences.s": "s", "imitation.extract_ego_sequences.exponent": "1",
    "imitation.classify_positive.calls": "count", "imitation.classify_positive.s": "s",
    "imitation.encode_features.calls": "count", "imitation.encode_features.s": "s",
    "imitation.write_dataset.s": "s",
    "ingest.timesteps": "count", "ingest.snapshots": "count", "ingest.trajectories": "count",
    "ingest.positives": "count", "ingest.dataset_bytes": "B",
    "imitation.read_dataset.s": "s",
    "rnn.forward.calls": "count", "rnn.forward.self_s": "s",
    "rnn.backward.calls": "count", "rnn.backward.self_s": "s",
    "rnn.backward.gflops": "GFLOP/s", "rnn.adam_step.self_s": "s", "rnn.fit.epochs": "count",
    "imitation.evaluate_policy.self_s": "s", "imitation.save_artifact.s": "s",
    "rsu.server_start_s": "s", "rsu.roundtrip_p50_ms": "ms",
    "imitation.artifact_from_doc.p50_ms": "ms", "rsu.fetch.self_p50_ms": "ms",
    "rsu.payload_bytes": "B", "rsu.served": "count", "rsu.fetch_p99_ms": "ms",
    "trace.overhead_s": "s", "trace.layer_share": "1",
}


class RoundError(RuntimeError):
    pass


# --- inputs, one function per workload: (spec for the worker, context for the checks) ---

def prepare_sim(seed: int, size: dict, work: str):
    from cavlab import qlearn, world
    from dataclasses import asdict

    seeds, eval_seed = gen.sim_seeds(seed)
    config = gen.sim_config(size["episodes"])
    gen.write_json(f"{work}/sim.json", config)
    road, reward = asdict(world.RoadConfig()), asdict(world.RewardConfig())
    learn = asdict(qlearn.LearnConfig(**config["learn"]))
    spec = {"config": f"{work}/sim.json", "seeds": seeds, "eval_seed": eval_seed,
            "runs": size["runs"], "episodes": size["episodes"]}
    return spec, {"road": road, "reward": reward, "learn": learn,
                  "bound": checks.q_bound(reward, road, learn["gamma"])}


def write_log(path: str, log: gen.FcdLog) -> float:
    data = gen.fcd_xml(log)
    with open(path, "wb") as fh:
        fh.write(data)
    return len(data) / 1e6


def prepare_ingest(seed: int, size: dict, work: str, trace: bool):
    log = gen.fcd_log(seed, size["ingest_egos"])
    mb = write_log(f"{work}/fcd.xml", log)
    spec = {"xml": f"{work}/fcd.xml", "zone": list(gen.ZONE)}
    ctx = {"log": log, "mb": mb, "scaling": []}
    if trace:  # two smaller logs from the same generator, for the extract scaling exponent
        for part in (4, 2):
            small = gen.fcd_log(seed, size["ingest_egos"] // part)
            path = f"{work}/fcd_{part}.xml"
            ctx["scaling"].append((write_log(path, small), {"xml": path}))
    return spec, ctx


def prepare_imitate(seed: int, size: dict, work: str):
    from cavlab import rnn
    import worker  # imports cavlab, so only once src/ is on the path

    log = gen.fcd_log(seed, size["imitate_egos"], mix=("positive",))
    write_log(f"{work}/merges.xml", log)
    lo, hi, prefix = gen.ZONE
    code, _ = worker.call_cli(["ingest", "--xml", f"{work}/merges.xml", "--ego", "ego*", "--zone-x-min", lo,
                               "--zone-x-max", hi, "--zone-lane-prefix", prefix,
                               "--out", f"{work}/merges.jsonl"])
    if code != 0:
        raise RoundError(f"input preparation: cavlab ingest exited {code}")
    with open(f"{work}/merges.jsonl") as fh:
        lines = fh.readlines()
    random.Random(seed).shuffle(lines)
    held, train = lines[: size["held"]], lines[size["held"]:]
    for name, part in (("held", held), ("train", train)):
        with open(f"{work}/{name}.jsonl", "w") as fh:
            fh.writelines(part)
    n_train = max(1, min(len(train) - 1, int(len(train) * 0.8)))  # imitate-train's split
    steps = statistics.mean(len(json.loads(line)["targets"]) for line in train)
    initial = rnn.SeqModel.initialize(rnn.ModelConfig(input_dim=9, output_dim=2, hidden_dim=32, seed=11))
    spec = {"train": f"{work}/train.jsonl", "held": f"{work}/held.jsonl", "epochs": size["epochs"],
            "train_steps": n_train * steps}
    return spec, {"train_samples": checks.read_samples(f"{work}/train.jsonl"),
                  "initial": {k: v.copy() for k, v in initial.params().items()}}


def prepare_rsu(seed: int, size: dict, work: str):
    from cavlab import imitation, rnn

    cfg = rnn.ModelConfig(input_dim=9, output_dim=2, hidden_dim=32, seed=seed % (1 << 31))
    model = rnn.SeqModel.initialize(cfg)
    artifact = imitation.PolicyArtifact(cfg, imitation.EncoderConfig(), model.params())
    imitation.save_artifact(artifact, f"{work}/policy.json")
    spec = {"artifact": f"{work}/policy.json", "geofence": GEOFENCE, "raw_roundtrips": size["raw"],
            "hellos": gen.rsu_hellos(seed, size["hellos"], GEOFENCE)}
    return spec, {}


# --- checks of one repetition's outputs, found through the worker's `outputs` ---

def check_sim(spec: dict, ctx: dict, res: dict) -> list[str]:
    errors = []
    for name, path in res["outputs"].items():
        kind = name.split(".")[0]
        if kind == "trace":
            errors += checks.sim_trace(path, ctx["reward"], ctx["road"])
        elif kind == "metrics":
            errors += checks.sim_metrics(path, ctx["learn"], spec["episodes"])
        else:
            errors += checks.sim_qtable(path, ctx["bound"])
    return errors


def check_ingest(spec: dict, ctx: dict, res: dict) -> list[str]:
    dataset = res["outputs"]["dataset"]
    return (checks.ingest_outcome(dataset, res["outputs"]["rejects"], ctx["log"])
            + checks.ingest_features(dataset, ctx["log"], ctx["feature_samples"], ctx["seed"]))


def check_imitate(spec: dict, ctx: dict, res: dict) -> list[str]:
    out = res["outputs"]
    errors, csv_ok = checks.imitate_outputs(out["artifact"], out["profiles"], spec["held"],
                                            ctx["train_samples"], ctx["initial"])
    if not csv_ok:
        res["failed"] += 1
        res["failures"].append("imitate-eval: profiles CSV has numeric fields that are not numbers")
    return errors


def check_rsu(spec: dict, ctx: dict, res: dict) -> list[str]:
    return checks.rsu_round(res)


CHECKS = {"sim": check_sim, "ingest": check_ingest, "imitate": check_imitate, "rsu": check_rsu}


# --- repetitions ---

def run_round(spec: dict) -> dict:
    """One repetition in a fresh worker process; returns its result object,
    also kept as `result.json` in the repetition's directory.

    Each repetition writes into a new directory: on ext4, truncating or
    unlinking a file written moments earlier waits for its data to reach the
    disk (tens of ms), which would add noise that is not cavlab's.
    """
    os.makedirs(spec["out"])
    spec_path = f"{spec['out']}/spec.json"
    with open(spec_path, "w", encoding="utf-8") as fh:
        json.dump(spec, fh)
    env = dict(os.environ, PYTHONPATH=SRC, PYTHONHASHSEED="0")
    t_spawn = time.monotonic()
    proc = subprocess.Popen([sys.executable, os.path.join(HERE, "worker.py"), spec_path], env=env,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, start_new_session=True)
    try:
        out, err = proc.communicate(timeout=ROUND_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise RoundError(f"{spec['workload']} repetition exceeded {ROUND_TIMEOUT_S} s")
    finally:
        with contextlib.suppress(ProcessLookupError):
            os.killpg(proc.pid, signal.SIGKILL)  # anything the worker left behind
    if proc.returncode != 0:
        raise RoundError(f"worker exited {proc.returncode}: {err.decode()[-2000:]}")
    res = json.loads(out.decode().strip().splitlines()[-1])
    res["setup_s"] = res["t_ready"] - t_spawn
    with open(f"{spec['out']}/result.json", "w", encoding="utf-8") as fh:
        json.dump(res, fh)
    return res


def quantile(values: list, q: float) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[round(q * 100) - 1]


def end_to_end(results: list) -> dict:
    """Medians over the repetitions; call latency percentiles over all calls of the run."""
    calls = [c for r in results for c in r["calls_s"]]
    values = {
        "setup_s": statistics.median(r["setup_s"] for r in results),
        "wall_s": statistics.median(r["wall_s"] for r in results),
        "work_per_s": statistics.median(r["work"] / r["wall_s"] for r in results),
        "peak_rss_mb": statistics.median(r["rss_kb"] / 1024.0 for r in results),
        "call_p50_ms": quantile(calls, 0.50) * 1000.0,
        "call_p90_ms": quantile(calls, 0.90) * 1000.0,
    }
    return {k: {"value": v, "unit": END_TO_END[k]} for k, v in values.items()}


def layer(report: dict, name: str, key: str):
    entry = report["layers"].get(name)
    return None if entry is None else entry[key]


def per_layer(workload: str, plain: dict, traced: dict, ctx: dict) -> dict:
    """Per-layer metrics of one (plain, traced) pair; None marks a layer that is gone."""
    rep = traced["trace"]
    m = {}
    for name in ("world.spawn_world", "world.scan_full", "world.apply_action", "qlearn.q_update",
                 "imitation.classify_positive", "imitation.encode_features", "rnn.forward", "rnn.backward"):
        m[f"{name}.calls"] = layer(rep, name, "calls")
    for name in ("world.spawn_world", "world.scan_full", "world.apply_action", "world.reward",
                 "qlearn.encode_state", "qlearn.select_action", "qlearn.q_update", "qlearn.train",
                 "rnn.forward", "rnn.backward", "rnn.adam_step", "imitation.evaluate_policy"):
        m[f"{name}.self_s"] = layer(rep, name, "self_s")
    for name in ("imitation.parse_fcd", "imitation.extract_ego_sequences", "imitation.classify_positive",
                 "imitation.encode_features", "imitation.write_dataset", "imitation.read_dataset",
                 "imitation.save_artifact"):
        m[f"{name}.s"] = layer(rep, name, "total_s")
    m["rng.draws"] = layer(rep, "rng.next_u64", "calls")
    m["rng.self_s"] = layer(rep, "rng.next_u64", "self_s")

    steps = m["world.apply_action.calls"]
    m["sim.steps_per_s"] = None if steps is None else steps / plain["wall_s"]
    m["qlearn.states"] = 0
    for name, path in traced["outputs"].items():
        if name.startswith("qtable."):
            with open(path) as fh:
                m["qlearn.states"] += len(json.load(fh)["entries"])

    parse_s = m["imitation.parse_fcd.s"]
    m["imitation.parse_fcd.mb_per_s"] = (None if parse_s is None
                                         else ctx["mb"] / parse_s if workload == "ingest" else 0.0)
    m["imitation.extract_ego_sequences.exponent"] = None if m["imitation.extract_ego_sequences.s"] is None else 0.0
    for k in ("timesteps", "snapshots", "trajectories", "positives", "dataset_bytes"):
        m[f"ingest.{k}"] = 0
    if workload == "ingest":
        dataset = traced["outputs"]["dataset"]
        with open(traced["outputs"]["rejects"]) as fh:
            rejected = len(json.load(fh)["rejected"])
        with open(dataset) as fh:
            positives = sum(1 for line in fh if line.strip())
        m.update({"ingest.timesteps": len(ctx["log"].times), "ingest.snapshots": ctx["log"].snapshots,
                  "ingest.trajectories": rejected + positives, "ingest.positives": positives,
                  "ingest.dataset_bytes": os.path.getsize(dataset)})

    work = layer(rep, "rnn.backward", "work")
    self_s = m["rnn.backward.self_s"]
    m["rnn.backward.gflops"] = None if work is None else work / self_s / 1e9 if self_s else 0.0
    train_out = traced["stdout"].get("train", "")
    m["rnn.fit.epochs"] = int(train_out.split("epochs_run=")[1].split()[0]) if "epochs_run=" in train_out else 0

    def p50_ms(name):
        samples = rep["samples"].get(name)
        return statistics.median(samples) * 1000.0 if samples else 0.0

    m["rsu.server_start_s"] = plain.get("server_start_s", 0.0)
    m["rsu.roundtrip_p50_ms"] = statistics.median(traced["roundtrip_s"]) * 1000.0 if "roundtrip_s" in traced else 0.0
    m["imitation.artifact_from_doc.p50_ms"] = p50_ms("imitation.artifact_from_doc")
    m["rsu.fetch.self_p50_ms"] = p50_ms("rsu.fetch")
    m["rsu.payload_bytes"] = traced.get("payload_bytes", 0)
    m["rsu.served"] = traced.get("served", 0)
    m["rsu.fetch_p99_ms"] = quantile(plain["calls_s"], 0.99) * 1000.0 if workload == "rsu" else 0.0
    m["trace.overhead_s"] = traced["wall_s"] - plain["wall_s"]
    m["trace.layer_share"] = sum(v["self_s"] for v in rep["layers"].values()) / traced["wall_s"]
    return m


def extract_exponent(points: list) -> float:
    """Least-squares slope of log(extract time) over log(input MB)."""
    xs = [math.log(mb) for mb, _ in points]
    ys = [math.log(s) for _, s in points]
    mx, my = statistics.mean(xs), statistics.mean(ys)
    return sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sum((x - mx) ** 2 for x in xs)


def run(workload: str, seed: int, seconds: float, trace: bool, size_name: str = "full") -> dict:
    size = SIZES[size_name]
    work = os.path.join(WORK, workload)
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    if workload == "sim":
        spec, ctx = prepare_sim(seed, size, work)
    elif workload == "ingest":
        spec, ctx = prepare_ingest(seed, size, work, trace)
    elif workload == "imitate":
        spec, ctx = prepare_imitate(seed, size, work)
    else:
        spec, ctx = prepare_rsu(seed, size, work)
    ctx.update(seed=seed, feature_samples=size["feature_samples"])
    spec.update(workload=workload, trace=False)
    if trace:
        os.makedirs(f"{work}/trace")
    rounds = 0

    def fresh(**changes) -> dict:
        nonlocal rounds
        rounds += 1
        out = f"{work}/r{rounds}"
        return dict(spec, out=out, spans_out=f"{out}/spans.csv", **changes)

    errors: list[str] = []
    failures: set[str] = set()
    attempted = failed = 0
    first_hashes = None
    results, layer_runs = [], []
    start = time.monotonic()
    while len(results) < MIN_ROUNDS or time.monotonic() - start < seconds:
        specs = [fresh(trace=t) for t in ((False, True) if trace else (False,))]
        pair = [run_round(s) for s in specs]
        for res, round_spec in zip(pair, specs):
            res["failures"] = []
            errors += res["errors"]
            errors += CHECKS[workload](round_spec, ctx, res)
            attempted += res["attempted"]
            failed += res["failed"]
            failures.update(res["failures"])
            hashes = {k: checks.sha256(p) for k, p in res["outputs"].items()}
            if first_hashes is None:
                first_hashes = hashes
            errors += checks.same_hashes(first_hashes, hashes)
        results.append(pair[0])
        if trace:
            m = per_layer(workload, pair[0], pair[1], ctx)
            if workload == "ingest" and m["imitation.extract_ego_sequences.s"] is not None:
                points = [(ctx["mb"], m["imitation.extract_ego_sequences.s"])]
                for mb, small in ctx["scaling"]:
                    res = run_round(fresh(**small, trace=True))
                    attempted += res["attempted"]
                    failed += res["failed"]
                    errors += res["errors"]
                    points.append((mb, layer(res["trace"], "imitation.extract_ego_sequences", "total_s")))
                m["imitation.extract_ego_sequences.exponent"] = extract_exponent(points)
            layer_runs.append(m)
            last_traced = pair[1]
            os.replace(specs[1]["spans_out"], f"{work}/trace/spans.csv")

    for e in errors[:20]:
        print(f"check failed: {e}", file=sys.stderr)
    for f in sorted(failures):
        print(f"failed operation: {f}", file=sys.stderr)
    if not trace:
        metrics = end_to_end(results)
    else:
        metrics, notes = {}, list(last_traced["trace"]["notes"])
        for name, unit in PER_LAYER.items():
            values = [m.get(name) for m in layer_runs]
            if any(v is None for v in values):
                notes.append(f"{name}: dropped, its function is no longer in cavlab")
                continue
            metrics[name] = {"value": statistics.median(values), "unit": unit}
        with open(f"{work}/trace/layers.json", "w") as fh:
            json.dump({"metrics": metrics, "pairs": layer_runs, "notes": notes,
                       "layers": last_traced["trace"]["layers"],
                       "span_count": last_traced["trace"]["span_count"]}, fh, indent=1, sort_keys=True)
        for note in notes:
            print(f"trace note: {note}", file=sys.stderr)
    return {"correct": not errors, "attempted": attempted, "failed": failed, "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(CHECKS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "cavlab")):
        print(f"bench: no cavlab sources under {SRC}; run from the repository root", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except RoundError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
