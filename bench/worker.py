"""One repetition of one workload, in a fresh interpreter.

    python3 bench/worker.py SPEC.json

run.py starts this once per repetition, with `src` on PYTHONPATH, and reads
the JSON object printed as the last line of stdout. A fresh process per
repetition keeps one repetition's heap, caches and garbage from slowing the
next (timed in one long-lived process, `cavlab ingest` grew slower run by run).

The measured phase starts after the imports and, on `rsu`, after the server
child answers its first hello; everything before it is set-up.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import re
import resource
import signal
import socket
import subprocess
import sys
import time

from cavlab import cli, imitation, qlearn, rnn, rsu, world
from cavlab.rng import Rng

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import checks  # noqa: E402
from tracer import Tracer  # noqa: E402


def backward_flops(args, kwargs) -> float:
    """Flops of one rnn.backward call, computed from its shapes (not counted)."""
    model, cache = args[0], args[1]
    steps = cache.xs.shape[0]
    h, d, o = model.cfg.hidden_dim, model.cfg.input_dim, model.cfg.output_dim
    per_step = (
        2 * o * h            # wy.T @ d_y[t]
        + 2 * 4 * h * d      # outer(dz, x) accumulated into g_wx
        + 2 * 4 * h * h      # outer(dz, h_prev) accumulated into g_wh
        + 2 * 4 * h * h      # wh.T @ dz
        + 20 * h             # gate derivatives and the cell update
    )
    return float(steps * per_step + 2 * steps * o * h)  # plus g_wy = d_y.T @ h


def install(tracer: Tracer) -> None:
    """Wrap each layer's public functions where their callers look them up."""
    w = tracer.wrap
    both = lambda attr: [(qlearn, attr), (world, attr)]  # noqa: E731
    w("world.spawn_world", both("spawn_world"))
    w("world.scan_full", both("scan_full"))
    w("world.apply_action", both("apply_action"))
    w("world.reward", both("reward"))
    w("qlearn.encode_state", [(qlearn, "encode_state")])
    w("qlearn.select_action", [(qlearn, "select_action")])
    w("qlearn.greedy_action", [(qlearn, "greedy_action")])
    w("qlearn.q_update", [(qlearn, "q_update")])
    w("qlearn.train", [(qlearn, "train")])
    w("rng.next_u64", [(Rng, "next_u64")])
    for name in ("parse_fcd", "extract_ego_sequences", "classify_positive", "encode_features",
                 "write_dataset", "read_dataset", "train_policy", "evaluate_policy",
                 "save_artifact", "load_artifact"):
        w(f"imitation.{name}", [(imitation, name)])
    w("rnn.fit", [(rnn, "fit")])
    w("rnn.forward", [(rnn, "forward")])
    w("rnn.backward", [(rnn, "backward")], work=backward_flops)
    w("rnn.adam_step", [(rnn, "adam_step")])
    w("rsu.fetch", [(rsu, "fetch")], sample=True)
    w("imitation.artifact_from_doc", [(rsu, "artifact_from_doc"), (imitation, "artifact_from_doc")],
      sample=True)


def call_cli(argv: list) -> tuple[int, str]:
    """Run one cavlab command in this process; returns its exit code and stdout."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main([str(a) for a in argv])
    return code, buf.getvalue()


class Round:
    """Runs the operations of one repetition and records what each returned."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.calls_s: list[float] = []   # client-timed latency of each main call
        self.stdout: dict[str, str] = {}
        self.errors: list[str] = []
        self.outputs: dict[str, str] = {}  # output name -> path, for the checks in run.py

    def cli(self, tag: str, argv: list, main_call: bool) -> str:
        self.attempted += 1
        t = time.perf_counter()
        code, out = call_cli(argv)
        if main_call:
            self.calls_s.append(time.perf_counter() - t)
        if code != 0:
            self.failed += 1
            self.errors.append(f"{tag}: exit {code}")
        self.stdout[tag] = out
        return out


def run_sim(spec: dict, r: Round) -> float:
    """Outputs are named `{kind}.{tag}.seed{s}`, kind one of metrics, qtable and trace."""
    work = spec["out"]
    seeds = ",".join(str(s) for s in spec["seeds"])
    for tag, extra in (("plain", []), ("v2v", ["--v2v"])):
        r.cli(f"train-{tag}", ["sim-train", "--seeds", seeds, "--config", spec["config"], *extra,
                               "--metrics-out", f"{work}/{tag}.csv", "--qtable-out", f"{work}/{tag}.json"],
              main_call=True)
        for s in spec["seeds"]:  # sim-train with --seeds adds .seedN to each output name
            r.outputs[f"metrics.{tag}.seed{s}"] = f"{work}/{tag}.seed{s}.csv"
            r.outputs[f"qtable.{tag}.seed{s}"] = f"{work}/{tag}.seed{s}.json"
    for tag in ("plain", "v2v"):
        for s in spec["seeds"]:
            trace = r.outputs[f"trace.{tag}.seed{s}"] = f"{work}/{tag}.seed{s}.trace.csv"
            r.cli(f"eval-{tag}-{s}", ["sim-eval", "--qtable", r.outputs[f"qtable.{tag}.seed{s}"],
                                      "--seed", spec["eval_seed"], "--runs", spec["runs"],
                                      "--config", spec["config"], "--trace-out", trace],
                  main_call=False)
    return 4 * (spec["episodes"] + spec["runs"])


def run_ingest(spec: dict, r: Round) -> float:
    lo, hi, prefix = spec["zone"]
    dataset = r.outputs["dataset"] = f"{spec['out']}/dataset.jsonl"
    r.outputs["rejects"] = dataset + ".rejects.json"  # written by ingest beside the dataset
    r.cli("ingest", ["ingest", "--xml", spec["xml"], "--ego", "ego*", "--zone-x-min", lo,
                     "--zone-x-max", hi, "--zone-lane-prefix", prefix, "--out", dataset], main_call=True)
    return os.path.getsize(spec["xml"]) / 1e6


def run_imitate(spec: dict, r: Round) -> float:
    artifact = r.outputs["artifact"] = f"{spec['out']}/policy.json"
    profiles = r.outputs["profiles"] = f"{spec['out']}/profiles.csv"
    out = r.cli("train", ["imitate-train", "--dataset", spec["train"], "--hidden", 32, "--lr", "3e-3",
                          "--patience", 15, "--seed", 11, "--epochs", spec["epochs"],
                          "--artifact-out", artifact], main_call=True)
    r.cli("eval", ["imitate-eval", "--artifact", artifact, "--dataset", spec["held"],
                   "--csv-out", profiles], main_call=False)
    m = re.search(r"epochs_run=(\d+)", out)
    return int(m.group(1)) * spec["train_steps"] if m else 0.0


def free_port() -> int:
    with socket.socket() as s:
        s.bind(("127.0.0.1", 0))
        return s.getsockname()[1]


def raw_roundtrip(port: int, hello: bytes) -> bytes:
    """One hello through a plain socket; returns the response line undecoded."""
    with socket.create_connection(("127.0.0.1", port), timeout=10.0) as conn:
        conn.sendall(hello)
        buf = bytearray()
        while b"\n" not in buf:
            chunk = conn.recv(1 << 16)
            if not chunk:
                break
            buf.extend(chunk)
    return bytes(buf)


def start_rsu(spec: dict, result: dict):
    """Start `cavlab rsu-serve` and wait until it answers an out-of-zone hello."""
    port = free_port()
    cfg = {"host": "127.0.0.1", "port": port, "geofence": spec["geofence"],
           "artifact_path": spec["artifact"]}
    cfg_path = f"{spec['out']}/rsu.json"
    with open(cfg_path, "w", encoding="utf-8") as fh:
        json.dump(cfg, fh)
    t = time.perf_counter()
    proc = subprocess.Popen([sys.executable, "-m", "cavlab", "rsu-serve", "--config", cfg_path],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    deadline = time.monotonic() + 60.0
    while True:
        try:
            rsu.fetch("127.0.0.1", port, "probe", spec["geofence"]["x_max"] + 1.0, 0.0)
            break
        except rsu.RsuConnectError:
            if proc.poll() is not None or time.monotonic() > deadline:
                proc.kill()
                proc.communicate()
                raise RuntimeError("rsu-serve did not come up")
            time.sleep(0.002)
    result["server_start_s"] = time.perf_counter() - t
    return proc, port


def run_rsu(spec: dict, r: Round, proc, port: int, result: dict, reference) -> float:
    in_bad = out_bad = 0
    for vid, x, y, inside in spec["hellos"]:
        r.attempted += 1
        t = time.perf_counter()
        try:
            art = rsu.fetch("127.0.0.1", port, vid, x, y)
        except (rsu.RsuError, imitation.ArtifactError) as exc:
            r.failed += 1
            r.errors.append(f"fetch {vid}: {exc}")
            continue
        r.calls_s.append(time.perf_counter() - t)
        if inside:
            if art is None or not checks.fetched_params(art.params, reference):
                in_bad += 1
        elif art is not None:
            out_bad += 1
    result["sent"] = len(spec["hellos"]) + 1  # + the readiness probe
    result["in_zone_mismatch"] = in_bad
    result["out_zone_not_none"] = out_bad
    return float(len(spec["hellos"]) - r.failed)


def stop_rsu(proc, result: dict) -> None:
    proc.send_signal(signal.SIGTERM)
    out, err = proc.communicate(timeout=60)
    m = re.search(rb"served=(\d+)", out)
    result["served"] = int(m.group(1)) if m else -1
    result["server_exit"] = proc.returncode
    if proc.returncode != 0:
        result.setdefault("errors", []).append(f"rsu-serve exit {proc.returncode}: {err.decode()[-300:]}")


def raw_roundtrips(spec: dict, port: int, result: dict) -> None:
    hello = (json.dumps({"type": "hello", "vehicle_id": "raw", "x": spec["geofence"]["x_min"],
                         "y": spec["geofence"]["y_min"]}) + "\n").encode()
    times = []
    for _ in range(spec["raw_roundtrips"]):
        t = time.perf_counter()
        line = raw_roundtrip(port, hello)
        times.append(time.perf_counter() - t)
    result["roundtrip_s"] = times
    result["payload_bytes"] = len(line)
    result["sent"] += len(times)


def main(spec_path: str) -> int:
    with open(spec_path, encoding="utf-8") as fh:
        spec = json.load(fh)
    result: dict = {}
    r = Round()
    tracer = None
    proc = None
    if spec["workload"] == "rsu":
        with open(spec["artifact"], encoding="utf-8") as fh:
            reference = checks.artifact_params(json.load(fh))
        proc, port = start_rsu(spec, result)
    if spec["trace"]:
        tracer = Tracer()
        install(tracer)
    try:
        t_ready = time.monotonic()
        t0 = time.perf_counter()
        if spec["workload"] == "sim":
            work = run_sim(spec, r)
        elif spec["workload"] == "ingest":
            work = run_ingest(spec, r)
        elif spec["workload"] == "imitate":
            work = run_imitate(spec, r)
        else:
            work = run_rsu(spec, r, proc, port, result, reference)
        wall = time.perf_counter() - t0
        if tracer is not None:
            tracer.unwrap()
        if proc is not None:
            if spec["trace"]:
                raw_roundtrips(spec, port, result)
            stop_rsu(proc, result)
            proc = None
    finally:
        if proc is not None:
            proc.kill()
            proc.communicate()
    result.update(
        t_ready=t_ready, wall_s=wall, work=work, attempted=r.attempted, failed=r.failed,
        calls_s=r.calls_s, stdout=r.stdout, outputs=r.outputs, errors=result.get("errors", []) + r.errors,
        rss_kb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    if tracer is not None:
        result["trace"] = tracer.report()
        tracer.write_spans(spec["spans_out"])
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
