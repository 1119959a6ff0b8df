"""Output checks. Each returns a list of error strings, empty when the output holds.

Every check compares against a computation written here, apart from cavlab,
or against a property the method must have; none compares against a stored
copy of an earlier output.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import zlib

import numpy as np

import gen


def sha256(path) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def same_hashes(first: dict, now: dict) -> list[str]:
    return [f"{name}: sha256 differs from the first repetition of this seed"
            for name, digest in now.items() if first.get(name) != digest]


# --- sim ---

def epsilon_closed_form(learn: dict, episode: int) -> float:
    start, end, decay = learn["epsilon_start"], learn["epsilon_end"], learn["epsilon_decay_episodes"]
    if decay <= 0 or episode >= decay:
        return end
    return start + (end - start) * (episode / decay)


def sim_metrics(path, learn: dict, episodes: int) -> list[str]:
    errors = []
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    done = 0
    for row in rows:
        n = int(row["episodes"])
        done += n
        want = epsilon_closed_form(learn, done - 1)
        if abs(float(row["epsilon"]) - want) > 1e-12:
            errors.append(f"{path}: bucket {row['bucket']} epsilon {row['epsilon']} != {want!r}")
        rates = float(row["crash_rate"]) + float(row["quick_rate"]) + float(row["timeout_rate"])
        if rates > 1.0 + 1e-12:
            errors.append(f"{path}: bucket {row['bucket']} rates sum to {rates}")
    if done != episodes:
        errors.append(f"{path}: bucket episodes sum to {done}, budget {episodes}")
    if rows and not float(rows[-1]["crash_rate"]) < float(rows[0]["crash_rate"]):
        errors.append(f"{path}: crash rate did not fall ({rows[0]['crash_rate']} -> {rows[-1]['crash_rate']})")
    return errors


def q_bound(reward: dict, road: dict, gamma: float) -> float:
    """R_max / (1 - gamma), R_max the largest |reward| the reward table can give."""
    v = road["max_agent_speed"]
    speed_term = max(v, reward["overspeed_factor"] * v, v / reward["speed_bonus_divisor"])
    r_max = max(abs(reward["crash_or_bump"]), abs(reward["alive_or_goal"])) + abs(reward["shift_penalty"]) + speed_term
    return r_max / (1.0 - gamma)


def sim_qtable(path, bound: float) -> list[str]:
    with open(path) as fh:
        doc = json.load(fh)
    worst = max((abs(q) for e in doc["entries"] for q in e["q"]), default=0.0)
    if not worst <= bound:  # also catches NaN
        return [f"{path}: |Q| reaches {worst}, above R_max/(1-gamma) = {bound}"]
    return []


def reward_table(event: str, action: int, speed: int, lane: int, reward: dict, road: dict) -> float:
    """The paper's immediate reward, from the pre-step state and the action."""
    direction, accel = divmod(action, 3)
    new_speed = min(max(speed + accel - 1, 0), road["max_agent_speed"])
    new_lane = lane if event == "bump" else lane + direction - 1
    limits = road["agent_speed_limit"] or [road["max_agent_speed"]] * road["lanes"]
    failed = event in ("crash", "bump")
    r = reward["crash_or_bump"] if failed else reward["alive_or_goal"]
    if direction != 1:
        r += reward["shift_penalty"]
    if new_speed <= limits[new_lane]:
        r += -new_speed if failed else new_speed / reward["speed_bonus_divisor"]
    else:
        r += -reward["overspeed_factor"] * new_speed
    return r


def sim_trace(path, reward: dict, road: dict) -> list[str]:
    errors = []
    with open(path, newline="") as fh:
        for row in csv.DictReader(fh):
            want = reward_table(row["event"], int(row["action"]), int(row["speed"]), int(row["lane"]), reward, road)
            if abs(float(row["reward"]) - want) > 1e-12:
                errors.append(f"{path}: run {row['run']} t {row['t']} reward {row['reward']} != {want!r}")
                break
    return errors


# --- ingest ---

def ingest_outcome(dataset_path, report_path, log: gen.FcdLog) -> list[str]:
    """Positives and reject reasons equal what the generator planted."""
    errors = []
    with open(dataset_path) as fh:
        got_pos = sorted(json.loads(line)["sequence_id"].split("#")[0] for line in fh if line.strip())
    want_pos = sorted(e for e, kind in log.planted.items() if kind == "positive")
    if got_pos != want_pos:
        errors.append(f"positives: {len(got_pos)} written, {len(want_pos)} planted "
                      f"(missing {sorted(set(want_pos) - set(got_pos))[:3]}, extra {sorted(set(got_pos) - set(want_pos))[:3]})")
    with open(report_path) as fh:
        rejected = json.load(fh)["rejected"]
    got = {r["ego_id"]: r["reason"] for r in rejected}
    want = {e: gen.REASONS[k] for e, k in log.planted.items() if k != "positive"}
    if got != want:
        wrong = sorted(e for e in set(got) | set(want) if got.get(e) != want.get(e))
        errors.append(f"reject reasons differ from the planted mix for {len(wrong)} egos, e.g. "
                      f"{[(e, got.get(e), want.get(e)) for e in wrong[:3]]}")
    return errors


def nearest_k(log: gen.FcdLog, ego: str, step: int, k: int, v_norm: float, d_norm: float) -> np.ndarray:
    """Feature row of one ego step, recomputed with numpy from the generator's positions."""
    vehicles = log.vehicles[log.ego_start[ego] + step]
    me = next(v for v in vehicles if v[0] == ego)
    others = [v for v in vehicles if v[0] != ego]
    ids = np.array([v[0] for v in others])
    pos = np.array([(v[1], v[2]) for v in others], dtype=np.float64)
    speeds = np.array([v[3] for v in others], dtype=np.float64)
    dist = np.hypot(me[1] - pos[:, 0], me[2] - pos[:, 1])
    order = np.lexsort((ids, dist))[:k]
    row = np.empty(1 + 2 * k)
    row[0] = me[3] / v_norm
    row[1::2] = 1.0
    row[2::2] = 0.0
    row[1:1 + 2 * len(order):2] = dist[order] / d_norm
    row[2:2 + 2 * len(order):2] = speeds[order] / v_norm
    return np.clip(row, 0.0, 1.0)


def ingest_features(dataset_path, log: gen.FcdLog, samples: int, seed: int) -> list[str]:
    rng = np.random.default_rng(seed)
    with open(dataset_path) as fh:
        docs = [json.loads(line) for line in fh if line.strip()]
    if not docs:
        return ["dataset is empty"]
    errors = []
    for _ in range(samples):
        doc = docs[rng.integers(len(docs))]
        feats = np.asarray(doc["features"])
        t = int(rng.integers(len(feats)))
        enc = doc["encoder"]
        want = nearest_k(log, doc["sequence_id"].split("#")[0], t, enc["k"], enc["v_norm"], enc["d_norm"])
        if feats.shape[1] != want.size or not np.allclose(feats[t], want, rtol=0.0, atol=1e-12):
            errors.append(f"{doc['sequence_id']} step {t}: features {feats[t].tolist()} != {want.tolist()}")
    return errors


# --- imitate ---

def lstm_forward(params: dict, hidden: int, xs: np.ndarray) -> np.ndarray:
    """LSTM + linear head (gate order i, f, g, o), written apart from cavlab.rnn."""
    h = np.zeros(hidden)
    c = np.zeros(hidden)
    sig = lambda z: 1.0 / (1.0 + np.exp(-z))  # noqa: E731
    ys = []
    for x in xs:
        z = params["wx"] @ x + params["wh"] @ h + params["b"]
        i, f, g, o = sig(z[:hidden]), sig(z[hidden:2 * hidden]), np.tanh(z[2 * hidden:3 * hidden]), sig(z[3 * hidden:])
        c = f * c + i * g
        h = o * np.tanh(c)
        ys.append(params["wy"] @ h + params["by"])
    return np.array(ys)


def artifact_params(doc: dict) -> dict:
    h, d, o = doc["model"]["hidden_dim"], doc["model"]["input_dim"], doc["model"]["output_dim"]
    shapes = {"wx": (4 * h, d), "wh": (4 * h, h), "b": (4 * h,), "wy": (o, h), "by": (o,)}
    return {n: np.asarray(doc["params"][n], dtype=np.float64).reshape(s) for n, s in shapes.items()}


def artifact_checksum(doc: dict) -> list[str]:
    body = {k: v for k, v in doc.items() if k != "checksum"}
    crc = zlib.crc32(json.dumps(body, sort_keys=True, separators=(",", ":")).encode("utf-8"))
    if doc.get("checksum") != crc:
        return [f"artifact checksum {doc.get('checksum')} != recomputed {crc}"]
    return []


def read_samples(path) -> list[tuple[np.ndarray, np.ndarray]]:
    with open(path) as fh:
        return [(np.asarray(d["features"]), np.asarray(d["targets"])) for d in map(json.loads, fh)]


def mse(params: dict, hidden: int, samples) -> float:
    return float(np.mean([np.mean((lstm_forward(params, hidden, x) - y) ** 2) for x, y in samples]))


def eval_rows(path):
    """The imitate-eval CSV's (actual_speed, predicted_speed) pairs, or None when
    a numeric field does not read as a number."""
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    try:
        return [(float(r["actual_speed"]), float(r["predicted_speed"])) for r in rows]
    except ValueError:
        return None


def imitate_outputs(artifact_path, csv_path, held_path, train_samples, initial: dict):
    """Errors, and whether the eval CSV could be read at all.

    The A7 property (held-out speed RMSE at most 15% of the controller's speed
    range) is recomputed from the CSV; when the CSV cannot be read it is
    recomputed from the artifact with the forward pass written here, and the
    caller counts imitate-eval as a failed operation.
    """
    with open(artifact_path) as fh:
        doc = json.load(fh)
    errors = artifact_checksum(doc)
    params = artifact_params(doc)
    hidden = doc["model"]["hidden_dim"]
    v_norm = doc["encoder"]["v_norm"]

    held = read_samples(held_path)
    predicted = np.concatenate([lstm_forward(params, hidden, x)[:, 0] * v_norm for x, _ in held])
    actual = np.concatenate([y[:, 0] * v_norm for _, y in held])
    rows = eval_rows(csv_path)
    if rows is not None:
        actual = np.array([a for a, _ in rows])
        got = np.array([p for _, p in rows])
        if got.shape != predicted.shape or not np.allclose(got, predicted, rtol=0.0, atol=1e-9):
            errors.append("predicted_speed column differs from the artifact's own forward pass")
        predicted = got
    rmse = math.sqrt(float(np.mean((actual - predicted) ** 2))) if actual.size else math.inf
    budget = 0.15 * gen.SPEED_RANGE
    if not rmse <= budget:
        errors.append(f"held-out speed RMSE {rmse:.4f} m/s above 15% of the controller range ({budget:.4f})")

    before, after = mse(initial, hidden, train_samples), mse(params, hidden, train_samples)
    if not after < before:
        errors.append(f"train MSE did not fall: {before:.6g} at initialisation, {after:.6g} trained")
    return errors, rows is not None


# --- rsu ---

def fetched_params(params: dict, reference: dict) -> bool:
    return set(params) == set(reference) and all(np.array_equal(params[k], v) for k, v in reference.items())


def rsu_round(result: dict) -> list[str]:
    errors = []
    if result["in_zone_mismatch"]:
        errors.append(f"{result['in_zone_mismatch']} in-zone fetches returned other params than served")
    if result["out_zone_not_none"]:
        errors.append(f"{result['out_zone_not_none']} out-of-zone fetches returned a policy")
    if result["served"] != result["sent"]:
        errors.append(f"rsu-serve reported served={result['served']}, {result['sent']} requests sent")
    return errors
