"""Golden outputs of the simulator: `sim-train` and `sim-eval` must stay byte-identical.

Each case trains through the CLI, evaluates the trained table, and compares the
SHA-256 of the metrics CSV, the Q-table JSON and the trace CSV with hashes
recorded from the simulator that stored obstacles as (lane, pos, speed) tuples.
Those tables were Q-table version 1, keyed on the paper's seven rays (and seven
blocker speeds with V2V); the version-2 table is checked through its expansion
to version 1 (`paper_scan.v1_qtable`), and its own hash is recorded beside.
Any change to spawning, stepping, scanning, rewards, action selection, the
update order or the output formats shows up here.
"""

import hashlib
import json

import pytest

from cavlab.cli import main
from cavlab.qlearn import QTable
from cavlab.world import RoadConfig
from paper_scan import v1_qtable

DEFAULT = {"learn": {"episodes": 1500, "epsilon_decay_episodes": 1000, "bucket": 250}}
A10 = {
    "road": {"length": 20, "n_obstacles": 2, "max_steps": 60},
    "learn": {"episodes": 2000, "epsilon_decay_episodes": 600, "bucket": 500},
}
DENSE = {  # 30 obstacles in 32 spawn cells: the draw-without-replacement path
    "road": {"length": 20, "n_obstacles": 30, "scan_range": 3, "lane_speed_limit": [2, 1]},
    "learn": {"episodes": 1000, "epsilon_decay_episodes": 600, "bucket": 200},
}
ODD_LIMITS = {  # short scan, fast left lane, per-lane agent limits, frequent timeouts
    "road": {"length": 40, "n_obstacles": 8, "scan_range": 2, "lane_speed_limit": [3, 1],
             "agent_speed_limit": [2, 3], "max_steps": 25},
    "reward": {"shift_penalty": -0.3, "overspeed_factor": 1.5},
    "learn": {"episodes": 1200, "epsilon_decay_episodes": 800, "bucket": 300},
}
LONG_SCAN = {  # rays longer than the road, so they run past both of its ends
    "road": {"length": 12, "n_obstacles": 4, "scan_range": 9, "lane_speed_limit": [1, 3],
             "max_steps": 20},
    "learn": {"episodes": 1000, "epsilon_decay_episodes": 500, "bucket": 250},
}
SPARSE = {  # trained on a near-empty road, then evaluated on a crowded one: crashes and bumps
    "road": {"length": 30, "n_obstacles": 1, "scan_range": 3},
    "learn": {"episodes": 800, "epsilon_decay_episodes": 400, "bucket": 200},
}
CROWDED = {"road": {"length": 30, "n_obstacles": 14, "scan_range": 3}}

# name -> (train config, eval config or None for the same, train seed, v2v,
#          eval seed, eval runs, sha256 of the metrics CSV, version-1 Q-table JSON and trace CSV,
#          sha256 of the version-2 Q-table JSON)
CASES = {
    "default-plain": (DEFAULT, None, 3, False, 11, 20, (
        "4572ddb01a86c3813c438e1637c1307d30687b44ff28957a37f74631749a2fe9",
        "0a6881ed48aef9be752434577ce54c42e153262d4d00fd8a32d9d8ceecf68a78",
        "a7a701c2d536e6792cb5847bd47f20c2730c073419d23db041a2faec9415feec",
        "ce98dc57cf2c277b33601c6ff533f23baa3347a80b3b00cf0ab2e05639ee75dc",
    )),
    "default-v2v": (DEFAULT, None, 3, True, 11, 20, (
        "34f6c859abefad0c5ed0e58af575eb0d0171e06002f6ac1d7d18da0d341a91c2",
        "ea381a10e3cc4b867bd9e7b58ac982a6f35bdd3c366d84398b6edcd24e8d69bf",
        "152454b29af5c9b63e29170f182d0cf5f5a1098bbc40a1397fb9de16ae53f699",
        "cd6b216366df9447b6578cae79cb0bce94cec88778ca6714c5da5c7143a683b0",
    )),
    "a10": (A10, None, 13, False, 5, 10, (
        "8fd23bd847fbcbdf2da1976abd760a8bfa2e650f0fb2e71a686bba831ca0c5f8",
        "e22411914e0f1806f5125e5bcfcaaaec4197ec023dd4a6203e55f2bfdd1d1c64",
        "2e81ce8222dece75e510cafa18fa46a2e358b9e681a5dda83504a5cc5a9c3e06",
        "94419c75355f225044b5e49a94165606e55d59d0030b8e6a107835b4a5af28ca",
    )),
    "dense-v2v": (DENSE, None, 5, True, 17, 10, (
        "8f8031671e9b064401147e570f4992c748bfc11a08f1366a361b171b0a525eca",
        "b7cb4df54af32d0188e6e7d31cd3056e1a0b92e5c809ec3412495da85d00dffe",
        "e510499231f0a6476dcc4d24e37ec5ceaeb76adaf9c52fe6dc12d6623dfaae82",
        "fcaf3c167de813f0e22658dc21263c7effa6d148d66b78613f79cc2b3151a84e",
    )),
    "odd-limits-plain": (ODD_LIMITS, None, 21, False, 9, 15, (
        "f22f893d8c4091032986e17186980351ce3308be319bf1768972051cabb1e57a",
        "8cabc412d310b370b10bac177926000ed5853864413db8acddc4841480c8e925",
        "36234ff74e8caa2e2f12057b823f540099c00c7d8d9f80e76e1619d2d2465d82",
        "2c99ee877cf049080b71d1be92f5b8ef6f916534ebc65d8d7d8282beba230135",
    )),
    "odd-limits-v2v": (ODD_LIMITS, None, 8, True, 2, 15, (
        "53501a92e2ce71d8f95d8be2a7cdb0143964bdc3b4e08e4be3d381b9027e54a0",
        "781aab9f48901b99543ad023965b13863a140009b3c8d0d09ddf8a982e04539e",
        "0c013189378f119b6891e80085f69242ec50a05dbf45062dcaf31493c7c98bed",
        "8fd7b9655e65dfd607e410fc8ea529903fe8f68d8f90004bf13eeae2520cf7b8",
    )),
    "long-scan-plain": (LONG_SCAN, None, 2, False, 6, 10, (
        "41078c97d72932232279c4cdfec0ab9beba5534a2d77b7de14181a2a735e5191",
        "0c6352429c17626135ad25e8da59ba92b4fb59fb4ab23fe22505a07e58c00ae6",
        "426415fdc069f9cb5454c593a86896cd6c3ee93865a55006fee85b29b99c6448",
        "b0a424b59c1a0647002645a998103fa819c7f1d8db522e93b29e8add03e9d11b",
    )),
    "crowded-eval-v2v": (SPARSE, CROWDED, 31, True, 19, 30, (
        "f28df875884947cc89fee6a434fb5c6ce7556180caf2a513332bde2b9932ae82",
        "b8d6ce2caa2f376640a77d92fc875fbba888d1ae5ff2dbae63d0db0154035975",
        "e32bb9eb4960df0cb67f4a22c19197f35b72c508b7fd808dd6a171dfe53326b5",
        "fdd193ddd3a0fccc2e957478bb213f7e7cfadd41bbdcb7d814e3d2a74f7328f9",
    )),
}


def sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def run_cli(*args) -> int:
    return main([str(a) for a in args])


@pytest.mark.parametrize("name", sorted(CASES))
def test_train_and_eval_outputs_unchanged(tmp_path, name):
    config, eval_config, seed, v2v, eval_seed, runs, expected = CASES[name]
    cfg, eval_cfg = tmp_path / "config.json", tmp_path / "eval.json"
    cfg.write_text(json.dumps(config))
    eval_cfg.write_text(json.dumps(eval_config or config))
    m, q, t = tmp_path / "m.csv", tmp_path / "q.json", tmp_path / "t.csv"
    v2v_flag = ["--v2v"] if v2v else []
    assert run_cli("sim-train", "--config", cfg, "--seed", seed, *v2v_flag,
                   "--metrics-out", m, "--qtable-out", q) == 0
    assert run_cli("sim-eval", "--config", eval_cfg, "--qtable", q, "--seed", eval_seed,
                   "--runs", runs, "--trace-out", t) == 0
    v1 = v1_qtable(q.read_text(), RoadConfig.from_dict(config.get("road", {}))) + "\n"  # as the CLI writes it
    assert (sha256(m), hashlib.sha256(v1.encode()).hexdigest(), sha256(t), sha256(q)) == expected


def test_eval_with_zero_step_cap_still_takes_one_step(tmp_path):
    # sim-eval does not check max_steps: a zero cap still steps each run once
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({"road": {"max_steps": 0}}))
    q, t = tmp_path / "q.json", tmp_path / "t.csv"
    q.write_text(QTable().to_json())
    assert run_cli("sim-eval", "--config", cfg, "--qtable", q, "--seed", 4,
                   "--runs", 3, "--trace-out", t) == 0
    assert len(t.read_text().strip().split("\n")) == 1 + 3
    assert sha256(t) == "837290e18aa6fa98c2c0d4b45c02ef58a3b62c8a684e73d026051387a5492cf8"
