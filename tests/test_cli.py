import hashlib
import json
import os
import signal
import socket
import subprocess
import sys
import time

import pytest

from cavlab.cli import main
from cavlab.imitation import load_artifact, read_dataset
from cavlab.qlearn import QTable, encode_state
from cavlab.rsu import Geofence, RsuConfig, RsuServer
from cavlab.rng import Rng
from cavlab.world import (
    AGENT_START,
    Dir,
    Event,
    Road,
    RoadConfig,
    RewardConfig,
    apply_action,
    reward,
    scan_full,
    spawn_world,
)
from merge_fixture import ZONE, merge_log


def run_cli(*args):
    return main([str(a) for a in args])


@pytest.fixture()
def small_config(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(
        json.dumps(
            {
                "road": {"length": 20, "n_obstacles": 2, "max_steps": 60},
                "learn": {"episodes": 1500, "epsilon_decay_episodes": 500, "bucket": 500},
            }
        )
    )
    return path


class TestSimTrain:
    def test_writes_metrics_qtable_manifest(self, tmp_path, small_config):
        m = tmp_path / "m.csv"
        q = tmp_path / "q.json"
        code = run_cli("sim-train", "--config", small_config, "--seed", 1,
                       "--metrics-out", m, "--qtable-out", q)
        assert code == 0
        lines = m.read_text().strip().split("\n")
        assert lines[0].startswith("bucket,episodes,avg_time_to_goal")
        assert len(lines) == 4  # 1500 episodes / 500 bucket
        table = QTable.from_json(q.read_text())
        assert len(table.entries) > 0
        manifest = json.loads((tmp_path / "m.csv.manifest.json").read_text())
        assert manifest["subcommand"] == "sim-train"
        assert manifest["config"]["learn"]["seed"] == 1

    def test_single_bucket_row(self, tmp_path):
        m = tmp_path / "m.csv"
        q = tmp_path / "q.json"
        code = run_cli("sim-train", "--episodes", 1000, "--seed", 1,
                       "--metrics-out", m, "--qtable-out", q)
        assert code == 0
        assert len(m.read_text().strip().split("\n")) == 2

    def test_negative_episodes_usage_error(self, tmp_path):
        code = run_cli("sim-train", "--episodes", -5, "--metrics-out",
                       tmp_path / "m.csv", "--qtable-out", tmp_path / "q.json")
        assert code == 2

    def test_untrainable_config_rejected(self, tmp_path):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"road": {"length": 20, "max_steps": 2}}))
        code = run_cli("sim-train", "--config", cfg, "--episodes", 10,
                       "--metrics-out", tmp_path / "m.csv", "--qtable-out", tmp_path / "q.json")
        assert code == 1

    def test_seeds_fanout(self, tmp_path, small_config):
        code = run_cli("sim-train", "--config", small_config, "--seeds", "1,2",
                       "--metrics-out", tmp_path / "m.csv", "--qtable-out", tmp_path / "q.json")
        assert code == 0
        assert (tmp_path / "m.seed1.csv").exists() and (tmp_path / "m.seed2.csv").exists()
        assert (tmp_path / "q.seed1.json").exists() and (tmp_path / "q.seed2.json").exists()
        assert (tmp_path / "m.seed1.csv").read_text() != (tmp_path / "m.seed2.csv").read_text()

    def test_replay_reproduces_bytes(self, tmp_path, small_config):
        m = tmp_path / "m.csv"
        q = tmp_path / "q.json"
        run_cli("sim-train", "--config", small_config, "--seed", 7,
                "--metrics-out", m, "--qtable-out", q)
        out_dir = tmp_path / "replay"
        out_dir.mkdir()
        code = run_cli("replay", "--manifest", tmp_path / "m.csv.manifest.json", "--out-dir", out_dir)
        assert code == 0
        assert (out_dir / "m.csv").read_bytes() == m.read_bytes()
        assert (out_dir / "q.json").read_bytes() == q.read_bytes()


class TestSimEval:
    def make_table(self, tmp_path, small_config):
        q = tmp_path / "q.json"
        run_cli("sim-train", "--config", small_config, "--seed", 3,
                "--metrics-out", tmp_path / "m.csv", "--qtable-out", q)
        return q

    def test_trace_schema_and_rows(self, tmp_path, small_config):
        q = self.make_table(tmp_path, small_config)
        t = tmp_path / "trace.csv"
        code = run_cli("sim-eval", "--config", small_config, "--qtable", q,
                       "--seed", 5, "--runs", 4, "--trace-out", t)
        assert code == 0
        lines = t.read_text().strip().split("\n")
        assert lines[0] == ("run,t,lane,pos,speed,scan0,scan1,scan2,scan3,scan4,"
                            "scan5,scan6,action,reward,event")
        assert len(lines) > 4
        runs = {int(line.split(",")[0]) for line in lines[1:]}
        assert runs == {0, 1, 2, 3}

    def test_empty_table_fixed_tie_break(self, tmp_path):
        q = tmp_path / "empty.json"
        q.write_text(QTable().to_json())
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"road": {"length": 10, "n_obstacles": 0, "max_steps": 30}}))
        t = tmp_path / "trace.csv"
        code = run_cli("sim-eval", "--config", cfg, "--qtable", q, "--seed", 0,
                       "--runs", 1, "--trace-out", t)
        assert code == 0
        rows = [line.split(",") for line in t.read_text().strip().split("\n")[1:]]
        assert all(r[12] == "0" for r in rows)  # action index 0 on an all-zero table

    def test_missing_table_exit_1(self, tmp_path):
        code = run_cli("sim-eval", "--qtable", tmp_path / "none.json",
                       "--trace-out", tmp_path / "t.csv")
        assert code == 1

    @pytest.mark.parametrize("damage", ["missing", "not-json", "no-entries"])
    def test_replay_with_bad_qtable_exit_1(self, tmp_path, small_config, capsys, damage):
        q = self.make_table(tmp_path, small_config)
        t = tmp_path / "trace.csv"
        assert run_cli("sim-eval", "--config", small_config, "--qtable", q,
                       "--seed", 5, "--runs", 2, "--trace-out", t) == 0
        if damage == "missing":
            q.unlink()
        else:
            q.write_text("{" if damage == "not-json" else '{"version": 1, "v2v": false}')
        capsys.readouterr()
        code = run_cli("replay", "--manifest", tmp_path / "trace.csv.manifest.json",
                       "--out-dir", tmp_path)
        assert code == 1
        assert str(q) in capsys.readouterr().err

    def test_trace_replays_through_apply_action(self, tmp_path, small_config):
        q_path = self.make_table(tmp_path, small_config)
        t = tmp_path / "trace.csv"
        run_cli("sim-eval", "--config", small_config, "--qtable", q_path,
                "--seed", 11, "--runs", 3, "--trace-out", t)

        road = RoadConfig(length=20, n_obstacles=2, max_steps=60)
        rew = RewardConfig()
        world_rng = Rng(11, 0)
        rows = [line.split(",") for line in t.read_text().strip().split("\n")[1:]]
        by_run = {}
        for r in rows:
            by_run.setdefault(int(r[0]), []).append(r)
        assert sorted(by_run) == [0, 1, 2]
        consts = Road(road)
        for run_idx in sorted(by_run):
            b0, b1 = spawn_world(road, world_rng)
            lane, pos, speed = AGENT_START
            for t_idx, r in enumerate(by_run[run_idx]):
                assert int(r[1]) == t_idx
                assert (int(r[2]), int(r[3]), int(r[4])) == (lane, pos, speed)
                assert tuple(int(x) for x in r[5:12]) == scan_full(consts, b0, b1, lane, pos)[:7]
                a = int(r[12])
                b0, b1, lane, pos, speed, event = apply_action(consts, b0, b1, lane, pos, speed, a)
                assert float(r[13]) == reward(event, Dir(a // 3), speed, lane, rew, road)
                assert r[14] == Event(event).name.lower()


class TestIngest:
    def test_positive_and_reject_counts(self, tmp_path):
        xml = tmp_path / "log.xml"
        xml.write_text(merge_log(3, seed=11, n_near_collision=1, n_stop_short=1))
        out = tmp_path / "data.jsonl"
        code = run_cli("ingest", "--xml", xml, "--ego", "ego*",
                       "--zone-x-min", ZONE[0], "--zone-x-max", ZONE[1],
                       "--zone-lane-prefix", ZONE[2], "--out", out)
        assert code == 0
        assert len(read_dataset(out)) == 3
        report = json.loads((tmp_path / "data.jsonl.rejects.json").read_text())
        assert len(report["rejected"]) == 2
        assert report["by_reason"] == {"near-collision": 1, "merge-incomplete": 1}

    def test_empty_log_ok(self, tmp_path):
        xml = tmp_path / "log.xml"
        xml.write_text("<fcd-export/>")
        out = tmp_path / "data.jsonl"
        code = run_cli("ingest", "--xml", xml, "--ego", "ego*", "--out", out)
        assert code == 0
        assert read_dataset(out) == []

    def test_malformed_xml_cites_location(self, tmp_path, capsys):
        xml = tmp_path / "bad.xml"
        xml.write_text("<fcd-export><timestep time='0'")
        code = run_cli("ingest", "--xml", xml, "--ego", "ego*", "--out", tmp_path / "d.jsonl")
        assert code == 1
        err = capsys.readouterr().err
        assert "line" in err and "column" in err

    @pytest.mark.parametrize("body, message", [
        ("<fcd-export><timestep time='0'", "malformed XML: unclosed token (line 1, column 12)"),
        ("<fcd-export>\n<timestep time='0'>\n<vehicle id='v' x='1' y='1' speed='-2' angle='0'/>\n</timestep>\n"
         "</fcd-export>\n", "negative speed -2.0 for vehicle 'v' (line 3, column 0)"),
    ], ids=["malformed", "negative-speed"])
    def test_bad_log_error_text(self, tmp_path, capsys, body, message):
        xml = tmp_path / "bad.xml"
        xml.write_text(body)
        assert run_cli("ingest", "--xml", xml, "--ego", "ego*", "--out", tmp_path / "d.jsonl") == 1
        assert capsys.readouterr().err == f"cavlab: error: {xml}: {message}\n"


@pytest.fixture()
def dataset(tmp_path):
    xml = tmp_path / "log.xml"
    xml.write_text(merge_log(6, seed=5))
    out = tmp_path / "data.jsonl"
    assert run_cli("ingest", "--xml", xml, "--ego", "ego*",
                   "--zone-x-min", ZONE[0], "--zone-x-max", ZONE[1],
                   "--zone-lane-prefix", ZONE[2], "--out", out) == 0
    return out


class TestImitate:
    def test_train_then_eval(self, tmp_path, dataset, capsys):
        art = tmp_path / "policy.json"
        code = run_cli("imitate-train", "--dataset", dataset, "--epochs", 30,
                       "--hidden", 8, "--seed", 2, "--artifact-out", art)
        assert code == 0
        loaded = load_artifact(art)
        assert loaded.model_cfg.input_dim == 9
        csv = tmp_path / "eval.csv"
        code = run_cli("imitate-eval", "--artifact", art, "--dataset", dataset, "--csv-out", csv)
        assert code == 0
        out = capsys.readouterr().out
        assert "speed_rmse=" in out
        lines = csv.read_text().strip().split("\n")
        assert lines[0] == "sequence_id,t,actual_speed,predicted_speed,actual_angle,predicted_angle"
        assert len(lines) == 1 + 6 * 40

    def test_epochs_zero_writes_valid_untrained_artifact(self, tmp_path, dataset):
        art = tmp_path / "policy.json"
        code = run_cli("imitate-train", "--dataset", dataset, "--epochs", 0,
                       "--hidden", 4, "--artifact-out", art)
        assert code == 0
        load_artifact(art)

    def test_eval_with_mismatched_encoder_exit_1(self, tmp_path, dataset, capsys):
        art = tmp_path / "policy.json"
        run_cli("imitate-train", "--dataset", dataset, "--epochs", 1, "--hidden", 4,
                "--artifact-out", art)
        other_xml = tmp_path / "o.xml"
        other_xml.write_text(merge_log(2, seed=9))
        other = tmp_path / "other.jsonl"
        run_cli("ingest", "--xml", other_xml, "--ego", "ego*", "--v-norm", 40.0,
                "--zone-x-min", ZONE[0], "--zone-x-max", ZONE[1],
                "--zone-lane-prefix", ZONE[2], "--out", other)
        code = run_cli("imitate-eval", "--artifact", art, "--dataset", other,
                       "--csv-out", tmp_path / "e.csv")
        assert code == 1
        assert "mismatch" in capsys.readouterr().err

    def test_imitate_train_replay_byte_identical(self, tmp_path, dataset):
        art = tmp_path / "policy.json"
        run_cli("imitate-train", "--dataset", dataset, "--epochs", 10, "--hidden", 4,
                "--seed", 3, "--artifact-out", art)
        out_dir = tmp_path / "replay"
        out_dir.mkdir()
        code = run_cli("replay", "--manifest", tmp_path / "policy.json.manifest.json",
                       "--out-dir", out_dir)
        assert code == 0
        assert (out_dir / "policy.json").read_bytes() == art.read_bytes()


# subcommand -> (primary output, outputs), as `recorded` writes them
RECORDED = {
    "sim-train": ("m.csv", ("m.csv", "q.json")),
    "sim-eval": ("t.csv", ("t.csv",)),
    "ingest": ("data.jsonl", ("data.jsonl", "data.jsonl.rejects.json")),
    "imitate-train": ("p.json", ("p.json",)),
    "imitate-eval": ("e.csv", ("e.csv",)),
}


@pytest.fixture()
def recorded(capsys, tmp_path, small_config, dataset):
    """Runs every subcommand that writes a manifest once; returns the stdout of each."""
    q, p = tmp_path / "q.json", tmp_path / "p.json"
    stdout = {"ingest": capsys.readouterr().out}
    for argv in (
        ["sim-train", "--config", small_config, "--seed", 3, "--metrics-out", tmp_path / "m.csv", "--qtable-out", q],
        ["sim-eval", "--config", small_config, "--qtable", q, "--seed", 5, "--runs", 3,
         "--trace-out", tmp_path / "t.csv"],
        ["imitate-train", "--dataset", dataset, "--epochs", 5, "--hidden", 4, "--seed", 1, "--artifact-out", p],
        ["imitate-eval", "--artifact", p, "--dataset", dataset, "--csv-out", tmp_path / "e.csv"],
    ):
        assert run_cli(*argv) == 0
        stdout[argv[0]] = capsys.readouterr().out
    return stdout


class TestReplay:
    def replay(self, tmp_path, sub):
        out_dir = tmp_path / "replay"
        out_dir.mkdir()
        return run_cli("replay", "--manifest", tmp_path / f"{RECORDED[sub][0]}.manifest.json",
                       "--out-dir", out_dir), out_dir

    @pytest.mark.parametrize("sub", sorted(RECORDED))
    def test_byte_identical_with_manifest_and_summary(self, tmp_path, recorded, capsys, sub):
        code, out_dir = self.replay(tmp_path, sub)
        assert code == 0
        assert capsys.readouterr().out == recorded[sub]
        primary, outputs = RECORDED[sub]
        for name in outputs:
            assert (out_dir / name).read_bytes() == (tmp_path / name).read_bytes()
        original = json.loads((tmp_path / f"{primary}.manifest.json").read_text())
        replayed = json.loads((out_dir / f"{primary}.manifest.json").read_text())
        assert replayed["config"] == original["config"]
        assert replayed["inputs"] == original["inputs"]
        assert replayed["outputs"] == {k: str(out_dir / os.path.basename(v)) for k, v in original["outputs"].items()}

    def test_inputs_are_hashed(self, tmp_path, recorded):
        manifest = json.loads((tmp_path / "e.csv.manifest.json").read_text())
        assert sorted(manifest["inputs"]) == [str(tmp_path / "data.jsonl"), str(tmp_path / "p.json")]
        assert manifest["inputs"][str(tmp_path / "p.json")] == hashlib.sha256((tmp_path / "p.json").read_bytes()).hexdigest()

    def test_refuses_changed_input(self, tmp_path, recorded, capsys):
        with open(tmp_path / "log.xml", "ab") as fh:
            fh.write(b" ")
        capsys.readouterr()
        code, out_dir = self.replay(tmp_path, "ingest")
        assert code == 1
        assert str(tmp_path / "log.xml") in capsys.readouterr().err
        assert list(out_dir.iterdir()) == []

    def test_manifest_without_inputs_still_replays(self, tmp_path, recorded):
        path = tmp_path / "e.csv.manifest.json"
        manifest = json.loads(path.read_text())
        del manifest["inputs"]
        path.write_text(json.dumps(manifest))
        code, out_dir = self.replay(tmp_path, "imitate-eval")
        assert code == 0
        assert (out_dir / "e.csv").read_bytes() == (tmp_path / "e.csv").read_bytes()

    @pytest.mark.parametrize("damage", ["json-list", "unknown-subcommand", "ingest-empty-config",
                                        "ingest-no-filter", "sim-train-no-outputs", "inputs-not-object"])
    def test_malformed_manifest_exit_1(self, tmp_path, recorded, capsys, damage):
        path = tmp_path / "m.csv.manifest.json"
        manifest = json.loads(path.read_text())
        ingest = json.loads((tmp_path / "data.jsonl.manifest.json").read_text())
        if damage == "json-list":
            manifest = [manifest]
        elif damage == "unknown-subcommand":
            manifest["subcommand"] = "frobnicate"
        elif damage == "ingest-empty-config":
            manifest = {"subcommand": "ingest", "config": {}}
        elif damage == "ingest-no-filter":
            del ingest["config"]["filter"]
            manifest = ingest
        elif damage == "sim-train-no-outputs":
            del manifest["outputs"]
        else:
            manifest["inputs"] = []
        path.write_text(json.dumps(manifest))
        capsys.readouterr()
        assert run_cli("replay", "--manifest", path, "--out-dir", tmp_path) == 1
        assert "cavlab: error:" in capsys.readouterr().err

    @pytest.mark.parametrize("sub, key, value", [
        ("sim-eval", "runs", "3"),
        ("sim-eval", "seed", True),
        ("imitate-train", "epochs", "3"),
        ("imitate-train", "hidden", 4.0),
        ("imitate-train", "patience", False),
        ("imitate-train", "seed", "1"),
        ("imitate-train", "split", "0.8"),
        ("imitate-train", "lr", None),
        ("ingest", "ego", 5),
        ("ingest", "filter.zone_x_min", "0"),
        ("ingest", "filter.zone_lane_prefix", 5),
        ("ingest", "filter.t_min", 10.5),
        ("ingest", "encoder.k", 2.5),
        ("ingest", "encoder.k", True),
    ], ids=["sim-eval-runs", "sim-eval-seed", "epochs", "hidden", "patience", "imitate-train-seed", "split",
            "lr", "ego", "zone-x-min-str", "zone-lane-prefix-int", "t-min-float", "k-float", "k-bool"])
    def test_wrong_setting_type_exit_1(self, tmp_path, recorded, capsys, sub, key, value):
        path = tmp_path / f"{RECORDED[sub][0]}.manifest.json"
        manifest = json.loads(path.read_text())
        *sections, name = key.split(".")
        settings = manifest["config"]
        for section in sections:
            settings = settings[section]
        settings[name] = value
        path.write_text(json.dumps(manifest))
        capsys.readouterr()
        code, out_dir = self.replay(tmp_path, sub)
        assert code == 1
        err = capsys.readouterr().err
        # the filter's zone_* settings are the fields of its MergeZone
        assert err.startswith("cavlab: error:") and f"{name.removeprefix('zone_')} must be" in err
        assert list(out_dir.iterdir()) == []


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """Input files for TestBadInput and an RSU serving a small artifact in its geofence."""
    root = tmp_path_factory.mktemp("bad")
    (root / "log.xml").write_text(merge_log(3, seed=11))
    dataset = root / "data.jsonl"
    assert run_cli("ingest", "--xml", root / "log.xml", "--ego", "ego*", "--zone-x-min", ZONE[0],
                   "--zone-x-max", ZONE[1], "--zone-lane-prefix", ZONE[2], "--out", dataset) == 0
    assert run_cli("imitate-train", "--dataset", dataset, "--epochs", 1, "--hidden", 4,
                   "--artifact-out", root / "p.json") == 0
    for name, doc in (("road-int", {"road": 5}), ("road-str", {"road": {"length": "20"}}),
                      ("learn-key", {"learn": {"episode": 10}}), ("road-float", {"road": {"length": 20.5}}),
                      ("road-steps-float", {"road": {"max_steps": 60.5}}),
                      ("road-lane-bool", {"road": {"lane_speed_limit": [1, True]}}),
                      ("reward-str", {"reward": {"alive_or_goal": "x"}}),
                      ("reward-nan", {"reward": {"crash_or_bump": float("nan")}}),
                      ("reward-div-0", {"reward": {"speed_bonus_divisor": 0}}),
                      ("learn-episodes-float", {"learn": {"episodes": 3.5}}),
                      ("learn-v2v-str", {"learn": {"v2v": "no"}}),
                      ("learn-bucket-float", {"learn": {"bucket": 2.5}}),
                      ("learn-alpha-bool", {"learn": {"alpha": True}}),
                      ("learn-decay-float", {"learn": {"epsilon_decay_episodes": 2.5}}),
                      ("unknown-section", {"raod": {"length": 5}, "learn": {"episodes": 3}})):
        (root / f"{name}.json").write_text(json.dumps(doc))
    server = RsuServer(RsuConfig(geofence=Geofence(0.0, 200.0, -10.0, 10.0)),
                       artifact_doc=load_artifact(root / "p.json").to_doc())
    server.start()
    yield {"root": root, "endpoint": f"127.0.0.1:{server.port}"}
    server.stop()


class TestBadInput:
    SIM = ["sim-train", "--episodes", 10, "--metrics-out", "{out}/m.csv", "--qtable-out", "{out}/q.json"]
    INGEST = ["ingest", "--xml", "{root}/log.xml", "--ego", "ego*", "--out", "{out}/d.jsonl"]
    TRAIN = ["imitate-train", "--dataset", "{root}/data.jsonl", "--epochs", 1, "--hidden", 4]
    FETCH = ["rsu-fetch", "--endpoint", "{endpoint}", "--id", "car1", "--x", 50.0, "--y", 0.0]

    @pytest.mark.parametrize("argv", [
        INGEST + ["--d-min", 0],
        INGEST + ["--d-min", "nan"],
        INGEST + ["--neighbors", -1],
        INGEST + ["--v-norm", "nan"],
        INGEST + ["--t-min", 20, "--t-max", 10],
        TRAIN[:-1] + [0, "--artifact-out", "{out}/p.json"],
        TRAIN + ["--lr", -1, "--artifact-out", "{out}/p.json"],
        TRAIN + ["--lr", "nan", "--artifact-out", "{out}/p.json"],
        TRAIN + ["--split", 1.5, "--artifact-out", "{out}/p.json"],
        TRAIN + ["--artifact-out", "{out}/nodir/p.json"],
        SIM + ["--config", "{root}/road-int.json"],
        SIM + ["--config", "{root}/road-str.json"],
        SIM + ["--config", "{root}/learn-key.json"],
        SIM + ["--seeds", "1,x"],
        SIM + ["--config", "{root}/road-float.json"],
        SIM + ["--config", "{root}/road-steps-float.json"],
        SIM + ["--config", "{root}/road-lane-bool.json"],
        SIM + ["--config", "{root}/reward-str.json"],
        SIM + ["--config", "{root}/reward-nan.json"],
        SIM + ["--config", "{root}/reward-div-0.json"],
        ["imitate-eval", "--artifact", "{root}/missing.json", "--dataset", "{root}/data.jsonl",
         "--csv-out", "{out}/e.csv"],
        FETCH + ["--out", "{out}/nodir/fetched.json"],
        SIM[:1] + SIM[3:] + ["--config", "{root}/learn-episodes-float.json"],  # --episodes would override it
        SIM + ["--config", "{root}/learn-v2v-str.json"],
        SIM + ["--config", "{root}/learn-bucket-float.json"],
        SIM + ["--config", "{root}/learn-alpha-bool.json"],
        SIM + ["--config", "{root}/learn-decay-float.json"],
        SIM + ["--config", "{root}/unknown-section.json"],
        FETCH + ["--timeout", -1, "--out", "{out}/fetched.json"],
        FETCH + ["--timeout", "nan", "--out", "{out}/fetched.json"],
        FETCH + ["--timeout", "inf", "--out", "{out}/fetched.json"],
    ], ids=["d-min-0", "d-min-nan", "neighbors-neg", "v-norm-nan", "t-min-gt-t-max", "hidden-0", "lr-neg", "lr-nan", "split-1.5",
            "artifact-out-no-dir", "config-road-int", "config-road-str", "config-learn-key", "seeds-not-int",
            "config-road-float", "config-road-steps-float", "config-road-lane-bool", "config-reward-str",
            "config-reward-nan", "config-reward-div-0", "artifact-missing", "fetch-out-no-dir",
            "config-learn-episodes-float", "config-learn-v2v-str", "config-learn-bucket-float",
            "config-learn-alpha-bool", "config-learn-decay-float", "config-unknown-section",
            "fetch-timeout-neg", "fetch-timeout-nan", "fetch-timeout-inf"])
    def test_exit_1_with_message(self, workspace, tmp_path, capsys, argv):
        capsys.readouterr()
        assert run_cli(*(str(a).format(out=tmp_path, **workspace) for a in argv)) == 1
        assert "cavlab: error:" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []  # rejected before any output


def free_port():
    with socket.socket() as s:
        s.bind(("127.0.0.1", 0))
        return s.getsockname()[1]


class TestRsuCli:
    def make_artifact(self, tmp_path, dataset):
        art = tmp_path / "policy.json"
        assert run_cli("imitate-train", "--dataset", dataset, "--epochs", 1,
                       "--hidden", 4, "--artifact-out", art) == 0
        return art

    def rsu_config(self, tmp_path, artifact, port):
        cfg = tmp_path / "rsu.json"
        cfg.write_text(
            json.dumps(
                {
                    "host": "127.0.0.1",
                    "port": port,
                    "geofence": {"x_min": 0.0, "x_max": 200.0, "y_min": -10.0, "y_max": 10.0},
                    "artifact_path": str(artifact),
                }
            )
        )
        return cfg

    def spawn_server(self, cfg):
        env = dict(os.environ)
        src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
        env["PYTHONPATH"] = os.path.abspath(src) + os.pathsep + env.get("PYTHONPATH", "")
        proc = subprocess.Popen(
            [sys.executable, "-m", "cavlab", "rsu-serve", "--config", str(cfg)],
            env=env,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
        )
        return proc

    def wait_port(self, port, proc, timeout=10.0):
        deadline = time.time() + timeout
        while time.time() < deadline:
            if proc.poll() is not None:
                raise AssertionError(f"server died: {proc.stderr.read().decode()}")
            try:
                with socket.create_connection(("127.0.0.1", port), timeout=0.2):
                    return
            except OSError:
                time.sleep(0.05)
        raise AssertionError("server did not come up")

    def test_serve_fetch_shutdown_cycle(self, tmp_path, dataset):
        art = self.make_artifact(tmp_path, dataset)
        port = free_port()
        cfg = self.rsu_config(tmp_path, art, port)
        proc = self.spawn_server(cfg)
        try:
            self.wait_port(port, proc)
            fetched = tmp_path / "fetched.json"
            code = run_cli("rsu-fetch", "--endpoint", f"127.0.0.1:{port}", "--id", "car1",
                           "--x", 50.0, "--y", 0.0, "--out", fetched)
            assert code == 0
            assert fetched.read_bytes() == art.read_bytes()

            code = run_cli("rsu-fetch", "--endpoint", f"127.0.0.1:{port}", "--id", "car1",
                           "--x", 500.0, "--y", 0.0, "--out", tmp_path / "no.json")
            assert code == 3
            assert not (tmp_path / "no.json").exists()
        finally:
            proc.send_signal(signal.SIGTERM)
            proc.communicate(timeout=10.0)
        assert proc.returncode == 0

    def test_serve_reports_ephemeral_port(self, tmp_path, dataset):
        art = self.make_artifact(tmp_path, dataset)
        proc = self.spawn_server(self.rsu_config(tmp_path, art, 0))
        try:
            line = proc.stderr.readline().decode()
            host, _, port = line.removeprefix("listening ").strip().rpartition(":")
            assert line.startswith("listening ") and host == "127.0.0.1" and int(port) > 0
            fetched = tmp_path / "fetched.json"
            assert run_cli("rsu-fetch", "--endpoint", f"{host}:{port}", "--id", "car1",
                           "--x", 50.0, "--y", 0.0, "--out", fetched) == 0
            assert fetched.read_bytes() == art.read_bytes()
        finally:
            proc.send_signal(signal.SIGTERM)
            out, _ = proc.communicate(timeout=10.0)
        assert proc.returncode == 0
        assert out.decode() == "served=1\n"

    def test_fetch_dead_endpoint_exit_1(self, tmp_path):
        code = run_cli("rsu-fetch", "--endpoint", "127.0.0.1:1", "--id", "x",
                       "--x", 0.0, "--y", 0.0, "--timeout", 0.5, "--out", tmp_path / "a.json")
        assert code == 1

    def test_serve_missing_artifact_exit_1(self, tmp_path):
        cfg = self.rsu_config(tmp_path, tmp_path / "missing.json", free_port())
        code = run_cli("rsu-serve", "--config", cfg)
        assert code == 1


class TestUsage:
    def test_unknown_subcommand(self):
        assert run_cli("frobnicate") == 2

    def test_no_args(self):
        assert run_cli() == 2
