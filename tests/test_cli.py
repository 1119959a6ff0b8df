import hashlib
import json
import math
import os
import signal
import socket
import subprocess
import sys
import time
import zlib
from dataclasses import asdict
from pathlib import Path

import pytest

from cavlab.cli import PIPELINES, build_parser, main
from cavlab.imitation import EncoderConfig, FilterConfig, TrainConfig, load_artifact, read_dataset, save_artifact
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
from paper_scan import seven_rays


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

    ENTRY_DAMAGES = {  # edits of the first entry of a trained table without V2V
        "key-short": lambda entry: entry.update(key=[1, 5]),
        "key-v2v-long": lambda entry: entry.update(key=entry["key"] * 2),
        "key-bool": lambda entry: entry["key"].__setitem__(0, True),
        "key-float": lambda entry: entry["key"].__setitem__(0, 1.0),
        "key-negative": lambda entry: entry["key"].__setitem__(1, -1),
        "q-str": lambda entry: entry["q"].__setitem__(0, "nan"),
        "q-bool": lambda entry: entry["q"].__setitem__(0, True),
        "q-nan": lambda entry: entry["q"].__setitem__(0, float("nan")),
        "q-inf": lambda entry: entry["q"].__setitem__(0, float("inf")),
        "q-int-too-large": lambda entry: entry["q"].__setitem__(0, 10**400),
    }

    @pytest.mark.parametrize("damage", ["missing", "not-json", "not-object", "no-entries", "entries-object", "v2v-str",
                                        *ENTRY_DAMAGES])
    def test_replay_with_bad_qtable_exit_1(self, tmp_path, small_config, capsys, damage):
        q = self.make_table(tmp_path, small_config)
        t = tmp_path / "trace.csv"
        assert run_cli("sim-eval", "--config", small_config, "--qtable", q,
                       "--seed", 5, "--runs", 2, "--trace-out", t) == 0
        doc = json.loads(q.read_text())
        if damage == "missing":
            q.unlink()
        elif damage == "v2v-str":
            q.write_text(json.dumps({**doc, "v2v": "false"}))
        elif damage == "entries-object":
            q.write_text(json.dumps({**doc, "entries": {}}))
        elif damage in self.ENTRY_DAMAGES:
            self.ENTRY_DAMAGES[damage](doc["entries"][0])
            q.write_text(json.dumps(doc))
        else:
            q.write_text({"not-json": "{", "not-object": "[]", "no-entries": '{"version": 2, "v2v": false}'}[damage])
        manifest = tmp_path / "trace.csv.manifest.json"  # without its input digests, so the table is loaded
        manifest.write_text(json.dumps({k: v for k, v in json.loads(manifest.read_text()).items() if k != "inputs"}))
        capsys.readouterr()
        code = run_cli("replay", "--manifest", manifest, "--out-dir", tmp_path)
        assert code == 1
        prefix = f"cannot read {q}: " if damage == "missing" else f"{q}: invalid Q-table: "
        assert capsys.readouterr().err.startswith("cavlab: error: " + prefix)

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
                assert tuple(int(x) for x in r[5:12]) == seven_rays(scan_full(consts, b0, b1, lane, pos))
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

    def test_artifact_bytes_do_not_depend_on_blas_threads(self, tmp_path, dataset):
        """Two `imitate-train` processes, with OPENBLAS_NUM_THREADS=1 and =2 set before numpy loads, write the
        same artifact bytes: the gemms over time in `rnn.backward` must not sum in an order that depends on the
        BLAS thread count. threadpoolctl is not installed, so this test does not confirm that the build honours
        the variable; on a 2-core x86-64 machine a process read 1 thread under =1 and 2 under =2 after a gemm."""
        env = dict(os.environ)
        src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
        env["PYTHONPATH"] = os.path.abspath(src) + os.pathsep + env.get("PYTHONPATH", "")
        artifacts = []
        for threads in ("1", "2"):
            art = tmp_path / f"policy{threads}.json"
            subprocess.run([sys.executable, "-m", "cavlab", "imitate-train", "--dataset", str(dataset), "--epochs",
                            "2", "--hidden", "48", "--seed", "1", "--artifact-out", str(art)],
                           env={**env, "OPENBLAS_NUM_THREADS": threads}, check=True, capture_output=True, timeout=120)
            artifacts.append(art.read_bytes())
        assert artifacts[0] == artifacts[1]


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
    def set_setting(self, tmp_path, sub, key, value):
        """Sets the dotted `key` in the config of the recorded `sub` manifest; returns its last part."""
        path = tmp_path / f"{RECORDED[sub][0]}.manifest.json"
        manifest = json.loads(path.read_text())
        *sections, name = key.split(".")
        settings = manifest["config"]
        for section in sections:
            settings = settings[section]
        settings[name] = value
        path.write_text(json.dumps(manifest))
        return name

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
        assert replayed["digests"] == original["digests"]
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

    def test_output_digests_are_recorded(self, tmp_path, recorded):
        for primary, _ in RECORDED.values():
            manifest = json.loads((tmp_path / f"{primary}.manifest.json").read_text())
            assert manifest["digests"] == {name: hashlib.sha256(Path(path).read_bytes()).hexdigest()
                                           for name, path in manifest["outputs"].items()}

    def test_changed_output_exit_1_naming_it(self, tmp_path, recorded, capsys):
        path = tmp_path / "data.jsonl.manifest.json"
        manifest = json.loads(path.read_text())
        manifest["digests"]["report"] = "0" * 64
        path.write_text(json.dumps(manifest))
        capsys.readouterr()
        code, out_dir = self.replay(tmp_path, "ingest")
        assert code == 1
        assert capsys.readouterr().err == "cavlab: error: output differs from the manifest's digest: report\n"
        # the replayed files stay for inspection, and match the originals
        assert sorted(p.name for p in out_dir.iterdir()) == ["data.jsonl", "data.jsonl.manifest.json",
                                                            "data.jsonl.rejects.json"]
        assert (out_dir / "data.jsonl.rejects.json").read_bytes() == (tmp_path / "data.jsonl.rejects.json").read_bytes()

    def test_manifest_without_digests_still_replays(self, tmp_path, recorded):
        path = tmp_path / "p.json.manifest.json"
        manifest = json.loads(path.read_text())
        del manifest["digests"]
        path.write_text(json.dumps(manifest))
        code, out_dir = self.replay(tmp_path, "imitate-train")
        assert code == 0
        assert (out_dir / "p.json").read_bytes() == (tmp_path / "p.json").read_bytes()

    def test_manifest_without_inputs_still_replays(self, tmp_path, recorded):
        path = tmp_path / "e.csv.manifest.json"
        manifest = json.loads(path.read_text())
        del manifest["inputs"]
        path.write_text(json.dumps(manifest))
        code, out_dir = self.replay(tmp_path, "imitate-eval")
        assert code == 0
        assert (out_dir / "e.csv").read_bytes() == (tmp_path / "e.csv").read_bytes()

    @pytest.mark.parametrize("damage", ["json-list", "unknown-subcommand", "ingest-empty-config",
                                        "ingest-no-filter", "sim-train-no-outputs", "inputs-not-object",
                                        "digests-not-object"])
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
        elif damage == "inputs-not-object":
            manifest["inputs"] = []
        else:
            manifest["digests"] = "m.csv"
        path.write_text(json.dumps(manifest))
        capsys.readouterr()
        assert run_cli("replay", "--manifest", path, "--out-dir", tmp_path) == 1
        assert "cavlab: error:" in capsys.readouterr().err

    @pytest.mark.parametrize("sub, key, value", [
        ("sim-eval", "runs", "3"),
        ("sim-eval", "seed", True),
        ("sim-eval", "runs", -4),
        ("imitate-train", "epochs", "3"),
        ("imitate-train", "epochs", -3),
        ("imitate-train", "hidden", 4.0),
        ("imitate-train", "hidden", 0),
        ("imitate-train", "patience", False),
        ("imitate-train", "patience", -5),
        ("imitate-train", "seed", "1"),
        ("imitate-train", "split", "0.8"),
        ("imitate-train", "lr", None),
        ("ingest", "ego", 5),
        ("ingest", "filter.zone_x_min", "0"),
        ("ingest", "filter.zone_x_min", 2500.0),
        ("ingest", "filter.zone_x_min", math.nan),
        ("ingest", "filter.zone_lane_prefix", 5),
        ("ingest", "filter.t_min", 10.5),
        ("ingest", "encoder.k", 2.5),
        ("ingest", "encoder.k", True),
    ], ids=["sim-eval-runs", "sim-eval-seed", "sim-eval-runs-neg", "epochs", "epochs-neg", "hidden", "hidden-0",
            "patience", "patience-neg", "imitate-train-seed", "split", "lr", "ego", "zone-x-min-str", "zone-empty",
            "zone-x-min-nan", "zone-lane-prefix-int", "t-min-float", "k-float", "k-bool"])
    def test_wrong_setting_type_exit_1(self, tmp_path, recorded, capsys, sub, key, value):
        name = self.set_setting(tmp_path, sub, key, value)
        capsys.readouterr()
        code, out_dir = self.replay(tmp_path, sub)
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("cavlab: error:") and f"{name} must be" in err
        assert list(out_dir.iterdir()) == []

    @pytest.mark.parametrize("edit", ["null", "missing"])
    def test_patience_null_or_missing_replays(self, tmp_path, recorded, edit):
        # null trains without early stopping and a missing key takes the default (20);
        # neither stops the recorded 5 epochs early, so the artifact keeps its bytes
        path = tmp_path / "p.json.manifest.json"
        manifest = json.loads(path.read_text())
        if edit == "null":
            manifest["config"]["patience"] = None
        else:
            del manifest["config"]["patience"]
        path.write_text(json.dumps(manifest))
        code, out_dir = self.replay(tmp_path, "imitate-train")
        assert code == 0
        assert (out_dir / "p.json").read_bytes() == (tmp_path / "p.json").read_bytes()

    @pytest.mark.parametrize("sub, key", [
        ("sim-train", "lern"),
        ("sim-eval", "runz"),
        ("ingest", "egoo"),
        ("ingest", "filter.t_mni"),
        ("imitate-train", "hiden"),
        ("imitate-eval", "csv"),
    ])
    def test_unknown_setting_exit_1(self, tmp_path, recorded, capsys, sub, key):
        name = self.set_setting(tmp_path, sub, key, 3)
        capsys.readouterr()
        code, out_dir = self.replay(tmp_path, sub)
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith(f"cavlab: error: {sub}: invalid configuration:") and f"unknown keys: ['{name}']" in err
        assert list(out_dir.iterdir()) == []


class TestSameFile:
    """A job two of whose paths name one file is refused before it reads or writes anything."""

    def test_ingest_report_over_dataset(self, tmp_path, capsys):
        (tmp_path / "log.xml").write_text(merge_log(3, seed=11))
        out = tmp_path / "d.jsonl"
        capsys.readouterr()
        assert run_cli("ingest", "--xml", tmp_path / "log.xml", "--ego", "ego*", "--out", out, "--report-out", out) == 1
        assert capsys.readouterr().err == f"cavlab: error: dataset {out} and report {out} are the same file\n"
        assert [p.name for p in tmp_path.iterdir()] == ["log.xml"]

    def test_eval_csv_over_its_dataset(self, tmp_path, dataset, capsys):
        job = tmp_path / "job"
        job.mkdir()
        data, art = job / "d.jsonl", job / "p.json"
        data.write_bytes(dataset.read_bytes())
        assert run_cli("imitate-train", "--dataset", data, "--epochs", 1, "--hidden", 4, "--artifact-out", art) == 0
        os.remove(str(art) + ".manifest.json")
        capsys.readouterr()
        assert run_cli("imitate-eval", "--artifact", art, "--dataset", data, "--csv-out", data) == 1
        assert capsys.readouterr().err == f"cavlab: error: dataset {data} and csv {data} are the same file\n"
        assert sorted(p.name for p in job.iterdir()) == ["d.jsonl", "p.json"]
        assert data.read_bytes() == dataset.read_bytes()

    def test_replay_out_dir_onto_one_file(self, tmp_path, capsys):
        (tmp_path / "log.xml").write_text(merge_log(3, seed=11))
        for name in ("a", "b", "r"):
            (tmp_path / name).mkdir()
        assert run_cli("ingest", "--xml", tmp_path / "log.xml", "--ego", "ego*", "--out", tmp_path / "a" / "d.jsonl",
                       "--report-out", tmp_path / "b" / "d.jsonl") == 0
        capsys.readouterr()
        assert run_cli("replay", "--manifest", tmp_path / "a" / "d.jsonl.manifest.json", "--out-dir", tmp_path / "r") == 1
        folded = tmp_path / "r" / "d.jsonl"
        assert capsys.readouterr().err == f"cavlab: error: dataset {folded} and report {folded} are the same file\n"
        assert list((tmp_path / "r").iterdir()) == []


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
    first = json.loads(dataset.read_text().splitlines()[0])
    (root / "targets-short.jsonl").write_text(json.dumps({**first, "targets": first["targets"][:3]}) + "\n")
    features = [list(row) for row in first["features"]]
    features[0][1] = None
    (root / "feature-null.jsonl").write_text(json.dumps({**first, "features": features}) + "\n")
    artifact = json.loads((root / "p.json").read_text())
    artifact["params"]["by"][0] = None
    payload = {k: v for k, v in artifact.items() if k != "checksum"}
    artifact["checksum"] = zlib.crc32(json.dumps(payload, sort_keys=True, separators=(",", ":")).encode())
    (root / "param-null.json").write_text(json.dumps(artifact))
    server = RsuServer(RsuConfig(geofence=Geofence(0.0, 200.0, -10.0, 10.0)), load_artifact(root / "p.json"))
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
        INGEST + ["--zone-x-min", 2000, "--zone-x-max", 100],
        INGEST + ["--zone-x-min", "nan"],
        TRAIN[:-1] + [0, "--artifact-out", "{out}/p.json"],
        TRAIN + ["--lr", -1, "--artifact-out", "{out}/p.json"],
        TRAIN + ["--lr", "nan", "--artifact-out", "{out}/p.json"],
        TRAIN + ["--split", 1.5, "--artifact-out", "{out}/p.json"],
        TRAIN + ["--patience", -5, "--artifact-out", "{out}/p.json"],
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
        ["imitate-eval", "--artifact", "{root}/p.json", "--dataset", "{root}/targets-short.jsonl",
         "--csv-out", "{out}/e.csv"],
        ["imitate-eval", "--artifact", "{root}/p.json", "--dataset", "{root}/feature-null.jsonl",
         "--csv-out", "{out}/e.csv"],
        ["imitate-eval", "--artifact", "{root}/param-null.json", "--dataset", "{root}/data.jsonl",
         "--csv-out", "{out}/e.csv"],
        ["rsu-fetch", "--endpoint", "127.0.0.1:\u00b2", "--id", "car1", "--x", 50.0, "--y", 0.0,
         "--out", "{out}/fetched.json"],
        SIM[:1] + SIM[3:] + ["--config", "{root}/learn-episodes-float.json"],  # --episodes would override it
        SIM + ["--config", "{root}/learn-v2v-str.json"],
        SIM + ["--config", "{root}/learn-bucket-float.json"],
        SIM + ["--config", "{root}/learn-alpha-bool.json"],
        SIM + ["--config", "{root}/learn-decay-float.json"],
        SIM + ["--config", "{root}/unknown-section.json"],
        FETCH + ["--timeout", -1, "--out", "{out}/fetched.json"],
        FETCH + ["--timeout", "nan", "--out", "{out}/fetched.json"],
        FETCH + ["--timeout", "inf", "--out", "{out}/fetched.json"],
        FETCH + ["--timeout", 1e10, "--out", "{out}/fetched.json"],
    ], ids=["d-min-0", "d-min-nan", "neighbors-neg", "v-norm-nan", "t-min-gt-t-max", "zone-empty", "zone-x-min-nan",
            "hidden-0", "lr-neg", "lr-nan", "split-1.5",
            "patience-neg", "artifact-out-no-dir", "config-road-int", "config-road-str", "config-learn-key", "seeds-not-int",
            "config-road-float", "config-road-steps-float", "config-road-lane-bool", "config-reward-str",
            "config-reward-nan", "config-reward-div-0", "artifact-missing", "fetch-out-no-dir",
            "eval-targets-short", "eval-feature-null", "eval-param-null", "fetch-port-superscript",
            "config-learn-episodes-float", "config-learn-v2v-str", "config-learn-bucket-float",
            "config-learn-alpha-bool", "config-learn-decay-float", "config-unknown-section",
            "fetch-timeout-neg", "fetch-timeout-nan", "fetch-timeout-inf", "fetch-timeout-1e10"])
    def test_exit_1_with_message(self, workspace, tmp_path, capsys, argv):
        capsys.readouterr()
        assert run_cli(*(str(a).format(out=tmp_path, **workspace) for a in argv)) == 1
        assert "cavlab: error:" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []  # rejected before any output

    READS = {  # each input read of the CLI, with {bad} the file it cannot read
        "json": ["sim-train", "--config", "{bad}", "--episodes", 10, "--metrics-out", "{out}/m.csv",
                 "--qtable-out", "{out}/q.json"],
        "qtable": ["sim-eval", "--qtable", "{bad}", "--trace-out", "{out}/t.csv"],
        "fcd-log": ["ingest", "--xml", "{bad}", "--ego", "ego*", "--out", "{out}/d.jsonl"],
        "dataset": ["imitate-train", "--dataset", "{bad}", "--artifact-out", "{out}/p.json"],
        "eval-artifact": ["imitate-eval", "--artifact", "{bad}", "--dataset", "{root}/data.jsonl",
                          "--csv-out", "{out}/e.csv"],
        "serve-artifact": ["rsu-serve", "--config", "{rsu_config}"],
    }

    @pytest.mark.parametrize("kind, prefix", [("directory", "cannot read {}: "), ("not-utf8", "{}: "),
                                              ("nested-too-deep", "{}: ")], ids=["directory", "not-utf8", "nested"])
    @pytest.mark.parametrize("read", READS)
    def test_one_read_rule(self, workspace, tmp_path, capsys, read, kind, prefix):
        bad = tmp_path / "in" / "input"
        bad.parent.mkdir()
        if kind == "directory":
            bad.mkdir()
        elif kind == "not-utf8":
            bad.write_bytes(b"\x80\xff not UTF-8\n")
        else:
            bad.write_text("[" * 5000 + "]" * 5000 + "\n")
        rsu_config = tmp_path / "in" / "rsu.json"
        rsu_config.write_text(json.dumps({"port": 0, "artifact_path": str(bad)}))
        out = tmp_path / "out"
        out.mkdir()
        capsys.readouterr()
        argv = [str(a).format(bad=bad, out=out, rsu_config=rsu_config, **workspace) for a in self.READS[read]]
        assert run_cli(*argv) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("cavlab: error: " + prefix.format(bad)) and captured.out == ""
        assert list(out.iterdir()) == []

    def test_bad_json_dataset_line_names_the_path_once(self, tmp_path, capsys):
        dataset = tmp_path / "data.jsonl"
        dataset.write_text("not json\n")
        capsys.readouterr()
        assert run_cli("imitate-train", "--dataset", dataset, "--artifact-out", tmp_path / "p.json") == 1
        assert capsys.readouterr().err == (
            f"cavlab: error: {dataset}: invalid dataset: bad JSON on line 1: Expecting value: line 1 column 1 (char 0)\n")

    @pytest.mark.parametrize("edit, message", [
        (lambda doc: doc.update(features="abc"), "features must be list, got 'abc'"),
        (lambda doc: doc["features"][1].pop(), "setting an array element with a sequence. The requested array has an "
                                               "inhomogeneous shape after 1 dimensions. The detected shape was ({T},) "
                                               "+ inhomogeneous part."),
        (lambda doc: doc.update(encoder=[]), "encoder must be EncoderConfig, got []"),
        (lambda doc: doc.update(sequence_id=5), "sequence_id must be str, got 5"),
        (lambda doc: doc["targets"][0].__setitem__(1, True), "targets must be finite numbers"),
        (lambda doc: doc["features"][0].__setitem__(0, "0.5"), "features must be finite numbers"),
        (lambda doc: doc["features"][0].__setitem__(0, 10**400), "int too large to convert to float"),
        (lambda doc: doc.pop("targets"), "missing key 'targets'"),
        (lambda doc: doc.update(extra=1), "unknown keys: ['extra']"),
    ], ids=["features-abc", "features-ragged", "encoder-list", "id-int", "target-bool", "feature-str",
            "feature-int-too-large", "targets-missing", "extra-key"])
    def test_dataset_refusal_names_the_line(self, workspace, tmp_path, capsys, edit, message):
        first, second, *rest = (workspace["root"] / "data.jsonl").read_text().splitlines()
        doc = json.loads(second)
        steps = len(doc["features"])
        edit(doc)
        dataset = tmp_path / "data.jsonl"
        dataset.write_text("\n".join([first, json.dumps(doc), *rest]) + "\n")
        capsys.readouterr()
        assert run_cli("imitate-eval", "--artifact", workspace["root"] / "p.json", "--dataset", dataset,
                       "--csv-out", tmp_path / "e.csv") == 1
        assert capsys.readouterr().err == (
            f"cavlab: error: {dataset}: invalid dataset: line 2: {message.format(T=steps)}\n")

    @pytest.mark.parametrize("value, message", [
        (True, "param by must be finite numbers"),
        ("0.5", "param by must be finite numbers"),
        (10**400, "int too large to convert to float"),
    ], ids=["true", "string", "int-too-large"])
    def test_eval_refuses_param_that_is_no_float(self, workspace, tmp_path, capsys, value, message):
        """Under a matching checksum too: the artifact reader takes JSON numbers only, as the dataset reader does."""
        doc = json.loads((workspace["root"] / "p.json").read_text())
        doc["params"]["by"][0] = value
        payload = {k: v for k, v in doc.items() if k != "checksum"}
        doc["checksum"] = zlib.crc32(json.dumps(payload, sort_keys=True, separators=(",", ":")).encode())
        artifact = tmp_path / "in" / "p.json"
        artifact.parent.mkdir()
        artifact.write_text(json.dumps(doc))
        out = tmp_path / "out"
        out.mkdir()
        capsys.readouterr()
        assert run_cli("imitate-eval", "--artifact", artifact, "--dataset", workspace["root"] / "data.jsonl",
                       "--csv-out", out / "e.csv") == 1
        assert capsys.readouterr().err == f"cavlab: error: {artifact}: malformed artifact payload: {message}\n"
        assert list(out.iterdir()) == []

    def test_config_section_that_is_no_object(self, workspace, tmp_path, capsys):
        config = workspace["root"] / "road-int.json"
        capsys.readouterr()
        assert run_cli("sim-train", "--config", config, "--episodes", 10, "--metrics-out", tmp_path / "m.csv",
                       "--qtable-out", tmp_path / "q.json") == 1
        assert capsys.readouterr().err == (
            f"cavlab: error: {config}: invalid configuration: ConfigError('RoadConfig: expected a JSON object')\n")

    @pytest.mark.parametrize("learn", [5, "ab", [["episodes", 50]]], ids=["int", "string", "list-of-pairs"])
    def test_learn_section_that_is_no_object(self, tmp_path, capsys, learn):
        """Refused as the road section is, with or without the overrides of --episodes and --v2v."""
        config = tmp_path / "in" / "c.json"
        config.parent.mkdir()
        config.write_text(json.dumps({"learn": learn}))
        out = tmp_path / "out"
        out.mkdir()
        for flags in ([], ["--episodes", 10, "--v2v"]):
            capsys.readouterr()
            assert run_cli("sim-train", "--config", config, *flags, "--metrics-out", out / "m.csv",
                           "--qtable-out", out / "q.json") == 1
            assert capsys.readouterr().err == (
                f"cavlab: error: {config}: invalid configuration: ConfigError('LearnConfig: expected a JSON object')\n")
            assert list(out.iterdir()) == []

    def test_hidden_0_refused_before_the_dataset_is_read(self, tmp_path, capsys):
        dataset = tmp_path / "data.jsonl"
        dataset.write_text("not json\n")
        capsys.readouterr()
        assert run_cli("imitate-train", "--dataset", dataset, "--hidden", 0, "--artifact-out", tmp_path / "p.json") == 1
        assert capsys.readouterr().err == (
            "cavlab: error: imitate-train: invalid configuration: ValueError('hidden must be >= 1, got 0')\n")
        assert list(tmp_path.iterdir()) == [dataset]


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

    def test_fetch_out_writes_the_served_file(self, tmp_path, dataset):
        """The policy travels packed; --out writes the artifact file back byte for byte, edge floats included."""
        art = load_artifact(self.make_artifact(tmp_path, dataset))
        art.params["wx"][0, :4] = [-0.0, 5e-324, 1.7976931348623157e308, -1.7976931348623157e308]
        served = tmp_path / "served.json"
        save_artifact(art, served)
        server = RsuServer(RsuConfig(geofence=Geofence(0.0, 200.0, -10.0, 10.0)), load_artifact(served))
        server.start()
        try:
            fetched = tmp_path / "fetched.json"
            assert run_cli("rsu-fetch", "--endpoint", f"127.0.0.1:{server.port}", "--id", "car1",
                           "--x", 50.0, "--y", 0.0, "--out", fetched) == 0
        finally:
            server.stop()
        assert fetched.read_bytes() == served.read_bytes()

    def test_fetch_dead_endpoint_exit_1(self, tmp_path):
        code = run_cli("rsu-fetch", "--endpoint", "127.0.0.1:1", "--id", "x",
                       "--x", 0.0, "--y", 0.0, "--timeout", 0.5, "--out", tmp_path / "a.json")
        assert code == 1

    def test_serve_port_in_use_exit_1(self, tmp_path, dataset, capsys):
        art = self.make_artifact(tmp_path, dataset)
        with socket.create_server(("127.0.0.1", 0)) as taken:
            cfg = self.rsu_config(tmp_path, art, taken.getsockname()[1])
            capsys.readouterr()
            assert run_cli("rsu-serve", "--config", cfg) == 1
        assert "cannot bind" in capsys.readouterr().err

    def test_serve_missing_artifact_exit_1(self, tmp_path, capsys):
        missing = tmp_path / "missing.json"
        cfg = self.rsu_config(tmp_path, missing, free_port())
        capsys.readouterr()
        code = run_cli("rsu-serve", "--config", cfg)
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith(f"cavlab: error: cannot read {missing}: ") and "cannot bind" not in err

    @pytest.mark.parametrize("kind, message", [("directory", "cannot read {}: "),
                                               ("not-utf8", "{}: truncated or invalid artifact file: ")],
                             ids=["directory", "not-utf8"])
    def test_serve_unreadable_artifact_exit_1(self, tmp_path, capsys, kind, message):
        artifact = tmp_path / "p.json"
        if kind == "directory":
            artifact.mkdir()
        else:
            artifact.write_bytes(b"\xff\xfe{")
        cfg = self.rsu_config(tmp_path, artifact, free_port())
        capsys.readouterr()
        assert run_cli("rsu-serve", "--config", cfg) == 1
        err = capsys.readouterr().err
        assert err.startswith("cavlab: error: " + message.format(artifact)) and "cannot bind" not in err


class TestUsage:
    def test_unknown_subcommand(self):
        assert run_cli("frobnicate") == 2

    def test_flag_defaults_are_the_settings_defaults(self):
        parser = build_parser()
        [(ingest, _)] = PIPELINES["ingest"].resolve(parser.parse_args(["ingest", "--xml", "x", "--ego", "e", "--out", "d"]))
        assert ingest["filter"] == asdict(FilterConfig())
        assert ingest["encoder"] == asdict(EncoderConfig())
        [(train, _)] = PIPELINES["imitate-train"].resolve(
            parser.parse_args(["imitate-train", "--dataset", "d", "--artifact-out", "p"]))
        assert train == {"dataset": "d", **asdict(TrainConfig())}

    def test_no_args(self):
        assert run_cli() == 2
