import csv
import io
import json
import math
import re
import zlib
from dataclasses import asdict, replace
from fnmatch import fnmatch

import numpy as np
import pytest

from cavlab import rnn
from cavlab.imitation import (
    ArtifactError,
    ChecksumMismatchError,
    Classification,
    EVAL_CSV_HEADER,
    EncoderConfig,
    EncoderMismatchError,
    FcdParseError,
    FilterConfig,
    InsufficientDataError,
    PolicyArtifact,
    SequenceSample,
    Snapshot,
    Timestep,
    TrainConfig,
    Trajectory,
    TrajectoryStep,
    UnsupportedVersionError,
    artifact_from_doc,
    classify_positive,
    encode_features,
    eval_rows_to_csv,
    evaluate_policy,
    extract_ego_sequences,
    load_artifact,
    parse_fcd,
    read_dataset,
    save_artifact,
    train_policy,
    write_dataset,
)
from cavlab.config import ConfigError
from cavlab.rng import Rng
from merge_fixture import merge_log, serialize_fcd


def fcd(body: str) -> str:
    return f"<fcd-export>{body}</fcd-export>"


def vehicle(vid="v0", x=0.0, y=0.0, speed=1.0, angle=90.0, lane=None):
    lane_attr = f' lane="{lane}"' if lane else ""
    return f'<vehicle id="{vid}" x="{x}" y="{y}" speed="{speed}" angle="{angle}"{lane_attr}/>'


class TestParseFcd:
    def test_single_vehicle_mapping(self):
        doc = fcd('<timestep time="0.00">' + vehicle("v0", 5.0, 1.5, 10.0, 90.0) + "</timestep>")
        steps = parse_fcd(doc)
        assert len(steps) == 1
        assert steps[0].time == 0.0
        snap = steps[0].snapshots[0]
        assert snap == Snapshot("v0", 5.0, 1.5, 10.0, 90.0, None)

    def test_empty_export(self):
        assert parse_fcd("<fcd-export/>") == []

    def test_duplicate_vehicle_id_names_id(self):
        doc = fcd('<timestep time="0">' + vehicle("dup") + vehicle("dup", x=3.0) + "</timestep>")
        with pytest.raises(FcdParseError, match="dup") as err:
            parse_fcd(doc)
        assert err.value.line >= 1 and err.value.column >= 0

    def test_unknown_attribute_ignored(self):
        doc = fcd('<timestep time="0"><vehicle id="v" x="1" y="2" speed="3" angle="4" pos="9" type="car"/></timestep>')
        steps = parse_fcd(doc)
        assert steps[0].snapshots[0].x == 1.0

    def test_unknown_element_rejected(self):
        with pytest.raises(FcdParseError, match="person"):
            parse_fcd(fcd('<timestep time="0"><person id="p"/></timestep>'))

    def test_lane_attribute_kept(self):
        doc = fcd('<timestep time="0">' + vehicle("v", lane="ramp_0") + "</timestep>")
        assert parse_fcd(doc)[0].snapshots[0].lane == "ramp_0"

    def test_angle_normalized(self):
        doc = fcd('<timestep time="0">' + vehicle("v", angle=360.0) + "</timestep>")
        assert parse_fcd(doc)[0].snapshots[0].angle == 0.0

    def test_bytes_input(self):
        doc = fcd('<timestep time="0">' + vehicle("v") + "</timestep>").encode("utf-8")
        assert len(parse_fcd(doc)) == 1

    @pytest.mark.parametrize(
        "doc, fragment",
        [
            ("<fcd-export><timestep time='0'>", "malformed"),
            ("<root/>", "unknown root"),
            (fcd("<timestep><vehicle/></timestep>"), "time"),
            (fcd("<timestep time='x'/>"), "non-numeric"),
            (fcd("<timestep time='1'/><timestep time='1'/>"), "increasing"),
            (fcd("<timestep time='0'><vehicle x='1' y='1' speed='1' angle='0'/></timestep>"), "id"),
            (fcd("<timestep time='0'><vehicle id='v' y='1' speed='1' angle='0'/></timestep>"), "x"),
            (fcd("<timestep time='0'><vehicle id='v' x='a' y='1' speed='1' angle='0'/></timestep>"), "non-numeric"),
            (fcd("<timestep time='0'><vehicle id='v' x='1' y='1' speed='-2' angle='0'/></timestep>"), "negative speed"),
            (fcd("<timestep time='0'>words</timestep>"), "text"),
            (fcd("<timestep time='0'><vehicle id='v' x='inf' y='1' speed='1' angle='0'/></timestep>"), "non-finite"),
        ],
    )
    def test_rejections_carry_position(self, doc, fragment):
        with pytest.raises(FcdParseError, match=fragment) as err:
            parse_fcd(doc)
        assert err.value.line >= 1
        assert err.value.column >= 0

    @staticmethod
    def damaged(kind: str) -> bytes:
        """A merge log broken two thirds of the way in, well past the parser's first read."""
        lines = merge_log(3, seed=11).encode("utf-8").split(b"\n")
        at = next(i for i in range(len(lines) * 2 // 3, len(lines)) if b"<vehicle " in lines[i])
        if kind == "truncated":
            return b"\n".join(lines[:at]) + b"\n" + lines[at][:20]
        if kind == "mismatched-tag":
            end = next(i for i in range(at, len(lines)) if b"</timestep>" in lines[i])
            lines[end] = lines[end].replace(b"</timestep>", b"</timestap>")
        elif kind == "duplicate-id":
            lines.insert(at + 1, lines[at])
        else:
            lines[at] = re.sub(rb'speed="[^"]*"', b'speed="-1.0"', lines[at])
        return b"\n".join(lines)

    def test_file_input_equals_bytes(self, tmp_path):
        data = merge_log(4, seed=7, n_near_collision=1, n_stop_short=1).encode("utf-8")
        path = tmp_path / "log.xml"
        path.write_bytes(data)
        with open(path, "rb") as fh:
            from_file = parse_fcd(fh)
        assert from_file == parse_fcd(data) == parse_fcd(data.decode("utf-8"))
        assert len(from_file) == 6 * 40

    @pytest.mark.parametrize("kind, fragment", [
        ("truncated", "malformed XML"),
        ("mismatched-tag", "malformed XML"),
        ("duplicate-id", "duplicate vehicle id"),
        ("negative-speed", "negative speed -1.0"),
    ])
    def test_file_errors_match_bytes_errors(self, tmp_path, kind, fragment):
        data = self.damaged(kind)
        path = tmp_path / "bad.xml"
        path.write_bytes(data)
        with pytest.raises(FcdParseError, match=fragment) as from_bytes:
            parse_fcd(data)
        with open(path, "rb") as fh, pytest.raises(FcdParseError) as from_file:
            parse_fcd(fh)
        got = (from_file.value.reason, from_file.value.line, from_file.value.column)
        assert got == (from_bytes.value.reason, from_bytes.value.line, from_bytes.value.column)
        assert from_bytes.value.line > 100

    def test_round_trip_identity(self):
        doc = fcd(
            '<timestep time="0.5">' + vehicle("a", 1.25, -3.5, 7.75, 12.5, "m_0") + vehicle("b") + "</timestep>"
            '<timestep time="1.0">' + vehicle("a", 2.5) + "</timestep>"
        )
        once = parse_fcd(doc)
        again = parse_fcd(serialize_fcd(once))
        assert once == again


def traj(ego_points, neighbors=(), ego_id="ego", lane=None):
    """ego_points: list of (x, y, speed, angle); neighbors: list of lists of Snapshot."""
    steps = []
    for t, (x, y, speed, angle) in enumerate(ego_points):
        nb = tuple(neighbors[t]) if t < len(neighbors) else ()
        steps.append(TrajectoryStep(float(t), Snapshot(ego_id, x, y, speed, angle, lane), nb))
    return Trajectory(ego_id, tuple(steps))


def extract_by_rescan(timesteps, ego_pattern):
    """Reference extraction: rescan every timestep for each selected ego."""
    ego_ids, seen = [], set()
    for ts in timesteps:
        for snap in ts.snapshots:
            if snap.vehicle_id not in seen and fnmatch(snap.vehicle_id, ego_pattern):
                seen.add(snap.vehicle_id)
                ego_ids.append(snap.vehicle_id)
    trajectories = []
    for ego_id in ego_ids:
        run = []
        for ts in timesteps:
            ego = next((s for s in ts.snapshots if s.vehicle_id == ego_id), None)
            if ego is None:
                if run:
                    trajectories.append(Trajectory(ego_id, tuple(run)))
                    run = []
                continue
            run.append(TrajectoryStep(ts.time, ego, tuple(s for s in ts.snapshots if s.vehicle_id != ego_id)))
        if run:
            trajectories.append(Trajectory(ego_id, tuple(run)))
    return trajectories


class TestExtract:
    def make_log(self, presence):
        """presence: dict vehicle_id -> set of timestep indices (0..n)."""
        n = max(max(s) for s in presence.values()) + 1
        steps = []
        for t in range(n):
            snaps = tuple(
                Snapshot(vid, float(t), 0.0, 1.0, 90.0, None)
                for vid, times in presence.items()
                if t in times
            )
            steps.append(Timestep(float(t), snaps))
        return steps

    def test_single_ego_with_no_neighbors(self):
        log = self.make_log({"ego0": {0, 1, 2, 3, 4}})
        out = extract_ego_sequences(log, "ego*")
        assert len(out) == 1
        assert len(out[0]) == 5
        assert all(s.neighbors == () for s in out[0].steps)

    def test_vanish_and_reappear_splits(self):
        log = self.make_log({"ego0": {0, 1, 4, 5}, "other": {0, 1, 2, 3, 4, 5}})
        out = extract_ego_sequences(log, "ego*")
        assert [len(t) for t in out] == [2, 2]
        assert all(t.ego_id == "ego0" for t in out)

    def test_neighbors_collected_per_step(self):
        log = self.make_log({"ego0": {0, 1}, "n1": {0}, "n2": {0, 1}})
        out = extract_ego_sequences(log, "ego0")
        assert [n.vehicle_id for n in out[0].steps[0].neighbors] == ["n1", "n2"]
        assert [n.vehicle_id for n in out[0].steps[1].neighbors] == ["n2"]

    def test_absent_ego_is_empty(self):
        log = self.make_log({"other": {0, 1}})
        assert extract_ego_sequences(log, "ego*") == []

    def test_matches_presence_scan_on_random_logs(self):
        rng = Rng(17)
        for _ in range(50):
            n_vehicles = 1 + rng.randrange(5)
            n_steps = 2 + rng.randrange(12)
            presence = {}
            for v in range(n_vehicles):
                times = {t for t in range(n_steps) if rng.random() < 0.6}
                if times:
                    presence[f"v{v}"] = times
            if not presence:
                continue
            log = self.make_log(presence)
            out = extract_ego_sequences(log, "v*")
            # brute-force contiguous run count and total steps per id
            for vid, times in presence.items():
                runs = []
                current = 0
                for t in range(n_steps):
                    if t in times:
                        current += 1
                    elif current:
                        runs.append(current)
                        current = 0
                if current:
                    runs.append(current)
                got = [len(t) for t in out if t.ego_id == vid]
                assert got == runs


    @staticmethod
    def random_log(rng, n_vehicles, n_steps):
        """Random presence, a shuffled listing order per timestep, x growing with time."""
        ids = [("ego", "m", "car")[rng.randrange(3)] + str(v) for v in range(n_vehicles)]
        steps = []
        for t in range(n_steps):
            snaps = [Snapshot(vid, 2.0 * t + v, 0.0, 1.0, 90.0, None)
                     for v, vid in enumerate(ids) if rng.random() < 0.6]
            rng.shuffle(snaps)
            steps.append(Timestep(float(t), tuple(snaps)))
        return steps

    def test_equals_rescan_on_random_logs(self):
        rng = Rng(29)
        splits = 0
        for _ in range(150):
            log = self.random_log(rng, 1 + rng.randrange(7), 1 + rng.randrange(14))
            for pattern in ("ego*", "*1", "[ec]*"):
                got = extract_ego_sequences(log, pattern)
                assert got == extract_by_rescan(log, pattern)
                ids = [t.ego_id for t in got]
                splits += len(ids) - len(set(ids))
        assert splits > 0  # the logs exercised reappearance

    def test_neighbors_keep_listing_order(self):
        log = [Timestep(0.0, tuple(Snapshot(v, float(i), 0.0, 1.0, 90.0, None)
                                   for i, v in enumerate(["n2", "ego0", "n1", "n3"])))]
        out = extract_ego_sequences(log, "ego0")
        assert [n.vehicle_id for n in out[0].steps[0].neighbors] == ["n2", "n1", "n3"]

    def test_output_by_first_selection_then_run(self):
        log = self.make_log({"b": {1, 2, 5}, "a": {0, 1, 2, 3, 4, 5, 6}, "c": {3}})
        assert [(t.ego_id, len(t)) for t in extract_ego_sequences(log, "[bc]")] == [("b", 2), ("b", 1), ("c", 1)]
        picked = extract_ego_sequences(log, "*")
        assert [(t.ego_id, t.steps[0].time) for t in picked] == [("a", 0.0), ("b", 1.0), ("b", 5.0), ("c", 3.0)]


class TestClassify:
    CFG = FilterConfig(d_min=2.0, zone_x_min=100.0, zone_x_max=200.0, zone_lane_prefix="main", t_min=3, t_max=50)

    def good_points(self, n=10):
        return [(100.0 + 5 * t, 0.0, 10.0, 90.0) for t in range(n)]

    def test_near_collision(self):
        neighbors = [[Snapshot("n", 100.0 + 5 * t, 0.5, 10.0, 90.0, None)] for t in range(10)]
        t = traj(self.good_points(), neighbors, lane="main_0")
        assert classify_positive(t, self.CFG) == Classification(False, "near-collision")

    def test_positive_with_no_neighbors(self):
        t = traj(self.good_points(), lane="main_0")
        verdict = classify_positive(t, self.CFG)
        assert verdict.positive and verdict.reason is None

    def test_merge_incomplete_outside_zone(self):
        pts = [(300.0 + t, 0.0, 10.0, 90.0) for t in range(10)]
        t = traj(pts, lane="main_0")
        assert classify_positive(t, self.CFG) == Classification(False, "merge-incomplete")

    def test_merge_incomplete_wrong_lane(self):
        t = traj(self.good_points(), lane="ramp_0")
        assert classify_positive(t, self.CFG) == Classification(False, "merge-incomplete")

    def test_too_short_and_too_long(self):
        short = traj(self.good_points(2), lane="main_0")
        assert classify_positive(short, self.CFG) == Classification(False, "too-short")
        cfg = replace(self.CFG, t_min=1, t_max=4)
        long = traj(self.good_points(6), lane="main_0")
        assert classify_positive(long, cfg) == Classification(False, "too-long")

    def test_monotone_in_d_min(self):
        rng = Rng(23)
        for _ in range(100):
            n = 5 + rng.randrange(6)
            pts = [(100.0 + 10 * t, 0.0, 10.0, 90.0) for t in range(n)]
            neighbors = [
                [Snapshot("n", 100.0 + 10 * t + rng.uniform(-8, 8), rng.uniform(-4, 4), 8.0, 90.0, None)]
                for t in range(n)
            ]
            t = traj(pts, neighbors, lane="main_0")
            was_positive = None
            for d_min in (0.5, 2.0, 5.0, 9.0):
                cfg = replace(self.CFG, d_min=d_min)
                positive = classify_positive(t, cfg).positive
                if was_positive is not None and positive:
                    assert was_positive  # raising d_min never flips negative->positive
                was_positive = positive

    def test_near_collision_is_hypot_below_d_min(self):
        # the |dx| prefilter must not change a verdict, also at the edges of d_min and 2 * d_min
        rng = Rng(41)
        for _ in range(500):
            d_min = rng.uniform(0.1, 5.0)
            ex, ey = rng.uniform(-1e4, 1e4), rng.uniform(-10.0, 10.0)
            edges = (d_min, 2 * d_min, math.nextafter(2 * d_min, 0.0), math.nextafter(2 * d_min, math.inf),
                     math.nextafter(d_min, 0.0), rng.uniform(0.0, 3 * d_min))
            dx = edges[rng.randrange(len(edges))] * (1 if rng.random() < 0.5 else -1)
            dy = (0.0, 1e-9, rng.uniform(0.0, d_min))[rng.randrange(3)]
            n = Snapshot("n", ex - dx, ey - dy, 8.0, 90.0, None)
            t = Trajectory("ego", (TrajectoryStep(0.0, Snapshot("ego", ex, ey, 10.0, 90.0, None), (n,)),))
            verdict = classify_positive(t, FilterConfig(d_min=d_min, t_min=1, t_max=5))
            assert verdict.positive == (not math.hypot(ex - n.x, ey - n.y) < d_min)

    def test_synthetic_labeled_set(self):
        # labels known by construction: distance clause controls them
        cfg = FilterConfig(d_min=2.0, zone_x_min=0.0, zone_x_max=1000.0, t_min=2, t_max=100)
        rng = Rng(31)
        for case in range(100):
            n = 4 + rng.randrange(6)
            pts = [(10.0 * t, 0.0, 10.0, 90.0) for t in range(n)]
            violate = case % 2 == 0
            gap = 0.5 if violate else 3.0
            step_hit = rng.randrange(n)
            neighbors = [
                [Snapshot("n", 10.0 * t + (gap if t == step_hit else 20.0), 0.0, 8.0, 90.0, None)]
                for t in range(n)
            ]
            verdict = classify_positive(traj(pts, neighbors), cfg)
            assert verdict.positive == (not violate)


class TestEncode:
    CFG = EncoderConfig(k=4, v_norm=30.0, d_norm=50.0)

    @pytest.mark.parametrize("scale", [{"v_norm": math.inf}, {"d_norm": math.inf}, {"v_norm": math.nan},
                                       {"d_norm": 0.0}, {"v_norm": 10**400}, {"d_norm": 10**400}],
                             ids=["v-norm-inf", "d-norm-inf", "v-norm-nan", "d-norm-0", "v-norm-huge", "d-norm-huge"])
    def test_scale_that_is_not_finite_and_positive_refused(self, scale):
        """An infinite scale would encode every speed or distance as 0; an int too large for a float would raise
        OverflowError in encode_features."""
        with pytest.raises(ValueError, match="^invalid encoder configuration$"):
            EncoderConfig(**scale)

    def test_no_neighbors_padding(self):
        t = traj([(0.0, 0.0, 15.0, 90.0)])
        sample = encode_features(t, self.CFG)
        assert sample.features.shape == (1, 9)
        assert sample.features[0].tolist() == [0.5, 1.0, 0.0, 1.0, 0.0, 1.0, 0.0, 1.0, 0.0]

    def test_one_neighbor_normalization(self):
        nb = [[Snapshot("n", 25.0, 0.0, 15.0, 90.0, None)]]
        t = traj([(0.0, 0.0, 15.0, 90.0)], nb)
        row = encode_features(t, self.CFG).features[0]
        assert row[0] == 0.5
        assert row[1] == pytest.approx(0.5)  # 25 m / 50 m
        assert row[2] == pytest.approx(0.5)  # 15 / 30
        assert row[3:].tolist() == [1.0, 0.0, 1.0, 0.0, 1.0, 0.0]

    def test_six_neighbors_keeps_four_nearest_sorted(self):
        dists = [42.0, 7.0, 18.0, 3.0, 29.0, 11.0]
        nb = [[Snapshot(f"n{i}", d, 0.0, 10.0, 90.0, None) for i, d in enumerate(dists)]]
        t = traj([(0.0, 0.0, 15.0, 90.0)], nb)
        row = encode_features(t, self.CFG).features[0]
        got = [row[1 + 2 * s] * 50.0 for s in range(4)]
        assert got == pytest.approx(sorted(dists)[:4])

    def test_clamping_and_angle_target(self):
        nb = [[Snapshot("n", 500.0, 0.0, 90.0, 90.0, None)]]
        t = traj([(0.0, 0.0, 45.0, 180.0)], nb)
        sample = encode_features(t, self.CFG)
        assert sample.features[0, 0] == 1.0    # speed clamped
        assert sample.features[0, 1] == 1.0    # distance clamped
        assert sample.features[0, 2] == 1.0    # neighbor speed clamped
        assert sample.targets[0].tolist() == [1.0, 0.5]

    def test_invariant_to_neighbor_input_order(self):
        snaps = [Snapshot(f"n{i}", 10.0 + i, float(i), 5.0 + i, 90.0, None) for i in range(6)]
        t1 = traj([(0.0, 0.0, 15.0, 90.0)], [snaps])
        t2 = traj([(0.0, 0.0, 15.0, 90.0)], [list(reversed(snaps))])
        assert np.array_equal(encode_features(t1, self.CFG).features, encode_features(t2, self.CFG).features)

    def test_distance_ties_break_by_vehicle_id(self):
        snaps = [Snapshot("b", 10.0, 0.0, 20.0, 90.0, None), Snapshot("a", -10.0, 0.0, 10.0, 90.0, None)]
        t = traj([(0.0, 0.0, 15.0, 90.0)], [snaps])
        row = encode_features(t, EncoderConfig(k=2)).features[0]
        assert row[2] == pytest.approx(10.0 / 30.0)  # "a" sorts first on equal distance
        assert row[4] == pytest.approx(20.0 / 30.0)

    def test_renormalization_round_trip(self):
        t = traj([(0.0, 0.0, 12.34, 123.4), (1.0, 0.0, 5.6, 7.8)])
        s = encode_features(t, self.CFG)
        speeds = s.targets[:, 0] * self.CFG.v_norm
        angles = s.targets[:, 1] * 360.0
        renorm = np.stack([speeds / self.CFG.v_norm, angles / 360.0], axis=1)
        assert np.all(np.abs(renorm - s.targets) < 1e-12)


class TestDatasetFile:
    def test_write_read_round_trip(self, tmp_path):
        t = traj([(0.0, 0.0, 10.0, 90.0), (5.0, 0.0, 12.0, 90.0)])
        samples = [encode_features(t, EncoderConfig(), sequence_id="s0")]
        path = tmp_path / "data.jsonl"
        write_dataset(samples, path)
        loaded = read_dataset(path)
        assert len(loaded) == 1
        assert loaded[0].sequence_id == "s0"
        assert np.array_equal(loaded[0].features, samples[0].features)
        assert np.array_equal(loaded[0].targets, samples[0].targets)
        assert loaded[0].encoder == samples[0].encoder

    def test_one_json_object_per_line(self, tmp_path):
        t = traj([(0.0, 0.0, 10.0, 90.0)] * 3)
        samples = [encode_features(t, EncoderConfig(), sequence_id=f"s{i}") for i in range(4)]
        path = tmp_path / "data.jsonl"
        write_dataset(samples, path)
        lines = path.read_text().strip().split("\n")
        assert len(lines) == 4
        for line in lines:
            json.loads(line)

    def test_unknown_encoder_key_refused(self, tmp_path):
        path = tmp_path / "data.jsonl"
        write_dataset([encode_features(traj([(0.0, 0.0, 10.0, 90.0)]), EncoderConfig(), sequence_id="s0")], path)
        doc = json.loads(path.read_text())
        doc["encoder"]["k_max"] = 4
        path.write_text(json.dumps(doc) + "\n")
        with pytest.raises(ConfigError, match=r"EncoderConfig: unknown keys: \['k_max'\]"):
            read_dataset(path)

    def test_integer_too_long_to_parse_names_the_line(self, tmp_path):
        path = tmp_path / "data.jsonl"
        path.write_text('{"features": [[' + "9" * 5000 + "]]}\n")
        with pytest.raises(ValueError, match=r"^(bad JSON on )?line 1: "):  # Python >= 3.11 limits int digits
            read_dataset(path)

    @pytest.mark.parametrize("edit, message", [
        (lambda doc: doc.update(targets=doc["targets"][:1]), r"targets must be \(3, 2\), got \(1, 2\)"),
        (lambda doc: doc.update(features=doc["features"][0]), r"features must be \(T, 9\), T >= 1, got \(9,\)"),
        (lambda doc: doc.update(targets=[row[:1] for row in doc["targets"]]),
         r"targets must be \(3, 2\), got \(3, 1\)"),
        (lambda doc: doc.update(features=[], targets=[]), r"features must be \(T, 9\), T >= 1, got \(0,\)"),
        (lambda doc: doc["features"][0].__setitem__(1, None), "features must be finite numbers"),
        (lambda doc: doc["targets"][2].__setitem__(0, float("inf")), "targets must be finite numbers"),
    ], ids=["targets-short", "features-1d", "targets-1-column", "no-steps", "feature-null", "target-inf"])
    def test_wrong_shapes_refused_naming_the_line(self, tmp_path, edit, message):
        path = tmp_path / "data.jsonl"
        write_dataset([encode_features(traj([(0.0, 0.0, 10.0, 90.0)] * 3), EncoderConfig(), sequence_id=f"s{i}")
                       for i in range(2)], path)
        first, second = path.read_text().splitlines()
        doc = json.loads(second)
        edit(doc)
        path.write_text(first + "\n" + json.dumps(doc) + "\n")
        with pytest.raises(ValueError, match=f"^line 2: {message}$"):
            read_dataset(path)

    @pytest.mark.parametrize("line", ['"abc"', "[1]", "5"], ids=["string", "list", "number"])
    def test_line_that_is_no_object_refused_naming_the_line(self, tmp_path, line):
        path = tmp_path / "data.jsonl"
        write_dataset([encode_features(traj([(0.0, 0.0, 10.0, 90.0)]), EncoderConfig(), sequence_id="s0")], path)
        path.write_text(path.read_text() + line + "\n")
        with pytest.raises(ConfigError, match="^line 2: expected a JSON object$"):
            read_dataset(path)

    def test_feature_outside_unit_range_reads_back(self, tmp_path):
        """The reader checks type, shape and finiteness; [0, 1] is what encode_features writes, not a file rule."""
        sample = encode_features(traj([(0.0, 0.0, 10.0, 90.0)] * 2), EncoderConfig(), sequence_id="s0")
        sample.features[1, 2] = 5.0
        path = tmp_path / "data.jsonl"
        write_dataset([sample], path)
        [loaded] = read_dataset(path)
        assert loaded.features[1, 2] == 5.0 and np.array_equal(loaded.features, sample.features)


def make_samples(n, seed=0, T=20):
    """Deterministic scripted profiles: decelerate, hold, accelerate."""
    rng = Rng(seed)
    samples = []
    for i in range(n):
        pts = []
        speed = 20.0 + rng.uniform(-1, 1)
        for t in range(T):
            if t < T // 3:
                speed -= 0.6
            elif t > 2 * T // 3:
                speed = min(speed + 0.8, 25.0)
            pts.append((5.0 * t, 0.0, speed + rng.uniform(-0.2, 0.2), 90.0))
        samples.append(encode_features(traj(pts, ego_id=f"e{i}"), EncoderConfig(), sequence_id=f"e{i}"))
    return samples


class TestTrainPolicy:
    def test_split_arithmetic(self):
        samples = make_samples(10)
        artifact, history = train_policy(samples, TrainConfig(split=0.8, hidden=4, epochs=1, seed=5))
        # 8 train sequences -> one epoch of 8 adam steps; 2 validation entries
        assert len(history.val_mse) == 1
        assert artifact.model_cfg.input_dim == 9

    def test_split_stable_under_seed(self):
        samples = make_samples(10)
        a, ha = train_policy(samples, TrainConfig(hidden=4, epochs=2, seed=5))
        b, hb = train_policy(samples, TrainConfig(hidden=4, epochs=2, seed=5))
        assert ha.val_mse == hb.val_mse
        for name in a.params:
            assert np.array_equal(a.params[name], b.params[name])

    def test_single_sample_rejected(self):
        with pytest.raises(InsufficientDataError, match="insufficient"):
            train_policy(make_samples(1), TrainConfig())

    def test_mixed_encoders_rejected(self):
        samples = make_samples(3)
        t = traj([(0.0, 0.0, 10.0, 90.0)] * 5)
        samples.append(encode_features(t, EncoderConfig(k=2), sequence_id="odd"))
        with pytest.raises(EncoderMismatchError):
            train_policy(samples, TrainConfig())

    def test_scripted_controller_learnable(self):
        samples = make_samples(12, T=24)
        artifact, history = train_policy(samples, TrainConfig(hidden=8, epochs=150, patience=None, lr=5e-3, seed=2))
        assert history.val_mse[-1] < 0.01


class TestEvaluatePolicy:
    def test_perfect_predictions_zero_rmse(self):
        samples = make_samples(3)
        # identity check: evaluate a model against its own outputs
        artifact, _ = train_policy(samples, TrainConfig(hidden=4, epochs=1, seed=0))
        model = artifact.build_model()
        doctored = []
        for s in samples:
            ys, _ = rnn.forward(model, s.features)
            doctored.append(SequenceSample(s.sequence_id, s.features, ys.copy(), s.encoder))
        report = evaluate_policy(artifact, doctored)
        assert report.speed_rmse == pytest.approx(0.0, abs=1e-9)
        assert report.angle_rmse == pytest.approx(0.0, abs=1e-9)

    def test_constant_zero_model_rmse_is_target_speed(self):
        enc = EncoderConfig()
        t = traj([(0.0, 0.0, 10.0, 0.0)] * 5)
        sample = encode_features(t, enc)
        cfg = rnn.ModelConfig(input_dim=9, output_dim=2, hidden_dim=3, seed=0)
        h = 3
        params = {
            "wx": np.zeros((12, 9)), "wh": np.zeros((12, 3)), "b": np.zeros(12),
            "wy": np.zeros((2, 3)), "by": np.zeros(2),
        }
        artifact = PolicyArtifact(cfg, enc, params)
        report = evaluate_policy(artifact, [sample])
        assert report.speed_rmse == pytest.approx(10.0, abs=1e-9)

    def test_encoder_mismatch_rejected(self):
        samples = make_samples(3)
        artifact, _ = train_policy(samples, TrainConfig(hidden=4, epochs=1, seed=0))
        other = SequenceSample("x", samples[0].features, samples[0].targets, EncoderConfig(v_norm=99.0))
        with pytest.raises(EncoderMismatchError):
            evaluate_policy(artifact, [other])

    def test_rows_schema(self):
        samples = make_samples(2, T=4)
        artifact, _ = train_policy(samples, TrainConfig(hidden=4, epochs=1, seed=0))
        report = evaluate_policy(artifact, samples)
        assert len(report.rows) == 8
        sid, t, a_s, p_s, a_a, p_a = report.rows[0]
        assert isinstance(sid, str) and t == 0

    @pytest.mark.parametrize("sequence_id", ["veh,1#0", 'a"b', "plain#3"])
    def test_rows_csv_round_trips_ids_and_numbers(self, sequence_id):
        samples = make_samples(2, T=4)
        samples[0] = SequenceSample(sequence_id, samples[0].features, samples[0].targets, samples[0].encoder)
        artifact, _ = train_policy(samples, TrainConfig(hidden=4, epochs=1, seed=0))
        report = evaluate_policy(artifact, samples)
        parsed = list(csv.reader(io.StringIO(eval_rows_to_csv(report.rows), newline="")))
        assert parsed[0] == EVAL_CSV_HEADER.split(",")
        assert len(parsed) == 1 + len(report.rows)
        for fields, row in zip(parsed[1:], report.rows):
            assert len(fields) == 6
            assert fields[0] == row[0] and int(fields[1]) == row[1]
            assert [float(x) for x in fields[2:]] == [float(x) for x in row[2:]]
        assert parsed[1][0] == sequence_id


def with_checksum(doc: dict) -> dict:
    """`doc` with its checksum recomputed over the rest of it: the CRC32 of its canonical JSON."""
    payload = {key: value for key, value in doc.items() if key != "checksum"}
    return {**payload, "checksum": zlib.crc32(json.dumps(payload, sort_keys=True, separators=(",", ":")).encode())}


class TestArtifactIO:
    def make_artifact(self):
        samples = make_samples(3)
        artifact, _ = train_policy(samples, TrainConfig(hidden=4, epochs=2, seed=1))
        return artifact

    def test_save_load_bit_exact(self, tmp_path):
        artifact = self.make_artifact()
        path = tmp_path / "policy.json"
        save_artifact(artifact, path)
        loaded = load_artifact(path)
        assert loaded.model_cfg == artifact.model_cfg
        assert loaded.encoder == artifact.encoder
        for name, arr in artifact.params.items():
            assert np.array_equal(loaded.params[name], arr)

    def test_corrupt_payload_fails_checksum(self, tmp_path):
        artifact = self.make_artifact()
        path = tmp_path / "policy.json"
        save_artifact(artifact, path)
        doc = json.loads(path.read_text())
        doc["params"]["by"][0] += 1e-9
        path.write_text(json.dumps(doc))
        with pytest.raises(ChecksumMismatchError):
            load_artifact(path)

    def test_unsupported_version(self, tmp_path):
        artifact = self.make_artifact()
        doc = artifact.to_doc()
        doc["format_version"] = 999
        with pytest.raises(UnsupportedVersionError):
            artifact_from_doc(doc)

    @pytest.mark.parametrize("value", [None, float("nan"), float("inf"), True, "0.5"])
    def test_non_finite_param_refused(self, value):
        """Under a matching checksum too; numpy would read true and "0.5" as numbers."""
        doc = self.make_artifact().to_doc()
        doc["params"]["wh"][3] = value
        with pytest.raises(ArtifactError, match="^malformed artifact payload: param wh must be finite numbers$"):
            artifact_from_doc(with_checksum(doc))

    def test_param_too_large_for_a_float_refused(self):
        doc = self.make_artifact().to_doc()
        doc["params"]["wh"][3] = 10**400
        with pytest.raises(ArtifactError, match="^malformed artifact payload: int too large to convert to float$"):
            artifact_from_doc(with_checksum(doc))

    @pytest.mark.parametrize("version", [True, 1.0], ids=["true", "float"])
    def test_version_that_is_no_int_refused(self, version):
        """true == 1 and 1.0 == 1 in Python, but neither is the int version 1."""
        doc = with_checksum({**self.make_artifact().to_doc(), "format_version": version})
        with pytest.raises(UnsupportedVersionError, match=f"^unsupported artifact version {version!r}$"):
            artifact_from_doc(doc)

    def test_checksum_that_is_no_int_refused(self):
        doc = self.make_artifact().to_doc()
        doc["checksum"] = float(doc["checksum"])  # equal to the CRC, but no int
        with pytest.raises(ChecksumMismatchError, match="^artifact checksum mismatch$"):
            artifact_from_doc(doc)

    @pytest.mark.parametrize("dims, message", [
        ({"input_dim": 8}, r"model \(input_dim, output_dim\) must be \(9, 2\) for its encoder, got \(8, 2\)"),
        ({"output_dim": 1}, r"model \(input_dim, output_dim\) must be \(9, 2\) for its encoder, got \(9, 1\)"),
    ], ids=["input-dim", "output-dim"])
    def test_dims_that_do_not_fit_refused(self, dims, message):
        """A document with a correct checksum whose model does not read the encoder's features or does not
        predict (speed, heading) is refused on load, before any sample reaches it."""
        cfg = rnn.ModelConfig(**{"input_dim": 9, "output_dim": 2, "hidden_dim": 3, "seed": 0, **dims})
        params = rnn.SeqModel.initialize(cfg).params()
        doc = {"format_version": 1, "model": asdict(cfg), "encoder": asdict(EncoderConfig()),
               "params": {name: arr.ravel().tolist() for name, arr in params.items()}}
        with pytest.raises(ArtifactError, match=f"^malformed artifact payload: {message}$"):
            artifact_from_doc(with_checksum(doc))

    @pytest.mark.parametrize("edit, message", [
        (lambda doc: doc.update(note="x"),
         r"keys must be \['checksum', 'encoder', 'format_version', 'model', 'params'\], got \['checksum', 'encoder', "
         r"'format_version', 'model', 'note', 'params'\]"),
        (lambda doc: doc.pop("model"),
         r"keys must be \['checksum', 'encoder', 'format_version', 'model', 'params'\], got \['checksum', 'encoder', "
         r"'format_version', 'params'\]"),
        (lambda doc: doc["params"].update(extra=[1.0]), r"unknown keys: \['extra'\]"),
        (lambda doc: doc["params"].pop("wx"), "'wx'"),
        (lambda doc: doc.update(params=[]), "expected a JSON object"),
    ], ids=["extra-key", "dropped-key", "extra-param", "dropped-param", "params-list"])
    def test_version_1_keys_are_exactly_those_of_the_format(self, edit, message):
        """Under a matching checksum too: version 1 takes the five keys of version 2, and params named as in rnn,
        read by the key rule of the dataset and the configs."""
        doc = self.make_artifact().to_doc()
        edit(doc)
        with pytest.raises(ArtifactError, match=f"^malformed artifact payload: {message}$"):
            artifact_from_doc(with_checksum(doc))

    def test_truncated_file(self, tmp_path):
        artifact = self.make_artifact()
        path = tmp_path / "policy.json"
        save_artifact(artifact, path)
        path.write_text(path.read_text()[:100])
        with pytest.raises(ArtifactError):
            load_artifact(path)

    def test_checksum_survives_round_trip_via_doc(self):
        artifact = self.make_artifact()
        doc = artifact.to_doc()
        redone = artifact_from_doc(json.loads(json.dumps(doc)))
        for name, arr in artifact.params.items():
            assert np.array_equal(redone.params[name], arr)
