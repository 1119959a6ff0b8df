"""Infrastructure-led imitation pipeline.

Floating-car-data XML logs (the subset grammar below) are parsed into
per-timestep snapshots, sliced into per-ego trajectories, filtered down to
positive merge negotiations, encoded into fixed-width normalized sequences,
and used to train the sequence model. The trained policy travels as a
versioned, checksummed JSON artifact.

Input grammar (UTF-8):

    <fcd-export>
      <timestep time="0.00">                      time: strictly increasing
        <vehicle id="v0" x="5.0" y="1.5" speed="10.0" angle="90.0" lane="m_0"/>
      </timestep>
    </fcd-export>

Unknown attributes are ignored, unknown elements rejected.
"""

from __future__ import annotations

import csv
import fnmatch
import io
import json
import math
import zlib
from dataclasses import asdict, dataclass
from typing import NamedTuple, Optional, Sequence
from xml.parsers import expat

import numpy as np

from . import rnn
from .config import Config
from .rng import Rng


class FcdParseError(ValueError):
    """Rejected FCD input; carries 1-based line and 0-based column."""

    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"{message} (line {line}, column {column})")
        self.reason = message
        self.line = line
        self.column = column


class ArtifactError(ValueError):
    """Artifact file cannot be loaded."""


class ChecksumMismatchError(ArtifactError):
    pass


class UnsupportedVersionError(ArtifactError):
    pass


class EncoderMismatchError(ValueError):
    """Sample encoder configuration does not match the policy artifact."""


class InsufficientDataError(ValueError):
    pass


class Snapshot(NamedTuple):
    vehicle_id: str
    x: float
    y: float
    speed: float
    angle: float
    lane: Optional[str] = None


class Timestep(NamedTuple):
    time: float
    snapshots: tuple[Snapshot, ...]


class TrajectoryStep(NamedTuple):
    time: float
    ego: Snapshot
    neighbors: tuple[Snapshot, ...]


@dataclass(frozen=True)
class Trajectory:
    ego_id: str
    steps: tuple[TrajectoryStep, ...]

    def __len__(self) -> int:
        return len(self.steps)


class _FcdHandler:
    def __init__(self, parser: expat.XMLParserType):
        self.parser = parser
        self.timesteps: list[Timestep] = []
        self.snapshots: list[Snapshot] = []
        self.seen_ids: set[str] = set()
        self.time: Optional[float] = None
        self.depth = 0
        self.last_time = -math.inf

    def _err(self, message: str):
        raise FcdParseError(message, self.parser.CurrentLineNumber, self.parser.CurrentColumnNumber)

    def _number(self, attrs: dict, name: str) -> float:
        raw = attrs.get(name)
        if raw is None:
            self._err(f"missing required attribute '{name}'")
        try:
            value = float(raw)
        except ValueError:
            self._err(f"non-numeric attribute {name}={raw!r}")
        if not math.isfinite(value):
            self._err(f"non-finite attribute {name}={raw!r}")
        return value

    def start(self, name: str, attrs: dict):
        self.depth += 1
        if self.depth == 1:
            if name != "fcd-export":
                self._err(f"unknown root element '{name}' (expected 'fcd-export')")
        elif self.depth == 2:
            if name != "timestep":
                self._err(f"unknown element '{name}' (expected 'timestep')")
            t = self._number(attrs, "time")
            if t <= self.last_time:
                self._err(f"timestep time {t} not strictly increasing (previous {self.last_time})")
            self.time = t
            self.snapshots = []
            self.seen_ids = set()
        elif self.depth == 3:
            if name != "vehicle":
                self._err(f"unknown element '{name}' (expected 'vehicle')")
            vid = attrs.get("id")
            if vid is None:
                self._err("missing required attribute 'id'")
            if vid in self.seen_ids:
                self._err(f"duplicate vehicle id '{vid}' in timestep")
            self.seen_ids.add(vid)
            x = self._number(attrs, "x")
            y = self._number(attrs, "y")
            speed = self._number(attrs, "speed")
            if speed < 0:
                self._err(f"negative speed {speed} for vehicle '{vid}'")
            angle = self._number(attrs, "angle") % 360.0
            self.snapshots.append(Snapshot(vid, x, y, speed, angle, attrs.get("lane")))
        else:
            self._err(f"unexpected element '{name}' below vehicle level")

    def end(self, name: str):
        if self.depth == 2:
            self.timesteps.append(Timestep(self.time, tuple(self.snapshots)))
            self.last_time = self.time
        self.depth -= 1

    def chars(self, data: str):
        if data.strip():
            self._err(f"unexpected text content {data.strip()[:20]!r}")


def parse_fcd(data) -> list[Timestep]:
    """Parse an FCD document (str, bytes or a binary file, which is streamed)
    into timesteps.

    Any malformed XML or grammar violation raises FcdParseError with the
    offending location.
    """
    if not hasattr(data, "read"):
        data = io.BytesIO(data.encode("utf-8") if isinstance(data, str) else data)
    parser = expat.ParserCreate(encoding="utf-8")
    handler = _FcdHandler(parser)
    parser.StartElementHandler = handler.start
    parser.EndElementHandler = handler.end
    parser.CharacterDataHandler = handler.chars
    try:
        parser.ParseFile(data)
    except expat.ExpatError as exc:
        raise FcdParseError(
            f"malformed XML: {expat.errors.messages[exc.code]}", exc.lineno, exc.offset
        ) from exc
    return handler.timesteps


def extract_ego_sequences(timesteps: Sequence[Timestep], ego_pattern: str) -> list[Trajectory]:
    """One Trajectory per contiguous presence run of each ego whose id matches the glob `ego_pattern`.

    A vehicle that vanishes and reappears yields separate trajectories, in
    order of the ids' first appearance, then of time. Vehicle ids are unique
    within a timestep, as parse_fcd enforces.
    """
    ids = dict.fromkeys(snap.vehicle_id for ts in timesteps for snap in ts.snapshots)
    ego_ids = fnmatch.filter(ids, ego_pattern)

    runs: dict[str, list[Trajectory]] = {vid: [] for vid in ego_ids}
    open_runs: dict[str, list[TrajectoryStep]] = {}
    for ts in timesteps:
        snaps = ts.snapshots
        present = set()
        for i, snap in enumerate(snaps):
            vid = snap.vehicle_id
            if vid in runs:
                present.add(vid)
                open_runs.setdefault(vid, []).append(TrajectoryStep(ts.time, snap, snaps[:i] + snaps[i + 1:]))
        for vid in [vid for vid in open_runs if vid not in present]:
            runs[vid].append(Trajectory(vid, tuple(open_runs.pop(vid))))
    for vid, steps in open_runs.items():
        runs[vid].append(Trajectory(vid, tuple(steps)))
    return [traj for vid in ego_ids for traj in runs[vid]]


@dataclass(frozen=True)
class MergeZone(Config):
    x_min: float
    x_max: float
    lane_prefix: str = ""

    def contains(self, snap: Snapshot) -> bool:
        if not self.x_min <= snap.x <= self.x_max:
            return False
        if self.lane_prefix:
            return snap.lane is not None and snap.lane.startswith(self.lane_prefix)
        return True


@dataclass(frozen=True)
class FilterConfig(Config):
    d_min: float = 2.0
    merge_zone: MergeZone = MergeZone(-math.inf, math.inf)
    t_min: int = 10
    t_max: int = 500

    def check(self):
        if not self.d_min > 0:  # also rejects NaN, which would pass every distance check
            raise ValueError("d_min must be > 0")
        if self.t_min > self.t_max:
            raise ValueError("t_min must be <= t_max")


class Classification(NamedTuple):
    positive: bool
    reason: Optional[str]


def classify_positive(traj: Trajectory, cfg: FilterConfig) -> Classification:
    """Positive iff no near-collision, merge completed, and length in bounds.

    The reason names the first failed clause: near-collision, merge-incomplete,
    too-short or too-long.
    """
    reach = 2 * cfg.d_min  # |dx| >= reach puts the distance, even rounded, past d_min
    for step in traj.steps:
        ex, ey = step.ego.x, step.ego.y
        for n in step.neighbors:
            dx = ex - n.x
            if abs(dx) < reach and math.hypot(dx, ey - n.y) < cfg.d_min:
                return Classification(False, "near-collision")
    if not traj.steps or not cfg.merge_zone.contains(traj.steps[-1].ego):
        return Classification(False, "merge-incomplete")
    if len(traj) < cfg.t_min:
        return Classification(False, "too-short")
    if len(traj) > cfg.t_max:
        return Classification(False, "too-long")
    return Classification(True, None)


@dataclass(frozen=True)
class EncoderConfig(Config):
    k: int = 4           # neighbor slots
    v_norm: float = 30.0  # m/s full scale
    d_norm: float = 50.0  # m full scale

    def check(self):
        # written to reject NaN scales too, which would make every feature NaN
        if self.k < 0 or not (self.v_norm > 0 and self.d_norm > 0):
            raise ValueError("invalid encoder configuration")

    @property
    def feature_dim(self) -> int:
        return 1 + 2 * self.k


@dataclass
class SequenceSample:
    sequence_id: str
    features: np.ndarray  # (T, 1 + 2k), all in [0, 1]
    targets: np.ndarray   # (T, 2): speed/v_norm, angle/360
    encoder: EncoderConfig


def _clamp01(x: float) -> float:
    return 0.0 if x < 0.0 else (1.0 if x > 1.0 else x)


def encode_features(traj: Trajectory, cfg: EncoderConfig, sequence_id: Optional[str] = None) -> SequenceSample:
    """Normalized per-step features: ego speed, then K nearest neighbors as
    (distance, speed) pairs ascending by distance (ties by vehicle id),
    padded with (1.0, 0.0)."""
    T = len(traj.steps)
    feats = np.empty((T, cfg.feature_dim), dtype=np.float64)
    targets = np.empty((T, 2), dtype=np.float64)
    for t, step in enumerate(traj.steps):
        ego = step.ego
        feats[t, 0] = _clamp01(ego.speed / cfg.v_norm)
        ranked = sorted(
            (
                (math.hypot(ego.x - n.x, ego.y - n.y), n.vehicle_id, n.speed)
                for n in step.neighbors
            ),
        )[: cfg.k]
        for slot in range(cfg.k):
            if slot < len(ranked):
                dist, _, speed = ranked[slot]
                feats[t, 1 + 2 * slot] = _clamp01(dist / cfg.d_norm)
                feats[t, 2 + 2 * slot] = _clamp01(speed / cfg.v_norm)
            else:
                feats[t, 1 + 2 * slot] = 1.0
                feats[t, 2 + 2 * slot] = 0.0
        targets[t, 0] = _clamp01(ego.speed / cfg.v_norm)
        targets[t, 1] = (ego.angle % 360.0) / 360.0
    return SequenceSample(sequence_id or traj.ego_id, feats, targets, cfg)


# --- dataset file: JSON lines, one sample per line ---

def write_dataset(samples: Sequence[SequenceSample], path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for s in samples:
            fh.write(
                json.dumps(
                    {
                        "sequence_id": s.sequence_id,
                        "encoder": {"k": s.encoder.k, "v_norm": s.encoder.v_norm, "d_norm": s.encoder.d_norm},
                        "features": s.features.tolist(),
                        "targets": s.targets.tolist(),
                    },
                    sort_keys=True,
                )
                + "\n"
            )


def read_dataset(path) -> list[SequenceSample]:
    samples = []
    with open(path, "r", encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                doc = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ValueError(f"{path}: bad JSON on line {line_no}: {exc}") from exc
            enc = EncoderConfig(**doc["encoder"])
            samples.append(
                SequenceSample(
                    doc["sequence_id"],
                    np.asarray(doc["features"], dtype=np.float64),
                    np.asarray(doc["targets"], dtype=np.float64),
                    enc,
                )
            )
    return samples


# --- policy artifact ---

ARTIFACT_VERSION = 1


@dataclass
class PolicyArtifact:
    model_cfg: rnn.ModelConfig
    encoder: EncoderConfig
    params: dict[str, np.ndarray]

    def build_model(self) -> rnn.SeqModel:
        return rnn.SeqModel(self.model_cfg, *(self.params[n].copy() for n in rnn.SeqModel.PARAM_NAMES))

    def to_doc(self) -> dict:
        payload = _artifact_payload(self)
        payload["checksum"] = _payload_checksum(payload)
        return payload


def _artifact_payload(artifact: PolicyArtifact) -> dict:
    return {
        "format_version": ARTIFACT_VERSION,
        "model": asdict(artifact.model_cfg),
        "encoder": asdict(artifact.encoder),
        "params": {name: arr.ravel().tolist() for name, arr in artifact.params.items()},
    }


def _payload_checksum(payload: dict) -> int:
    scrubbed = {k: v for k, v in payload.items() if k != "checksum"}
    canon = json.dumps(scrubbed, sort_keys=True, separators=(",", ":"))
    return zlib.crc32(canon.encode("utf-8"))


def _param_shapes(cfg: rnn.ModelConfig) -> dict[str, tuple[int, ...]]:
    h, d, o = cfg.hidden_dim, cfg.input_dim, cfg.output_dim
    return {"wx": (4 * h, d), "wh": (4 * h, h), "b": (4 * h,), "wy": (o, h), "by": (o,)}


def artifact_from_doc(doc: dict) -> PolicyArtifact:
    """Rebuild and checksum-verify an artifact document."""
    if not isinstance(doc, dict) or "format_version" not in doc:
        raise ArtifactError("not a policy artifact document")
    if doc["format_version"] != ARTIFACT_VERSION:
        raise UnsupportedVersionError(f"unsupported artifact version {doc['format_version']!r}")
    stored = doc.get("checksum")
    if stored is None or _payload_checksum(doc) != stored:
        raise ChecksumMismatchError("artifact checksum mismatch")
    try:
        model_cfg = rnn.ModelConfig(**doc["model"])
        encoder = EncoderConfig(**doc["encoder"])
        shapes = _param_shapes(model_cfg)
        params = {}
        for name, shape in shapes.items():
            flat = np.asarray(doc["params"][name], dtype=np.float64)
            params[name] = flat.reshape(shape)
    except (KeyError, TypeError, ValueError) as exc:
        raise ArtifactError(f"malformed artifact payload: {exc}") from exc
    return PolicyArtifact(model_cfg, encoder, params)


def save_artifact(artifact: PolicyArtifact, path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(artifact.to_doc(), fh, sort_keys=True)
        fh.write("\n")


def load_artifact(path) -> PolicyArtifact:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ArtifactError(f"truncated or invalid artifact file: {exc}") from exc
    return artifact_from_doc(doc)


# --- training and evaluation ---

def train_policy(
    samples: Sequence[SequenceSample],
    split_ratio: float = 0.8,
    hidden_dim: int = 32,
    epochs: int = 200,
    patience: Optional[int] = 20,
    lr: float = 1e-3,
    seed: int = 0,
) -> tuple[PolicyArtifact, rnn.LossHistory]:
    """Seeded split by sequence, then rnn.fit; best model wrapped as artifact."""
    if not (math.isfinite(lr) and lr > 0):
        raise ValueError(f"lr must be a finite value > 0, got {lr}")
    if not 0 < split_ratio < 1:
        raise ValueError(f"split_ratio must be in (0, 1), got {split_ratio}")
    if len(samples) < 2:
        raise InsufficientDataError("insufficient data: need at least 2 sequences")
    encoder = samples[0].encoder
    for s in samples:
        if s.encoder != encoder:
            raise EncoderMismatchError("samples carry differing encoder configurations")

    order = list(range(len(samples)))
    Rng(seed).shuffle(order)
    n_train = max(1, min(len(samples) - 1, int(len(samples) * split_ratio)))
    train_set = [(samples[i].features, samples[i].targets) for i in order[:n_train]]
    val_set = [(samples[i].features, samples[i].targets) for i in order[n_train:]]

    model_cfg = rnn.ModelConfig(
        input_dim=encoder.feature_dim, output_dim=2, hidden_dim=hidden_dim, seed=seed
    )
    model = rnn.SeqModel.initialize(model_cfg)
    model, history = rnn.fit(model, train_set, val_set, epochs=epochs, patience=patience, lr=lr, seed=seed)
    params = {name: arr.copy() for name, arr in model.params().items()}
    return PolicyArtifact(model_cfg, encoder, params), history


@dataclass
class EvalReport:
    speed_rmse: float   # m/s, de-normalized
    angle_rmse: float   # degrees, de-normalized
    rows: list[tuple]   # (sequence_id, t, actual_speed, predicted_speed, actual_angle, predicted_angle)


EVAL_CSV_HEADER = "sequence_id,t,actual_speed,predicted_speed,actual_angle,predicted_angle"


def evaluate_policy(artifact: PolicyArtifact, samples: Sequence[SequenceSample]) -> EvalReport:
    """Pooled RMSE per output over all steps, plus per-step profile rows."""
    model = artifact.build_model()
    sq_speed = sq_angle = 0.0
    count = 0
    rows: list[tuple] = []
    for s in samples:
        if s.encoder != artifact.encoder:
            raise EncoderMismatchError(
                f"sample '{s.sequence_id}' encoder {s.encoder} != artifact encoder {artifact.encoder}"
            )
        if s.features.shape[1] != artifact.model_cfg.input_dim:
            raise EncoderMismatchError(
                f"sample '{s.sequence_id}' feature width {s.features.shape[1]} != model input {artifact.model_cfg.input_dim}"
            )
        ys, _ = rnn.forward(model, s.features)
        v = artifact.encoder.v_norm
        for t in range(ys.shape[0]):
            actual_speed = s.targets[t, 0] * v
            pred_speed = ys[t, 0] * v
            actual_angle = s.targets[t, 1] * 360.0
            pred_angle = ys[t, 1] * 360.0
            sq_speed += (actual_speed - pred_speed) ** 2
            sq_angle += (actual_angle - pred_angle) ** 2
            rows.append((s.sequence_id, t, actual_speed, pred_speed, actual_angle, pred_angle))
        count += ys.shape[0]
    if count == 0:
        raise InsufficientDataError("no steps to evaluate")
    return EvalReport(math.sqrt(sq_speed / count), math.sqrt(sq_angle / count), rows)


def eval_rows_to_csv(rows: Sequence[tuple]) -> str:
    """CSV text of evaluate_policy rows: ids quoted where needed, numbers as repr(float)."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(EVAL_CSV_HEADER.split(","))
    for sid, t, *values in rows:
        writer.writerow([sid, t, *(repr(float(v)) for v in values)])
    return buf.getvalue()
