"""Infrastructure-led imitation pipeline.

Floating-car-data XML logs (the subset grammar below) are parsed into
per-timestep snapshots, sliced into per-ego trajectories, filtered down to
positive merge negotiations, encoded into fixed-width normalized sequences,
and used to train the sequence model. The trained policy travels as a
versioned, checksummed JSON artifact: files hold version 1, each param a list
of decimals; the RSU wire carries version 2, the params packed as base64
float64 (see PolicyArtifact.to_doc). artifact_from_doc reads both.

Input grammar (UTF-8):

    <fcd-export>
      <timestep time="0.00">                      time: strictly increasing
        <vehicle id="v0" x="5.0" y="1.5" speed="10.0" angle="90.0" lane="m_0"/>
      </timestep>
    </fcd-export>

Unknown attributes are ignored, unknown elements rejected.
"""

from __future__ import annotations

import base64
import csv
import fnmatch
import io
import itertools
import json
import math
import zlib
from dataclasses import asdict, dataclass
from typing import NamedTuple, Optional, Sequence
from xml.parsers import expat

import numpy as np

from . import rnn
from .config import Config, ConfigError, check_types, finite_number
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
class FilterConfig(Config):
    d_min: float = 2.0
    zone_x_min: float = -math.inf  # the merge zone, where a merge must end
    zone_x_max: float = math.inf
    zone_lane_prefix: str = ""
    t_min: int = 10
    t_max: int = 500

    def check(self):
        if not self.d_min > 0:  # also rejects NaN, which would pass every distance check
            raise ValueError("d_min must be > 0")
        if not self.zone_x_min <= self.zone_x_max:  # also rejects NaN, which would put every x outside
            raise ValueError(f"zone_x_min must be <= zone_x_max, got {self.zone_x_min} and {self.zone_x_max}")
        if self.t_min > self.t_max:
            raise ValueError("t_min must be <= t_max")

    def in_zone(self, snap: Snapshot) -> bool:
        """Whether `snap` lies in the merge zone; a lane prefix also needs a lane that starts with it."""
        return self.zone_x_min <= snap.x <= self.zone_x_max and (snap.lane or "").startswith(self.zone_lane_prefix)


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
    if not traj.steps or not cfg.in_zone(traj.steps[-1].ego):
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
        # a NaN scale would make every feature NaN, an infinite one 0, and an int too large for a float raise
        if self.k < 0 or not all(finite_number(scale) and scale > 0 for scale in (self.v_norm, self.d_norm)):
            raise ValueError("invalid encoder configuration")

    @property
    def feature_dim(self) -> int:
        return 1 + 2 * self.k


@dataclass
class SequenceSample:
    sequence_id: str
    features: np.ndarray  # (T, 1 + 2k); encode_features writes them in [0, 1], read_dataset takes any finite value
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
                        "encoder": asdict(s.encoder),
                        "features": s.features.tolist(),
                        "targets": s.targets.tolist(),
                    },
                    sort_keys=True,
                )
                + "\n"
            )


def _finite_floats(value, name: str) -> np.ndarray:
    """`value`, a list of JSON numbers or of lists of them, as a float64 array; ValueError naming `name` for any
    other entry (true, "0.5", null) or a number that is not finite, OverflowError for an int too large for a float."""
    if type(value) is list:
        rows = value if all(type(row) is list for row in value) else [value]
        if set(map(type, itertools.chain.from_iterable(rows))) <= {int, float}:
            array = np.asarray(value, dtype=np.float64)
            if np.isfinite(array).all():
                return array
    raise ValueError(f"{name} must be finite numbers")


def read_dataset(path) -> list[SequenceSample]:
    """The samples of a dataset file. A line that is not JSON, lacks a key or has another, has a sequence_id that
    is not a string, features that are not (T, 1 + 2k) with T >= 1 for its encoder's k, targets that are not
    (T, 2), or anything but finite numbers in those raises ValueError (ConfigError for a key) naming the line.
    A feature outside [0, 1] reads back as it is: the range is what encode_features writes, not a rule of the file."""
    samples = []
    with open(path, "r", encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                doc = json.loads(line)
            except ValueError as exc:  # also an integer longer than int's string conversion limit
                raise ValueError(f"bad JSON on line {line_no}: {exc}") from exc
            try:
                sequence_id, features, targets, encoder = check_types(doc, {
                    "sequence_id": str, "features": list, "targets": list, "encoder": EncoderConfig}).values()
                sample = SequenceSample(sequence_id, _finite_floats(features, "features"),
                                        _finite_floats(targets, "targets"), encoder)
                width, steps = encoder.feature_dim, len(sample.features)
                if sample.features.ndim != 2 or steps < 1 or sample.features.shape[1] != width:
                    raise ValueError(f"features must be (T, {width}), T >= 1, got {sample.features.shape}")
                if sample.targets.shape != (steps, 2):
                    raise ValueError(f"targets must be ({steps}, 2), got {sample.targets.shape}")
            except KeyError as exc:
                raise ValueError(f"line {line_no}: missing key {exc}") from exc
            except (TypeError, ValueError, OverflowError) as exc:  # OverflowError: an int too large for a float
                raise (ConfigError if isinstance(exc, ConfigError) else ValueError)(f"line {line_no}: {exc}") from exc
            samples.append(sample)
    return samples


# --- policy artifact ---

ARTIFACT_VERSION = 1  # files; the RSU serves WIRE_VERSION
WIRE_VERSION = 2
_HEADER_KEYS = ("format_version", "model", "encoder")
_DOC_KEYS = {*_HEADER_KEYS, "params", "checksum"}  # of both versions


@dataclass
class PolicyArtifact:
    model_cfg: rnn.ModelConfig
    encoder: EncoderConfig
    params: dict[str, np.ndarray]

    def __post_init__(self):
        dims, want = (self.model_cfg.input_dim, self.model_cfg.output_dim), (self.encoder.feature_dim, 2)
        if dims != want:
            raise ValueError(f"model (input_dim, output_dim) must be {want} for its encoder, got {dims}")

    def build_model(self) -> rnn.SeqModel:
        return rnn.SeqModel(self.model_cfg, *(self.params[n] for n in rnn.SeqModel.PARAM_NAMES))

    def to_doc(self, version: int = ARTIFACT_VERSION) -> dict:
        """The artifact document. Version 1 holds each param as a list of decimals, under the CRC32 of the canonical
        JSON of the rest. Version 2 holds the params as one base64 run of little-endian float64 in PARAM_NAMES
        order, under the CRC32 of the canonical JSON of the header keys chained with those bytes."""
        header = {"format_version": version, "model": asdict(self.model_cfg), "encoder": asdict(self.encoder)}
        if version == ARTIFACT_VERSION:
            doc = {**header, "params": {name: arr.ravel().tolist() for name, arr in self.params.items()}}
            return {**doc, "checksum": _canonical_crc(doc)}
        raw = b"".join(self.params[name].astype("<f8").tobytes() for name in rnn.SeqModel.PARAM_NAMES)
        return {**header, "params": base64.b64encode(raw).decode("ascii"),
                "checksum": zlib.crc32(raw, _canonical_crc(header))}


def _canonical_crc(doc: dict) -> int:
    return zlib.crc32(json.dumps(doc, sort_keys=True, separators=(",", ":")).encode("utf-8"))


def artifact_from_doc(doc: dict) -> PolicyArtifact:
    """Rebuild and checksum-verify an artifact document of either version (see PolicyArtifact.to_doc). Either takes
    exactly the five keys of to_doc, and version-1 params exactly the names of rnn.param_shapes."""
    if not isinstance(doc, dict) or "format_version" not in doc:
        raise ArtifactError("not a policy artifact document")
    version, stored = doc["format_version"], doc.get("checksum")
    if type(version) is not int or version not in (ARTIFACT_VERSION, WIRE_VERSION):  # a bool is no int
        raise UnsupportedVersionError(f"unsupported artifact version {version!r}")
    try:
        if doc.keys() != _DOC_KEYS:
            raise ValueError(f"keys must be {sorted(_DOC_KEYS)}, got {sorted(doc)}")
        if version == ARTIFACT_VERSION:
            crc = _canonical_crc({k: v for k, v in doc.items() if k != "checksum"})
        else:
            raw = base64.b64decode(doc["params"], validate=True)
            crc = zlib.crc32(raw, _canonical_crc({k: doc[k] for k in _HEADER_KEYS}))
    except (TypeError, ValueError) as exc:  # binascii.Error is a ValueError
        raise ArtifactError(f"malformed artifact payload: {exc}") from exc
    if type(stored) is not int or crc != stored:
        raise ChecksumMismatchError("artifact checksum mismatch")
    try:
        model_cfg = rnn.ModelConfig(**doc["model"])
        encoder = EncoderConfig(**doc["encoder"])
        shapes = rnn.param_shapes(model_cfg)
        if version == ARTIFACT_VERSION:
            lists = check_types(doc["params"], dict.fromkeys(shapes, list))  # exactly the names of the layout
            params = {name: _finite_floats(lists[name], f"param {name}").reshape(shapes[name]) for name in shapes}
        else:
            size = 8 * sum(map(math.prod, shapes.values()))
            if len(raw) != size:
                raise ValueError(f"params must be {size} bytes for the model's shapes, got {len(raw)}")
            flat = np.frombuffer(raw, dtype="<f8").astype(np.float64)
            if not np.isfinite(flat).all():
                raise ValueError("params must be finite numbers")
            params = rnn.param_views(model_cfg, flat)
        return PolicyArtifact(model_cfg, encoder, params)
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ArtifactError(f"malformed artifact payload: {exc}") from exc


def save_artifact(artifact: PolicyArtifact, path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(artifact.to_doc(), fh, sort_keys=True)
        fh.write("\n")


def load_artifact(path) -> PolicyArtifact:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ArtifactError(f"truncated or invalid artifact file: {exc}") from exc
    return artifact_from_doc(doc)


# --- training and evaluation ---

@dataclass(frozen=True)
class TrainConfig(Config):
    split: float = 0.8  # share of the sequences trained on; the rest validate
    hidden: int = 32
    epochs: int = 200
    patience: Optional[int] = 20  # epochs without a better validation loss before stopping; None never stops
    lr: float = 1e-3
    seed: int = 0

    def check(self):
        if not (finite_number(self.lr) and self.lr > 0):  # finite_number: also an int too large for a float
            raise ValueError(f"lr must be a finite value > 0, got {self.lr}")
        if self.hidden < 1:
            raise ValueError(f"hidden must be >= 1, got {self.hidden}")
        if not 0 < self.split < 1:
            raise ValueError(f"split must be in (0, 1), got {self.split}")
        if self.epochs < 0:
            raise ValueError(f"epochs must be >= 0, got {self.epochs}")
        if self.patience is not None and self.patience < 0:
            raise ValueError(f"patience must be >= 0, got {self.patience}")


def train_policy(samples: Sequence[SequenceSample], cfg: TrainConfig) -> tuple[PolicyArtifact, rnn.LossHistory]:
    """Seeded split by sequence, then rnn.fit; best model wrapped as artifact."""
    if len(samples) < 2:
        raise InsufficientDataError("insufficient data: need at least 2 sequences")
    encoder = samples[0].encoder
    for s in samples:
        if s.encoder != encoder:
            raise EncoderMismatchError("samples carry differing encoder configurations")

    order = list(range(len(samples)))
    Rng(cfg.seed).shuffle(order)
    n_train = max(1, min(len(samples) - 1, int(len(samples) * cfg.split)))
    train_set = [(samples[i].features, samples[i].targets) for i in order[:n_train]]
    val_set = [(samples[i].features, samples[i].targets) for i in order[n_train:]]

    model_cfg = rnn.ModelConfig(input_dim=encoder.feature_dim, output_dim=2, hidden_dim=cfg.hidden, seed=cfg.seed)
    model = rnn.SeqModel.initialize(model_cfg)
    model, history = rnn.fit(model, train_set, val_set, epochs=cfg.epochs, patience=cfg.patience, lr=cfg.lr,
                             seed=cfg.seed)
    return PolicyArtifact(model_cfg, encoder, model.params()), history


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
