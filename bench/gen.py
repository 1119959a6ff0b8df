"""Seeded input generators for the benchmark.

Everything here is the benchmark's own code: cavlab only ever sees the files
these functions write. The same seed gives the same bytes.

The FCD logs copy the shape of SUMO FCD output (one <timestep> per second,
every vehicle on the road listed in each, values printed with two decimals):
two mainline lanes of continuous traffic, a merge lane `main_0` that only the
egos use, and an on-ramp whose egos start every few seconds, so several egos
are on the road at once. Each ego is planted with one of four outcomes:

    positive        merges onto main_0 and ends inside the merge zone
    near-collision  as positive, plus a one-step vehicle 0.7 m from the ego
    stop-short      parks on the shoulder ramp before the merge point
    too-short       appears already merged and lives fewer than t_min steps
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass, field

DT = 1.0
MERGE_X = 150.0          # the ramp meets main_0 here
ROAD_END = 2000.0
ZONE = (MERGE_X, ROAD_END, "main")
MAIN_SPEED = 25.0        # m/s, the egos' cruise speed after merging
APPROACH_SPEED_MIN = 12.0
SPEED_RANGE = MAIN_SPEED - APPROACH_SPEED_MIN
# (lane id, y, speed, headway s); lanes sit 3.5 m apart, so mainline traffic
# never comes within d_min = 2 m of an ego on main_0 or the ramp.
MAIN_LANES = (("main_1", 3.5, 25.0, 2.0), ("main_2", 7.0, 30.0, 2.5))
EGO_STEPS = 40
SHORT_STEPS = 5          # below the default t_min of 10
EGO_SPACING = 4          # s between nominal ego starts
CLEARANCE = 3.0          # m; planted egos stay this far from each other
# Per block of ten egos; the order inside a block is drawn from the seed.
MIX = ("positive",) * 7 + ("near-collision", "stop-short", "too-short")
REASONS = {"near-collision": "near-collision", "stop-short": "merge-incomplete", "too-short": "too-short"}


def _q(v: float) -> float:
    """The value a reader gets back from the two-decimal text."""
    return float(f"{v:.2f}")


@dataclass
class FcdLog:
    """The generator's own model of a log: what the XML says, in memory."""

    times: list = field(default_factory=list)      # float per timestep
    vehicles: list = field(default_factory=list)   # per timestep: [(id, x, y, speed, angle, lane)]
    planted: dict = field(default_factory=dict)    # ego id -> kind, in order of first appearance
    ego_start: dict = field(default_factory=dict)  # ego id -> timestep index of its first step

    @property
    def snapshots(self) -> int:
        return sum(len(v) for v in self.vehicles)


def _ego_path(kind: str, rng: random.Random) -> list:
    """(x, y, speed, angle, lane) per step of one scripted ego."""
    if kind == "too-short":
        x = MERGE_X + 10.0 + rng.uniform(0.0, 5.0)
        steps = SHORT_STEPS
    else:
        x = rng.uniform(-5.0, 5.0)
        steps = EGO_STEPS
    speed = 20.0 + rng.uniform(-1.0, 1.0)
    path = []
    for _ in range(steps):
        if x < MERGE_X * 0.6:
            target, rate = APPROACH_SPEED_MIN, 1.2
        elif x < MERGE_X:
            target, rate = APPROACH_SPEED_MIN + 2.0, 0.6
        else:
            target, rate = MAIN_SPEED, 1.5
        speed = min(speed + rate, target) if speed < target else max(speed - rate, target)
        speed = max(speed + rng.uniform(-0.3, 0.3), 0.1)
        if x < MERGE_X:
            frac = max(0.0, x / MERGE_X)
            y, angle, lane = -6.0 * (1.0 - frac), 75.0 + 15.0 * frac, "ramp_0"
        else:
            y, angle, lane = 0.0, 90.0, "main_0"
        if kind == "stop-short" and x >= MERGE_X * 0.55:
            speed = 0.1
        if kind == "stop-short":
            y, lane = y - 3.5, "ramp_1"  # the shoulder lane, 3.5 m outside the ramp
        path.append((_q(x), _q(y), _q(speed), _q(angle), lane))
        x += speed * DT
    return path


def _clear(path, start, placed) -> bool:
    for t, (x, y, *_rest) in enumerate(path):
        for px, py in placed.get(start + t, ()):
            if math.hypot(x - px, y - py) < CLEARANCE:
                return False
    return True


def fcd_log(seed: int, n_egos: int, mix=MIX) -> FcdLog:
    """A log with n_egos egos (kinds cycle through shuffled blocks of `mix`)."""
    rng = random.Random(seed)
    kinds = []
    while len(kinds) < n_egos:
        block = list(mix)
        rng.shuffle(block)
        kinds.extend(block)
    kinds = kinds[:n_egos]

    # Place egos in order; an ego that would come within CLEARANCE of one
    # already placed starts a step later until it is clear.
    placed: dict[int, list] = {}
    egos = []
    start = 0
    for i, kind in enumerate(kinds):
        path = _ego_path(kind, rng)
        start = max(start, i * EGO_SPACING)
        while not _clear(path, start, placed):
            start += 1
        for t, (x, y, *_rest) in enumerate(path):
            placed.setdefault(start + t, []).append((x, y))
        egos.append((f"ego{i}", kind, start, path))
    n_steps = max(s + len(p) for _, _, s, p in egos)

    log = FcdLog()
    for t in range(n_steps):
        log.times.append(t * DT)
        log.vehicles.append([])
    for lane_i, (lane, y, v, headway) in enumerate(MAIN_LANES):
        # entries from before t=0 fill the road at the start of the log
        first = -int(ROAD_END / v / headway) - 1
        last = int(n_steps / headway) + 1
        for j in range(first, last + 1):
            t_in = j * headway + rng.uniform(-0.3, 0.3)
            vid = f"m{lane_i + 1}_{j - first}"
            for t in range(max(0, math.ceil(t_in)), n_steps):
                x = v * (t - t_in)
                if x > ROAD_END:
                    break
                log.vehicles[t].append((vid, _q(x), y, v, 90.0, lane))
    for vid, kind, start, path in egos:
        log.planted[vid] = kind
        log.ego_start[vid] = start
        for t, (x, y, speed, angle, lane) in enumerate(path):
            log.vehicles[start + t].append((vid, x, y, speed, angle, lane))
        if kind == "near-collision":
            x, y, *_rest = path[len(path) // 2]
            log.vehicles[start + len(path) // 2].append(
                (f"close{vid[3:]}", _q(x + 0.5), _q(y + 0.5), MAIN_SPEED, 90.0, "main_0"))
    for vehicles in log.vehicles:
        vehicles.sort(key=lambda v: v[0])
    return log


def fcd_xml(log: FcdLog) -> bytes:
    out = ['<?xml version="1.0" encoding="UTF-8"?>', "<fcd-export>"]
    for time, vehicles in zip(log.times, log.vehicles):
        out.append(f'    <timestep time="{time:.2f}">')
        for vid, x, y, speed, angle, lane in vehicles:
            out.append(
                f'        <vehicle id="{vid}" x="{x:.2f}" y="{y:.2f}" angle="{angle:.2f}" '
                f'type="DEFAULT_VEHTYPE" speed="{speed:.2f}" pos="{max(x, 0.0):.2f}" '
                f'lane="{lane}" slope="0.00"/>'
            )
        out.append("    </timestep>")
    out.append("</fcd-export>")
    return ("\n".join(out) + "\n").encode("utf-8")


def sim_config(episodes: int) -> dict:
    """sim-train configuration: the default road and reward, a short schedule."""
    return {"learn": {"episodes": episodes, "epsilon_decay_episodes": episodes * 3 // 4,
                      "bucket": episodes // 8}}


def sim_seeds(seed: int) -> tuple[list[int], int]:
    """Two training seeds and one evaluation seed drawn from the run seed."""
    rng = random.Random(seed)
    a = rng.randrange(1, 1 << 30)
    b = rng.randrange(1, 1 << 30)
    return [a, b if b != a else a + 1], rng.randrange(1, 1 << 30)


def rsu_hellos(seed: int, count: int, geofence: dict) -> list[tuple[str, float, float, bool]]:
    """A fixed mix: every fifth hello is outside the geofence, the rest inside."""
    rng = random.Random(seed)
    out = []
    for i in range(count):
        inside = i % 5 != 4
        if inside:
            x = rng.uniform(geofence["x_min"], geofence["x_max"] - 1e-6)
            y = rng.uniform(geofence["y_min"], geofence["y_max"] - 1e-6)
        else:
            x = geofence["x_max"] + rng.uniform(1.0, 500.0)
            y = rng.uniform(geofence["y_min"], geofence["y_max"] - 1e-6)
        out.append((f"cav-{i}", x, y, inside))
    return out


def write_json(path, doc) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, sort_keys=True)
