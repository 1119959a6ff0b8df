"""Deterministic scripted motorway-merge traffic generator.

Produces FCD XML logs whose ego vehicles follow a fixed controller:
decelerate on the ramp approach, hold speed to match a gap, then accelerate
to the mainline speed after merging. Mainline vehicles cruise at constant
speed. All randomness comes from the seeded project PRNG, so generated logs
are bit-stable.

The controller's speed profile spans [APPROACH_SPEED_MIN, MAIN_SPEED], which
callers use to express error budgets as a fraction of the speed range.
"""

from __future__ import annotations

from typing import Sequence
from xml.sax.saxutils import quoteattr

from cavlab.imitation import Snapshot, Timestep
from cavlab.rng import Rng

MAIN_SPEED = 25.0          # m/s mainline cruise
APPROACH_SPEED_MIN = 12.0  # m/s slowest scripted ego speed
START_SPEED = 20.0
MERGE_X = 150.0            # ramp meets the mainline here
ZONE = (MERGE_X, 2000.0, "main")
SPEED_RANGE = MAIN_SPEED - APPROACH_SPEED_MIN

DT = 1.0


def serialize_fcd(timesteps: Sequence[Timestep]) -> str:
    """Write the subset grammar back out (full float precision)."""
    lines = ['<?xml version="1.0" encoding="UTF-8"?>', "<fcd-export>"]
    for ts in timesteps:
        lines.append(f'    <timestep time="{ts.time!r}">')
        for s in ts.snapshots:
            lane = f" lane={quoteattr(s.lane)}" if s.lane is not None else ""
            lines.append(
                f'        <vehicle id={quoteattr(s.vehicle_id)} x="{s.x!r}" y="{s.y!r}"'
                f' speed="{s.speed!r}" angle="{s.angle!r}"{lane}/>'
            )
        lines.append("    </timestep>")
    lines.append("</fcd-export>")
    return "\n".join(lines) + "\n"


def _ego_step(x: float, speed: float, rng: Rng) -> tuple[float, float, float, str]:
    """Scripted controller: returns (new_speed, y, angle, lane) for position x."""
    if x < MERGE_X * 0.6:
        target = APPROACH_SPEED_MIN  # decelerate on approach
        rate = 1.2
    elif x < MERGE_X:
        target = APPROACH_SPEED_MIN + 2.0  # gap matching
        rate = 0.6
    else:
        target = MAIN_SPEED  # merged: accelerate to lane speed
        rate = 1.5
    if speed < target:
        speed = min(speed + rate, target)
    else:
        speed = max(speed - rate, target)
    speed = max(speed + rng.uniform(-0.3, 0.3), 0.1)

    if x < MERGE_X:
        frac = max(0.0, min(1.0, x / MERGE_X))
        y = -6.0 * (1.0 - frac)
        angle = 75.0 + 15.0 * frac
        lane = "ramp_0"
    else:
        y = 0.0
        angle = 90.0
        lane = "main_0"
    return speed, y, angle, lane


CLEARANCE = 4.0  # m; mainline spawns are rejected until every approach exceeds this


def merge_trajectory_timesteps(
    index: int,
    t0: float,
    rng: Rng,
    steps: int = 40,
    near_collision: bool = False,
    stop_short: bool = False,
    start_merged: bool = False,
) -> list[Timestep]:
    """One scripted merge episode as FCD timesteps starting at time t0.

    near_collision plants a mainline vehicle passing within ~1 m of the ego;
    stop_short parks the ego before the merge point (negative: incomplete);
    start_merged begins past the merge point (already on the mainline).
    Unless near_collision is requested, mainline spawn offsets are re-drawn
    until no vehicle ever comes within CLEARANCE of the ego, so the episode
    is positive by construction.
    """
    ego_id = f"ego{index}"

    x = MERGE_X + 10.0 + rng.uniform(0.0, 5.0) if start_merged else rng.uniform(-5.0, 5.0)
    speed = START_SPEED + rng.uniform(-1.0, 1.0)
    ego_path = []  # (x, y, speed, angle, lane) per step
    for t in range(steps):
        speed, y, angle, lane = _ego_step(x, speed, rng)
        if stop_short and x >= MERGE_X * 0.55:
            speed = 0.1
            lane = "ramp_0"
        ego_path.append((x, y, speed, angle, lane))
        x += speed * DT

    def clear_of_ego(x0: float) -> bool:
        return all(
            ((ex - (x0 + MAIN_SPEED * t * DT)) ** 2 + ey**2) ** 0.5 >= CLEARANCE
            for t, (ex, ey, _, _, _) in enumerate(ego_path)
        )

    n_main = 3
    main_x0 = []
    for j in range(n_main):
        base = MERGE_X - 80.0 - 55.0 * j
        x0 = base + rng.uniform(-10.0, 10.0)
        while not clear_of_ego(x0):
            x0 = base + rng.uniform(-25.0, 25.0)
        main_x0.append(x0)

    out = []
    for t, (ex, ey, espeed, eangle, elane) in enumerate(ego_path):
        snaps = [Snapshot(ego_id, ex, ey, espeed, eangle, elane)]
        for j in range(n_main):
            snaps.append(
                Snapshot(f"m{index}_{j}", main_x0[j] + MAIN_SPEED * t * DT, 0.0, MAIN_SPEED, 90.0, "main_0")
            )
        if near_collision and t == steps // 2:
            snaps.append(Snapshot(f"close{index}", ex + 0.5, ey + 0.5, MAIN_SPEED, 90.0, "main_0"))
        out.append(Timestep(t0 + t * DT, tuple(snaps)))
    return out


def merge_log(
    n_positive: int,
    seed: int,
    n_near_collision: int = 0,
    n_stop_short: int = 0,
    n_too_short: int = 0,
    steps: int = 40,
) -> str:
    """A single FCD XML document with the requested trajectory mix."""
    rng = Rng(seed)
    timesteps: list[Timestep] = []
    t0 = 0.0
    index = 0

    def add(count, **kwargs):
        nonlocal t0, index
        for _ in range(count):
            chunk = merge_trajectory_timesteps(index, t0, rng, **kwargs)
            timesteps.extend(chunk)
            t0 = chunk[-1].time + DT
            index += 1

    add(n_positive, steps=steps)
    add(n_near_collision, steps=steps, near_collision=True)
    add(n_stop_short, steps=steps, stop_short=True)
    add(n_too_short, steps=5, start_merged=True)
    return serialize_fcd(timesteps)
