"""Discrete two-lane road micro-simulation.

Geometry: lane 0 is the left-hand (normal speed) lane, lane 1 the right-hand
(overtaking) lane; cells run 0..length-1 and the goal line sits at
pos >= length. Obstacle vehicles hold the speed of their lane and despawn at
the road end. The agent observes the world through a scanner and steers
with 9 composite actions (3 lateral x 3 speed).

The scanner reading is five ints, `(front, diag_f, diag_r, left, right)`.
`front` walks the agent's own lane forward; `diag_f`/`diag_r` walk the other
lane forward/backward with one cell of longitudinal offset per step (the
paper's front-left and front-right rays both walk that one lane, as do
rear-left and rear-right, so each pair is one reading); `left`/`right` probe
the laterally adjacent cell, reading 0 when it is off-road or occupied and 1
when it is free. A ray is blocked by the nearest obstacle or by the lateral
road edge (the wall the agent can bump into); longitudinally the road is open
at both ends, so the start and the goal line never block a ray. Each reading
is the count of free cells before the blocker, capped at scan_range. A
blocker's speed is its lane's, so it follows from the reading and the agent's
lane: what V2V speed sharing adds to the state is the lane (see
`qlearn.encode_state`).

The reward's speed terms apply against `agent_speed_limit` (default: the
global max agent speed for every lane); `lane_speed_limit` is the constant
speed of the obstacle traffic per lane.

Because every obstacle in a lane moves at that lane's speed, the obstacles are
stored as one `length`-bit int per lane, the lane bitboards `b0` and `b1` (bit
p set: an obstacle in cell p). Advancing traffic is a shift and a mask, the
crash check ANDs the agent's lane with the swept cells, and each ray reads the
lowest or highest set bit of the `scan_range` cells it sees. A world is the two
bitboards plus the agent's (lane, pos, speed), all plain ints: `spawn_world`
draws the bitboards, `apply_action` steps them with an action index
`dir * 3 + spd`, and `scan_full` reads the scanner. Both take a `Road`, the
constants of one RoadConfig.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import IntEnum
from typing import Optional

from .config import Config, ConfigError, finite_number
from .rng import Rng


class SpawnError(ValueError):
    """World infeasible for the requested obstacle count."""


class Dir(IntEnum):
    LEFT = 0
    STAY = 1
    RIGHT = 2


class Event(IntEnum):
    ALIVE = 0
    GOAL = 1
    CRASH = 2
    BUMP = 3


N_ACTIONS = 9  # index dir * 3 + spd: 0 = (Left, Dec) ... 8 = (Right, Inc)
MAX_ROAD_SIZE = 10_000  # ceiling of length, scan_range and max_agent_speed: bitboard cells, reward table rows


@dataclass(frozen=True)
class RoadConfig(Config):
    length: int = 66
    lanes: int = 2
    lane_speed_limit: tuple[int, ...] = (1, 2)
    max_agent_speed: int = 3
    scan_range: int = 5
    n_obstacles: int = 6
    max_steps: int = 200
    agent_speed_limit: Optional[tuple[int, ...]] = None  # None: max_agent_speed per lane

    def check(self):
        for name in ("length", "scan_range", "max_agent_speed"):
            if getattr(self, name) > MAX_ROAD_SIZE:
                raise ConfigError(f"{name} must be <= {MAX_ROAD_SIZE}")
        if self.agent_speed_limit is None:
            object.__setattr__(self, "agent_speed_limit", (self.max_agent_speed,) * self.lanes)
        if self.length < 2:
            raise ConfigError(f"length must be >= 2, got {self.length}")
        if self.lanes != 2:
            raise ConfigError(f"only lanes=2 is supported, got {self.lanes}")
        if len(self.lane_speed_limit) != self.lanes:
            raise ConfigError("lane_speed_limit needs one entry per lane")
        for v in self.lane_speed_limit:
            if not 1 <= v <= self.max_agent_speed:
                raise ConfigError(f"lane speed {v} outside [1, {self.max_agent_speed}]")
        if len(self.agent_speed_limit) != self.lanes:
            raise ConfigError("agent_speed_limit needs one entry per lane")
        for v in self.agent_speed_limit:
            if v < 1:
                raise ConfigError("agent speed limits must be >= 1")
        if self.scan_range < 1:
            raise ConfigError("scan_range must be >= 1")
        if self.n_obstacles < 0:
            raise ConfigError("n_obstacles must be >= 0")
        # max_steps >= 0: degenerate caps (including 0) are allowed at the type
        # level; the CLI checks training viability (max_steps >= length/max speed).
        if self.max_steps < 0:
            raise ConfigError("max_steps must be >= 0")


@dataclass(frozen=True)
class RewardConfig(Config):
    alive_or_goal: float = 0.1
    shift_penalty: float = -0.1
    crash_or_bump: float = -10.0
    speed_bonus_divisor: float = 10.0
    overspeed_factor: float = 2.0

    def check(self):
        for name, value in vars(self).items():
            if not finite_number(value):  # also an int too large for a float
                raise ConfigError(f"{name} must be a finite number, got {value!r}")
        if self.speed_bonus_divisor == 0:
            raise ConfigError("speed_bonus_divisor must not be 0")


AGENT_START = (0, 0, 1)  # (lane, pos, speed) of the agent in every spawned world


def spawn_world(cfg: RoadConfig, rng: Rng) -> tuple[int, int]:
    """The lane bitboards of n_obstacles distinct cells with pos in [4, length-1]."""
    span = cfg.length - 4
    cells = cfg.lanes * max(span, 0)
    if cfg.n_obstacles > cells:
        raise SpawnError(f"{cfg.n_obstacles} obstacles do not fit in {cells} spawn cells")
    lanes = [0, 0]
    if cfg.n_obstacles * 2 <= cells:
        placed = 0
        while placed < cfg.n_obstacles:
            lane = rng.randrange(cfg.lanes)
            bit = 1 << (4 + rng.randrange(span))
            if lanes[lane] & bit:
                continue
            lanes[lane] |= bit
            placed += 1
    else:
        # dense spawns: rejection would stall, draw without replacement instead
        candidates = [(lane, pos) for lane in range(cfg.lanes) for pos in range(4, cfg.length)]
        for i in range(cfg.n_obstacles):
            j = i + rng.randrange(len(candidates) - i)
            candidates[i], candidates[j] = candidates[j], candidates[i]
            lane, pos = candidates[i]
            lanes[lane] |= 1 << pos
    return lanes[0], lanes[1]


ALIVE, GOAL, CRASH, BUMP = Event.ALIVE.value, Event.GOAL.value, Event.CRASH.value, Event.BUMP.value


class Road:
    """The constants of one RoadConfig that apply_action and scan_full read."""

    __slots__ = ("length", "full", "s0", "s1", "max_speed", "scan_range", "window")

    def __init__(self, cfg: RoadConfig):
        self.length = cfg.length
        self.full = (1 << cfg.length) - 1
        self.s0, self.s1 = cfg.lane_speed_limit
        self.max_speed = cfg.max_agent_speed
        self.scan_range = cfg.scan_range
        self.window = (1 << cfg.scan_range) - 1  # the cells one ray sees


def apply_action(road: Road, b0: int, b1: int, lane: int, pos: int, speed: int, a: int) -> tuple:
    """One step: (b0, b1, lane, pos, speed, event) after action index `a`.

    Obstacles advance first (a shift that also drops those past the road
    end), then the agent shifts and sweeps. Event precedence Bump > Crash >
    Goal > Alive; a bump aborts the move (the speed change still applies),
    and the crash check covers exactly the cells pos+1..pos+new_speed in
    the post-shift lane against post-move obstacles.
    """
    b0 = (b0 << road.s0) & road.full
    b1 = (b1 << road.s1) & road.full
    speed += a % 3 - 1
    if speed < 0:
        speed = 0
    elif speed > road.max_speed:
        speed = road.max_speed
    new_lane = lane + a // 3 - 1
    if new_lane < 0 or new_lane > 1:
        return b0, b1, lane, pos, speed, BUMP
    if ((b1 if new_lane else b0) >> (pos + 1)) & ((1 << speed) - 1):
        event = CRASH
    elif pos + speed >= road.length:
        event = GOAL
    else:
        event = ALIVE
    return b0, b1, new_lane, pos + speed, speed, event


def scan_full(road: Road, b0: int, b1: int, lane: int, pos: int) -> tuple:
    """The scanner reading (front, diag_f, diag_r, left, right) of the agent at (lane, pos)."""
    r, window = road.scan_range, road.window
    own, other = (b1, b0) if lane else (b0, b1)
    ahead = (own >> (pos + 1)) & window  # bit k: cell pos+1+k
    front = (ahead & -ahead).bit_length() - 1 if ahead else r
    ahead = (other >> (pos + 1)) & window
    diag_f = (ahead & -ahead).bit_length() - 1 if ahead else r
    diag_r = r - (((other << r) >> pos) & window).bit_length()  # bit k: cell pos-r+k
    side = 1 - ((other >> pos) & 1)  # the one lateral neighbour is the other lane; the far side is the wall
    return (front, diag_f, diag_r, side, 0) if lane else (front, diag_f, diag_r, 0, side)


def reward(
    event: Event,
    direction: Dir,
    agent_speed: int,
    agent_lane: int,
    reward_cfg: RewardConfig,
    road_cfg: RoadConfig,
) -> float:
    """Immediate reward: sum of base, lateral-shift and speed terms.

    agent_speed/agent_lane are the post-update values for the step; the speed
    bonus applies at or below agent_speed_limit for the lane, the overspeed
    penalty above it regardless of outcome.
    """
    failed = event == CRASH or event == BUMP
    r = reward_cfg.crash_or_bump if failed else reward_cfg.alive_or_goal
    if direction != Dir.STAY:
        r += reward_cfg.shift_penalty
    if agent_speed <= road_cfg.agent_speed_limit[agent_lane]:
        if failed:
            r += -agent_speed
        else:
            r += agent_speed / reward_cfg.speed_bonus_divisor
    else:
        r += -reward_cfg.overspeed_factor * agent_speed
    return r


def reward_table(reward_cfg: RewardConfig, road_cfg: RoadConfig) -> list:
    """reward() of every step outcome, indexed [event][dir][speed][lane]."""
    return [
        [
            [
                [reward(event, d, speed, lane, reward_cfg, road_cfg)
                 for lane in range(road_cfg.lanes)]
                for speed in range(road_cfg.max_agent_speed + 1)
            ]
            for d in Dir
        ]
        for event in Event
    ]
