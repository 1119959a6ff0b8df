"""Tabular Q-learning on the two-lane road.

State keys are tuples: (speed, 7 scanner distances) without V2V, plus 7
neighbor speeds (sentinel -1, world.NO_VEHICLE, when no vehicle is in range on
a ray) with V2V.
The update rule is

    sample = r + gamma * max_a' Q(s', a')      (max term 0 on terminal steps)
    Q(s, a) <- (1 - alpha) * Q(s, a) + alpha * sample

Two independent RNG streams keep paired experiments honest: stream 0 spawns
worlds, stream 1 drives exploration, so V2V on/off runs with the same seed
visit identical worlds.

`run_episodes`, the one episode loop for training and greedy rollouts, keeps
the world as plain ints and steps it with `world.apply_action` and
`world.scan_full`.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Iterable, Iterator, Optional

from .config import Config
from .rng import Rng
from .world import (
    AGENT_START,
    ALIVE,
    GOAL,
    ConfigError,
    Event,
    N_ACTIONS,
    Road,
    RoadConfig,
    RewardConfig,
    apply_action,
    reward_table,
    scan_full,
    spawn_world,
)

WORLD_STREAM = 0
EXPLORE_STREAM = 1

StateKey = tuple

_ZEROS = (0.0,) * N_ACTIONS


def encode_state(speed: int, obs: tuple, v2v: bool = False) -> StateKey:
    """Canonical observation key from a scan_full reading; blocker speeds only with v2v."""
    return (speed,) + (obs if v2v else obs[:7])


class QTable:
    """Sparse map StateKey -> 9 action values; unvisited entries read 0."""

    __slots__ = ("entries", "v2v")

    def __init__(self, v2v: bool = False):
        self.entries: dict[StateKey, list[float]] = {}
        self.v2v = v2v

    def to_json(self) -> str:
        entries = [
            {"key": list(k), "q": list(v)} for k, v in self.entries.items()
        ]
        return json.dumps({"version": 1, "v2v": self.v2v, "entries": entries})

    @classmethod
    def from_json(cls, text: str) -> "QTable":
        doc = json.loads(text)
        if doc.get("version") != 1:
            raise ValueError(f"unsupported qtable version {doc.get('version')!r}")
        table = cls(v2v=bool(doc["v2v"]))
        for entry in doc["entries"]:
            row = [float(x) for x in entry["q"]]
            if len(row) != N_ACTIONS:
                raise ValueError("qtable row must have 9 values")
            table.entries[tuple(entry["key"])] = row
        return table


def q_update(
    entries: dict,
    s: StateKey,
    a: int,
    r: float,
    s_next: StateKey,
    terminal: bool,
    alpha: float,
    gamma: float,
) -> float:
    """Apply the update to Q(s, a) in QTable.entries and return the new value."""
    nxt = 0.0 if terminal else max(entries.get(s_next, _ZEROS))
    row = entries.get(s)
    if row is None:
        row = entries[s] = [0.0] * N_ACTIONS
    value = (1.0 - alpha) * row[a] + alpha * (r + gamma * nxt)
    row[a] = value
    return value


def select_action(entries: dict, s: StateKey, epsilon: float, rng: Optional[Rng]) -> int:
    """Epsilon-greedy action index over QTable.entries; unvisited rows read 0.

    Ties in the argmax set break uniformly with `rng`; with rng None the
    first index wins (greedy rollouts, epsilon 0). epsilon == 0 consumes no
    draw for the explore test, so greedy selection leaves the stream
    untouched except on ties.
    """
    if epsilon > 0.0 and rng.random() < epsilon:
        return rng.randrange(N_ACTIONS)
    row = entries.get(s)
    if row is None:
        return 0 if rng is None else rng.randrange(N_ACTIONS)
    best = max(row)
    if rng is None or row.count(best) == 1:
        return row.index(best)
    ties = [i for i in range(N_ACTIONS) if row[i] == best]
    return ties[rng.randrange(len(ties))]


@dataclass(frozen=True)
class LearnConfig(Config):
    alpha: float = 0.4
    gamma: float = 0.95
    episodes: int = 100_000
    epsilon_start: float = 1.0
    epsilon_end: float = 0.05
    epsilon_decay_episodes: int = 20_000
    seed: int = 0
    v2v: bool = False
    bucket: int = 1000

    def check(self):
        if not 0.0 <= self.alpha <= 1.0:
            raise ConfigError("alpha must be in [0, 1]")
        if not 0.0 <= self.gamma < 1.0:
            raise ConfigError("gamma must be in [0, 1)")
        if not 0.0 <= self.epsilon_end <= self.epsilon_start <= 1.0:
            raise ConfigError("need 0 <= epsilon_end <= epsilon_start <= 1")
        if self.episodes < 0 or self.bucket < 1 or self.epsilon_decay_episodes < 0:
            raise ConfigError("episodes >= 0, bucket >= 1, decay episodes >= 0")


def epsilon_at(cfg: LearnConfig, episode: int) -> float:
    """Linear decay from epsilon_start to epsilon_end over the decay window."""
    if cfg.epsilon_decay_episodes <= 0 or episode >= cfg.epsilon_decay_episodes:
        return cfg.epsilon_end
    f = episode / cfg.epsilon_decay_episodes
    return cfg.epsilon_start + (cfg.epsilon_end - cfg.epsilon_start) * f


QUICK_LIMIT = 40  # steps; "quick finish" threshold

TRACE_HEADER = "run,t,lane,pos,speed,scan0,scan1,scan2,scan3,scan4,scan5,scan6,action,reward,event"
_EVENT_NAMES = tuple(e.name.lower() for e in Event)


def run_episodes(
    road_cfg: RoadConfig,
    reward_cfg: RewardConfig,
    q: QTable,
    seed: int,
    episodes: int,
    learn_cfg: Optional[LearnConfig] = None,
    trace: Optional[list] = None,
) -> Iterator[tuple[int, int]]:
    """The episode loop: spawn, then select/step/reward(/update); yields (steps, event).

    Worlds come from stream 0 of `seed`. With `learn_cfg`, actions are
    epsilon-greedy on stream 1 with uniform tie-breaking and Q is updated.
    Learning treats the drive as continuing: a Goal step is updated against
    the next episode's start observation (the car keeps driving onto a fresh
    road; the last one is settled as terminal), so finishing does not zero
    out future value, while Crash/Bump/timeout are terminal (max term 0).
    Without `learn_cfg`, rollouts are
    greedy with first-index tie-break, take at least one step, and append one
    TRACE_HEADER row per step to `trace` when given. A timeout reports Alive.
    """
    road = Road(road_cfg)
    move, sense = apply_action, scan_full  # looked up once per call, where a tracer may wrap them
    rewards = reward_table(reward_cfg, road_cfg)
    entries, v2v = q.entries, q.v2v
    world_rng = Rng(seed, WORLD_STREAM)
    if learn_cfg is None:
        explore_rng, cap = None, max(road_cfg.max_steps, 1)
    else:
        explore_rng, cap = Rng(seed, EXPLORE_STREAM), road_cfg.max_steps
        alpha, gamma = learn_cfg.alpha, learn_cfg.gamma
    eps = 0.0
    pending = None  # (key, action, reward) of a Goal step awaiting the next start observation
    for episode in range(episodes):
        b0, b1 = spawn_world(road_cfg, world_rng)
        if cap == 0:
            yield 0, ALIVE
            continue
        lane, pos, speed = AGENT_START
        obs = sense(road, b0, b1, lane, pos)
        key = encode_state(speed, obs, v2v)
        if learn_cfg is not None:
            eps = epsilon_at(learn_cfg, episode)
            if pending is not None:
                q_update(entries, *pending, key, False, alpha, gamma)
                pending = None
        steps = 0
        while True:
            a = select_action(entries, key, eps, explore_rng)
            if trace is not None:
                head = f"{episode},{steps},{lane},{pos},{speed},{','.join(map(str, obs[:7]))},{a}"
            b0, b1, lane, pos, speed, event = move(road, b0, b1, lane, pos, speed, a)
            r = rewards[event][a // 3][speed][lane]
            steps += 1
            if trace is not None:
                trace.append(f"{head},{r!r},{_EVENT_NAMES[event]}")
            if event == ALIVE and steps < cap:
                obs = sense(road, b0, b1, lane, pos)
                next_key = encode_state(speed, obs, v2v)
            else:
                next_key = None  # the episode ends: the update is terminal
            if learn_cfg is not None:
                if event == GOAL:
                    pending = (key, a, r)
                else:
                    q_update(entries, key, a, r, next_key, next_key is None, alpha, gamma)
            if next_key is None:
                yield steps, event
                break
            key = next_key
    if pending is not None:
        q_update(entries, *pending, None, True, alpha, gamma)


@dataclass(frozen=True)
class MetricsBucket:
    index: int
    episodes: int
    avg_time_to_goal: Optional[float]
    crash_rate: float
    quick_rate: float
    timeout_rate: float
    epsilon: float


def train(
    road_cfg: RoadConfig,
    reward_cfg: RewardConfig,
    learn_cfg: LearnConfig,
) -> tuple[QTable, list[MetricsBucket]]:
    """Run the full schedule and aggregate one MetricsBucket per `bucket` episodes."""
    q = QTable(v2v=learn_cfg.v2v)
    buckets: list[MetricsBucket] = []
    count = goals = goal_steps = crashes = quick = timeouts = 0
    loop = run_episodes(road_cfg, reward_cfg, q, learn_cfg.seed, learn_cfg.episodes, learn_cfg)
    for episode, (steps, event) in enumerate(loop):
        count += 1
        if event == GOAL:
            goals += 1
            goal_steps += steps
            if steps < QUICK_LIMIT:
                quick += 1
        elif event == ALIVE:
            timeouts += 1
        else:
            crashes += 1
        if count == learn_cfg.bucket or episode == learn_cfg.episodes - 1:
            buckets.append(
                MetricsBucket(
                    index=len(buckets),
                    episodes=count,
                    avg_time_to_goal=goal_steps / goals if goals else None,
                    crash_rate=crashes / count,
                    quick_rate=quick / count,
                    timeout_rate=timeouts / count,
                    epsilon=epsilon_at(learn_cfg, episode),
                )
            )
            count = goals = goal_steps = crashes = quick = timeouts = 0
    return q, buckets


METRICS_HEADER = "bucket,episodes,avg_time_to_goal,crash_rate,quick_rate,timeout_rate,epsilon"


def metrics_to_csv(buckets: Iterable[MetricsBucket]) -> str:
    lines = [METRICS_HEADER]
    for b in buckets:
        avg = "" if b.avg_time_to_goal is None else repr(b.avg_time_to_goal)
        lines.append(
            f"{b.index},{b.episodes},{avg},{b.crash_rate!r},{b.quick_rate!r},"
            f"{b.timeout_rate!r},{b.epsilon!r}"
        )
    return "\n".join(lines) + "\n"
