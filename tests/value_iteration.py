"""Exact Q* of the obstacle-free road, the reference for the tabular learner."""

from __future__ import annotations

import numpy as np

from cavlab.world import ALIVE, N_ACTIONS, Dir, Road, RoadConfig, RewardConfig, apply_action, reward


def value_iteration_oracle(
    road_cfg: RoadConfig,
    reward_cfg: RewardConfig,
    gamma: float,
    tol: float = 1e-10,
    max_sweeps: int = 1_000_000,
) -> dict[tuple[int, int, int], list[float]]:
    """Exact Q* for the obstacle-free road by synchronous Bellman backups.

    States are (lane, pos, speed); the returned map holds one 9-vector per
    state. Rejects configurations with obstacles (state space not enumerable).
    """
    if road_cfg.n_obstacles != 0:
        raise ValueError("oracle requires an obstacle-free configuration")
    road = Road(road_cfg)
    states = [
        (lane, pos, speed)
        for lane in range(road_cfg.lanes)
        for pos in range(road_cfg.length)
        for speed in range(road_cfg.max_agent_speed + 1)
    ]
    index = {s: i for i, s in enumerate(states)}
    n = len(states)
    rew = np.zeros((n, N_ACTIONS))
    nxt = np.zeros((n, N_ACTIONS), dtype=np.int64)
    term = np.zeros((n, N_ACTIONS), dtype=bool)
    for s, i in index.items():
        for a in range(N_ACTIONS):
            _, _, lane, pos, speed, event = apply_action(road, 0, 0, *s, a)
            rew[i, a] = reward(event, Dir(a // 3), speed, lane, reward_cfg, road_cfg)
            if event == ALIVE:
                nxt[i, a] = index[(lane, pos, speed)]
            else:
                term[i, a] = True
    q = np.zeros((n, N_ACTIONS))
    for _ in range(max_sweeps):
        v = q.max(axis=1)
        q_new = rew + gamma * np.where(term, 0.0, v[nxt])
        residual = np.abs(q_new - q).max()
        q = q_new
        if residual < tol:
            return {s: q[i].tolist() for s, i in index.items()}
    raise RuntimeError(f"value iteration did not reach residual {tol}")
