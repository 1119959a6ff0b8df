import pytest

from cavlab import qlearn
from cavlab.rng import Rng
from cavlab.qlearn import (
    WORLD_STREAM,
    LearnConfig,
    QTable,
    encode_state,
    epsilon_at,
    metrics_to_csv,
    q_update,
    run_episodes,
    select_action,
    train,
)
from cavlab.world import (
    AGENT_START,
    ALIVE,
    GOAL,
    NO_VEHICLE,
    Dir,
    Road,
    RoadConfig,
    RewardConfig,
    Spd,
    apply_action,
    reward,
    scan_full,
    spawn_world,
)
from value_iteration import value_iteration_oracle

DIST = (5, 5, 5, 0, 1, 5, 5)


def obs_with(*speeds):
    """A scan_full reading: DIST, then the blocker speeds padded with NO_VEHICLE."""
    return DIST + speeds + (NO_VEHICLE,) * (7 - len(speeds))


class TestEncodeState:
    def test_plain_key_has_8_components(self):
        key = encode_state(1, obs_with(), v2v=False)
        assert key == (1, 5, 5, 5, 0, 1, 5, 5)

    def test_v2v_key_has_15_components_with_sentinels(self):
        key = encode_state(1, obs_with(), v2v=True)
        assert len(key) == 15
        assert key[8:] == (-1,) * 7

    def test_v2v_distinguishes_neighbor_speeds(self):
        a = encode_state(1, obs_with(1), v2v=True)
        b = encode_state(1, obs_with(2), v2v=True)
        assert a != b
        off_a = encode_state(1, obs_with(1), v2v=False)
        off_b = encode_state(1, obs_with(2), v2v=False)
        assert off_a == off_b

    def test_key_matches_scan_full(self):
        # the key is the speed, then scan_full's 7 distances, then (v2v only) its 7 blocker speeds
        cfg = RoadConfig()
        road = Road(cfg)
        for seed in range(200):
            lanes = spawn_world(cfg, Rng(seed))
            obs = scan_full(road, *lanes, seed % 2, 20 + seed % 30)
            assert len(obs) == 14
            assert encode_state(2, obs, v2v=True) == (2, *obs)
            assert encode_state(2, obs, v2v=False) == (2, *obs[:7])


class TestQUpdate:
    def test_direct_substitution(self):
        q = {"s2": [1.0] + [0.0] * 8}
        new = q_update(q, "s1", 4, 0.1, "s2", False, alpha=0.4, gamma=0.95)
        assert new == pytest.approx(0.4 * (0.1 + 0.95 * 1.0), abs=1e-12)
        assert q["s1"] == [0.0] * 4 + [new] + [0.0] * 4

    def test_alpha_zero_is_identity(self):
        q = {"s1": [0.0] * 4 + [0.7] + [0.0] * 4}
        for r, nxt in ((5.0, "a"), (-3.0, "b")):
            q_update(q, "s1", 4, r, nxt, False, alpha=0.0, gamma=0.95)
            assert q["s1"][4] == 0.7

    def test_terminal_max_term_zero(self):
        q = {"s1": [0.0] * 4 + [1.0] + [0.0] * 4, "s2": [99.0] + [0.0] * 8}  # s2 ignored
        new = q_update(q, "s1", 4, -10.0, "s2", True, alpha=0.4, gamma=0.95)
        assert new == pytest.approx(0.6 * 1.0 + 0.4 * (-10.0), abs=1e-12)

    def test_touches_exactly_one_entry(self):
        q = {"s1": [0.5] * 9, "s2": [0.25] * 9}
        before = {k: list(v) for k, v in q.items()}
        q_update(q, "s1", 3, 1.0, "s2", False, 0.5, 0.9)
        assert q["s2"] == before["s2"]
        diff = [i for i in range(9) if q["s1"][i] != before["s1"][i]]
        assert diff == [3]

    def test_repeated_updates_converge_geometrically(self):
        q = {"next": [2.0] + [0.0] * 8}
        target = 1.0 + 0.9 * 2.0
        prev_gap = None
        for _ in range(60):
            q_update(q, "s", 0, 1.0, "next", False, 0.5, 0.9)
            gap = abs(q["s"][0] - target)
            if prev_gap is not None and prev_gap > 1e-14:
                assert gap == pytest.approx(prev_gap * 0.5, rel=1e-9)
            prev_gap = gap
        assert prev_gap < 1e-15


class TestSelectAction:
    def test_pure_exploitation_unique_max(self):
        q = {"s": [0.0] * 4 + [1.0] + [0.0] * 4}
        rng = Rng(0)
        assert all(select_action(q, "s", 0.0, rng) == 4 for _ in range(50))

    def test_epsilon_one_uniform_chi_square(self):
        q = {"s": [0.0] * 4 + [1.0] + [0.0] * 4}
        rng = Rng(123)
        counts = [0] * 9
        n = 100_000
        for _ in range(n):
            counts[select_action(q, "s", 1.0, rng)] += 1
        expected = n / 9
        chi2 = sum((c - expected) ** 2 / expected for c in counts)
        # 8 dof, p=0.001 critical value (roughly the 3-sigma bar)
        assert chi2 < 26.12

    def test_full_tie_breaks_uniformly(self):
        q = {}
        rng = Rng(5)
        counts = [0] * 9
        for _ in range(9000):
            counts[select_action(q, "s-unvisited", 0.0, rng)] += 1
        assert min(counts) > 0
        expected = 1000
        chi2 = sum((c - expected) ** 2 / expected for c in counts)
        assert chi2 < 26.12

    def test_greedy_first_index_tie_break(self):
        q = {}
        assert select_action(q, "nothing", 0.0, None) == 0
        q["s"] = [0.0, 0.0, 0.0, 2.0, 0.0, 0.0, 0.0, 2.0, 0.0]
        assert select_action(q, "s", 0.0, None) == 3

    def test_argmax_invariant_under_constant_shift(self):
        row = [0.3, -1.0, 2.0, 0.0, 2.0, -5.0, 1.0, 2.0, 0.5]
        q1, q2 = {"s": row}, {"s": [v + 100.0 for v in row]}
        for seed in range(50):
            assert select_action(q1, "s", 0.0, Rng(seed)) == select_action(q2, "s", 0.0, Rng(seed))


class TestEpsilonSchedule:
    def test_linear_decay_endpoints(self):
        cfg = LearnConfig(seed=0)
        assert epsilon_at(cfg, 0) == 1.0
        assert epsilon_at(cfg, 10_000) == pytest.approx(0.525)
        assert epsilon_at(cfg, 20_000) == 0.05
        assert epsilon_at(cfg, 90_000) == 0.05

    def test_zero_decay_window(self):
        cfg = LearnConfig(seed=0, epsilon_decay_episodes=0)
        assert epsilon_at(cfg, 0) == cfg.epsilon_end


class TestRunEpisodes:
    def test_max_steps_zero_ends_immediately(self):
        road = RoadConfig(max_steps=0)
        q = QTable()
        stats = list(run_episodes(road, RewardConfig(), q, 0, 3, LearnConfig(seed=0)))
        assert stats == [(0, ALIVE)] * 3
        assert len(q.entries) == 0

    def test_deterministic_given_seed(self):
        road = RoadConfig()
        runs = []
        for _ in range(2):
            q = QTable()
            stats = list(run_episodes(road, RewardConfig(), q, 3, 50, LearnConfig(seed=3)))
            trace = []
            stats += run_episodes(road, RewardConfig(), q, 8, 5, trace=trace)
            runs.append((stats, q.entries, trace))
        assert runs[0] == runs[1]

    def test_steps_and_scans_go_through_the_world_api(self, monkeypatch):
        # the loop looks apply_action and scan_full up in qlearn, where the benchmark's tracer wraps them
        calls = {"step": 0, "scan": 0}

        def counted(name, fn):
            def wrapper(*args):
                calls[name] += 1
                return fn(*args)
            return wrapper

        monkeypatch.setattr(qlearn, "apply_action", counted("step", apply_action))
        monkeypatch.setattr(qlearn, "scan_full", counted("scan", scan_full))
        road = RoadConfig(length=20, n_obstacles=2, max_steps=60)
        stats = list(run_episodes(road, RewardConfig(), QTable(), 2, 300, LearnConfig(seed=2)))
        trace = []
        stats += run_episodes(road, RewardConfig(), QTable(), 3, 20, trace=trace)
        steps = sum(n for n, _ in stats)
        assert calls["step"] == steps > len(stats)
        # one observation at each start, then one after every step but an episode's last
        assert calls["scan"] == len(stats) + (steps - len(stats))

    def test_learning_grows_table_and_greedy_rollouts_goal(self):
        road = RoadConfig(length=20, n_obstacles=2, max_steps=60)
        rew = RewardConfig()
        cfg = LearnConfig(episodes=5000, seed=4, epsilon_decay_episodes=1500)
        q = QTable()
        for _ in run_episodes(road, rew, q, cfg.seed, cfg.episodes, cfg):
            pass
        assert len(q.entries) > 0
        learned = {k: list(v) for k, v in q.entries.items()}
        goals = sum(event == GOAL for _, event in run_episodes(road, rew, q, 100, 20))
        assert goals >= 10
        assert q.entries == learned  # greedy rollouts do not learn

    def test_greedy_oracle_policy_is_time_optimal_on_empty_road(self):
        # With a uniform speed limit the reward-optimal policy is also
        # time-optimal, so a greedy rollout from oracle Q* must match the
        # DP shortest-time schedule.
        road = RoadConfig(length=12, n_obstacles=0, max_steps=50)
        rew = RewardConfig()
        gamma = 0.5  # parking beats finishing for gamma >= 0.75; stay sharp below it
        q_star = value_iteration_oracle(road, rew, gamma)

        # independent shortest-time oracle: BFS over (pos, speed)
        def shortest_time(length, max_speed, start_speed):
            from collections import deque

            seen = {(0, start_speed)}
            queue = deque([(0, start_speed, 0)])
            while queue:
                pos, speed, t = queue.popleft()
                for ds in (-1, 0, 1):
                    s2 = min(max(speed + ds, 0), max_speed)
                    p2 = pos + s2
                    if p2 >= length:
                        return t + 1
                    if (p2, s2) not in seen:
                        seen.add((p2, s2))
                        queue.append((p2, s2, t + 1))

        expected = shortest_time(road.length, road.max_agent_speed, 1)

        state = AGENT_START
        steps = 0
        while True:
            row = q_star[state]
            a = max(range(9), key=lambda i: row[i])
            *_, lane, pos, speed, event = apply_action(Road(road), 0, 0, *state, a)
            steps += 1
            assert event in (ALIVE, GOAL)
            if event == GOAL:
                break
            state = (lane, pos, speed)
            assert steps <= 50
        assert steps == expected


class TestValueIterationOracle:
    def test_rejects_obstacles(self):
        with pytest.raises(ValueError):
            value_iteration_oracle(RoadConfig(n_obstacles=1), RewardConfig(), 0.5)

    def test_two_cell_road_hand_backup(self):
        # length=2, max_speed=1, uniform limit 1, gamma=0.5.
        # Hand fixed point: sitting forever at speed 0 yields 0.1/(1-g) = 0.2;
        # from (lane 0, pos p, speed 1), (Stay, Keep) reaches the goal from
        # p=1 (reward 0.2) and from p=0 gives 0.2 + g * V(0,1,1).
        road = RoadConfig(length=2, lanes=2, lane_speed_limit=(1, 1), max_agent_speed=1,
                          n_obstacles=0, max_steps=10, scan_range=1)
        g = 0.5
        q = value_iteration_oracle(road, RewardConfig(), g, tol=1e-12)
        sk = Dir.STAY * 3 + Spd.KEEP
        si = Dir.STAY * 3 + Spd.INC
        sd = Dir.STAY * 3 + Spd.DEC

        # goal step from (0,1,1): alive base 0.1 + speed bonus 0.1
        assert q[(0, 1, 1)][sk] == pytest.approx(0.2, abs=1e-9)
        # V(0,1,1): best of finishing now (0.2) vs decelerating to the
        # sit loop: 0.1 + g*V(0,1,0) with V(0,1,0) = max(0.2/(1-g)... ) --
        # at g=0.5 the sit loop is worth 0.2 and Inc from speed 0 finishes
        # with 0.2, so V(0,1,0) = max(0.1 + 0.5*V010, 0.2) -> 0.2.
        v010 = max(q[(0, 1, 0)])
        assert v010 == pytest.approx(0.2, abs=1e-9)
        assert q[(0, 1, 0)][si] == pytest.approx(0.2, abs=1e-9)      # finish at speed 1
        assert q[(0, 1, 0)][sd] == pytest.approx(0.1 + g * v010, abs=1e-9)
        assert q[(0, 1, 1)][sd] == pytest.approx(0.1 + g * v010, abs=1e-9)
        v011 = max(q[(0, 1, 1)])
        assert v011 == pytest.approx(0.2, abs=1e-9)
        # from the start cell at speed 1: advance (0.2) then best from (0,1,1)
        assert q[(0, 0, 1)][sk] == pytest.approx(0.2 + g * v011, abs=1e-9)
        # bump: base -10, shift -0.1, speed 1 <= limit with bump: -1
        assert q[(0, 0, 1)][Dir.LEFT * 3 + Spd.KEEP] == pytest.approx(-11.1, abs=1e-9)

    def test_residual_converged(self):
        road = RoadConfig(length=10, n_obstacles=0, max_steps=50)
        q1 = value_iteration_oracle(road, RewardConfig(), 0.5, tol=1e-10)
        # one more synchronous backup moves nothing beyond the tolerance
        rows = {s: list(r) for s, r in q1.items()}
        worst = 0.0
        for state, row in rows.items():
            for a in range(9):
                *_, lane, pos, speed, event = apply_action(Road(road), 0, 0, *state, a)
                r = reward(event, Dir(a // 3), speed, lane, RewardConfig(), road)
                if event == ALIVE:
                    r += 0.5 * max(rows[(lane, pos, speed)])
                worst = max(worst, abs(r - row[a]))
        assert worst < 1e-9


class TestTrain:
    def test_zero_episodes(self):
        q, buckets = train(RoadConfig(), RewardConfig(), LearnConfig(episodes=0, seed=0))
        assert len(q.entries) == 0 and buckets == []

    def test_bucket_shapes_and_rates(self):
        road = RoadConfig(length=20, n_obstacles=2, max_steps=60)
        q, buckets = train(road, RewardConfig(), LearnConfig(episodes=2500, seed=1, bucket=1000))
        assert [b.episodes for b in buckets] == [1000, 1000, 500]
        assert [b.index for b in buckets] == [0, 1, 2]
        for b in buckets:
            goal_rate = 1.0 - b.crash_rate - b.timeout_rate
            assert -1e-9 <= b.crash_rate <= 1.0 and -1e-9 <= b.quick_rate <= 1.0
            assert goal_rate >= -1e-9
            if b.avg_time_to_goal is None:
                assert goal_rate == pytest.approx(0.0, abs=1e-9)
            assert b.quick_rate <= goal_rate + 1e-9

    def test_learning_improves_time_to_goal(self):
        road = RoadConfig(length=20, n_obstacles=2, max_steps=60)
        cfg = LearnConfig(episodes=6000, seed=3, bucket=500, epsilon_decay_episodes=2000)
        q, buckets = train(road, RewardConfig(), cfg)
        early = buckets[1].avg_time_to_goal
        late = buckets[-1].avg_time_to_goal
        assert late is not None
        assert early is None or late < early

    def test_paired_worlds_identical_across_v2v(self):
        # the world stream is consumed only by spawning, so paired runs with
        # identical seeds visit identical worlds whatever the encoding
        road = RoadConfig(length=20, n_obstacles=3, max_steps=60)

        def spawn_sequence():
            rng = Rng(9, WORLD_STREAM)
            return [spawn_world(road, rng) for _ in range(50)]

        baseline = spawn_sequence()
        for v2v in (False, True):
            cfg = LearnConfig(episodes=50, seed=9, v2v=v2v)
            train(road, RewardConfig(), cfg)  # consumes its own streams only
            assert spawn_sequence() == baseline

    def test_metrics_csv_format(self):
        road = RoadConfig(length=20, n_obstacles=0, max_steps=30)
        q, buckets = train(road, RewardConfig(), LearnConfig(episodes=200, seed=0, bucket=100))
        text = metrics_to_csv(buckets)
        lines = text.strip().split("\n")
        assert lines[0] == "bucket,episodes,avg_time_to_goal,crash_rate,quick_rate,timeout_rate,epsilon"
        assert len(lines) == 3
        first = lines[1].split(",")
        assert first[0] == "0" and first[1] == "100"

    def test_empty_avg_field_when_no_successes(self):
        road = RoadConfig(length=60, n_obstacles=0, max_steps=2)  # unreachable goal
        q, buckets = train(road, RewardConfig(), LearnConfig(episodes=100, seed=0, bucket=100))
        text = metrics_to_csv(buckets)
        row = text.strip().split("\n")[1].split(",")
        assert row[2] == ""
        assert buckets[0].avg_time_to_goal is None
        assert buckets[0].crash_rate + buckets[0].timeout_rate == pytest.approx(1.0)


class TestQTableSerialization:
    def test_round_trip_full_precision(self):
        q = QTable(v2v=True)
        key = (1, 5, 5, 5, 0, 1, 5, 5, -1, 2, -1, -1, 1, -1, -1)
        q.entries[key] = [0.1 + 0.2, -1.0 / 3.0, 1e-17, 2.5, 0, 0, 0, 0, -12.1]
        loaded = QTable.from_json(q.to_json())
        assert loaded.v2v is True
        assert loaded.entries == {key: q.entries[key]}

    def test_rejects_unknown_version(self):
        with pytest.raises(ValueError, match="version"):
            QTable.from_json('{"version": 2, "v2v": false, "entries": []}')
