import pytest

from cavlab.rng import Rng
from cavlab.world import (
    AGENT_START,
    ALIVE,
    BUMP,
    CRASH,
    GOAL,
    N_ACTIONS,
    ConfigError,
    Dir,
    Event,
    Road,
    RoadConfig,
    RewardConfig,
    SpawnError,
    apply_action,
    reward,
    scan_full,
    spawn_world,
)
from paper_scan import NO_VEHICLE, seven_rays, seven_speeds
from value_iteration import Spd


def act(d, s):
    """The action index of (lateral, speed) change."""
    return d * 3 + s


def lanes_with(obstacles=()):
    """The lane bitboards with obstacles in the (lane, pos) cells."""
    lanes = [0, 0]
    for lane, pos in obstacles:
        lanes[lane] |= 1 << pos
    return tuple(lanes)


def cells(lanes, cfg=RoadConfig()):
    """The obstacle cells of the lane bitboards, (lane, pos) in lane-then-position order."""
    return [(lane, pos) for lane in range(2) for pos in range(cfg.length) if lanes[lane] >> pos & 1]


def step(agent, a, obstacles=(), cfg=RoadConfig()):
    """apply_action from the agent at (lane, pos, speed) among obstacle cells: (cells, agent, event)."""
    b0, b1, lane, pos, speed, event = apply_action(Road(cfg), *lanes_with(obstacles), *agent, a)
    return cells((b0, b1), cfg), (lane, pos, speed), event


def sense(lane, pos, obstacles=(), cfg=RoadConfig()):
    """scan_full from the agent at (lane, pos) among obstacle cells: (front, diag_f, diag_r, left, right)."""
    return scan_full(Road(cfg), *lanes_with(obstacles), lane, pos)


class TestActions:
    def test_nine_distinct_indexed_actions(self):
        # (Left, Dec) is 0, (Stay, Keep) 4, (Right, Inc) 8
        assert [act(d, s) for d in Dir for s in Spd] == list(range(N_ACTIONS)) and N_ACTIONS == 9
        assert act(Dir.STAY, Spd.KEEP) == 4
        # apply_action reads the lateral change from a // 3 and the speed change from a % 3
        for d in Dir:
            for s in Spd:
                _, (lane, pos, speed), event = step((0, 10, 1), act(d, s))
                assert speed == s
                if d == Dir.LEFT:
                    assert event == BUMP and (lane, pos) == (0, 10)
                else:
                    assert event == ALIVE and (lane, pos) == (d - 1, 10 + s)


class TestRoadConfig:
    def test_defaults(self):
        cfg = RoadConfig()
        assert cfg.length == 66
        assert cfg.lanes == 2
        assert cfg.lane_speed_limit == (1, 2)
        assert cfg.max_agent_speed == 3
        assert cfg.agent_speed_limit == (3, 3)

    def test_rejects_bad_values(self):
        with pytest.raises(ConfigError):
            RoadConfig(length=1)
        with pytest.raises(ConfigError):
            RoadConfig(lanes=3)
        with pytest.raises(ConfigError):
            RoadConfig(lane_speed_limit=(1, 5))
        with pytest.raises(ConfigError):
            RoadConfig(scan_range=0)

    def test_from_dict_rejects_unknown_keys(self):
        with pytest.raises(ConfigError, match="unknown"):
            RoadConfig.from_dict({"lenght": 10})

    def test_degenerate_max_steps_allowed(self):
        assert RoadConfig(max_steps=0).max_steps == 0


class TestSpawn:
    def test_no_obstacles(self):
        assert spawn_world(RoadConfig(n_obstacles=0), Rng(1)) == (0, 0)
        assert AGENT_START == (0, 0, 1)

    def test_same_seed_same_world(self):
        cfg = RoadConfig()
        assert spawn_world(cfg, Rng(42)) == spawn_world(cfg, Rng(42))

    def test_infeasible_count(self):
        with pytest.raises(SpawnError):
            spawn_world(RoadConfig(length=6, n_obstacles=5), Rng(0))

    def test_spawn_postconditions_many_seeds(self):
        # obstacle count, position window, nothing beyond the two lanes' cells
        cfg = RoadConfig()
        for seed in range(10_000):
            lanes = spawn_world(cfg, Rng(seed))
            assert len(lanes) == cfg.lanes
            assert len(cells(lanes, cfg)) == cfg.n_obstacles
            for lane, pos in cells(lanes, cfg):
                assert 4 <= pos <= cfg.length - 1
            assert all(bits >> cfg.length == 0 for bits in lanes)

    def test_dense_spawn_still_distinct(self):
        cfg = RoadConfig(length=8, n_obstacles=7)
        for seed in range(300):
            lanes = spawn_world(cfg, Rng(seed))
            assert len(cells(lanes, cfg)) == 7
            assert all(4 <= pos <= 7 for _, pos in cells(lanes, cfg))


def brute_force_scan(lanes, lane, pos, cfg):
    """Independent ray walk on the unpacked occupancy grid: (distances, blocker speeds)."""
    occupied = set(cells(lanes, cfg))
    other = 1 - lane

    def walk(ray_lane, step):
        free = 0
        for k in range(1, cfg.scan_range + 1):
            if (ray_lane, pos + step * k) in occupied:
                return free, cfg.lane_speed_limit[ray_lane]
            free += 1
        return free, NO_VEHICLE

    def lateral(target):
        if not 0 <= target < cfg.lanes:
            return 0, NO_VEHICLE
        if (target, pos) in occupied:
            return 0, cfg.lane_speed_limit[target]
        return 1, NO_VEHICLE

    rays = [walk(lane, +1), walk(other, +1), walk(other, +1), lateral(lane - 1), lateral(lane + 1),
            walk(other, -1), walk(other, -1)]
    return tuple(d for d, _ in rays), tuple(s for _, s in rays)


def random_lanes(rng, length):
    """Two lane bitboards with each cell occupied with probability 1/4."""
    return tuple(sum(1 << p for p in range(length) if rng.randrange(4) == 0) for _ in range(2))


class TestScan:
    def test_empty_road_example(self):
        assert sense(0, 30) == (5, 5, 5, 0, 1)

    def test_front_obstacle_distance(self):
        assert sense(0, 30, [(0, 32)])[0] == 1

    def test_lateral_occupied_reads_zero(self):
        assert sense(0, 30, [(1, 30)])[4] == 0

    def check_against_oracle(self, lanes, lane, pos, cfg):
        # the oracle walks the paper's 7 rays; its pairs of diagonal rays are equal and its blocker
        # speeds follow from the distances and the lane, so scan_full returns the 5 distinct readings
        dist, speeds = brute_force_scan(lanes, lane, pos, cfg)
        assert dist[1] == dist[2] and dist[5] == dist[6]
        reading = scan_full(Road(cfg), *lanes, lane, pos)
        assert reading == (dist[0], dist[1], dist[5], dist[3], dist[4])
        assert seven_rays(reading) == dist
        assert seven_speeds(reading, lane, cfg) == speeds

    @pytest.mark.parametrize("cfg", [
        RoadConfig(), RoadConfig(scan_range=9, lane_speed_limit=(3, 1)),
        RoadConfig(length=6, n_obstacles=3, scan_range=9, lane_speed_limit=(2, 1)),  # rays longer than the road
    ])
    def test_matches_brute_force_on_random_worlds(self, cfg):
        rng = Rng(7)
        for seed in range(2000):
            lanes = spawn_world(cfg, Rng(seed))
            lane, pos, _speed = rng.randrange(2), rng.randrange(cfg.length), rng.randrange(4)
            if (lane, pos) in cells(lanes, cfg):
                continue
            self.check_against_oracle(lanes, lane, pos, cfg)

    def test_matches_brute_force_on_random_roads(self):
        # random occupancy, also of the cells below 4 where no obstacle spawns, so rays behind the
        # agent end at a vehicle, at the range or at the start of the road (pos below scan_range)
        rng = Rng(17)
        for _ in range(3000):
            cfg = RoadConfig(length=2 + rng.randrange(40), scan_range=1 + rng.randrange(12),
                             lane_speed_limit=(1 + rng.randrange(3), 1 + rng.randrange(3)))
            lanes = random_lanes(rng, cfg.length)
            self.check_against_oracle(lanes, rng.randrange(2), rng.randrange(cfg.length), cfg)

    def test_neighbor_speeds_match_blockers(self):
        cfg = RoadConfig()
        lanes = lanes_with([(0, 33), (1, 28), (1, 30)])
        dist, speeds = brute_force_scan(lanes, 0, 30, cfg)
        assert dist[0] == 2 and speeds[0] == 1     # front blocker in lane 0
        assert dist[5] == 1 and speeds[5] == 2     # rear diag blocker in lane 1
        assert dist[4] == 0 and speeds[4] == 2     # lateral occupied
        assert speeds[3] == NO_VEHICLE             # wall, not a vehicle
        assert scan_full(Road(cfg), *lanes, 0, 30) == (2, 5, 1, 0, 0)
        # the same reading in lane 1 (the mirrored road) differs only in the lane: V2V adds the lane
        mirrored = lanes_with([(1, 33), (0, 28), (0, 30)])
        assert scan_full(Road(cfg), *mirrored, 1, 30) == (2, 5, 1, 0, 0)
        assert brute_force_scan(mirrored, 1, 30, cfg)[1] != speeds


class TestApplyAction:
    def test_unobstructed_advance(self):
        assert step((0, 10, 1), act(Dir.STAY, Spd.KEEP)) == ([], (0, 11, 1), ALIVE)

    def test_bump_left_off_road(self):
        _, (lane, pos, _), event = step((0, 10, 1), act(Dir.LEFT, Spd.KEEP))
        assert event == BUMP
        assert pos == 10 and lane == 0

    def test_bump_sweeps_no_cell(self):
        # an obstacle landing on the cell ahead would be a crash for a move; a bump does not move
        assert step((0, 10, 1), act(Dir.LEFT, Spd.KEEP), [(0, 10)]) == ([(0, 11)], (0, 10, 1), BUMP)

    def test_bump_still_updates_speed(self):
        _, agent, event = step((0, 10, 1), act(Dir.LEFT, Spd.INC))
        assert event == BUMP
        assert agent[2] == 2

    def test_crash_on_swept_cell(self):
        # hand-stepped: obstacle 12->13; agent speed 2->3 sweeps 11,12,13
        _, agent, event = step((0, 10, 2), act(Dir.STAY, Spd.INC), [(0, 12)])
        assert agent[2] == 3
        assert event == CRASH

    @pytest.mark.parametrize("lane_change", [Dir.STAY, Dir.RIGHT])
    def test_swept_cells_are_exactly_the_new_lane_ahead(self, lane_change):
        # agent (0, 10) at new speed 3 into lane 0 or 1 sweeps (lane, 11..13) after obstacles move
        cfg = RoadConfig()
        lane = lane_change - Dir.STAY
        for landing in range(8, 18):
            for obstacle_lane in (0, 1):
                start = landing - cfg.lane_speed_limit[obstacle_lane]
                _, agent, event = step((0, 10, 2), act(lane_change, Spd.INC), [(obstacle_lane, start)])
                swept = obstacle_lane == lane and 11 <= landing <= 13
                assert event == (CRASH if swept else ALIVE), (landing, obstacle_lane)
                assert agent == (lane, 13, 3)

    def test_goal_at_road_end(self):
        _, agent, event = step((1, 64, 2), act(Dir.STAY, Spd.KEEP))
        assert event == GOAL
        assert agent[1] == 66

    def test_obstacles_advance_and_despawn(self):
        assert step((0, 0, 1), act(Dir.STAY, Spd.KEEP), [(1, 64), (0, 10)])[0] == [(0, 11)]

    def test_speed_clamping(self):
        assert step((0, 10, 0), act(Dir.STAY, Spd.DEC))[1][2] == 0
        assert step((0, 10, 3), act(Dir.STAY, Spd.INC))[1][2] == 3

    def test_determinism(self):
        road = Road(RoadConfig())
        lanes = spawn_world(RoadConfig(), Rng(3))
        for a in range(N_ACTIONS):
            assert apply_action(road, *lanes, *AGENT_START, a) == apply_action(road, *lanes, *AGENT_START, a)

    def test_pos_monotone_and_traffic_advances(self):
        cfg = RoadConfig()
        road = Road(cfg)
        lanes, agent = spawn_world(cfg, Rng(5)), AGENT_START
        rng = Rng(11)
        for _ in range(100):
            b0, b1, lane, pos, speed, event = apply_action(road, *lanes, *agent, rng.randrange(9))
            assert pos >= agent[1]
            if event != BUMP:
                assert 0 <= lane < cfg.lanes
            # every obstacle moves at its lane's speed and leaves at the road end
            moved = sorted((ln, p + cfg.lane_speed_limit[ln]) for ln, p in cells(lanes, cfg)
                           if p + cfg.lane_speed_limit[ln] < cfg.length)
            assert cells((b0, b1), cfg) == moved
            if event in (GOAL, CRASH, BUMP):
                break
            lanes, agent = (b0, b1), (lane, pos, speed)


class TestReward:
    def setup_method(self):
        self.rc = RewardConfig()
        # the per-lane limit binding of the immediate-reward table
        self.road = RoadConfig(agent_speed_limit=(1, 2))

    def test_alive_cruise_left_lane(self):
        r = reward(Event.ALIVE, Dir.STAY, 1, 0, self.rc, self.road)
        assert r == pytest.approx(0.2, abs=1e-12)

    def test_crash_with_shift_below_limit(self):
        r = reward(Event.CRASH, Dir.RIGHT, 2, 1, self.rc, self.road)
        assert r == pytest.approx(-12.1, abs=1e-12)

    def test_overspeed_penalty(self):
        r = reward(Event.ALIVE, Dir.STAY, 3, 1, self.rc, self.road)
        assert r == pytest.approx(-5.9, abs=1e-12)

    def test_default_limit_is_max_agent_speed(self):
        road = RoadConfig()
        r = reward(Event.ALIVE, Dir.STAY, 3, 1, self.rc, road)
        assert r == pytest.approx(0.4, abs=1e-12)

    def test_goal_same_as_alive_base(self):
        a = reward(Event.GOAL, Dir.STAY, 1, 0, self.rc, self.road)
        b = reward(Event.ALIVE, Dir.STAY, 1, 0, self.rc, self.road)
        assert a == b

    def test_bump_speed_term_below_limit(self):
        r = reward(Event.BUMP, Dir.LEFT, 1, 0, self.rc, self.road)
        assert r == pytest.approx(-10.0 - 0.1 - 1.0, abs=1e-12)

    def test_components_are_additive(self):
        # base, shift and speed terms contribute independently
        base = reward(Event.ALIVE, Dir.STAY, 0, 0, self.rc, self.road)
        shifted = reward(Event.ALIVE, Dir.LEFT, 0, 0, self.rc, self.road)
        sped = reward(Event.ALIVE, Dir.STAY, 1, 0, self.rc, self.road)
        both = reward(Event.ALIVE, Dir.LEFT, 1, 0, self.rc, self.road)
        assert shifted - base == pytest.approx(self.rc.shift_penalty, abs=1e-12)
        assert sped - base == pytest.approx(0.1, abs=1e-12)
        assert both - base == pytest.approx(self.rc.shift_penalty + 0.1, abs=1e-12)

    def test_reward_total_over_all_inputs(self):
        for event in Event:
            for direction in Dir:
                for speed in range(4):
                    for lane in range(2):
                        value = reward(event, direction, speed, lane, self.rc, self.road)
                        assert isinstance(value, float)
                        # an int event, as apply_action returns it, reads the same
                        assert reward(int(event), direction, speed, lane, self.rc, self.road) == value


class TestConfigIO:
    def test_road_config_roundtrip_fields(self):
        cfg = RoadConfig.from_dict(
            {"length": 20, "lanes": 2, "lane_speed_limit": [1, 2], "max_agent_speed": 3,
             "scan_range": 4, "n_obstacles": 2, "max_steps": 50}
        )
        assert cfg.length == 20 and cfg.scan_range == 4

    def test_reward_config_override(self):
        rc = RewardConfig.from_dict({"crash_or_bump": -5.0})
        assert rc.crash_or_bump == -5.0 and rc.alive_or_goal == 0.1
