import pytest

from cavlab.rng import Rng
from cavlab.world import (
    ACTIONS,
    ActionPair,
    ConfigError,
    Dir,
    Event,
    RoadConfig,
    RewardConfig,
    Spd,
    SpawnError,
    VehicleState,
    WorldState,
    apply_action,
    reward,
    scan,
    scan_full,
    spawn_world,
)


def world_with(agent, obstacles=(), step=0):
    """World with the agent at (lane, pos, speed) and obstacles in the (lane, pos) cells."""
    lanes = [0, 0]
    for lane, pos in obstacles:
        lanes[lane] |= 1 << pos
    return WorldState(VehicleState(*agent), tuple(lanes), step)


def cells(world, cfg=RoadConfig()):
    """The world's obstacle cells, (lane, pos) in lane-then-position order."""
    return [(lane, pos) for lane in range(2) for pos in range(cfg.length) if world.lanes[lane] >> pos & 1]


class TestActions:
    def test_nine_distinct_indexed_actions(self):
        assert len(ACTIONS) == 9
        assert [a.index for a in ACTIONS] == list(range(9))
        assert ACTIONS[0] == ActionPair(Dir.LEFT, Spd.DEC)
        assert ACTIONS[4] == ActionPair(Dir.STAY, Spd.KEEP)
        assert ACTIONS[8] == ActionPair(Dir.RIGHT, Spd.INC)


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
        w = spawn_world(RoadConfig(n_obstacles=0), Rng(1))
        assert w.agent == VehicleState(0, 0, 1)
        assert w.lanes == (0, 0)
        assert w.step == 0

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
            w = spawn_world(cfg, Rng(seed))
            assert len(w.lanes) == cfg.lanes
            assert len(cells(w, cfg)) == cfg.n_obstacles
            for lane, pos in cells(w, cfg):
                assert 4 <= pos <= cfg.length - 1
            assert all(bits >> cfg.length == 0 for bits in w.lanes)

    def test_dense_spawn_still_distinct(self):
        cfg = RoadConfig(length=8, n_obstacles=7)
        for seed in range(300):
            w = spawn_world(cfg, Rng(seed))
            assert len(cells(w, cfg)) == 7
            assert all(4 <= pos <= 7 for _, pos in cells(w, cfg))


def brute_force_scan(world, cfg):
    """Independent ray walk on the unpacked occupancy grid: (distances, blocker speeds)."""
    occupied = set(cells(world, cfg))
    lane, pos, _ = world.agent
    other = 1 - lane

    def walk(ray_lane, step):
        free = 0
        for k in range(1, cfg.scan_range + 1):
            if (ray_lane, pos + step * k) in occupied:
                return free, cfg.lane_speed_limit[ray_lane]
            free += 1
        return free, None

    def lateral(target):
        if not 0 <= target < cfg.lanes:
            return 0, None
        if (target, pos) in occupied:
            return 0, cfg.lane_speed_limit[target]
        return 1, None

    rays = [walk(lane, +1), walk(other, +1), walk(other, +1), lateral(lane - 1), lateral(lane + 1),
            walk(other, -1), walk(other, -1)]
    return tuple(d for d, _ in rays), tuple(s for _, s in rays)


class TestScan:
    def test_empty_road_example(self):
        cfg = RoadConfig()
        w = world_with((0, 30, 1))
        assert scan(w, cfg).dist == (5, 5, 5, 0, 1, 5, 5)

    def test_front_obstacle_distance(self):
        cfg = RoadConfig()
        w = world_with((0, 30, 1), [(0, 32)])
        assert scan(w, cfg).dist[0] == 1

    def test_lateral_occupied_reads_zero(self):
        cfg = RoadConfig()
        w = world_with((0, 30, 1), [(1, 30)])
        assert scan(w, cfg).dist[4] == 0

    @pytest.mark.parametrize("cfg", [RoadConfig(), RoadConfig(scan_range=9, lane_speed_limit=(3, 1))])
    def test_matches_brute_force_on_random_worlds(self, cfg):
        rng = Rng(7)
        for seed in range(2000):
            w = spawn_world(cfg, Rng(seed))
            agent = VehicleState(rng.randrange(2), rng.randrange(cfg.length), rng.randrange(4))
            if (agent.lane, agent.pos) in cells(w, cfg):
                continue
            w = WorldState(agent, w.lanes, 0)
            reading, speeds = scan_full(w, cfg)
            assert (reading.dist, speeds) == brute_force_scan(w, cfg)

    def test_neighbor_speeds_match_blockers(self):
        cfg = RoadConfig()
        w = world_with((0, 30, 1), [(0, 33), (1, 28), (1, 30)])
        reading, speeds = scan_full(w, cfg)
        assert reading.dist[0] == 2 and speeds[0] == 1     # front blocker in lane 0
        assert reading.dist[5] == 1 and speeds[5] == 2     # rear diag blocker in lane 1
        assert reading.dist[4] == 0 and speeds[4] == 2     # lateral occupied
        assert speeds[3] is None                           # wall, not a vehicle


class TestApplyAction:
    def test_unobstructed_advance(self):
        cfg = RoadConfig()
        out = apply_action(world_with((0, 10, 1)), ActionPair(Dir.STAY, Spd.KEEP), cfg)
        assert out.next.agent == VehicleState(0, 11, 1)
        assert out.event is Event.ALIVE

    def test_bump_left_off_road(self):
        cfg = RoadConfig()
        out = apply_action(world_with((0, 10, 1)), ActionPair(Dir.LEFT, Spd.KEEP), cfg)
        assert out.event is Event.BUMP
        assert out.next.agent.pos == 10 and out.next.agent.lane == 0

    def test_bump_sweeps_no_cell(self):
        # an obstacle landing on the cell ahead would be a crash for a move; a bump does not move
        cfg = RoadConfig()
        out = apply_action(world_with((0, 10, 1), [(0, 10)]), ActionPair(Dir.LEFT, Spd.KEEP), cfg)
        assert cells(out.next, cfg) == [(0, 11)]
        assert out.event is Event.BUMP
        assert out.next.agent == VehicleState(0, 10, 1)

    def test_bump_still_updates_speed(self):
        cfg = RoadConfig()
        out = apply_action(world_with((0, 10, 1)), ActionPair(Dir.LEFT, Spd.INC), cfg)
        assert out.event is Event.BUMP
        assert out.next.agent.speed == 2

    def test_crash_on_swept_cell(self):
        # hand-stepped: obstacle 12->13; agent speed 2->3 sweeps 11,12,13
        cfg = RoadConfig()
        out = apply_action(world_with((0, 10, 2), [(0, 12)]), ActionPair(Dir.STAY, Spd.INC), cfg)
        assert out.next.agent.speed == 3
        assert out.event is Event.CRASH

    @pytest.mark.parametrize("lane_change", [Dir.STAY, Dir.RIGHT])
    def test_swept_cells_are_exactly_the_new_lane_ahead(self, lane_change):
        # agent (0, 10) at new speed 3 into lane 0 or 1 sweeps (lane, 11..13) after obstacles move
        cfg = RoadConfig()
        lane = lane_change - Dir.STAY
        action = ActionPair(lane_change, Spd.INC)
        for landing in range(8, 18):
            for obstacle_lane in (0, 1):
                start = landing - cfg.lane_speed_limit[obstacle_lane]
                w = world_with((0, 10, 2), [(obstacle_lane, start)])
                out = apply_action(w, action, cfg)
                swept = obstacle_lane == lane and 11 <= landing <= 13
                assert out.event is (Event.CRASH if swept else Event.ALIVE), (landing, obstacle_lane)
                assert out.next.agent == VehicleState(lane, 13, 3)

    def test_goal_at_road_end(self):
        cfg = RoadConfig()
        out = apply_action(world_with((1, 64, 2)), ActionPair(Dir.STAY, Spd.KEEP), cfg)
        assert out.event is Event.GOAL
        assert out.next.agent.pos == 66

    def test_obstacles_advance_and_despawn(self):
        cfg = RoadConfig()
        w = world_with((0, 0, 1), [(1, 64), (0, 10)])
        out = apply_action(w, ActionPair(Dir.STAY, Spd.KEEP), cfg)
        assert cells(out.next, cfg) == [(0, 11)]

    def test_speed_clamping(self):
        cfg = RoadConfig()
        out = apply_action(world_with((0, 10, 0)), ActionPair(Dir.STAY, Spd.DEC), cfg)
        assert out.next.agent.speed == 0
        out = apply_action(world_with((0, 10, 3)), ActionPair(Dir.STAY, Spd.INC), cfg)
        assert out.next.agent.speed == 3

    def test_determinism(self):
        cfg = RoadConfig()
        w = spawn_world(cfg, Rng(3))
        for a in ACTIONS:
            assert apply_action(w, a, cfg) == apply_action(w, a, cfg)

    def test_step_counter_and_pos_monotone(self):
        cfg = RoadConfig()
        w = spawn_world(cfg, Rng(5))
        rng = Rng(11)
        for _ in range(100):
            a = ACTIONS[rng.randrange(9)]
            out = apply_action(w, a, cfg)
            assert out.next.step == w.step + 1
            assert out.next.agent.pos >= w.agent.pos
            if out.event is not Event.BUMP:
                assert 0 <= out.next.agent.lane < cfg.lanes
            # every obstacle moves at its lane's speed and leaves at the road end
            moved = sorted((lane, pos + cfg.lane_speed_limit[lane]) for lane, pos in cells(w, cfg)
                           if pos + cfg.lane_speed_limit[lane] < cfg.length)
            assert cells(out.next, cfg) == moved
            if out.event in (Event.GOAL, Event.CRASH, Event.BUMP):
                break
            w = out.next


class TestReward:
    def setup_method(self):
        self.rc = RewardConfig()
        # the per-lane limit binding of the immediate-reward table
        self.road = RoadConfig(agent_speed_limit=(1, 2))

    def test_alive_cruise_left_lane(self):
        r = reward(Event.ALIVE, ActionPair(Dir.STAY, Spd.KEEP), 1, 0, self.rc, self.road)
        assert r == pytest.approx(0.2, abs=1e-12)

    def test_crash_with_shift_below_limit(self):
        r = reward(Event.CRASH, ActionPair(Dir.RIGHT, Spd.KEEP), 2, 1, self.rc, self.road)
        assert r == pytest.approx(-12.1, abs=1e-12)

    def test_overspeed_penalty(self):
        r = reward(Event.ALIVE, ActionPair(Dir.STAY, Spd.KEEP), 3, 1, self.rc, self.road)
        assert r == pytest.approx(-5.9, abs=1e-12)

    def test_default_limit_is_max_agent_speed(self):
        road = RoadConfig()
        r = reward(Event.ALIVE, ActionPair(Dir.STAY, Spd.KEEP), 3, 1, self.rc, road)
        assert r == pytest.approx(0.4, abs=1e-12)

    def test_goal_same_as_alive_base(self):
        a = reward(Event.GOAL, ActionPair(Dir.STAY, Spd.KEEP), 1, 0, self.rc, self.road)
        b = reward(Event.ALIVE, ActionPair(Dir.STAY, Spd.KEEP), 1, 0, self.rc, self.road)
        assert a == b

    def test_bump_speed_term_below_limit(self):
        r = reward(Event.BUMP, ActionPair(Dir.LEFT, Spd.KEEP), 1, 0, self.rc, self.road)
        assert r == pytest.approx(-10.0 - 0.1 - 1.0, abs=1e-12)

    def test_components_are_additive(self):
        # base, shift and speed terms contribute independently
        base = reward(Event.ALIVE, ActionPair(Dir.STAY, Spd.KEEP), 0, 0, self.rc, self.road)
        shifted = reward(Event.ALIVE, ActionPair(Dir.LEFT, Spd.KEEP), 0, 0, self.rc, self.road)
        sped = reward(Event.ALIVE, ActionPair(Dir.STAY, Spd.KEEP), 1, 0, self.rc, self.road)
        both = reward(Event.ALIVE, ActionPair(Dir.LEFT, Spd.KEEP), 1, 0, self.rc, self.road)
        assert shifted - base == pytest.approx(self.rc.shift_penalty, abs=1e-12)
        assert sped - base == pytest.approx(0.1, abs=1e-12)
        assert both - base == pytest.approx(self.rc.shift_penalty + 0.1, abs=1e-12)

    def test_reward_total_over_all_inputs(self):
        for event in Event:
            for action in ACTIONS:
                for speed in range(4):
                    for lane in range(2):
                        value = reward(event, action, speed, lane, self.rc, self.road)
                        assert isinstance(value, float)


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
