"""The paper's seven-ray scanner reading and V2V blocker speeds, rebuilt from a `world.scan_full` reading.

On the two-lane road the front-left and front-right rays walk the one other lane, as do rear-left
and rear-right, and every obstacle moves at its lane's speed. So the seven distances and seven
blocker speeds of the paper (and of Q-table version 1) follow from the five readings, the agent's
lane and the road config. The tests use this to check the scanner against a seven-ray oracle, the
trace's scan0..scan6 columns, and version-2 Q-tables against hashes recorded for version 1.
"""

import json

NO_VEHICLE = -1  # blocker speed of a ray that ends at the wall or at its range


def seven_rays(reading) -> tuple:
    """[front, front-left, front-right, left, right, rear-left, rear-right]."""
    front, diag_f, diag_r, left, right = reading
    return (front, diag_f, diag_f, left, right, diag_r, diag_r)


def seven_speeds(reading, lane, cfg) -> tuple:
    """The blocker speed of each of the seven rays: its lane's speed when it ends at a vehicle."""
    front, diag_f, diag_r, left, right = reading
    own, other = cfg.lane_speed_limit[lane], cfg.lane_speed_limit[1 - lane]

    def seen(distance, speed):
        return speed if distance < cfg.scan_range else NO_VEHICLE

    return (seen(front, own), seen(diag_f, other), seen(diag_f, other),
            other if lane == 1 and left == 0 else NO_VEHICLE,
            other if lane == 0 and right == 0 else NO_VEHICLE,
            seen(diag_r, other), seen(diag_r, other))


def v1_qtable(text: str, cfg) -> str:
    """The version-1 text of a version-2 Q-table trained on road `cfg`: keys (speed, 7 rays), plus
    the 7 blocker speeds with V2V, in place of (speed, 5 readings), plus the lane with V2V."""
    doc = json.loads(text)
    assert doc["version"] == 2
    entries = []
    for entry in doc["entries"]:
        speed, *reading = entry["key"]
        key = [speed, *seven_rays(reading[:5])]
        if doc["v2v"]:
            key += seven_speeds(reading[:5], reading[5], cfg)
        entries.append({"key": key, "q": entry["q"]})
    return json.dumps({"version": 1, "v2v": doc["v2v"], "entries": entries})
