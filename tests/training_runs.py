"""One training run of the acceptance fixture, at module level so a spawned process can run it."""

from cavlab.qlearn import LearnConfig, train
from cavlab.world import RewardConfig, RoadConfig


def default_run(seed_v2v: tuple[int, bool]) -> list:
    """MetricsBucket list of a 100k-episode training of the default configuration."""
    seed, v2v = seed_v2v
    _, buckets = train(RoadConfig(), RewardConfig(), LearnConfig(episodes=100_000, seed=seed, v2v=v2v))
    return buckets
