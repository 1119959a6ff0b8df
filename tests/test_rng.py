"""The block generator of cavlab.rng against the one-step-at-a-time oracle."""

import itertools

import pytest

from cavlab.qlearn import EXPLORE_STREAM, WORLD_STREAM
from cavlab.rng import LANES, STEPS, Rng, _blocks, _seed_state
from rng_reference import ScalarRng

BLOCK_SIZES = [len(block) for block in itertools.islice(_blocks(_seed_state(0, 0)), 14)]
ENDS = list(itertools.accumulate(BLOCK_SIZES))  # where each of those blocks ends in the stream
SEEDS = [0, 1, 11, 2024, 2**64 - 1, 2**70 + 3]

# the first 8 draws of the one-step-at-a-time generator, recorded before it was replaced
KNOWN_ANSWERS = {
    (0, 0): [0x99EC5F36CB75F2B4, 0xBF6E1F784956452A, 0x1A5F849D4933E6E0, 0x6AA594F1262D2D2C,
             0xBBA5AD4A1F842E59, 0xFFEF8375D9EBCACA, 0x6C160DEED2F54C98, 0x8920AD648FC30A3F],
    (1, 1): [0xB8C2703937A37E90, 0x86789FC8014A7B17, 0x287FDB947BD13FEC, 0x179090F04EDCD50B,
             0x88F86464E2C27644, 0x9B077822BE4A592B, 0xB39251DD473EC40A, 0xFADF79F2D4083E1C],
    (2**70 + 3, 7): [0xEA3C50216E89802E, 0xFA97C5BE80BB483F, 0x0BCC389828BBF6CE, 0x1E0A7059BC9CDD79,
                     0xA6EDF81DD50EC738, 0x33BC6959AC7765E1, 0x67EDBBF50929353D, 0xDFE6FA8B66233128],
}


@pytest.mark.parametrize("seed_stream", sorted(KNOWN_ANSWERS), ids=str)
def test_known_answers(seed_stream):
    rng = Rng(*seed_stream)
    assert [rng.next_u64() for _ in range(8)] == KNOWN_ANSWERS[seed_stream]


def test_blocks_grow_to_full_size():
    assert BLOCK_SIZES[0] < LANES
    assert all(a <= b for a, b in zip(BLOCK_SIZES, BLOCK_SIZES[1:]))
    assert BLOCK_SIZES[-4:] == [LANES * STEPS] * 4  # so the tests below read 4 full blocks


@pytest.mark.parametrize("stream", [WORLD_STREAM, EXPLORE_STREAM])
@pytest.mark.parametrize("seed", SEEDS)
def test_every_block_matches_the_oracle(seed, stream):
    rng, ref = Rng(seed, stream), ScalarRng(seed, stream)
    assert [rng.next_u64() for _ in range(ENDS[-1] + 5)] == [ref.next_u64() for _ in range(ENDS[-1] + 5)]


def test_block_boundaries():
    ref = ScalarRng(5, 1)
    stream = [ref.next_u64() for _ in range(ENDS[-1] + 2)]
    for boundary in ENDS:
        for end in (boundary - 1, boundary, boundary + 1):
            rng = Rng(5, 1)
            drawn = [rng.next_u64() for _ in range(end)]
            assert drawn[-2:] + [rng.next_u64()] == stream[end - 2 : end + 1]


def test_partial_read_then_fresh_instance():
    ref = ScalarRng(42, 1)
    stream = [ref.next_u64() for _ in range(ENDS[-3] + 10)]
    first = Rng(42, 1)
    head = [first.next_u64() for _ in range(ENDS[3] + 7)]
    again = Rng(42, 1)
    assert [again.next_u64() for _ in range(len(stream))] == stream
    assert head + [first.next_u64() for _ in range(len(stream) - len(head))] == stream


def test_interleaved_instances():
    a, b = Rng(3, WORLD_STREAM), Rng(3, EXPLORE_STREAM)
    ra, rb = ScalarRng(3, WORLD_STREAM), ScalarRng(3, EXPLORE_STREAM)
    for i in range(3 * ENDS[-3] // 2):
        if i % 3:
            assert a.next_u64() == ra.next_u64()
        else:
            assert b.next_u64() == rb.next_u64()


def test_every_method_mixed():
    rng, ref = Rng(2**70 + 3, 7), ScalarRng(2**70 + 3, 7)
    for i in range(ENDS[-1] // 20):  # about 21 draws a round: past the last of ENDS
        assert rng.random() == ref.random()
        for n in (1, 9, 2**63):
            assert rng.randrange(n) == ref.randrange(n)
        assert rng.uniform(-2.5, 7.0) == ref.uniform(-2.5, 7.0)
        length = (0, 1, 50)[i % 3]
        got, want = list(range(length)), list(range(length))
        rng.shuffle(got)
        ref.shuffle(want)
        assert got == want
