from hatlab.constructions import random_gnp
from hatlab.graph_core import VertexSet
from hatlab.hat_game import winning_family
from hatlab.random_subgraphs import alpha_star_star_mc, partition_bound_eval
from hatlab.rng import chance, chance_mask, coin, coin_mask, randrange, randrange_row, u64


def test_u64_deterministic_and_key_sensitive():
    assert u64(5, 1, 2) == u64(5, 1, 2)
    assert u64(5, 1, 2) != u64(5, 2, 1)
    assert u64(5, 1, 2) != u64(6, 1, 2)
    assert u64(5, 1) != u64(5, 1, 0)


def test_u64_range():
    for i in range(100):
        assert 0 <= u64(9, i) < 1 << 64


def test_coin_roughly_fair():
    heads = sum(coin(123, i) for i in range(20_000))
    assert abs(heads - 10_000) < 500  # ~7 sigma


def test_coin_mask_matches_coin_bit_for_bit():
    wide = (1 << 70) + 12345
    for n, seed, indices in (
        (0, 3, (1,)),
        (1, 0, ()),
        (64, 9, (2,)),
        (127, 5, (3,)),
        (128, 6, ()),
        (129, 8, (9, 1)),
        (130, 17, (4, 5)),
        (200, wide, (7,)),
        (70, -wide, (0, 1, 2)),
    ):
        mask = coin_mask(n, seed, *indices)
        assert mask >> n == 0
        assert mask == sum(1 << v for v in range(n) if coin(seed, *indices, v))


def test_chance_mask_matches_chance_bit_for_bit():
    for n, p, seed, indices in (
        (0, 0.5, 1, (2,)),
        (65, 0.0, 3, (4,)),
        (65, 1.0, 3, (4,)),
        (129, 2**-60, 5, ()),
        (129, 1 - 2**-53, 6, (7,)),
        (200, 0.3, -(1 << 70), (8, 9)),
    ):
        mask = chance_mask(n, p, seed, *indices)
        assert mask == sum(1 << v for v in range(n) if chance(p, seed, *indices, v))


def test_mc_records_pinned():
    # captured before the samplers drew their subsets with coin_mask
    res = alpha_star_star_mc(random_gnp(30, 0.2, seed=3), samples=200, seed=11)
    assert (res.estimate, res.stderr) == (0.2675, 0.00302084235832996)
    parts = [VertexSet.from_indices(18, (i, i + 1)) for i in range(0, 18, 2)]
    res = partition_bound_eval(random_gnp(18, 0.3, seed=4), parts, samples=150, seed=5,
                               mode="monte_carlo")
    assert (res.estimate, res.stderr) == (0.28074074074074074, 0.006538385200519441)
    # captured before the partition bound's samplers became index-set spaces
    parts = [VertexSet.from_indices(20, range(i, 20, 4)) for i in range(4)]
    res = partition_bound_eval(random_gnp(20, 0.3, seed=8), parts,
                               winning_family("intersecting", 3), samples=150, seed=9,
                               mode="monte_carlo")
    assert (res.mode, res.estimate, res.stderr) == (
        "monte_carlo", 0.25733333333333336, 0.009090480635283392)


def test_chance_extremes():
    assert not any(chance(0.0, 7, i) for i in range(50))
    assert all(chance(1.0, 7, i) for i in range(50))


def test_chance_rate():
    hits = sum(chance(0.25, 99, i) for i in range(20_000))
    assert abs(hits - 5_000) < 450


def test_randrange_bounds_and_coverage():
    seen = {randrange(7, 11, i) for i in range(200)}
    assert seen == set(range(7))


def test_randrange_rejects_empty():
    import pytest

    with pytest.raises(ValueError):
        randrange(0, 1)
    for n in (0, -3):
        with pytest.raises(ValueError, match="randrange needs n >= 1"):
            randrange_row(4, n, 1)


def test_randrange_row_matches_randrange_bit_for_bit():
    wide = (1 << 70) + 12345
    for count in (0, 1, 16, 64, 129, 256):
        for n in (1, 3, 12, 1 << 40):
            for seed in (0, -wide, wide):
                for indices in ((), (3,), (1, 2), (9, 0, 4)):
                    row = randrange_row(count, n, seed, *indices)
                    assert row == [randrange(n, seed, *indices, v) for v in range(count)]
