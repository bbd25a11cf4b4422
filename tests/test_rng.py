"""Unit and property tests for repro.common.rng."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.rng import RngStream


class TestDeterminism:
    def test_same_seed_same_sequence(self):
        a = RngStream.root(7)
        b = RngStream.root(7)
        assert [a.random() for _ in range(10)] == [b.random() for _ in range(10)]

    def test_different_seeds_differ(self):
        a = RngStream.root(7)
        b = RngStream.root(8)
        assert [a.random() for _ in range(5)] != [b.random() for _ in range(5)]

    def test_fork_is_deterministic(self):
        a = RngStream.root(7).fork("child")
        b = RngStream.root(7).fork("child")
        assert a.random() == b.random()

    def test_fork_does_not_consume_parent_state(self):
        parent = RngStream.root(7)
        before = RngStream.root(7)
        parent.fork("x")
        parent.fork("y")
        assert parent.random() == before.random()

    def test_fork_order_independent(self):
        root_a = RngStream.root(7)
        root_b = RngStream.root(7)
        x1 = root_a.fork("x")
        root_b.fork("y")
        x2 = root_b.fork("x")
        assert x1.random() == x2.random()

    def test_sibling_forks_are_independent(self):
        root = RngStream.root(7)
        values_a = [root.fork("a").random() for _ in range(1)]
        values_b = [root.fork("b").random() for _ in range(1)]
        assert values_a != values_b

    def test_nested_fork_distinct_from_flat(self):
        root = RngStream.root(7)
        nested = root.fork("a").fork("b")
        flat = root.fork("a/b")
        # Paths are the same string; they must agree (stable contract).
        assert nested.key == flat.key


class TestDistributions:
    def test_uniform_within_bounds(self):
        rng = RngStream.root(1)
        for _ in range(100):
            value = rng.uniform(2.0, 3.0)
            assert 2.0 <= value <= 3.0

    def test_randint_within_bounds(self):
        rng = RngStream.root(1)
        values = {rng.randint(1, 3) for _ in range(200)}
        assert values == {1, 2, 3}

    def test_exponential_mean(self):
        rng = RngStream.root(2)
        values = [rng.exponential(10.0) for _ in range(5000)]
        assert 9.0 < sum(values) / len(values) < 11.0

    def test_exponential_rejects_bad_mean(self):
        with pytest.raises(ValueError):
            RngStream.root(1).exponential(0.0)

    def test_lognormal_median(self):
        rng = RngStream.root(3)
        values = sorted(rng.lognormal(math.log(100.0), 0.5) for _ in range(5001))
        median = values[len(values) // 2]
        assert 85 < median < 115

    def test_poisson_zero_mean(self):
        assert RngStream.root(1).poisson(0.0) == 0

    def test_poisson_mean_small(self):
        rng = RngStream.root(5)
        values = [rng.poisson(3.0) for _ in range(5000)]
        assert 2.8 < sum(values) / len(values) < 3.2

    def test_poisson_mean_large_uses_normal_approx(self):
        rng = RngStream.root(6)
        values = [rng.poisson(500.0) for _ in range(500)]
        mean = sum(values) / len(values)
        assert 480 < mean < 520

    def test_poisson_rejects_negative(self):
        with pytest.raises(ValueError):
            RngStream.root(1).poisson(-1.0)

    def test_bernoulli_bounds(self):
        rng = RngStream.root(7)
        assert not any(rng.bernoulli(0.0) for _ in range(50))
        assert all(rng.bernoulli(1.0) for _ in range(50))

    def test_bernoulli_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            RngStream.root(1).bernoulli(1.5)

    def test_weighted_choice_respects_zero_weight(self):
        rng = RngStream.root(8)
        values = {rng.weighted_choice(["a", "b"], [1.0, 0.0]) for _ in range(50)}
        assert values == {"a"}


class TestZipf:
    def test_zipf_rank_in_range(self):
        rng = RngStream.root(9)
        for _ in range(200):
            assert 0 <= rng.zipf_rank(10) < 10

    def test_zipf_rank_zero_most_popular(self):
        rng = RngStream.root(10)
        counts = [0] * 5
        for _ in range(5000):
            counts[rng.zipf_rank(5)] += 1
        assert counts[0] == max(counts)
        assert counts[0] > 2 * counts[4]

    def test_zipf_rejects_empty_population(self):
        with pytest.raises(ValueError):
            RngStream.root(1).zipf_rank(0)

    def test_zipf_single_item(self):
        assert RngStream.root(1).zipf_rank(1) == 0


@given(seed=st.integers(min_value=0, max_value=2**32), name=st.text(min_size=1, max_size=20))
@settings(max_examples=50, deadline=None)
def test_fork_reproducible_property(seed, name):
    a = RngStream.root(seed).fork(name)
    b = RngStream.root(seed).fork(name)
    assert a.random() == b.random()


@given(
    low=st.integers(min_value=-1000, max_value=1000),
    span=st.integers(min_value=0, max_value=1000),
)
@settings(max_examples=50, deadline=None)
def test_randint_bounds_property(low, span):
    rng = RngStream.root(42)
    value = rng.randint(low, low + span)
    assert low <= value <= low + span
