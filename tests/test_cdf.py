"""Unit and property tests for repro.common.cdf."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.cdf import Cdf


class TestBasics:
    def test_empty_cdf(self):
        cdf = Cdf()
        assert cdf.count == 0
        assert cdf.fraction_at_or_below(10.0) == 0.0
        with pytest.raises(ValueError):
            cdf.value_at_fraction(0.5)

    def test_single_sample(self):
        cdf = Cdf()
        cdf.add(5.0)
        assert cdf.fraction_at_or_below(4.9) == 0.0
        assert cdf.fraction_at_or_below(5.0) == 1.0
        assert cdf.median() == 5.0

    def test_uniform_samples(self):
        cdf = Cdf()
        cdf.extend([1.0, 2.0, 3.0, 4.0])
        assert cdf.fraction_at_or_below(2.0) == pytest.approx(0.5)
        assert cdf.fraction_at_or_below(3.5) == pytest.approx(0.75)

    def test_weights(self):
        cdf = Cdf()
        cdf.add(1.0, weight=1.0)
        cdf.add(10.0, weight=3.0)
        assert cdf.fraction_at_or_below(1.0) == pytest.approx(0.25)
        assert cdf.fraction_at_or_below(9.9) == pytest.approx(0.25)

    def test_zero_weight_ignored(self):
        cdf = Cdf()
        cdf.add(1.0, weight=0.0)
        assert cdf.count == 0

    def test_negative_weight_raises(self):
        with pytest.raises(ValueError):
            Cdf().add(1.0, weight=-2.0)

    def test_duplicate_values_merge(self):
        cdf = Cdf()
        cdf.extend([2.0, 2.0, 2.0])
        assert cdf.fraction_at_or_below(2.0) == 1.0
        assert len(cdf.points()) == 1

    def test_add_after_query_rebuilds(self):
        cdf = Cdf()
        cdf.add(1.0)
        assert cdf.fraction_at_or_below(1.0) == 1.0
        cdf.add(3.0)
        assert cdf.fraction_at_or_below(1.0) == pytest.approx(0.5)


class TestQuantiles:
    def test_value_at_fraction_inverse(self):
        cdf = Cdf()
        cdf.extend(range(1, 101))
        assert cdf.value_at_fraction(0.5) == 50
        assert cdf.value_at_fraction(1.0) == 100
        assert cdf.value_at_fraction(0.0) == 1

    def test_fraction_out_of_range(self):
        cdf = Cdf()
        cdf.add(1.0)
        with pytest.raises(ValueError):
            cdf.value_at_fraction(1.5)


class TestPoints:
    def test_points_cover_extremes(self):
        cdf = Cdf()
        cdf.extend(range(1000))
        points = cdf.points(max_points=10)
        assert points[0].value == 0
        assert points[-1].value == 999
        assert points[-1].fraction == pytest.approx(1.0)
        assert len(points) <= 10

    def test_points_small_sample_all_returned(self):
        cdf = Cdf()
        cdf.extend([1, 2, 3])
        assert len(cdf.points()) == 3

    def test_points_requires_two(self):
        cdf = Cdf()
        cdf.add(1.0)
        with pytest.raises(ValueError):
            cdf.points(max_points=1)


@given(st.lists(st.floats(min_value=-1e9, max_value=1e9), min_size=1, max_size=300))
@settings(max_examples=100, deadline=None)
def test_cdf_monotone_property(values):
    cdf = Cdf()
    cdf.extend(values)
    probes = sorted(set(values))
    fractions = [cdf.fraction_at_or_below(p) for p in probes]
    assert all(a <= b for a, b in zip(fractions, fractions[1:]))
    assert fractions[-1] == pytest.approx(1.0)


@given(
    st.lists(
        st.tuples(
            st.floats(min_value=0, max_value=1e6),
            st.floats(min_value=0.001, max_value=1e3),
        ),
        min_size=1,
        max_size=100,
    ),
    st.floats(min_value=0.0, max_value=1.0),
)
@settings(max_examples=100, deadline=None)
def test_quantile_roundtrip_property(samples, fraction):
    cdf = Cdf()
    for value, weight in samples:
        cdf.add(value, weight=weight)
    value = cdf.value_at_fraction(fraction)
    # The CDF at the returned value must reach the requested fraction.
    assert cdf.fraction_at_or_below(value) >= fraction - 1e-9
