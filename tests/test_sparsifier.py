import copy

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from sparsepg import problem as pb
from sparsepg import sparsifier as sf
from sparsepg.rng import stream


class TestUniformDistribution:
    def test_full_selection(self):
        dist = sf.uniform_distribution(3, 1.0)
        assert dist.p == pytest.approx([1, 1, 1])
        assert (dist.p_min, dist.p_max) == (1.0, 1.0)

    def test_constant_vector(self):
        dist = sf.uniform_distribution(2, 0.25)
        assert (dist.p_min, dist.p_max) == (0.25, 0.25)

    @pytest.mark.parametrize("pi", [0.0, -0.1, 1.5])
    def test_range_validation(self, pi):
        with pytest.raises(ValueError):
            sf.uniform_distribution(3, pi)

    def test_empirical_frequency(self):
        dist = sf.uniform_distribution(4, 0.37)
        rng = stream(0, 9)
        hits = np.zeros(4)
        n = 100_000
        for _ in range(n):
            hits[sf.draw_mask(dist, rng)] += 1
        assert np.all(np.abs(hits / n - 0.37) < 0.01)


class TestAdaptiveDistribution:
    def test_example(self):
        dist = sf.adaptive_distribution(np.array([0.0, 0.0, 5.0]), c=1.0)
        assert dist.p == pytest.approx([0.5, 0.5, 1.0])

    def test_all_nonzero(self):
        dist = sf.adaptive_distribution(np.array([1.0, -2.0]), c=1.0)
        assert dist.p == pytest.approx([1.0, 1.0])

    def test_zero_center_full_budget(self):
        dist = sf.adaptive_distribution(np.zeros(7), c=7.0)
        assert dist.p == pytest.approx(np.ones(7))

    def test_c_validation(self):
        for c in (0.0, -1.0, np.nan):
            with pytest.raises(ValueError):
                sf.adaptive_distribution(np.zeros(3), c=c)

    @pytest.mark.parametrize("center, c", [
        (np.zeros(6), 2.0),
        (np.array([1.0, -2.0, 0.5]), 1.0),
        (np.array([-0.0, 0.0, 1.0, np.nan, 0.0, 2.5]), 1.5),
        (np.array([0.0, 3.0, 0.0, -0.0, 0.0]), 4.0),
        (np.array([0.0, 3.0, 0.0, -0.0, 0.0]), 10.0),
        (np.array([0.0, 1e-300, -np.inf, 0.0]), 0.3),
    ])
    def test_matches_null_index_construction(self, center, c):
        """Same bits as p = 1, then min(c/|null|, 1) written on null(center)."""
        null = pb.null_pattern(center)
        want = np.ones(center.size)
        if null.size > 0:
            want[null] = min(c / null.size, 1.0)
        dist = sf.adaptive_distribution(center, c)
        assert dist.p.dtype == want.dtype and dist.p.tobytes() == want.tobytes()
        assert (dist.p_min, dist.p_max) == (want.min(), want.max())

    @settings(max_examples=40, deadline=None)
    @given(
        nz=st.lists(st.integers(0, 9), max_size=9, unique=True),
        c=st.floats(0.1, 20),
    )
    def test_at_most_two_distinct_values(self, nz, c):
        center = np.zeros(10)
        center[nz] = 1.0
        dist = sf.adaptive_distribution(center, c)
        assert len(np.unique(dist.p)) <= 2
        assert np.all(dist.p[center != 0] == 1.0)


class TestDrawMask:
    def test_certainty(self):
        dist = sf.uniform_distribution(2, 1.0)
        rng = stream(1, 2)
        for _ in range(20):
            assert list(sf.draw_mask(dist, rng)) == [0, 1]

    def test_near_zero_probability(self):
        dist = sf.SelectorDistribution(p=np.full(5, 1e-12))
        rng = stream(2, 3)
        assert sum(sf.draw_mask(dist, rng).size for _ in range(100)) == 0

    def test_chi_square_per_coordinate(self):
        p = np.array([0.2, 0.5, 0.8])
        dist = sf.SelectorDistribution(p=p)
        rng = stream(3, 4)
        n = 100_000
        hits = np.zeros(3)
        for _ in range(n):
            hits[sf.draw_mask(dist, rng)] += 1
        for j in range(3):
            chi2 = ((hits[j] - n * p[j]) ** 2) / (n * p[j]) + \
                ((n - hits[j] - n * (1 - p[j])) ** 2) / (n * (1 - p[j]))
            assert stats.chi2.sf(chi2, df=1) > 0.001

    def test_expected_mask_size(self):
        rng0 = np.random.default_rng(5)
        p = rng0.uniform(0.05, 0.95, size=12)
        dist = sf.SelectorDistribution(p=p)
        rng = stream(4, 5)
        n = 10_000
        sizes = [sf.draw_mask(dist, rng).size for _ in range(n)]
        mean, expected = np.mean(sizes), p.sum()
        sigma = np.sqrt(np.sum(p * (1 - p)) / n)
        assert abs(mean - expected) < 3 * sigma

    def test_matches_flatnonzero_on_cloned_generator(self):
        """Masks are the indices of u < p, and the stream advances by d draws
        per mask."""
        dist = sf.adaptive_distribution(np.repeat([0.0, 1.0, 0.0, 0.0, -0.0], 20), c=9.0)
        rng = stream(7, 8)
        clone = copy.deepcopy(rng)
        for _ in range(50):
            mask = sf.draw_mask(dist, rng)
            want = np.flatnonzero(clone.random(dist.d) < dist.p)
            assert mask.dtype == want.dtype and np.array_equal(mask, want)
        assert np.array_equal(rng.random(16), clone.random(16))

    def test_sorted_unique(self):
        dist = sf.uniform_distribution(20, 0.5)
        rng = stream(6, 7)
        mask = sf.draw_mask(dist, rng)
        assert np.all(np.diff(mask) > 0)


class TestMinConditioning:
    def test_full_selection(self):
        assert sf.min_conditioning(1.0) == pytest.approx(0.0)

    def test_quarter(self):
        assert sf.min_conditioning(0.25) == pytest.approx(1 / 3)

    def test_monotone_decreasing(self):
        grid = np.linspace(0.01, 1.0, 50)
        vals = [sf.min_conditioning(g) for g in grid]
        assert np.all(np.diff(vals) < 0)

    def test_range_validation(self):
        with pytest.raises(ValueError):
            sf.min_conditioning(0.0)


class TestValidation:
    def test_probability_range(self):
        with pytest.raises(ValueError):
            sf.SelectorDistribution(p=np.array([0.5, 0.0]))
        with pytest.raises(ValueError):
            sf.SelectorDistribution(p=np.array([0.5, 1.1]))
        for p in ([0.5, np.nan], [np.nan], [np.nan, 1.0, 0.2]):
            with pytest.raises(ValueError):
                sf.SelectorDistribution(p=np.array(p))

    def test_convergence_gap(self):
        dist = sf.uniform_distribution(3, 0.5)
        assert sf.convergence_gap_ok(dist, gamma=1.0, mu=1.0)  # (1-1)^2 = 0 < 1
        assert sf.convergence_gap_ok(dist, gamma=1.0, mu=0.0)  # equality: 1 >= (1-0)^2
        uneven = sf.SelectorDistribution(p=np.array([0.1, 1.0]))
        assert not sf.convergence_gap_ok(uneven, gamma=0.01, mu=0.1)
