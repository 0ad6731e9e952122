import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kgs.decomposition import (
    Partition,
    all_dynamic_partition,
    classify,
    deformation_variance,
    evaluate_partition_schedule,
)
from kgs.gaussians import InvalidInputError


def two_pass_variance(samples):
    # independent oracle: explicit two-pass mean-then-variance loop
    T = samples.shape[0]
    n = samples.shape[1]
    out = np.zeros(n)
    for i in range(n):
        mean = np.zeros(3)
        for t in range(T):
            mean += samples[t, i]
        mean /= T
        acc = 0.0
        for t in range(T):
            d = samples[t, i] - mean
            acc += float(d @ d)
        out[i] = acc / T
    return out


class TestDeformationVariance:
    def test_constant_offsets(self):
        samples = np.tile(np.array([0.3, -0.1, 0.5]), (8, 4, 1))
        np.testing.assert_allclose(deformation_variance(samples), 0.0, atol=1e-30)

    def test_alternating_two_point(self):
        a = 0.7
        e = np.array([0.0, 1.0, 0.0])
        samples = np.stack([a * e if t % 2 == 0 else -a * e for t in range(10)])[:, None]
        np.testing.assert_allclose(deformation_variance(samples), [a**2], rtol=1e-12)

    def test_matches_two_pass_oracle(self):
        rng = np.random.default_rng(0)
        samples = rng.normal(0, 0.2, (16, 50, 3))
        got = deformation_variance(samples)
        np.testing.assert_allclose(got, two_pass_variance(samples), atol=1e-10)

    def test_requires_two_samples(self):
        with pytest.raises(InvalidInputError):
            deformation_variance(np.zeros((1, 4, 3)))

    def test_translation_invariant(self):
        rng = np.random.default_rng(1)
        samples = rng.normal(size=(12, 20, 3))
        shifted = samples + np.array([5.0, -2.0, 9.0])
        np.testing.assert_allclose(deformation_variance(samples),
                                   deformation_variance(shifted), atol=1e-12)

    @given(st.floats(0.1, 50.0))
    @settings(max_examples=50, deadline=None)
    def test_quadratic_scaling(self, c):
        rng = np.random.default_rng(2)
        samples = rng.normal(size=(8, 10, 3))
        base = deformation_variance(samples)
        scaled = deformation_variance(c * samples)
        np.testing.assert_allclose(scaled, c**2 * base, rtol=1e-9)


class TestClassify:
    def test_all_static(self):
        p = classify(np.zeros(5), 2e-5)
        assert p.dynamic_indices.size == 0
        np.testing.assert_array_equal(p.dynamic, np.zeros(5, dtype=bool))

    def test_split(self):
        p = classify(np.array([0.0, 1e-3]), 2e-5)
        np.testing.assert_array_equal(p.dynamic_indices, [1])
        np.testing.assert_array_equal(p.dynamic, [False, True])

    def test_tau_zero_all_positive_dynamic(self):
        p = classify(np.array([0.5, 0.1, 2.0]), 0.0)
        assert p.dynamic.all()

    def test_partition_invariants(self):
        rng = np.random.default_rng(3)
        scores = rng.uniform(0, 1e-4, 100)
        p = classify(scores, 2e-5)
        assert p.dynamic.shape == (100,) and p.dynamic.dtype == bool
        np.testing.assert_array_equal(p.dynamic_indices, np.flatnonzero(p.dynamic))
        assert np.all(scores[p.dynamic] > 2e-5)
        assert np.all(scores[~p.dynamic] <= 2e-5)

    def test_monotone_in_tau(self):
        rng = np.random.default_rng(4)
        scores = rng.uniform(0, 1e-4, 200)
        lo = set(classify(scores, 1e-5).dynamic_indices)
        hi = set(classify(scores, 3e-5).dynamic_indices)
        assert hi <= lo


class TestSchedule:
    def test_before_warmup(self):
        assert not evaluate_partition_schedule(0, 3000, 2000)
        assert not evaluate_partition_schedule(2999, 3000, 2000)

    def test_first_trigger(self):
        assert evaluate_partition_schedule(3000, 3000, 2000)

    def test_period(self):
        assert evaluate_partition_schedule(5000, 3000, 2000)
        assert not evaluate_partition_schedule(5001, 3000, 2000)
        assert evaluate_partition_schedule(7000, 3000, 2000)

    def test_initial_partition_all_dynamic(self):
        p = all_dynamic_partition(7)
        assert p.dynamic.all() and p.dynamic.shape == (7,)
        np.testing.assert_array_equal(p.dynamic_indices, np.arange(7))

