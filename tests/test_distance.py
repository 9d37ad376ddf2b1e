import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from chunkbench.distance import (
    THRESHOLD_KINDS,
    ThresholdPolicy,
    consecutive_distances,
    gradient,
    pairwise_joint_distances,
    threshold,
)

from reference import (
    JointDistanceParams,
    cosine_clipped_distance,
    joint_distance,
    positional_distance,
    threshold_reference,
)

# Finite values from 1e-8 to 1e8 in size, and ties. -0.0 is left out (x + 0.0
# is +0.0): np.percentile's pick between tied zeros of either sign follows its
# partition, and distances and their gradients are never -0.0.
VALUES = st.lists(
    st.floats(-1e8, 1e8).map(lambda x: x + 0.0) | st.sampled_from([0.0, 0.25, 1.0]),
    min_size=1,
    max_size=40,
)


def unit_rows(rng, count, dim):
    mat = rng.normal(size=(count, dim))
    return mat / np.linalg.norm(mat, axis=1, keepdims=True)


class TestCosineClippedDistance:
    def test_identical_vectors_have_zero_distance(self):
        v = np.array([0.6, 0.8])
        assert cosine_clipped_distance(v, v) == pytest.approx(0.0, abs=1e-12)

    def test_orthogonal_vectors_have_distance_one(self):
        assert cosine_clipped_distance(np.array([1.0, 0.0]), np.array([0.0, 1.0])) == 1.0

    def test_opposed_vectors_clip_to_one(self):
        v = np.array([1.0, 0.0])
        assert cosine_clipped_distance(v, -v) == 1.0

    def test_halfway_pair(self):
        u = np.array([1.0, 0.0])
        v = np.array([np.sqrt(0.5), np.sqrt(0.5)])
        assert cosine_clipped_distance(u, v) == pytest.approx(1.0 - np.sqrt(0.5), abs=1e-12)

    def test_dimension_mismatch_raises(self):
        with pytest.raises(ValueError):
            cosine_clipped_distance(np.ones(3), np.ones(4))

    def test_random_range_and_symmetry(self, rng):
        vecs = unit_rows(rng, 40, 16)
        for _ in range(200):
            i, j = rng.integers(0, 40, size=2)
            d = cosine_clipped_distance(vecs[i], vecs[j])
            assert 0.0 <= d <= 1.0
            assert d == pytest.approx(cosine_clipped_distance(vecs[j], vecs[i]), abs=1e-12)


class TestPositionalDistance:
    def test_simple_gap(self):
        assert positional_distance(0, 5, 10) == 0.5

    def test_symmetric(self):
        assert positional_distance(7, 2, 9) == positional_distance(2, 7, 9)

    def test_same_index_is_zero(self):
        assert positional_distance(3, 3, 8) == 0.0

    def test_out_of_range_raises(self):
        with pytest.raises(ValueError):
            positional_distance(0, 5, 5)
        with pytest.raises(ValueError):
            positional_distance(-1, 0, 5)


class TestJointDistance:
    def test_weight_zero_is_purely_semantic(self, rng):
        vecs = unit_rows(rng, 10, 8)
        params = JointDistanceParams(positional_weight=0.0, sentence_count=10)
        for _ in range(50):
            a, b = (int(x) for x in rng.integers(0, 10, size=2))
            expected = cosine_clipped_distance(vecs[a], vecs[b])
            assert joint_distance(a, b, vecs[a], vecs[b], params) == expected

    def test_weight_one_is_purely_positional(self, rng):
        vecs = unit_rows(rng, 10, 8)
        params = JointDistanceParams(positional_weight=1.0, sentence_count=10)
        for _ in range(50):
            a, b = (int(x) for x in rng.integers(0, 10, size=2))
            expected = positional_distance(a, b, 10)
            assert joint_distance(a, b, vecs[a], vecs[b], params) == expected

    def test_blend_matches_convex_combination(self, rng):
        vecs = unit_rows(rng, 12, 8)
        for w in (0.25, 0.5, 0.75):
            params = JointDistanceParams(positional_weight=w, sentence_count=12)
            for _ in range(50):
                a, b = (int(x) for x in rng.integers(0, 12, size=2))
                expected = w * positional_distance(a, b, 12) + (1 - w) * cosine_clipped_distance(
                    vecs[a], vecs[b]
                )
                got = joint_distance(a, b, vecs[a], vecs[b], params)
                np.testing.assert_allclose(got, expected, atol=1e-12, rtol=0.0)
                assert 0.0 <= got <= 1.0

    def test_invalid_weight_rejected(self):
        with pytest.raises(ValueError):
            JointDistanceParams(positional_weight=1.5, sentence_count=4)
        with pytest.raises(ValueError):
            JointDistanceParams(positional_weight=-0.1, sentence_count=4)

    def test_invalid_count_rejected(self):
        with pytest.raises(ValueError):
            JointDistanceParams(positional_weight=0.5, sentence_count=0)


class TestPairwiseJointDistances:
    def test_matches_scalar_function(self, rng):
        vecs = unit_rows(rng, 9, 6)
        for w in (0.0, 0.3, 1.0):
            mat = pairwise_joint_distances(vecs, w)
            params = JointDistanceParams(positional_weight=w, sentence_count=9)
            for a in range(9):
                for b in range(9):
                    expected = joint_distance(a, b, vecs[a], vecs[b], params)
                    np.testing.assert_allclose(mat[a, b], expected, atol=1e-12, rtol=0.0)

    def test_zero_diagonal_and_symmetry(self, rng):
        vecs = unit_rows(rng, 7, 5)
        mat = pairwise_joint_distances(vecs, 0.4)
        np.testing.assert_allclose(np.diag(mat), np.zeros(7), atol=1e-12)
        np.testing.assert_allclose(mat, mat.T, atol=1e-12)

    def test_rejects_bad_shapes(self):
        with pytest.raises(ValueError):
            pairwise_joint_distances(np.ones(4), 0.5)
        with pytest.raises(ValueError):
            pairwise_joint_distances(np.ones((3, 3)), 1.5)


class TestConsecutiveDistances:
    def test_matches_pairwise_cosine(self, rng):
        vecs = unit_rows(rng, 8, 10)
        got = consecutive_distances(vecs)
        assert got.shape == (7,)
        for i in range(7):
            expected = cosine_clipped_distance(vecs[i], vecs[i + 1])
            np.testing.assert_allclose(got[i], expected, atol=1e-12, rtol=0.0)

    def test_needs_two_rows(self):
        with pytest.raises(ValueError):
            consecutive_distances(np.ones((1, 4)))


class TestGradient:
    def test_worked_example(self):
        got = gradient(np.array([0.1, 0.3, 0.2]))
        np.testing.assert_allclose(got, [0.2, 0.05, -0.1], atol=1e-12)

    def test_linear_ramp_has_constant_gradient(self):
        got = gradient(np.array([0.0, 0.1, 0.2, 0.3]))
        np.testing.assert_allclose(got, [0.1, 0.1, 0.1, 0.1], atol=1e-12)

    def test_matches_manual_stencil(self, rng):
        for _ in range(100):
            size = int(rng.integers(2, 20))
            values = rng.uniform(0, 1, size=size)
            got = gradient(values)
            expected = np.empty(size)
            expected[0] = values[1] - values[0]
            expected[-1] = values[-1] - values[-2]
            if size > 2:
                expected[1:-1] = (values[2:] - values[:-2]) / 2.0
            np.testing.assert_allclose(got, expected, atol=1e-12, rtol=0.0)

    def test_needs_two_values(self):
        with pytest.raises(ValueError):
            gradient(np.array([1.0]))


class TestThresholdPolicyValidation:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            ThresholdPolicy(kind="median", amount=1.0)

    def test_percentile_range_enforced(self):
        with pytest.raises(ValueError):
            ThresholdPolicy(kind="percentile", amount=101.0)
        with pytest.raises(ValueError):
            ThresholdPolicy(kind="gradient_percentile", amount=-1.0)

    def test_negative_amount_rejected(self):
        with pytest.raises(ValueError):
            ThresholdPolicy(kind="std_dev", amount=-0.5)

    def test_gradient_domain_flag(self):
        assert ThresholdPolicy(kind="gradient_percentile", amount=50.0).gradient_domain
        assert ThresholdPolicy(kind="absolute_gradient", amount=0.1).gradient_domain
        assert not ThresholdPolicy(kind="percentile", amount=50.0).gradient_domain
        assert not ThresholdPolicy(kind="absolute_distance", amount=0.1).gradient_domain


class TestThresholdValues:
    def test_percentile_frozen_examples(self):
        values = np.array([0.1, 0.2, 0.3, 0.4, 0.5])
        assert threshold(values, ThresholdPolicy("percentile", 50.0)) == pytest.approx(0.3)
        assert threshold(values, ThresholdPolicy("percentile", 90.0)) == pytest.approx(0.46)

    def test_percentile_matches_numpy_on_random_arrays(self, rng):
        for _ in range(100):
            values = rng.uniform(0, 1, size=int(rng.integers(1, 30)))
            amount = float(rng.uniform(0, 100))
            got = threshold(values, ThresholdPolicy("percentile", amount))
            np.testing.assert_allclose(got, np.percentile(values, amount), atol=1e-12)

    def test_std_dev_population_default(self):
        values = np.array([0.0, 1.0])
        got = threshold(values, ThresholdPolicy("std_dev", 2.0))
        # mean 0.5, population sigma 0.5
        assert got == pytest.approx(1.5, abs=1e-12)

    def test_interquartile_frozen_example(self):
        values = np.array([0.1, 0.2, 0.3, 0.4, 0.5])
        got = threshold(values, ThresholdPolicy("interquartile", 1.0))
        # mean 0.3 plus (0.4 - 0.2)
        assert got == pytest.approx(0.5, abs=1e-12)

    def test_interquartile_random_oracle(self, rng):
        for _ in range(100):
            values = rng.uniform(0, 1, size=int(rng.integers(1, 25)))
            amount = float(rng.uniform(0, 2))
            got = threshold(values, ThresholdPolicy("interquartile", amount))
            q25, q75 = np.percentile(values, [25, 75])
            np.testing.assert_allclose(got, values.mean() + amount * (q75 - q25), atol=1e-12)

    def test_gradient_percentile_uses_gradient_array(self):
        values = np.array([0.1, 0.3, 0.2])
        got = threshold(values, ThresholdPolicy("gradient_percentile", 100.0))
        assert got == pytest.approx(0.2, abs=1e-12)

    def test_a_given_slope_stands_for_the_gradient(self, rng):
        for _ in range(50):
            values = rng.uniform(0, 1, size=int(rng.integers(2, 30)))
            for kind in ("gradient_percentile", "percentile", "std_dev", "absolute_gradient"):
                policy = ThresholdPolicy(kind, float(rng.uniform(0, 100)))
                assert threshold(values, policy, gradient(values)) == threshold(values, policy)
        # Only gradient_percentile reads the slope.
        values = np.array([0.1, 0.3, 0.2])
        slope = np.array([5.0, 6.0])
        assert threshold(values, ThresholdPolicy("gradient_percentile", 100.0), slope) == 6.0
        assert threshold(values, ThresholdPolicy("percentile", 100.0), slope) == 0.3

    def test_absolute_kinds_return_amount(self):
        values = np.array([0.9, 0.8, 0.7])
        assert threshold(values, ThresholdPolicy("absolute_distance", 0.25)) == 0.25
        assert threshold(values, ThresholdPolicy("absolute_gradient", 0.05)) == 0.05

    def test_empty_values_rejected(self):
        with pytest.raises(ValueError):
            threshold(np.array([]), ThresholdPolicy("percentile", 50.0))


@settings(max_examples=500, derandomize=True, deadline=None, database=None)
@given(
    values=VALUES,
    slope=st.none() | VALUES,
    kind=st.sampled_from(THRESHOLD_KINDS),
    amount=st.sampled_from([0.0, 25.0, 50.0, 75.0, 100.0]) | st.floats(0.0, 100.0),
    nan=st.booleans(),
)
@example(values=[0.4], slope=None, kind="percentile", amount=0.0, nan=False)
@example(values=[0.4], slope=None, kind="interquartile", amount=1.5, nan=False)
@example(values=[0.1, 0.7], slope=None, kind="percentile", amount=100.0, nan=False)
@example(values=[0.1, 0.7], slope=[0.3, -0.2], kind="gradient_percentile", amount=0.0, nan=False)
@example(values=[0.2, 0.2, 0.2, 0.9], slope=None, kind="interquartile", amount=2.0, nan=False)
# From g = 0.5 on numpy interpolates down from b: a + (b - a) * g would give
# 0.52 and 0.7249999999999999 here, one ulp off.
@example(values=[0.1, 0.7], slope=None, kind="percentile", amount=70.0, nan=False)
@example(values=[0.2, 0.9], slope=None, kind="interquartile", amount=1.0, nan=False)
@example(values=[0.1, 0.5, 0.3], slope=None, kind="percentile", amount=50.0, nan=True)
@example(values=[0.1, 0.5], slope=[0.2, 0.1], kind="gradient_percentile", amount=30.0, nan=True)
def test_threshold_matches_the_numpy_reference_bit_for_bit(values, slope, kind, amount, nan):
    assume(kind != "gradient_percentile" or slope is not None or len(values) >= 2)
    if nan and kind == "gradient_percentile" and slope:
        slope = [math.nan, *slope[1:]]
    elif nan:
        values = [math.nan, *values[1:]]
    policy = ThresholdPolicy(kind, amount)
    got = threshold(np.array(values), policy, None if slope is None else np.array(slope))
    want = threshold_reference(values, policy, slope)
    if math.isnan(want):
        assert math.isnan(got)
    else:
        assert np.float64(got).tobytes() == np.float64(want).tobytes(), (got, want)
