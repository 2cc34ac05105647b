import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bestsubset.metrics import (
    accuracy,
    concordance_index,
    relative_mse,
    tp_fp,
)
from conftest import comparable_pairs, reference_concordance


class TestTpFp:
    def test_perfect_selection(self):
        assert tp_fp({1, 2, 5, 9}, {1, 2, 5, 9}) == (4, 0)

    def test_empty_selection(self):
        assert tp_fp(set(), {1, 9}) == (0, 0)

    def test_partial_overlap(self):
        assert tp_fp({1, 2, 3}, {1, 9}) == (1, 2)

    def test_counts_partition_selection(self):
        tp, fp = tp_fp({0, 4, 7, 9}, {4, 5})
        assert tp + fp == 4


class TestRelativeMse:
    def setup_method(self):
        rng = np.random.default_rng(5)
        self.X = rng.standard_normal((40, 6))
        self.beta = rng.standard_normal(6)

    def test_exact_recovery_is_zero(self):
        assert relative_mse(self.X, self.beta, self.beta) == 0.0

    def test_zero_estimate_is_one(self):
        assert relative_mse(self.X, np.zeros(6), self.beta) == pytest.approx(1.0)

    def test_doubling_is_one(self):
        assert relative_mse(self.X, 2 * self.beta, self.beta) == pytest.approx(1.0)

    @given(st.floats(-10, 10))
    @settings(max_examples=50, deadline=None)
    def test_homogeneity_identity(self, c):
        value = relative_mse(self.X, c * self.beta, self.beta)
        assert value == pytest.approx(abs(c - 1.0), abs=1e-9)

    def test_null_signal_rejected(self):
        with pytest.raises(ValueError, match="null true signal"):
            relative_mse(self.X, self.beta, np.zeros(6))


class TestAccuracy:
    def test_perfect(self):
        y = np.array([0, 1, 1, 0.0])
        assert accuracy(np.array([0.1, 0.9, 0.8, 0.2]), y) == 1.0

    def test_inverted(self):
        y = np.array([0, 1, 1, 0.0])
        assert accuracy(np.array([0.9, 0.1, 0.2, 0.8]), y) == 0.0

    def test_threshold_ties_go_to_class_one(self):
        y = np.array([1.0, 1.0, 0.0, 0.0])
        assert accuracy(np.full(4, 0.5), y) == 0.5

    def test_monotone_transform_invariance(self):
        rng = np.random.default_rng(11)
        prob = rng.uniform(size=50)
        y = (rng.uniform(size=50) < prob).astype(float)
        base = accuracy(prob, y)
        # a strictly increasing map fixing the threshold preimage {0.5}
        warped = 0.5 + 0.5 * np.sign(prob - 0.5) * np.abs(prob - 0.5) ** 0.7
        assert accuracy(warped, y) == base


class TestConcordance:
    def test_perfect_ranking(self):
        time = np.array([1.0, 2.0, 3.0, 4.0])
        status = np.ones(4)
        risk = np.array([4.0, 3.0, 2.0, 1.0])
        assert concordance_index(risk, time, status) == 1.0
        assert reference_concordance(risk, time, status) == 1.0

    def test_constant_risk_is_half(self):
        time = np.array([1.0, 2.0, 3.0])
        assert concordance_index(np.ones(3), time, np.ones(3)) == 0.5
        assert reference_concordance(np.ones(3), time, np.ones(3)) == 0.5

    def test_hand_case_with_censoring(self):
        # pairs: (0,1),(0,2),(0,3) from event at t=1; (2,3) from event at t=3.
        # obs 1 is censored at t=2 so it anchors no pairs.
        time = np.array([1.0, 2.0, 3.0, 4.0])
        status = np.array([1.0, 0.0, 1.0, 1.0])
        risk = np.array([3.0, 1.0, 2.0, 2.0])
        # concordant: (0,1), (0,2), (0,3); tie: (2,3) -> (3 + 0.5) / 4
        assert concordance_index(risk, time, status) == 3.5 / 4
        assert reference_concordance(risk, time, status) == 3.5 / 4

    def test_monotone_transform_invariance(self):
        rng = np.random.default_rng(13)
        time = rng.uniform(0.1, 5.0, 30)
        status = (rng.uniform(size=30) < 0.8).astype(float)
        status[0] = 1.0
        risk = rng.uniform(0.1, 2.0, 30)
        base = concordance_index(risk, time, status)
        assert concordance_index(np.exp(3 * risk), time, status) == base
        assert reference_concordance(risk, time, status) == base

    def test_comparable_pairs_hand_case(self):
        # 0 is an event before 1 and 2; 1 is censored; 2 ties 3 in time
        time = np.array([1.0, 2.0, 3.0, 3.0])
        status = np.array([1.0, 0.0, 1.0, 1.0])
        expected = np.zeros((4, 4), dtype=bool)
        expected[0, 1:] = True
        np.testing.assert_array_equal(comparable_pairs(time, status), expected)

    def test_no_comparable_pairs(self):
        for concordance in (concordance_index, reference_concordance):
            with pytest.raises(ValueError, match="no comparable pairs"):
                concordance(
                    np.array([1.0, 2.0]), np.array([1.0, 2.0]), np.array([0.0, 1.0])
                )

    @given(st.data())
    @settings(max_examples=300, deadline=None)
    def test_equals_the_pairwise_reference(self, data):
        # exact equality: the same counts make the same float; times and
        # risks are drawn from few values so that ties are common
        n = data.draw(st.integers(0, 30))
        times = st.sampled_from([0.5, 1.0, 1.0, 2.0, 3.5, 7.0])
        risks = st.one_of(
            st.sampled_from([-1.0, 0.0, 0.0, 2.0, np.inf, -np.inf, np.nan]),
            st.floats(allow_nan=True, allow_infinity=True),
        )
        time = np.array(data.draw(st.lists(times, min_size=n, max_size=n)))
        risk = np.array(data.draw(st.lists(risks, min_size=n, max_size=n)))
        status = np.array(data.draw(st.lists(st.sampled_from([0.0, 1.0]), min_size=n, max_size=n)))
        try:
            want = reference_concordance(risk, time, status)
        except ValueError as exc:
            with pytest.raises(ValueError, match=str(exc)):
                concordance_index(risk, time, status)
        else:
            assert concordance_index(risk, time, status) == want


@pytest.mark.parametrize(
    "make, message",
    [(lambda: accuracy([0.5], [1.0, 0.0]), "prob and y must have equal length")],
    ids=["accuracy-lengths"],
)
def test_input_check_messages(make, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        make()
