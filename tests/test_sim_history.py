"""Tests for the historical-epoch simulation."""

from __future__ import annotations

import numpy as np
import pytest

from repro.datasets import zipf_dataset
from repro.exceptions import InvalidParameterError
from repro.protocols import GRR
from repro.sim.history import History, epoch_populations, simulate_history

D = 16
DATASET = zipf_dataset(domain_size=D, num_users=10_000, exponent=1.0, rng=2)


@pytest.fixture()
def proto():
    return GRR(epsilon=1.0, domain_size=D)


class TestSimulateHistory:
    def test_shape(self, proto):
        history = simulate_history(DATASET, proto, epochs=5, rng=0)
        assert history.estimates.shape == (5, D)
        assert history.num_epochs == 5

    def test_deterministic(self, proto):
        a = simulate_history(DATASET, proto, epochs=4, rng=7)
        b = simulate_history(DATASET, proto, epochs=4, rng=7)
        np.testing.assert_array_equal(a.estimates, b.estimates)

    def test_epochs_validation(self, proto):
        with pytest.raises(InvalidParameterError):
            simulate_history(DATASET, proto, epochs=1)

    def test_drift_validation(self, proto):
        with pytest.raises(InvalidParameterError):
            simulate_history(DATASET, proto, epochs=3, drift=1.0)

    def test_no_drift_keeps_dataset(self, proto):
        history = simulate_history(DATASET, proto, epochs=3, drift=0.0, rng=1)
        np.testing.assert_array_equal(history.final_dataset.counts, DATASET.counts)

    def test_drift_changes_counts_but_preserves_total(self, proto):
        history = simulate_history(DATASET, proto, epochs=5, drift=0.2, rng=1)
        assert history.final_dataset.num_users == DATASET.num_users
        assert not np.array_equal(history.final_dataset.counts, DATASET.counts)

    def test_mean_close_to_truth(self, proto):
        history = simulate_history(DATASET, proto, epochs=10, rng=3)
        np.testing.assert_allclose(history.mean(), DATASET.frequencies, atol=0.05)

    def test_feeds_outlier_detector(self, proto):
        from repro.attacks import MGAAttack
        from repro.sim import run_trial
        from repro.sim.outliers import ZScoreOutlierDetector

        history = simulate_history(DATASET, proto, epochs=12, rng=4)
        detector = ZScoreOutlierDetector(threshold=4.0).fit(history.estimates)
        attack = MGAAttack(domain_size=D, targets=[2, 9], rng=0)
        trial = run_trial(DATASET, proto, attack, beta=0.1, rng=50)
        detected = detector.detect(trial.poisoned_frequencies)
        assert {2, 9}.issubset(set(detected.tolist()))


class TestEpochPopulations:
    def test_drift_stream_is_a_function_of_the_seed(self):
        first = epoch_populations(DATASET, 4, drift=0.2, rng=5)
        again = epoch_populations(DATASET, 4, drift=0.2, rng=5)
        other = epoch_populations(DATASET, 4, drift=0.2, rng=6)
        for a, b in zip(first, again):
            np.testing.assert_array_equal(a.counts, b.counts)
        assert not np.array_equal(first[-1].counts, other[-1].counts)


class TestHistoryContainer:
    def test_mean_shape(self):
        history = History(
            estimates=np.ones((3, D)) / D, final_dataset=DATASET
        )
        assert history.mean().shape == (D,)
