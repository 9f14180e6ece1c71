import numpy as np
import pytest

from multijames import Contest, UndefinedContestError, p_n
from multijames.simulate import (
    AllTrialsAbandonedError,
    SimConfig,
    SimResult,
    estimate_p_n,
)


class TestSimulateRound:
    # With one round per trial, each trial is a single round of the process.
    def test_sure_winner(self):
        result = estimate_p_n(Contest(1.0, (0.0, 0.0)), SimConfig(trials=50, seed=0))
        assert result.win_probability_estimate == 1.0
        assert result.trials_abandoned == 0

    def test_even_pair_distribution(self):
        # Four equally likely draw patterns: winner 0, winner 1, or no winner
        # (both or neither succeed), with probabilities 1/4, 1/4, 1/2.
        trials = 40_000
        cfg = SimConfig(trials=trials, max_rounds_per_trial=1, seed=123)
        result = estimate_p_n(Contest(0.5, (0.5,)), cfg)
        assert result.per_competitor_wins[0] / trials == pytest.approx(0.25, abs=0.01)
        assert result.per_competitor_wins[1] / trials == pytest.approx(0.25, abs=0.01)
        assert result.trials_abandoned / trials == pytest.approx(0.5, abs=0.01)


class TestEstimate:
    def test_determinism(self):
        c = Contest(0.5, (0.8, 0.5))
        cfg = SimConfig(trials=50_000, seed=42)
        assert estimate_p_n(c, cfg) == estimate_p_n(c, cfg)

    def test_seed_changes_result(self):
        c = Contest(0.5, (0.8, 0.5))
        r1 = estimate_p_n(c, SimConfig(trials=50_000, seed=1))
        r2 = estimate_p_n(c, SimConfig(trials=50_000, seed=2))
        assert r1.per_competitor_wins != r2.per_competitor_wins

    @pytest.mark.parametrize(
        "contest",
        [
            Contest(0.5, (0.5, 0.5)),
            Contest(0.5, (0.8, 0.5)),
            Contest(0.6, (0.4,)),
        ],
    )
    def test_within_sampling_error(self, contest):
        result = estimate_p_n(contest, SimConfig(trials=200_000, seed=7))
        closed = p_n(contest)
        assert abs(result.win_probability_estimate - closed) < 4 * result.standard_error

    def test_per_competitor_frequencies(self):
        contest = Contest(0.5, (0.8, 0.5))
        result = estimate_p_n(contest, SimConfig(trials=200_000, seed=9))
        pcts = (contest.protagonist,) + contest.opponents
        for i, pct in enumerate(pcts):
            rotated = Contest(pct, tuple(p for j, p in enumerate(pcts) if j != i))
            target = p_n(rotated)
            freq = result.per_competitor_wins[i] / result.trials_completed
            se = np.sqrt(target * (1 - target) / result.trials_completed)
            assert abs(freq - target) < 5 * se

    def test_counts_are_consistent(self):
        result = estimate_p_n(Contest(0.5, (0.5,)), SimConfig(trials=10_000, seed=3))
        assert sum(result.per_competitor_wins.values()) == result.trials_completed
        assert result.trials_completed + result.trials_abandoned == 10_000

    def test_abandonment_reported(self):
        # One round only: half of all (0.5; 0.5) trials never resolve.
        cfg = SimConfig(trials=20_000, max_rounds_per_trial=1, seed=5)
        result = estimate_p_n(Contest(0.5, (0.5,)), cfg)
        assert result.trials_abandoned / 20_000 == pytest.approx(0.5, abs=0.02)
        assert result.trials_completed + result.trials_abandoned == 20_000

    def test_all_abandoned_raises(self):
        cfg = SimConfig(trials=100, max_rounds_per_trial=1, seed=0)
        with pytest.raises(AllTrialsAbandonedError):
            estimate_p_n(Contest(1e-12, (1e-12,)), cfg)

    def test_undefined_contest_rejected(self):
        with pytest.raises(UndefinedContestError):
            estimate_p_n(Contest(0.0, (0.0,)), SimConfig(trials=10))

    def test_batching_does_not_change_totals(self):
        # Identical seed and batch size give identical merged results even
        # when trials do not divide evenly into batches.
        c = Contest(0.6, (0.4,))
        r1 = estimate_p_n(c, SimConfig(trials=70_000, seed=11, batch_size=1 << 14))
        r2 = estimate_p_n(c, SimConfig(trials=70_000, seed=11, batch_size=1 << 14))
        assert r1 == r2

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SimConfig(trials=0)
        with pytest.raises(ValueError):
            SimConfig(trials=1, max_rounds_per_trial=0)

    def test_result_trials_property(self):
        r = SimResult(0.5, 0.01, 90, 10, {0: 45, 1: 45})
        assert r.trials == 100
