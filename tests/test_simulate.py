import math
import random

import numpy as np
import pytest

from multijames import Contest, UndefinedContestError, p_n
from multijames.simulate import (
    MAX_ROUNDS,
    MAX_TRIALS,
    MIN_RESOLVED_TRIALS,
    AllTrialsAbandonedError,
    SimConfig,
    SimResult,
    _binomial,
    _log_pmf_ratio,
    estimate_p_n,
)

# Upper 1e-3 quantiles of the chi-squared law, by degrees of freedom.
CHI2_CRIT_1E3 = {
    1: 10.828, 2: 13.816, 3: 16.266, 4: 18.467, 5: 20.515, 6: 22.458, 7: 24.322,
    8: 26.124, 9: 27.877, 10: 29.588,
}


def literal_counts(probs, trials, max_rounds, rng):
    """Play the process round by round: the reference the simulator must match.

    Returns (wins per competitor, abandoned).  Unresolved trials are
    exchangeable, so only their count is tracked: each round redraws one
    row per still-active trial.
    """
    probs = np.asarray(probs, dtype=float)
    wins = np.zeros(probs.size, dtype=np.int64)
    active = trials
    for _ in range(max_rounds):
        if active == 0:
            break
        draws = rng.random((active, probs.size)) < probs
        decided = draws.sum(axis=1) == 1
        wins += np.bincount(draws[decided].argmax(axis=1), minlength=probs.size)
        active -= int(decided.sum())
    return wins, active


def chi2_homogeneity(row_a, row_b):
    """Pearson chi-squared statistic and degrees of freedom for a 2 x k table."""
    table = np.array([row_a, row_b], dtype=float)
    table = table[:, table.sum(axis=0) > 0]
    expected = table.sum(axis=1, keepdims=True) * table.sum(axis=0) / table.sum()
    return float(((table - expected) ** 2 / expected).sum()), table.shape[1] - 1


class TestLaw:
    # The (n + 2)-cell table of winner and abandoned counts must have one law
    # under the simulator and under the literal round loop.  The abandoned
    # counts across caps are the CDF of the rounds a trial takes.  Seeds and
    # sizes were fixed before the first run.
    TRIALS = 20_000

    @pytest.mark.parametrize("cap", [1, 2, 4, 8])
    @pytest.mark.parametrize(
        "contest", [Contest(0.5, (0.8, 0.5)), Contest(0.3, (0.6, 0.2, 0.45, 0.7))]
    )
    def test_matches_literal_process(self, contest, cap):
        probs = (contest.protagonist, *contest.opponents)
        wins, abandoned = literal_counts(
            probs, self.TRIALS, cap, np.random.default_rng(1000 + cap)
        )
        result = estimate_p_n(
            contest, SimConfig(trials=self.TRIALS, max_rounds_per_trial=cap, seed=2000 + cap)
        )
        sampled = [result.per_competitor_wins[i] for i in range(len(probs))]
        stat, dof = chi2_homogeneity(
            [*wins, abandoned], [*sampled, result.trials_abandoned]
        )
        assert dof == len(probs)
        assert stat < CHI2_CRIT_1E3[dof], (wins, abandoned, sampled, result.trials_abandoned)

    # P1 = 1e-323, and P1 underflowing to 0: no trial resolves within the
    # default cap, and no nan reaches the winner draw.
    @pytest.mark.parametrize(
        "contest", [Contest(5e-324, (5e-324,)), Contest(0.5, (0.999,) * 200)]
    )
    @pytest.mark.filterwarnings("error")
    def test_vanishing_round(self, contest):
        with pytest.raises(AllTrialsAbandonedError):
            estimate_p_n(contest, SimConfig(trials=1000))

    def test_many_opponents(self):
        contest = Contest(0.5, (0.01,) * 256)
        result = estimate_p_n(contest, SimConfig(trials=200_000, seed=17))
        assert result.trials_abandoned == 0
        assert sum(result.per_competitor_wins.values()) == 200_000
        assert abs(result.win_probability_estimate - p_n(contest)) < 4 * result.standard_error


class TestSimulateRound:
    # With one round per trial, each trial is a single round of the process.
    def test_sure_winner(self):
        # P1 = 1: the protagonist alone succeeds in every round.
        result = estimate_p_n(Contest(1.0, (0.0, 0.0)), SimConfig(trials=50, seed=0))
        assert result.win_probability_estimate == 1.0
        assert result.trials_abandoned == 0
        assert result.per_competitor_wins == {0: 50, 1: 0, 2: 0}

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

    def test_round_cap_raises(self):
        # 0.9 against 8 x 0.9: about 8e-4 of trials resolve in 10 000 rounds,
        # too few for an estimate (the true value is 1/9).
        with pytest.raises(AllTrialsAbandonedError):
            estimate_p_n(Contest(0.9, (0.9,) * 8), SimConfig(trials=1000, seed=0))

    def test_minimum_resolved(self):
        contest = Contest(1.0, (0.0,))
        result = estimate_p_n(contest, SimConfig(trials=MIN_RESOLVED_TRIALS))
        assert result.trials_completed == MIN_RESOLVED_TRIALS
        # Too few trials is a bad request, not a round-cap failure.
        with pytest.raises(ValueError, match="at least 30 trials"):
            estimate_p_n(contest, SimConfig(trials=MIN_RESOLVED_TRIALS - 1))

    def test_all_abandoned_raises(self):
        cfg = SimConfig(trials=100, max_rounds_per_trial=1, seed=0)
        with pytest.raises(AllTrialsAbandonedError):
            estimate_p_n(Contest(1e-12, (1e-12,)), cfg)

    def test_undefined_contest_rejected(self):
        with pytest.raises(UndefinedContestError):
            estimate_p_n(Contest(0.0, (0.0,)), SimConfig(trials=10))

    def test_same_seed_ignores_global_random_state(self):
        # Each run seeds its own generator, so the module-level random
        # stream between two runs does not change the result.
        c = Contest(0.6, (0.4,))
        r1 = estimate_p_n(c, SimConfig(trials=70_000, seed=11))
        random.seed(12)
        random.random()
        r2 = estimate_p_n(c, SimConfig(trials=70_000, seed=11))
        assert r1 == r2

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SimConfig(trials=0)
        with pytest.raises(ValueError):
            SimConfig(trials=1, max_rounds_per_trial=0)
        with pytest.raises(ValueError, match="trials must lie in"):
            SimConfig(trials=MAX_TRIALS + 1)
        with pytest.raises(ValueError, match="max_rounds_per_trial must lie in"):
            SimConfig(trials=1, max_rounds_per_trial=MAX_ROUNDS + 1)
        with pytest.raises(ValueError, match="seed must be >= 0"):
            SimConfig(trials=1, seed=-1)

    def test_max_trials(self):
        contest = Contest(0.6, (0.4,))
        result = estimate_p_n(contest, SimConfig(trials=MAX_TRIALS, seed=8))
        assert result.trials_completed + result.trials_abandoned == MAX_TRIALS
        assert abs(result.win_probability_estimate - p_n(contest)) < 5 * result.standard_error

    def test_max_rounds(self):
        # (1 - P1)^R underflows to 0 here, so no trial is abandoned.
        contest = Contest(0.6, (0.4,))
        result = estimate_p_n(contest, SimConfig(trials=1000, max_rounds_per_trial=MAX_ROUNDS))
        assert result.trials_abandoned == 0

    def test_result_trials_property(self):
        r = SimResult(0.5, 0.01, 90, 10, {0: 45, 1: 45})
        assert r.trials_completed + r.trials_abandoned == 100


class TestWilson:
    @pytest.mark.parametrize("p, n", [(0.156, 1000), (0.5, 30), (0.02, 50), (0.97, 400)])
    def test_matches_textbook_form(self, p, n):
        z = 1.959963984540054
        center = (p + z * z / (2 * n)) / (1 + z * z / n)
        half = z * np.sqrt(p * (1 - p) / n + z * z / (4 * n * n)) / (1 + z * z / n)
        low, high = SimResult(p, 0.0, n, 0).wilson_95
        assert low == pytest.approx(center - half, rel=1e-12)
        assert high == pytest.approx(center + half, rel=1e-12)
        assert low < p < high

    def test_no_wins_and_all_wins(self):
        assert SimResult(0.0, 0.0, 1000, 0).wilson_95 == (0.0, pytest.approx(3.8268e-3, rel=1e-4))
        assert SimResult(1.0, 0.0, 1000, 0).wilson_95 == (pytest.approx(1 - 3.8268e-3, rel=1e-6), 1.0)

    def test_covers_closed_form(self):
        contest = Contest(0.5, (0.8, 0.5))
        low, high = estimate_p_n(contest, SimConfig(trials=20_000, seed=4)).wilson_95
        assert low < p_n(contest) < high


def binomial_pmf(n, p, k):
    return math.exp(math.log(math.comb(n, k)) + k * math.log(p) + (n - k) * math.log1p(-p))


def equiprobable_cells(n, p, mass=0.1):
    """Cut 0..n into runs of consecutive counts, each of probability >= mass.

    Returns the upper count of every cell but the last, and the cell
    probabilities; only counts near the mean are enumerated.
    """
    mean, sd = n * p, math.sqrt(n * p * (1 - p))
    lo, hi = max(0, int(mean - 12 * sd - 20)), min(n, int(mean + 12 * sd + 20))
    uppers, probs, acc = [], [], 0.0
    for k in range(lo, hi + 1):
        acc += binomial_pmf(n, p, k)
        if acc >= mass and 1.0 - sum(probs) - acc >= mass:
            uppers.append(k)
            probs.append(acc)
            acc = 0.0
    return uppers, [*probs, 1.0 - sum(probs)]


class TestBinomialSampler:
    # One Binomial draw against the exact pmf, in about ten cells of equal
    # probability.  Seeds and sizes were fixed before the first run.
    DRAWS = 20_000

    @pytest.mark.parametrize(
        "n, p, seed",
        [
            (20, 0.1, 1),  # np < 10: the geometric method
            (1000, 0.3, 2),  # BTRS
            (1000, 0.8, 3),  # p > 1/2 draws n - Binomial(n, 1 - p)
            # log2(1 - p) would round 1 - p and put the mean 11% high.
            (2**52, 3e-16, 4),
        ],
    )
    def test_matches_pmf(self, n, p, seed):
        uppers, probs = equiprobable_cells(n, p)
        rng = random.Random(seed)
        counts = [0] * len(probs)
        for _ in range(self.DRAWS):
            k = _binomial(rng, n, p)
            assert 0 <= k <= n
            counts[sum(k > u for u in uppers)] += 1
        stat = sum((c - self.DRAWS * q) ** 2 / (self.DRAWS * q) for c, q in zip(counts, probs))
        dof = len(probs) - 1
        assert stat < CHI2_CRIT_1E3[dof], (counts, probs)

    def test_moments_at_large_n(self):
        n, p, draws = 2**40, 0.3, 4000
        rng = random.Random(5)
        xs = [_binomial(rng, n, p) for _ in range(draws)]
        mean = sum(xs) / draws
        var = sum((x - mean) ** 2 for x in xs) / (draws - 1)
        sd = math.sqrt(n * p * (1 - p))
        assert abs(mean - n * p) < 5 * sd / math.sqrt(draws)
        # The sample variance of normal draws has relative sd sqrt(2 / draws).
        assert abs(var / sd**2 - 1) < 5 * math.sqrt(2 / draws)

    @pytest.mark.parametrize("p", [0.3, 0.5, 1e-4])
    @pytest.mark.parametrize("n", [10**6, 2**40, 2**52])
    def test_log_pmf_ratio_against_mpmath(self, n, p):
        mpmath = pytest.importorskip("mpmath")
        m = math.floor((n + 1) * p)
        sd = math.sqrt(n * p * (1 - p))
        with mpmath.workdps(50):
            lpq = mpmath.log(mpmath.mpf(p) / (1 - mpmath.mpf(p)))
            for j in range(-8, 9):
                k = m + round(j * sd)
                exact = (
                    mpmath.loggamma(m + 1)
                    + mpmath.loggamma(n - m + 1)
                    - mpmath.loggamma(k + 1)
                    - mpmath.loggamma(n - k + 1)
                    + (k - m) * lpq
                )
                assert abs(_log_pmf_ratio(n, p, m, k) - float(exact)) <= 1e-6, (j, k)
