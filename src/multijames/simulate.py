"""Monte Carlo oracle for the multi-opponent win probability.

The process: in each round every competitor independently succeeds with
its percentage s_i; a round with exactly one success declares that
competitor the winner, and any other round is replayed, up to a cap of R
rounds per trial.

The simulator samples the exact law of that process without playing its
rounds.  Competitor i alone succeeds in a round with probability
w_i = s_i * prod_{j != i} (1 - s_j), so a round is decisive with
probability P1 = sum_i w_i.  Rounds are independent, so a trial is decided
after a Geometric(P1) number of rounds, and the winner of the deciding
round is i with probability w_i / P1 however many rounds it took.  A trial
is therefore abandoned with probability (1 - P1)^R, and a batch of trials
takes two draws: a Binomial count of abandoned trials, then Multinomial
winner counts over the rest.  Only the per-round Bernoulli model enters,
never the closed form, so the estimate can validate the closed-form
evaluators.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .core import Contest, ContestClass, UndefinedContestError, classify_contest

__all__ = [
    "MIN_RESOLVED_TRIALS",
    "AllTrialsAbandonedError",
    "SimConfig",
    "SimResult",
    "estimate_p_n",
]

# Below this many resolved trials the plug-in standard error means nothing.
MIN_RESOLVED_TRIALS = 30
# The standard normal quantile for a two-sided 95% interval.
_Z95 = 1.959963984540054


class AllTrialsAbandonedError(RuntimeError):
    """The round cap left fewer than MIN_RESOLVED_TRIALS trials with a winner."""


@dataclass(frozen=True)
class SimConfig:
    trials: int
    max_rounds_per_trial: int = 10_000
    seed: int = 0
    # Trials are split into fixed-size batches, each with its own RNG stream
    # derived from (seed, batch_index), so results do not depend on how the
    # batches are scheduled across workers.
    batch_size: int = 1 << 16

    def __post_init__(self) -> None:
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        if self.max_rounds_per_trial < 1:
            raise ValueError("max_rounds_per_trial must be >= 1")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")


@dataclass(frozen=True)
class SimResult:
    win_probability_estimate: float
    standard_error: float
    trials_completed: int
    trials_abandoned: int
    per_competitor_wins: dict[int, int] = field(default_factory=dict)

    @property
    def trials(self) -> int:
        return self.trials_completed + self.trials_abandoned

    @property
    def wilson_95(self) -> tuple[float, float]:
        """Wilson score 95% interval for the win probability over resolved trials.

        Unlike estimate +- 1.96 standard errors, it does not collapse to a
        point when the protagonist wins none or all of the trials.
        """
        n = self.trials_completed
        z2 = _Z95 * _Z95

        def lower(p: float) -> float:
            # The bounds are the roots of (1 + z^2/n) x^2 - (2p + z^2/n) x + p^2 = 0.
            # The larger is t / (1 + z^2/n), with t below; the smaller, taken as
            # the product of the roots over the larger, is p^2 / t.  This form
            # has no cancellation and is exactly 0 at p = 0.
            t = p + z2 / (2 * n) + _Z95 * math.sqrt(p * (1.0 - p) / n + z2 / (4 * n * n))
            return p * p / t

        # The interval for 1 - p mirrors the one for p, so the upper bound is
        # exactly 1 at p = 1.
        p = self.win_probability_estimate
        return lower(p), 1.0 - lower(1.0 - p)


def _batch_rng(seed: int, batch_index: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(batch_index,)))


def _round_weights(probs: np.ndarray) -> np.ndarray:
    """w_i = s_i * prod_{j != i} (1 - s_j), the chance that i alone succeeds.

    Built from prefix and suffix products of the failure chances with no
    division, so a competitor with s_j = 1 needs no special case.
    """
    fail = 1.0 - probs
    prefix = np.concatenate(([1.0], np.cumprod(fail[:-1])))
    suffix = np.concatenate((np.cumprod(fail[:0:-1])[::-1], [1.0]))
    return probs * prefix * suffix


def estimate_p_n(c: Contest, cfg: SimConfig) -> SimResult:
    """Monte Carlo estimate of the protagonist's win probability.

    Trials that never resolve within the round cap are excluded from the
    denominator (the closed form likewise conditions on resolution) and
    reported in ``trials_abandoned``.  Raises ``UndefinedContestError`` for
    an undefined contest, ``ValueError`` when ``cfg.trials`` is below
    ``MIN_RESOLVED_TRIALS``, and ``AllTrialsAbandonedError`` when the round
    cap leaves fewer than ``MIN_RESOLVED_TRIALS`` trials resolved.
    """
    if classify_contest(c) is ContestClass.UNDEFINED:
        raise UndefinedContestError("cannot simulate an undefined contest")
    if cfg.trials < MIN_RESOLVED_TRIALS:
        raise ValueError(f"simulate needs at least {MIN_RESOLVED_TRIALS} trials, got {cfg.trials}")
    weights = _round_weights(np.asarray([c.protagonist, *c.opponents], dtype=float))
    p_decisive = math.fsum(weights)
    # (1 - P1)^R; P1 may round to 1, where log1p(-1) would raise.
    p_unresolved = (
        0.0
        if p_decisive >= 1.0
        else math.exp(cfg.max_rounds_per_trial * math.log1p(-p_decisive))
    )
    wins = np.zeros(weights.size, dtype=np.int64)
    abandoned = 0
    remaining = cfg.trials
    batch_index = 0
    while remaining > 0:
        batch = min(cfg.batch_size, remaining)
        rng = _batch_rng(cfg.seed, batch_index)
        batch_abandoned = int(rng.binomial(batch, p_unresolved))
        # When P1 underflows to 0 every trial is abandoned and w / P1 is nan.
        if batch_abandoned < batch:
            wins += rng.multinomial(batch - batch_abandoned, weights / p_decisive)
        abandoned += batch_abandoned
        remaining -= batch
        batch_index += 1
    completed = cfg.trials - abandoned
    if completed < MIN_RESOLVED_TRIALS:
        raise AllTrialsAbandonedError(
            f"only {completed} of {cfg.trials} trials resolved within "
            f"{cfg.max_rounds_per_trial} rounds; at least {MIN_RESOLVED_TRIALS} are needed"
        )
    estimate = wins[0] / completed
    se = float(np.sqrt(estimate * (1.0 - estimate) / completed))
    return SimResult(
        win_probability_estimate=float(estimate),
        standard_error=se,
        trials_completed=completed,
        trials_abandoned=abandoned,
        per_competitor_wins={i: int(w) for i, w in enumerate(wins)},
    )
