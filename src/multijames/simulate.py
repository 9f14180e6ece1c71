"""Monte Carlo oracle for the multi-opponent win probability.

Implements the literal generative process: every competitor independently
draws a Bernoulli success each round, a round with exactly one success
declares that competitor the winner, and unresolved rounds repeat.  The
estimate never touches the closed-form evaluators, so it can validate them.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .core import Contest, ContestClass, UndefinedContestError, classify_contest

__all__ = [
    "AllTrialsAbandonedError",
    "SimConfig",
    "SimResult",
    "estimate_p_n",
]


class AllTrialsAbandonedError(RuntimeError):
    """Every trial hit the round cap without producing a winner."""


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


def _batch_rng(seed: int, batch_index: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(batch_index,)))


def _run_batch(
    rng: np.random.Generator, probs: np.ndarray, trials: int, max_rounds: int
) -> tuple[np.ndarray, int]:
    """Run one batch of trials to resolution; returns (wins per index, abandoned).

    Unresolved trials are exchangeable, so only their count needs tracking:
    each round redraws one row per still-active trial.
    """
    wins = np.zeros(probs.size, dtype=np.int64)
    active = trials
    for _ in range(max_rounds):
        if active == 0:
            break
        draws = rng.random((active, probs.size)) < probs
        totals = draws.sum(axis=1)
        decided = totals == 1
        n_decided = int(decided.sum())
        if n_decided:
            winners = draws[decided].argmax(axis=1)
            wins += np.bincount(winners, minlength=probs.size)
            active -= n_decided
    return wins, active


def estimate_p_n(c: Contest, cfg: SimConfig) -> SimResult:
    """Monte Carlo estimate of the protagonist's win probability.

    Trials that never resolve within the round cap are excluded from the
    denominator (the closed form likewise conditions on resolution) and
    reported in ``trials_abandoned``.
    """
    if classify_contest(c) is ContestClass.UNDEFINED:
        raise UndefinedContestError("cannot simulate an undefined contest")
    probs = np.asarray([c.protagonist, *c.opponents], dtype=float)
    wins = np.zeros(probs.size, dtype=np.int64)
    abandoned = 0
    remaining = cfg.trials
    batch_index = 0
    while remaining > 0:
        batch = min(cfg.batch_size, remaining)
        batch_wins, batch_abandoned = _run_batch(
            _batch_rng(cfg.seed, batch_index), probs, batch, cfg.max_rounds_per_trial
        )
        wins += batch_wins
        abandoned += batch_abandoned
        remaining -= batch
        batch_index += 1
    completed = cfg.trials - abandoned
    if completed == 0:
        raise AllTrialsAbandonedError(
            f"no trial resolved within {cfg.max_rounds_per_trial} rounds"
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
