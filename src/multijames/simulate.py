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
is therefore abandoned with probability (1 - P1)^R, and one run over all
its trials takes a Binomial count of abandoned trials, then Multinomial
winner counts over the rest, drawn as one conditional Binomial per
competitor.  Each Binomial comes from an exact standard-library sampler.
Only the per-round Bernoulli model enters, never the closed form, so the
estimate can validate the closed-form evaluators.
"""

from __future__ import annotations

import math
import operator
import random
from itertools import accumulate

from .core import Contest, ContestClass, UndefinedContestError, _Value, classify_contest

__all__ = [
    "MAX_ROUNDS",
    "MAX_TRIALS",
    "MIN_RESOLVED_TRIALS",
    "AllTrialsAbandonedError",
    "SimConfig",
    "SimResult",
    "estimate_p_n",
]

# Below this many resolved trials the plug-in standard error means nothing.
MIN_RESOLVED_TRIALS = 30
# Up to 2^52 every count the Binomial sampler turns into a float, such as
# n - k + 1, is exact.
MAX_TRIALS = 2**52
# Every round cap up to 2^53 is an exact float; far larger ints cannot
# enter (1 - P1)^R at all.
MAX_ROUNDS = 2**53
# The standard normal quantile for a two-sided 95% interval.
_Z95 = 1.959963984540054
_HALF_LOG_2PI = 0.5 * math.log(2.0 * math.pi)


class AllTrialsAbandonedError(RuntimeError):
    """The round cap left fewer than MIN_RESOLVED_TRIALS trials with a winner."""


class SimConfig(_Value):
    __slots__ = _fields = ("trials", "max_rounds_per_trial", "seed")

    def __init__(self, trials: int, max_rounds_per_trial: int = 10_000, seed: int = 0) -> None:
        if not 1 <= trials <= MAX_TRIALS:
            raise ValueError(f"trials must lie in [1, 2**52], got {trials}")
        if not 1 <= max_rounds_per_trial <= MAX_ROUNDS:
            raise ValueError(
                f"max_rounds_per_trial must lie in [1, 2**53], got {max_rounds_per_trial}"
            )
        # random.Random(-s) would silently give the stream of Random(s).
        if seed < 0:
            raise ValueError(f"seed must be >= 0, got {seed}")
        self._init(trials, max_rounds_per_trial, seed)


class SimResult(_Value):
    __slots__ = _fields = ("win_probability_estimate", "standard_error", "trials_completed",
                           "trials_abandoned", "per_competitor_wins")

    def __init__(self, win_probability_estimate: float, standard_error: float,
                 trials_completed: int, trials_abandoned: int,
                 per_competitor_wins: dict[int, int] | None = None) -> None:
        self._init(win_probability_estimate, standard_error, trials_completed, trials_abandoned,
                   {} if per_competitor_wins is None else per_competitor_wins)  # None: a fresh dict

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


def _stirling_tail(k: int) -> float:
    """fc(k) = log k! - (k + 1/2) log(k + 1) + (k + 1) - log(2 pi) / 2."""
    if k < 10:
        return math.lgamma(k + 1) - (k + 0.5) * math.log(k + 1) + (k + 1) - _HALF_LOG_2PI
    r = 1.0 / (k + 1)
    r2 = r * r
    return (1.0 / 12 - (1.0 / 360 - r2 / 1260) * r2) * r


def _log_pmf_ratio(n: int, p: float, m: int, k: int) -> float:
    """log(f(k) / f(m)) for the Binomial(n, p) pmf f.

    Written as in Hoermann's step 3.2: Stirling tails plus log1p of integer
    ratios, so the large terms of log m! - log k! never meet and cancel.
    The lgamma form that 3.12 uses errs by about 4e-3 at n = 2^40 and by
    tens at n = 2^52.
    """
    d = k - m
    return (
        (n - k + 0.5) * math.log1p(d / (n - k + 1))
        - (m + 0.5) * math.log1p(d / (m + 1))
        + d * math.log((n - m + 1) * p / ((k + 1) * (1.0 - p)))
        + _stirling_tail(m)
        + _stirling_tail(n - m)
        - _stirling_tail(k)
        - _stirling_tail(n - k)
    )


def _binomial(rng: random.Random, n: int, p: float) -> int:
    """One exact Binomial(n, p) draw, for 0 <= n <= MAX_TRIALS.

    A port of CPython 3.12's ``random.binomialvariate``: Devroye's geometric
    method below np = 10, Hoermann's BTRS (transformed rejection with
    squeeze, 1993) above.  Unlike 3.12 it takes the geometric rate from
    log1p(-p), not log2(1 - p), which rounds away a p below 1e-16, and its
    acceptance test uses ``_log_pmf_ratio``.
    """
    if n == 0 or p <= 0.0:
        return 0
    if p >= 1.0:
        return n
    if p > 0.5:
        return n - _binomial(rng, n, 1.0 - p)
    if n * p < 10.0:
        # Successes sit Geometric(p) trials apart; count those within n.
        c = math.log1p(-p)
        x = y = 0
        while True:
            # floor(gap) >= n - y is the same test as gap >= n - y, and it
            # never floors the inf that a tiny p can give.
            gap = math.log(1.0 - rng.random()) / c
            if gap >= n - y:
                return x
            y += int(gap) + 1
            x += 1
    spq = math.sqrt(n * p * (1.0 - p))
    b = 1.15 + 2.53 * spq
    a = -0.0873 + 0.0248 * b + 0.01 * p
    c = n * p + 0.5
    vr = 0.92 - 4.2 / b
    alpha = (2.83 + 5.1 / b) * spq
    m = math.floor((n + 1) * p)  # the mode
    while True:
        u = rng.random() - 0.5
        us = 0.5 - abs(u)
        if us == 0.0:  # u = -0.5 proposes k = -inf
            continue
        k = math.floor((2.0 * a / us + b) * u + c)
        if k < 0 or k > n:
            continue
        v = rng.random()
        if us >= 0.07 and v <= vr:
            return k
        # The paper omits the log of v here; 3.12 restores it.
        v *= alpha / (a / (us * us) + b)
        if v == 0.0 or math.log(v) <= _log_pmf_ratio(n, p, m, k):
            return k


def _round_weights(probs: list[float]) -> list[float]:
    """w_i = s_i * prod_{j != i} (1 - s_j), the chance that i alone succeeds.

    Built from prefix and suffix products of the failure chances with no
    division, so a competitor with s_j = 1 needs no special case.
    """
    fail = [1.0 - s for s in probs]
    prefix = accumulate(fail[:-1], operator.mul, initial=1.0)
    suffix = list(accumulate(reversed(fail[1:]), operator.mul, initial=1.0))[::-1]
    return [s * before * after for s, before, after in zip(probs, prefix, suffix)]


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
    weights = _round_weights([c.protagonist, *c.opponents])
    p_decisive = math.fsum(weights)
    # (1 - P1)^R; P1 may round to 1, where log1p(-1) would raise.
    p_unresolved = (
        0.0
        if p_decisive >= 1.0
        else math.exp(cfg.max_rounds_per_trial * math.log1p(-p_decisive))
    )
    rng = random.Random(cfg.seed)
    abandoned = _binomial(rng, cfg.trials, p_unresolved)
    completed = cfg.trials - abandoned
    if completed < MIN_RESOLVED_TRIALS:
        raise AllTrialsAbandonedError(
            f"only {completed} of {cfg.trials} trials resolved within "
            f"{cfg.max_rounds_per_trial} rounds; at least {MIN_RESOLVED_TRIALS} are needed"
        )
    # The Multinomial(completed, w / P1) as conditional Binomials: i wins
    # w_i / S_i of what competitors i.. leave, with S_i = sum_{j >= i} w_j
    # summed from the last one back, a sum of nonnegative terms.
    tails = list(accumulate(reversed(weights)))[::-1]
    wins = []
    left = completed
    for w, tail in zip(weights, tails):
        # Once nothing is left, S_i may be 0 and w_i / S_i nan.  Rounding
        # keeps S_i >= w_i, so the ratio needs no clamp at 1.
        k = _binomial(rng, left, w / tail) if left else 0
        wins.append(k)
        left -= k
    estimate = wins[0] / completed
    return SimResult(
        win_probability_estimate=estimate,
        standard_error=math.sqrt(estimate * (1.0 - estimate) / completed),
        trials_completed=completed,
        trials_abandoned=abandoned,
        per_competitor_wins=dict(enumerate(wins)),
    )
