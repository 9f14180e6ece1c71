"""Core model: winning percentages, log5 strengths, and the n-opponent win probability.

The central quantity is the probability that a protagonist with winning
percentage ``a`` simultaneously defeats ``n`` opponents with percentages
``b_1..b_n``.  Everything here is a pure function of its inputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Sequence

__all__ = [
    "Contest",
    "ContestClass",
    "UndefinedContestError",
    "balanced_opposition",
    "classify_contest",
    "james_p",
    "level_transform",
    "p_n",
    "solve_protagonist_complement",
    "strength",
    "strength_inv",
]


class UndefinedContestError(ValueError):
    """The requested probability has no defined value.

    This happens when every winning percentage is 0, or when at least two
    of them are 1.
    """


def _check_pct(value: float, name: str = "winning percentage") -> float:
    v = float(value)
    if math.isnan(v) or v < 0.0 or v > 1.0:
        raise ValueError(f"{name} must lie in [0, 1], got {value!r}")
    return v


class ContestClass(Enum):
    UNDEFINED = "undefined"
    FORCED_WIN = "forced_win"
    FORCED_LOSS = "forced_loss"
    REGULAR = "regular"


@dataclass(frozen=True)
class Contest:
    """One protagonist percentage plus an ordered list of opponent percentages."""

    protagonist: float
    opponents: tuple[float, ...]

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "protagonist", _check_pct(self.protagonist, "protagonist")
        )
        opps = tuple(_check_pct(b, "opponent") for b in self.opponents)
        if not opps:
            raise ValueError("a contest needs at least one opponent")
        object.__setattr__(self, "opponents", opps)

    @property
    def n(self) -> int:
        return len(self.opponents)


def strength(s: float) -> float:
    """The log5 odds value q(s) = s/(1-s); positive infinity at s = 1."""
    s = _check_pct(s)
    if s == 1.0:
        return math.inf
    return s / (1.0 - s)


def strength_inv(q: float) -> float:
    """Inverse of :func:`strength`: maps [0, inf] back to [0, 1]."""
    q = float(q)
    if math.isnan(q) or q < 0.0:
        raise ValueError(f"strength must be nonnegative, got {q!r}")
    if math.isinf(q):
        return 1.0
    return q / (1.0 + q)


def classify_contest(c: Contest) -> ContestClass:
    ones = int(c.protagonist == 1.0) + sum(b == 1.0 for b in c.opponents)
    if ones >= 2:
        return ContestClass.UNDEFINED
    if c.protagonist == 0.0 and all(b == 0.0 for b in c.opponents):
        return ContestClass.UNDEFINED
    if c.protagonist == 1.0:
        return ContestClass.FORCED_WIN
    if ones == 1:
        return ContestClass.FORCED_LOSS
    return ContestClass.REGULAR


def james_p(a: float, b: float) -> float:
    """Probability that a team with percentage ``a`` beats one with ``b``.

    This is the log5 formula a(1-b) / (a(1-b) + b(1-a)), undefined when
    a = b = 0 or a = b = 1.
    """
    a = _check_pct(a, "a")
    b = _check_pct(b, "b")
    if a == b and (a == 0.0 or a == 1.0):
        raise UndefinedContestError(f"probability undefined for a = b = {a}")
    num = a * (1.0 - b)
    return num / (num + b * (1.0 - a))


def p_n(c: Contest) -> float:
    """Probability that the protagonist beats every opponent at once.

    Evaluated as a / (a + (1 - a) * sum of opponent strengths), which never
    forms the protagonist's strength, so it does not overflow as a approaches 1.
    """
    cls = classify_contest(c)
    if cls is ContestClass.UNDEFINED:
        raise UndefinedContestError(
            "all percentages are 0 or at least two are 1; probability undefined"
        )
    if cls is ContestClass.FORCED_WIN:
        return 1.0
    if cls is ContestClass.FORCED_LOSS:
        return 0.0
    a = c.protagonist
    if a == 0.0:
        return 0.0
    # Zero-strength opponents contribute nothing; dropping them up front makes
    # that reduction hold bit for bit.
    live = [b for b in c.opponents if b != 0.0]
    if not live:
        return 1.0
    if len(live) == 1:
        return james_p(a, live[0])
    # q(a) / (q(a) + sum q(b_i)) multiplied through by 1 - a.  Each q(b_i) is
    # bounded so long as b_i < 1, and fsum gives a correctly rounded total, so
    # the result is permutation invariant.  Nothing divides by a, so a
    # subnormal protagonist needs no special case.
    total = math.fsum([b / (1.0 - b) for b in live])
    return a / (a + (1.0 - a) * total)


def solve_protagonist_complement(opponents: Sequence[float], c: float) -> float:
    """Solve p_n(a; opponents) = 1 - c for the protagonist percentage a.

    The defining relation a*c = (1-a)(1-c) * sum(q(b_i)) is symmetric in a
    and c, so solving with the answer as the new target returns the original
    protagonist.
    """
    c = _check_pct(c, "c")
    if c == 0.0 or c == 1.0:
        raise ValueError("target complement must satisfy 0 < c < 1")
    opps = [_check_pct(b, "opponent") for b in opponents]
    if not opps or any(b == 1.0 for b in opps) or all(b == 0.0 for b in opps):
        raise ValueError("opponents must lie in [0, 1) with at least one nonzero")
    total = math.fsum(strength(b) for b in opps)
    return (1.0 - c) * total / (c + (1.0 - c) * total)


def level_transform(s: float, t: float) -> float:
    """Rescale a percentage so its strength is multiplied by a finite t > 0."""
    s = _check_pct(s)
    t = float(t)
    if not 0.0 < t < math.inf:
        raise ValueError(f"scale factor must be positive and finite, got {t!r}")
    return t * s / (1.0 + (t - 1.0) * s)


def balanced_opposition(opponents: Sequence[float], tol: float = 1e-9) -> bool:
    """True when the opponents' strengths sum to 1 (within tol).

    Against such a field the protagonist's win probability equals its own
    winning percentage.
    """
    opps = [_check_pct(b, "opponent") for b in opponents]
    if any(b == 1.0 for b in opps):
        return False
    return abs(math.fsum(strength(b) for b in opps) - 1.0) <= tol
