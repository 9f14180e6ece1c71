"""Correctness gate: exact oracles and the checks applied to outputs after timing.

The oracles use ``fractions.Fraction`` straight from the defining formula
P_n = q(a) / (q(a) + sum q(b_i)), q(s) = s / (1 - s), the same formula as
the test suite's oracle, and share no code with the program.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from fractions import Fraction

EPS = 2.0**-52
# Below this magnitude results are compared absolutely: the exact values of
# the boundary probes can be smaller than the smallest subnormal.
ABS_FLOOR = 1e-300


def exact_p_n(a: float, opponents) -> Fraction:
    """Exact P_n for a protagonist a < 1 and opponents b_i < 1, not all zero."""
    qa = Fraction(a) / (1 - Fraction(a))
    return qa / (qa + sum(Fraction(b) / (1 - Fraction(b)) for b in opponents))


def float_p_n(a: float, opponents) -> float:
    """P_n in floating point with a correctly rounded sum, for fields too big for Fraction."""
    qa = a / (1.0 - a)
    return 1.0 / (1.0 + math.fsum(b / (1.0 - b) / qa for b in opponents))


def pair(a: float, b: float) -> float:
    """The log5 pairwise probability that a beats b, in floating point."""
    num = a * (1.0 - b)
    return num / (num + b * (1.0 - a))


def close(got, ref: float, n: int) -> bool:
    """True when ``got`` is a float within 64 (n + 1) ulp-scale relative error of ``ref``.

    The bound grows with n because the product and chain forms accumulate
    one rounding per opponent.
    """
    if not isinstance(got, float) or math.isnan(got):
        return False
    return abs(got - ref) <= 64 * (n + 1) * EPS * abs(ref) + ABS_FLOOR


def sim_agrees(estimate: float, standard_error: float, ref: float) -> bool:
    """A Monte Carlo estimate passes when it is within 4 of its own standard errors."""
    return abs(estimate - ref) <= 4.0 * standard_error


def reference_standings(events):
    """Wins and losses per competitor from rank counts, ties scored one half each.

    ``events`` is a list of placement lists [(name, rank), ...].  Returns
    (wins, losses, pairs): dicts keyed by name and the number of pairs.
    """
    wins: dict[str, float] = {}
    losses: dict[str, float] = {}
    pairs = 0
    for placements in events:
        k = len(placements)
        pairs += k * (k - 1) // 2
        ranks = sorted(rank for _, rank in placements)
        for name, rank in placements:
            better = bisect_left(ranks, rank)
            tied = bisect_left(ranks, rank + 1) - better - 1
            worse = k - better - tied - 1
            wins[name] = wins.get(name, 0.0) + worse + 0.5 * tied
            losses[name] = losses.get(name, 0.0) + better + 0.5 * tied
    return wins, losses, pairs


def probe(thunk, ref: float | None, n: int = 1, documented: tuple = ()) -> tuple[bool, str]:
    """Run one boundary probe and judge it by the closed outcome contract.

    A probe passes when it returns a value close to ``ref`` or raises one of
    the ``documented`` exception types; anything else, including an
    undocumented exception, fails.
    """
    try:
        got = thunk()
    except documented as exc:
        return True, f"documented {type(exc).__name__}"
    except Exception as exc:  # every other exception is a finding, not a crash
        return False, f"{type(exc).__name__}: {exc}"
    if ref is None:
        return False, f"returned {got!r}, expected a documented error"
    return close(got, ref, n), f"returned {got!r}, expected {ref!r}"
