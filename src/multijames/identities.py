"""Alternate evaluators for the multi-opponent win probability.

Each function here recomputes the same probability as :func:`core.p_n`, but
through a different algebraic route built from pairwise and sub-field odds.
They serve both as user-selectable computation methods and as a
cross-agreement test battery, so none of them simply delegates its own
arithmetic to the direct evaluator.

Odds are formed directly from the percentages through the strength
q(b) = b/(1 - b), never as 1/p - 1 from a probability p, which cancels as p
approaches 1, and no evaluator divides by zero on an interior input.  Every
route but the product form needs each percentage strictly inside (0, 1) and
makes one strength pass over the opponents, through the screen that
:func:`core.p_n` uses: an opponent at 1 divides by zero, and one at 0 zeroes
the product of the field.  Only a contest that fails the screen runs the
per-value check, which names the first value outside.  A factor may leave
the float range where the probability does not.  Scaling by a power of two
is exact, so each route rescales only where a value would leave the normal
range, and every route ends through one range-safe step that takes the odds
as a sum and a power of two, never as inf.
"""

from __future__ import annotations

import math
from itertools import accumulate
from operator import mul, truediv
from typing import Sequence

from .core import (
    _TINY, Contest, UndefinedContestError, _checked_contest, _interior_strengths, _p_from_odds, p_n,
)

__all__ = [
    "METHODS",
    "odds_from_sum",
    "p_n_expanded_sum",
    "p_n_partitioned",
    "p_n_product_form",
    "p_n_reduction",
    "p_n_shifted_sum",
    "p_n_substitution",
    "validate_partition",
]

_LIFT_EXP = 974
_LIFT = 2.0**_LIFT_EXP  # exact on [0, 1]; lifts every subnormal into the normal range
_TOP, _LOW, _RAISE = 2.0**900, 2.0**200, 2.0**700  # the product form's range for p
_GUARD = 2.0**-900  # the sum lifts a protagonist, and the expanded sum a strength, below this


def _require_interior(value: float, name: str) -> float:
    if not 0.0 < value < 1.0:  # a NaN pivot too
        raise ValueError(f"{name} must lie strictly inside (0, 1), got {value!r}")
    return value


def _strengths(c: Contest) -> list[float]:
    """q(b) = b/(1 - b) for each opponent of a contest that lies strictly inside (0, 1)."""
    a, q = c.protagonist, _interior_strengths(c.opponents)
    if q is None or not 0.0 < a < 1.0:  # only then name the first value outside
        _require_interior(a, "protagonist")
        for b in c.opponents:
            _require_interior(b, "opponent")
    return q


def p_n_product_form(c: Contest) -> float:
    """Literal product-form evaluation, the direct analog of the log5 fraction.

    P = a p / (a p + (1 - a) s) with p = prod(1 - b_i) and s the sum over j of
    b_j prod over i != j of (1 - b_i).  One forward pass builds both through
    s <- s (1 - b) + b p, then p <- p (1 - b), so nothing divides by any
    1 - b_i and the cost is O(n).  The pass ends through the range-safe step
    with the odds (1 - a) s / (a p), each factor as a ``frexp`` mantissa.

    p starts at 2**900 and, wherever it falls below 2**200, p and s are both
    scaled by 2**700, exactly, which leaves s/p alone.  A factor 1 - b < 1 is
    at least 2**-53, so p stays in [2**147, 2**900]; s/p is the odds sum
    sum q(b_i), in [2**-1074, n 2**53], so s stays normal and finite for any
    n below 2**70.  An opponent at 1 zeroes p, and the contest is then lost
    (0.0) unless the protagonist or another opponent is also at 1.

    Every rounding is relative and the terms add without cancelling: term j of
    s over p is q(b_j) times at most 3n + 1 rounding factors, since the error
    of each 1 - b_i, i != j, cancels between s and p.  With the ending's six
    more, the result is within (3n + 8) 2**-53 of P, relative, plus 2**-1075
    absolute where it is subnormal.
    """
    p, s = _TOP, 0.0
    for b in c.opponents:
        f = 1.0 - b
        s = s * f + b * p
        p *= f
        if p < _LOW:
            if not p:  # b is 1: the numerator is 0, and so is s past a second 1
                if c.protagonist == 1.0 or c.opponents.count(1.0) > 1:
                    raise UndefinedContestError("probability undefined for this contest")
                return 0.0
            p *= _RAISE
            s *= _RAISE
    a = c.protagonist
    if not a:  # the numerator is 0, and so is the total when every opponent is 0
        if not s:
            raise UndefinedContestError("probability undefined for this contest")
        return 0.0
    (s_m, s_e), (a_m, a_e), (p_m, p_e) = map(math.frexp, (s, a, p))
    return _p_from_odds((1.0 - a) * s_m / a_m / p_m, s_e - a_e - p_e)


def _sum_parts(c: Contest, fields: list[float] | None = None) -> tuple[float, int]:
    """The odds against a, sum of (1 - a) v/a over fields (default: each q(b)), as s * 2**e.

    Below 2**-900, a is lifted by 2**974, exactly, so no term overflows; a term that
    then rounds below 2**-1022 moves the probability by under 2**-101, relative.
    """
    q = _strengths(c) if fields is None else fields
    a = c.protagonist
    e = _LIFT_EXP if a < _GUARD else 0
    lose, lifted = 1.0 - a, math.ldexp(a, e)
    return math.fsum([v * lose / lifted for v in q]), e


def odds_from_sum(c: Contest) -> float:
    """Sum Formula: the odds against the protagonist, as a sum over opponents.

    inf where the odds leave the float range; ``METHODS["sum"]``, which
    ``predict --method sum`` runs, ends the same parts through the range-safe step.
    """
    s, e = _sum_parts(c)
    return s * 2.0**e  # e is 0 or 974, and the product rounds to inf past the float range


def p_n_substitution(c: Contest, pivot: float) -> float:
    """Substitution Formula: route the odds through an arbitrary pivot percentage.

    The odds are the pivot's pairwise odds against the protagonist,
    q(pivot)(1 - a)/a, times the field's odds against the pivot,
    sum q(b_i) (1 - pivot)/pivot.  A pivot or protagonist near 0 or 1 takes
    either factor out of the float range while their product stays in it.
    """
    field = math.fsum(_strengths(c))
    pivot = _require_interior(float(pivot), "pivot")
    a = c.protagonist
    factors = (pivot / (1.0 - pivot), 1.0 - a, field, 1.0 - pivot, a, pivot)
    mants, exps = zip(*map(math.frexp, factors))
    m = math.prod(mants[:4]) / mants[4] / mants[5]  # in [1/16, 4)
    return _p_from_odds(m, sum(exps[:4]) - exps[4] - exps[5])


def validate_partition(
    blocks: Sequence[Sequence[int]], n: int, first: int = 0
) -> tuple[tuple[int, ...], ...]:
    """Check that blocks are nonempty, disjoint, and cover the indices first..first+n-1.

    Messages name each index as the blocks hold it, so a caller that numbers
    opponents from 1 passes first=1.
    """
    normalized = tuple(map(tuple, blocks))
    stop = first + n
    seen: set[int] = set()
    for block in normalized:
        if not block:
            raise ValueError("partition blocks must be nonempty")
        for idx in block:
            if not isinstance(idx, int) and not hasattr(idx, "__index__"):  # ints skip the lookup
                raise ValueError(f"partition index {idx!r} is not an integer")
            if not first <= idx < stop:
                raise ValueError(f"partition index {idx} outside {first}..{stop - 1}")
            if idx in seen:
                raise ValueError(f"partition index {idx} repeated")
            seen.add(idx)
    if len(seen) != n:
        missing = sorted(set(range(first, stop)) - seen)
        raise ValueError(f"partition does not cover indices {missing}")
    return normalized


def p_n_partitioned(c: Contest, blocks: Sequence[Sequence[int]]) -> float:
    """Partitioned sum formula: odds add across any split of the opponent set.

    No term cancels and ``fsum`` rounds correctly, so nine roundings (two in q(b), three in
    a term, a block's and the total's ``fsum``, two in the ending) leave this and the Sum
    Formula within 10 2**-53 of P, relative, plus 2**-1075 if subnormal, for n below 2**40.
    """
    q = _strengths(c)
    parts = validate_partition(blocks, c.n)
    # Each block's odds against a, met as a whole field: (1 - a) sum q(b_i) / a.
    return _p_from_odds(*_sum_parts(c, [math.fsum([q[i] for i in b]) for b in parts]))


def p_n_reduction(c: Contest) -> float:
    """Reduction Formula: peel off the first opponent, recurse on the rest.

    Valid with the remaining opponents at 0; the empty field is treated as
    probability 1.  Raises ``ValueError`` when the first opponent's
    probability of beating the rest falls below 2**-1022, where it no longer
    carries the precision that dividing by it needs.
    """
    a = _require_interior(c.protagonist, "protagonist")
    b1 = _require_interior(c.opponents[0], "first opponent")
    rest = c.opponents[1:]
    if 1.0 in rest:  # a Contest holds nothing above 1
        raise ValueError("remaining opponents must lie in [0, 1)")
    p_rest = p_n(_checked_contest(b1, rest)) if rest else 1.0
    if p_rest < _TINY:
        raise ValueError(
            f"reduction: the first opponent beats the rest with probability {p_rest!r}, "
            "below 2**-1022; put a stronger opponent first"
        )
    # The odds q(b_1)(1 - a)/a / p_rest from the mantissas, none of which is subnormal.
    q_m, q_e = math.frexp(b1 / (1.0 - b1))
    (a_m, a_e), (r_m, r_e) = math.frexp(a), math.frexp(p_rest)
    return _p_from_odds(q_m * (1.0 - a) / a_m / r_m, q_e - a_e - r_e)


def p_n_shifted_sum(c: Contest) -> float:
    """Shifted Sum Formula: odds(a, b_1) (1 + sum over j > 1 of odds(b_1, b_j)).

    Here odds(x, y) = q(y)/q(x).  For q(b_1) = m 2**k, each odds(b_1, b_j) is
    formed as q(b_j) / (m 2**-54), neither subnormal nor infinite, and their
    sum is scaled by 2**-(k + 54); times odds(a, b_1), the 2**k cancels.
    """
    q = _strengths(c)
    (a_m, a_e), (b1_m, _) = map(math.frexp, (c.protagonist / (1.0 - c.protagonist), q[0]))
    unit = math.ldexp(b1_m, -54)  # so the j = 1 term, 2**(k + 54), is the exact 1
    return _p_from_odds(math.fsum([v / unit for v in q]) * b1_m / a_m, -54 - a_e)


def p_n_expanded_sum(c: Contest) -> float:
    """Expanded Sum Formula: a chain of pairwise odds q(c_i)/q(c_{i-1}) along a, b_1, ..., b_n.

    Term k multiplies the ratios in turn and telescopes to q(b_k)/q(a).  Each
    strength below 2**-900 is first lifted by 2**974, exactly, so every
    strength lies in [2**-900, 2**74] and every ratio and term in
    [2**-974, 2**974].  Term k then carries 2**(974 (l_0 - l_k)) for the
    lifts l_0 of a and l_k of b_k, taken as 2**(974 l_0) for the sum and
    2**-974 for each lifted b_k's term; one that rounds below 2**-1022 moves the
    probability by under 2**-101, relative.
    """
    q = _strengths(c)
    q.insert(0, c.protagonist / (1.0 - c.protagonist))
    if min(q) >= _GUARD:
        return _p_from_odds(math.fsum(accumulate(map(truediv, q[1:], q), mul)), 0)
    low = [v < _GUARD for v in q]
    q = [v * _LIFT if up else v for v, up in zip(q, low)]
    terms = accumulate(map(truediv, q[1:], q), mul)
    return _p_from_odds(math.fsum([t / _LIFT if up else t for t, up in zip(terms, low[1:])]),
                        _LIFT_EXP * low[0])


# What ``predict --method`` runs, in report order; blocks None is the Sum Formula itself.
METHODS = {
    "direct": lambda c, pivot, blocks: p_n(c),
    "product": lambda c, pivot, blocks: p_n_product_form(c),
    "sum": lambda c, pivot, blocks: _p_from_odds(*_sum_parts(c)),  # 10 2**-53: p_n_partitioned
    "substitution": lambda c, pivot, blocks: p_n_substitution(c, pivot),
    "reduction": lambda c, pivot, blocks: p_n_reduction(c),
    "shifted": lambda c, pivot, blocks: p_n_shifted_sum(c),
    "expanded": lambda c, pivot, blocks: p_n_expanded_sum(c),
    "partition": lambda c, pivot, blocks:
        _p_from_odds(*_sum_parts(c)) if blocks is None else p_n_partitioned(c, blocks),
}
