"""Alternate evaluators for the multi-opponent win probability.

Each function here recomputes the same probability as :func:`core.p_n`, but
through a different algebraic route built from pairwise and sub-field odds.
They serve both as user-selectable computation methods and as a
cross-agreement test battery, so none of them simply delegates its own
arithmetic to the direct evaluator.

Odds are formed directly from the percentages through the strength
q(b) = b/(1 - b), never as 1/p - 1 from a probability p, which cancels as p
approaches 1, and no evaluator divides by zero on an interior input.
A factor may leave the float range where the probability does not.  Scaling
by a power of two is exact, so the product form and the expanded sum rescale
only where a value would leave the normal range.  The product form scales a
and each b_j by 2**974 and restarts a run of products that falls below
2**-300, which keeps each of its terms in [2**-859, 2**974].  The expanded
sum lifts each strength below 2**-900 by 2**974, which keeps each ratio and
chain term in [2**-974, 2**974].  Terms that share a power of two go to one
fsum as they are.  Substitution and the shifted sum carry their few factors
as ``math.frexp`` mantissas and exponents.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from itertools import accumulate, pairwise, repeat
from operator import mul, truediv
from typing import Sequence

from .core import (
    _TINY,
    Contest,
    ContestClass,
    UndefinedContestError,
    _checked_contest,
    classify_contest,
    p_n,
)

__all__ = [
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
_FLOOR = 2.0**-300  # a run of products restarts below this
_GUARD = 2.0**-900  # the expanded sum lifts a strength below this


def _strength_sum(field: Sequence[float]) -> float:
    """Sum of q(b) = b/(1 - b) over a field with every b < 1, correctly rounded."""
    return math.fsum([b / (1.0 - b) for b in field])


def _sum_odds(terms: list[float]) -> float:
    """fsum of nonnegative odds; inf where the total overflows, so 1/(1 + odds) is 0."""
    try:
        return math.fsum(terms)
    except OverflowError:  # fsum raises rather than round a finite total to inf
        return math.inf


def _scaled_sum(parts: list[tuple[list[float], int]]) -> tuple[float, int]:
    """Sum over (values, e) in parts of each value times 2**e, not all 0, as s * 2**top.

    top is the largest e of a part with a nonzero value; only the other parts are shifted.
    """
    top = max([e for values, e in parts if any(values)])
    terms: list[float] = []
    for values, e in parts:
        terms += values if e == top else map(math.ldexp, values, repeat(e - top))
    return math.fsum(terms), top


def _p_from_odds(m: float, e: int) -> float:
    """1/(1 + odds) for odds m * 2**e, where m > 0 and 1/m is finite."""
    if e > 0:  # invert first, so that no ldexp overflows
        inverse = math.ldexp(1.0 / m, -e)
        return inverse / (1.0 + inverse)
    return 1.0 / (1.0 + math.ldexp(m, e))


def _products(factors: list[float]) -> tuple[list[float], list[int], list[int]]:
    """Products of factors[:j] for j = 0..n, each factor in [0, 1], as values[j] * 2**exps[j].

    Where the products fall below 2**-300 they restart from the ``frexp`` mantissa
    of the product there; ``starts`` lists where each run begins.  A nonzero value
    thus lies in [2**-353, 1] and has the significand that renormalizing at every
    step would give.  After a zero factor every product is 0, and none restarts.
    """
    values = [1.0, *accumulate(factors, mul)]
    exps = [0] * len(values)
    starts = [0]
    j = 0
    while values[-1] < _FLOOR:
        j = bisect_left(values, True, j + 1, key=_FLOOR.__gt__)  # the products never rise
        if not values[j]:
            break
        m, e = math.frexp(values[j])
        values[j:] = accumulate(factors[j:], mul, initial=m)
        exps[j:] = [exps[j] + e] * (len(values) - j)
        starts.append(j)
    return values, starts, exps


def _require_interior(value: float, name: str) -> float:
    if not 0.0 < value < 1.0:  # a NaN pivot too
        raise ValueError(f"{name} must lie strictly inside (0, 1), got {value!r}")
    return value


def _interior_contest(c: Contest) -> None:
    _require_interior(c.protagonist, "protagonist")
    # A Contest holds no NaN, so min and max decide; the loop names the value.
    if not (0.0 < min(c.opponents) and max(c.opponents) < 1.0):
        for b in c.opponents:
            _require_interior(b, "opponent")


def p_n_product_form(c: Contest) -> float:
    """Literal product-form evaluation, the direct analog of the log5 fraction.

    Numerator a * prod(1-b_i); denominator adds one term per opponent j of
    b_j (1-a) * prod over i != j of (1-b_i).  Handles a single boundary
    percentage (0 or 1) without special casing.

    The products over i != j come from prefix and suffix products, so the
    cost is O(n), and nothing divides by 1 - b_i; 200 factors of 0.001 do
    not underflow.  With a and each b_j scaled by 2**974, which is exact,
    and every product kept in [2**-353, 1] by restarting its run, each term
    lies in [2**-859, 2**974]: the terms between two restarts share one
    power of two, and only those of another run are shifted before one fsum.
    """
    if classify_contest(c) is ContestClass.UNDEFINED:
        raise UndefinedContestError("probability undefined for this contest")
    n, factors = c.n, [1.0 - b for b in c.opponents]
    pre, pre_starts, pre_exps = _products(factors)
    suf, suf_starts, suf_exps = _products(factors[::-1])
    scale = _LIFT * (1.0 - c.protagonist)
    terms = [s * (b * scale * p) for s, b, p in zip(suf[-2::-1], c.opponents, pre)]
    # Term j carries 2**(pre_exps[j] + suf_exps[n - 1 - j]); both change only where a run restarts.
    cuts = sorted(pre_starts + [n - r for r in suf_starts])  # 0 and n among them
    parts = [(terms[lo:hi], pre_exps[lo] + suf_exps[n - 1 - lo]) for lo, hi in pairwise(cuts)]
    num = c.protagonist * _LIFT * pre[-1]
    parts.append(([num], pre_exps[-1]))
    total, top = _scaled_sum(parts)  # defined: a term is nonzero
    return math.ldexp(num, pre_exps[-1] - top) / total


def odds_from_sum(c: Contest) -> float:
    """Sum Formula: the odds against the protagonist, as a sum over opponents."""
    _interior_contest(c)
    a, lose = c.protagonist, 1.0 - c.protagonist
    # Each pair's odds b(1 - a)/(a(1 - b)) as q(b)(1 - a)/a, which divides only by a
    # and overflows only where the odds themselves do.
    return _sum_odds([b / (1.0 - b) * lose / a for b in c.opponents])


def p_n_substitution(c: Contest, pivot: float) -> float:
    """Substitution Formula: route the odds through an arbitrary pivot percentage.

    The odds are the pivot's pairwise odds against the protagonist,
    q(pivot)(1 - a)/a, times the field's odds against the pivot,
    sum q(b_i) (1 - pivot)/pivot.  A pivot or protagonist near 0 or 1 takes
    either factor out of the float range while their product stays in it.
    """
    _interior_contest(c)
    pivot = _require_interior(float(pivot), "pivot")
    a = c.protagonist
    factors = (pivot / (1.0 - pivot), 1.0 - a, _strength_sum(c.opponents), 1.0 - pivot, a, pivot)
    mants, exps = zip(*map(math.frexp, factors))
    m = math.prod(mants[:4]) / mants[4] / mants[5]  # in [1/16, 4)
    return _p_from_odds(m, sum(exps[:4]) - exps[4] - exps[5])


def validate_partition(blocks: Sequence[Sequence[int]], n: int) -> tuple[tuple[int, ...], ...]:
    """Check that blocks are nonempty, disjoint, and cover the indices 0..n-1."""
    normalized = tuple(tuple(block) for block in blocks)
    seen: set[int] = set()
    for block in normalized:
        if not block:
            raise ValueError("partition blocks must be nonempty")
        for idx in block:
            if not 0 <= idx < n:
                raise ValueError(f"partition index {idx} outside 0..{n - 1}")
            if idx in seen:
                raise ValueError(f"partition index {idx} repeated")
            seen.add(idx)
    if len(seen) != n:
        missing = sorted(set(range(n)) - seen)
        raise ValueError(f"partition does not cover indices {missing}")
    return normalized


def p_n_partitioned(c: Contest, blocks: Sequence[Sequence[int]]) -> float:
    """Partitioned sum formula: odds add across any split of the opponent set."""
    _interior_contest(c)
    parts = validate_partition(blocks, c.n)
    a, opps = c.protagonist, c.opponents
    # Each block's odds against a, met as a whole field: (1 - a) sum q(b_i) / a.
    odds = _sum_odds([_strength_sum([opps[i] for i in block]) * (1.0 - a) / a for block in parts])
    return 1.0 / (1.0 + odds)


def p_n_reduction(c: Contest) -> float:
    """Reduction Formula: peel off the first opponent, recurse on the rest.

    Valid with the remaining opponents at 0; the empty field is treated as
    probability 1.  Raises ``ValueError`` when the first opponent's
    probability of beating the rest falls below 2**-1022, where it no longer
    carries the precision that dividing by it needs.
    """
    a = _require_interior(c.protagonist, "protagonist")
    b1 = c.opponents[0]
    _require_interior(b1, "first opponent")
    rest = c.opponents[1:]
    if any(b >= 1.0 for b in rest):
        raise ValueError("remaining opponents must lie in [0, 1)")
    p_rest = p_n(_checked_contest(b1, rest)) if rest else 1.0
    if p_rest < _TINY:
        raise ValueError(
            f"reduction: the first opponent beats the rest with probability {p_rest!r}, "
            "below 2**-1022; put a stronger opponent first"
        )
    return 1.0 / (1.0 + b1 / (1.0 - b1) * (1.0 - a) / a / p_rest)


def p_n_shifted_sum(c: Contest) -> float:
    """Shifted Sum Formula: odds(a, b_1) (1 + sum over j > 1 of odds(b_1, b_j)).

    Here odds(x, y) = q(y)/q(x).  For q(b_1) = m 2**k, each odds(b_1, b_j) is
    formed as q(b_j) / (m 2**-54), neither subnormal nor infinite, and their
    sum is scaled by 2**-(k + 54); times odds(a, b_1), the 2**k cancels.
    """
    _interior_contest(c)
    (a_m, a_e), (b1_m, _) = [math.frexp(x / (1.0 - x)) for x in (c.protagonist, c.opponents[0])]
    unit = math.ldexp(b1_m, -54)  # so the j = 1 term, 2**(k + 54), is the exact 1
    m, e = math.frexp(math.fsum([b / (1.0 - b) / unit for b in c.opponents]))
    return _p_from_odds(m * b1_m / a_m, e - 54 - a_e)


def p_n_expanded_sum(c: Contest) -> float:
    """Expanded Sum Formula: a chain of pairwise odds q(c_i)/q(c_{i-1}) along a, b_1, ..., b_n.

    Term k multiplies the ratios in turn and telescopes to q(b_k)/q(a).  Each
    strength below 2**-900 is first lifted by 2**974, exactly, so every
    strength lies in [2**-900, 2**74] and every ratio and term in
    [2**-974, 2**974].  Term k then carries 2**(974 (l_0 - l_k)) for the
    lifts l_0 of a and l_k of b_k, which the scaled sum undoes.
    """
    _interior_contest(c)
    q = [x / (1.0 - x) for x in (c.protagonist, *c.opponents)]
    low = []
    if min(q) < _GUARD:
        low = [v < _GUARD for v in q]
        q = [v * _LIFT if up else v for v, up in zip(q, low)]
    terms = list(accumulate(map(truediv, q[1:], q), mul))
    parts = [(terms, 0)]
    if low:
        parts = [([t], _LIFT_EXP * (low[0] - up)) for t, up in zip(terms, low[1:])]
    total, top = _scaled_sum(parts)
    m, e = math.frexp(total)
    return _p_from_odds(m, e + top)
