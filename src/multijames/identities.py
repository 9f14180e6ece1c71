"""Alternate evaluators for the multi-opponent win probability.

Each function here recomputes the same probability as :func:`core.p_n`, but
through a different algebraic route built from pairwise and sub-field odds.
They serve both as user-selectable computation methods and as a
cross-agreement test battery, so none of them simply delegates its own
arithmetic to the direct evaluator.

Odds are formed directly from the percentages through the strength
q(b) = b/(1 - b), never as 1/p - 1 from a probability p, which cancels as p
approaches 1, and no evaluator divides by zero on an interior input.
Product form, substitution and the shifted and expanded sums carry their
odds as ``math.frexp`` mantissas and exponents, so a factor may leave the
float range where the probability does not.
"""

from __future__ import annotations

import math
from itertools import accumulate, compress
from operator import mul, truediv
from typing import Sequence

from .core import (
    _TINY,
    Contest,
    ContestClass,
    UndefinedContestError,
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


def _strength_sum(field: Sequence[float]) -> float:
    """Sum of q(b) = b/(1 - b) over a field with every b < 1, correctly rounded."""
    return math.fsum([b / (1.0 - b) for b in field])


def _sum_odds(terms: list[float]) -> float:
    """fsum of nonnegative odds; inf where the total overflows, so 1/(1 + odds) is 0."""
    try:
        return math.fsum(terms)
    except OverflowError:  # fsum raises rather than round a finite total to inf
        return math.inf


def _scaled_sum(mants: Sequence[float], exps: Sequence[int]) -> tuple[float, int]:
    """Sum of terms m * 2**e, not all 0, as s * 2**top for top the largest e of a nonzero m."""
    top = max(compress(exps, mants))
    return math.fsum(map(math.ldexp, mants, [e - top for e in exps])), top


def _p_from_odds(m: float, e: int) -> float:
    """1/(1 + odds) for odds m * 2**e, where m > 0 and 1/m is finite."""
    if e > 0:  # invert first, so that no ldexp overflows
        inverse = math.ldexp(1.0 / m, -e)
        return inverse / (1.0 + inverse)
    return 1.0 / (1.0 + math.ldexp(m, e))


def _pair_odds(a: float, b: float) -> float:
    """Odds against a in one game with b: b(1 - a) / (a(1 - b)).

    Formed as q(b)(1 - a)/a, which divides only by a and overflows only where
    the odds themselves do.
    """
    return b / (1.0 - b) * (1.0 - a) / a


def _field_odds(a: float, field: Sequence[float]) -> float:
    """Odds against a when it meets a whole field at once: (1 - a) sum q(b_i) / a."""
    return _strength_sum(field) * (1.0 - a) / a


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
    not underflow.
    """
    if classify_contest(c) is ContestClass.UNDEFINED:
        raise UndefinedContestError("probability undefined for this contest")
    # mants[j] * 2**exps[j] is term j; it starts as prod_{i > j} (1 - b_i).
    mants: list[float] = []
    exps: list[int] = []
    m, e = 1.0, 0
    for b in reversed(c.opponents):
        mants.append(m)
        exps.append(e)
        m, shift = math.frexp(m * (1.0 - b))
        e += shift
    mants, exps = mants[::-1], exps[::-1]
    # Then m, e run over the prefix products prod_{i < j} (1 - b_i).
    lose_m, lose_e = math.frexp(1.0 - c.protagonist)
    m, e = 1.0, 0
    for j, b in enumerate(c.opponents):
        b_m, b_e = math.frexp(b)
        mants[j] *= b_m * lose_m * m
        exps[j] += b_e + lose_e + e
        m, shift = math.frexp(m * (1.0 - b))
        e += shift
    a_m, a_e = math.frexp(c.protagonist)
    num_m, num_e = a_m * m, a_e + e
    total, top = _scaled_sum(mants + [num_m], exps + [num_e])  # defined: a term is nonzero
    return math.ldexp(num_m, num_e - top) / total


def odds_from_sum(c: Contest) -> float:
    """Sum Formula: the odds against the protagonist, as a sum over opponents."""
    _interior_contest(c)
    a = c.protagonist
    return _sum_odds([_pair_odds(a, b) for b in c.opponents])


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
    odds = _sum_odds([_field_odds(a, [opps[i] for i in block]) for block in parts])
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
    p_rest = p_n(Contest(b1, rest)) if rest else 1.0
    if p_rest < _TINY:
        raise ValueError(
            f"reduction: the first opponent beats the rest with probability {p_rest!r}, "
            "below 2**-1022; put a stronger opponent first"
        )
    return 1.0 / (1.0 + _pair_odds(a, b1) / p_rest)


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

    Term k multiplies the strengths' mantissa ratios in turn; their exponents telescope.
    """
    _interior_contest(c)
    mants, exps = zip(*map(math.frexp, [x / (1.0 - x) for x in (c.protagonist, *c.opponents)]))
    m, e = _scaled_sum(list(accumulate(map(truediv, mants[1:], mants), mul)), exps[1:])
    return _p_from_odds(m, e - exps[0])
