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
is exact, so the product form and the expanded sum rescale only where a
value would leave the normal range, and substitution and the shifted sum
carry their few factors as ``math.frexp`` mantissas and exponents.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from itertools import accumulate, pairwise, repeat
from operator import mul, truediv
from typing import Sequence

from .core import _TINY, Contest, UndefinedContestError, _checked_contest, _interior_strengths, p_n

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


def _sum_odds(terms: list[float]) -> float:
    """fsum of nonnegative odds; inf where the total overflows, so 1/(1 + odds) is 0."""
    try:
        return math.fsum(terms)
    except OverflowError:  # fsum raises rather than round a finite total to inf
        return math.inf


def _scaled_sum(terms: list[float], runs: list[tuple[int, int, int]]) -> tuple[float, int]:
    """Sum of terms[lo:hi] * 2**e over runs (lo, hi, e) that cover terms, as s * 2**top.

    top is the largest e of a run with a nonzero term, else 0; the rest shift in place.
    """
    top = max([e for lo, hi, e in runs if any(terms[lo:hi])], default=0)
    for lo, hi, e in runs:
        if e != top:
            terms[lo:hi] = map(math.ldexp, terms[lo:hi], repeat(e - top))
    return math.fsum(terms), top


def _p_from_odds(m: float, e: int) -> float:
    """1/(1 + odds) for odds m * 2**e, where m > 0 and 1/m is finite."""
    if e > 0:  # invert first, so that no ldexp overflows
        inverse = math.ldexp(1.0 / m, -e)
        return inverse / (1.0 + inverse)
    return 1.0 / (1.0 + math.ldexp(m, e))


def _products(factors: list[float]) -> tuple[list[float], list[tuple[int, int]]]:
    """Products of factors[:j] for j = 0..n, each factor in [0, 1], in runs of plain floats.

    Where the products fall below 2**-300 they restart from the ``frexp`` mantissa
    m * 2**e of the product at j; ``restarts`` lists each such (j, e), and values[j:]
    then stand for their products times 2**e.  A nonzero value thus lies in
    [2**-353, 1] and has the significand that renormalizing at every step would
    give.  After a zero factor every product is 0, and none restarts.
    """
    values = [1.0, *accumulate(factors, mul)]
    restarts = []
    j = 0
    while values[-1] < _FLOOR:
        j = bisect_left(values, True, j + 1, key=_FLOOR.__gt__)  # the products never rise
        if not values[j]:
            break
        m, e = math.frexp(values[j])
        values[j:] = accumulate(factors[j:], mul, initial=m)
        restarts.append((j, e))
    return values, restarts


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
    n, factors = c.n, [1.0 - b for b in c.opponents]
    pre, restarts = _products(factors)
    suf, suf_restarts = _products(factors[::-1])
    scale = _LIFT * (1.0 - c.protagonist)
    terms = [s * (b * scale * p) for s, b, p in zip(suf[-2::-1], c.opponents, pre)]
    terms.append(c.protagonist * _LIFT * pre[-1])
    # Up to one common factor, term j (the numerator is term n) carries 2**e, where e sums the
    # restarts of pre at j or before and takes off each of suf at i from j = n - i on.
    steps = sorted(restarts + [(n - i, -k) for i, k in suf_restarts])
    e, runs = 0, []
    for (lo, k), (hi, _) in pairwise([(0, 0), *steps, (n + 1, 0)]):
        e += k
        runs.append((lo, hi, e))
    total, _ = _scaled_sum(terms, runs)
    if not total:  # every term is 0: all percentages are 0, or two are 1
        raise UndefinedContestError("probability undefined for this contest")
    return terms[-1] / total  # the numerator, shifted as the sum took it


def odds_from_sum(c: Contest) -> float:
    """Sum Formula: the odds against the protagonist, as a sum over opponents."""
    q = _strengths(c)
    a, lose = c.protagonist, 1.0 - c.protagonist
    # Each pair's odds b(1 - a)/(a(1 - b)) as q(b)(1 - a)/a, which divides only by a
    # and overflows only where the odds themselves do.
    return _sum_odds([v * lose / a for v in q])


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


def validate_partition(blocks: Sequence[Sequence[int]], n: int) -> tuple[tuple[int, ...], ...]:
    """Check that blocks are nonempty, disjoint, and cover the indices 0..n-1."""
    normalized = tuple(map(tuple, blocks))
    seen: set[int] = set()
    for block in normalized:
        if not block:
            raise ValueError("partition blocks must be nonempty")
        for idx in block:
            if not isinstance(idx, int) and not hasattr(idx, "__index__"):  # ints skip the lookup
                raise ValueError(f"partition index {idx!r} is not an integer")
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
    q = _strengths(c)
    parts = validate_partition(blocks, c.n)
    a = c.protagonist
    # Each block's odds against a, met as a whole field: (1 - a) sum q(b_i) / a.
    odds = _sum_odds([math.fsum([q[i] for i in block]) * (1.0 - a) / a for block in parts])
    return 1.0 / (1.0 + odds)


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
    return 1.0 / (1.0 + b1 / (1.0 - b1) * (1.0 - a) / a / p_rest)


def p_n_shifted_sum(c: Contest) -> float:
    """Shifted Sum Formula: odds(a, b_1) (1 + sum over j > 1 of odds(b_1, b_j)).

    Here odds(x, y) = q(y)/q(x).  For q(b_1) = m 2**k, each odds(b_1, b_j) is
    formed as q(b_j) / (m 2**-54), neither subnormal nor infinite, and their
    sum is scaled by 2**-(k + 54); times odds(a, b_1), the 2**k cancels.
    """
    q = _strengths(c)
    (a_m, a_e), (b1_m, _) = map(math.frexp, (c.protagonist / (1.0 - c.protagonist), q[0]))
    unit = math.ldexp(b1_m, -54)  # so the j = 1 term, 2**(k + 54), is the exact 1
    m, e = math.frexp(math.fsum([v / unit for v in q]))
    return _p_from_odds(m * b1_m / a_m, e - 54 - a_e)


def p_n_expanded_sum(c: Contest) -> float:
    """Expanded Sum Formula: a chain of pairwise odds q(c_i)/q(c_{i-1}) along a, b_1, ..., b_n.

    Term k multiplies the ratios in turn and telescopes to q(b_k)/q(a).  Each
    strength below 2**-900 is first lifted by 2**974, exactly, so every
    strength lies in [2**-900, 2**74] and every ratio and term in
    [2**-974, 2**974].  Term k then carries 2**(974 (l_0 - l_k)) for the
    lifts l_0 of a and l_k of b_k, which the scaled sum undoes.
    """
    q = _strengths(c)
    q.insert(0, c.protagonist / (1.0 - c.protagonist))
    runs = [(0, c.n, 0)]
    if min(q) < _GUARD:
        low = [v < _GUARD for v in q]
        q = [v * _LIFT if up else v for v, up in zip(q, low)]
        runs = [(j, j + 1, _LIFT_EXP * (low[0] - up)) for j, up in enumerate(low[1:])]
    terms = list(accumulate(map(truediv, q[1:], q), mul))
    total, top = _scaled_sum(terms, runs)
    m, e = math.frexp(total)
    return _p_from_odds(m, e + top)
