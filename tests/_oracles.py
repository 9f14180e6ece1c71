"""Exact rational oracles used to freeze expected values.

Everything here works in Fraction arithmetic straight from the defining
formulas, independent of the floating-point code paths under test.  Every
argument, float or Fraction, is converted with Fraction() first, so a float
input is taken at its exact binary value and never rounds the result.
"""

import operator
from fractions import Fraction
from itertools import accumulate


def exact_strength(s) -> Fraction:
    s = Fraction(s)
    return s / (1 - s)


def exact_james(a, b) -> Fraction:
    a, b = Fraction(a), Fraction(b)
    num = a * (1 - b)
    return num / (num + b * (1 - a))


def exact_p_n(a, opponents) -> Fraction:
    qa = exact_strength(a)
    return qa / (qa + sum(exact_strength(b) for b in opponents))


def exact_product_form(a, opponents) -> Fraction:
    """P_n from the product form a prod(1-b_i) / (that + sum_j b_j (1-a) prod_{i!=j} (1-b_i)).

    Equal to exact_p_n inside (0, 1), and also defined when one percentage
    is exactly 1.  The products over i != j are exact prefix times suffix
    products, so a 256-opponent field costs O(n) Fraction products.
    """
    a = Fraction(a)
    fail = [1 - Fraction(b) for b in opponents]
    prefix = list(accumulate(fail, operator.mul, initial=Fraction(1)))
    suffix = list(accumulate(reversed(fail), operator.mul, initial=Fraction(1)))[::-1]
    num = a * prefix[-1]
    others = sum((1 - f) * prefix[j] * suffix[j + 1] for j, f in enumerate(fail))
    return num / (num + (1 - a) * others)


def exact_or_none(a, bs):
    """exact_p_n, extended by the product form to a single percentage of 1; None if undefined."""
    try:
        return exact_p_n(a, bs)
    except ZeroDivisionError:
        pass
    try:
        return exact_product_form(a, bs)
    except ZeroDivisionError:
        return None


def exact_distorted_difference(b, a, c_rest=(), d_rest=()) -> Fraction:
    """The Distorted Difference Formula for P_m(b; a, d_rest), from p = P_n(a; b, c_rest).

    (1 - p) / (1 + (1/(d1 d2) - 1) p) with d1 = P(b; c_rest), d2 = P(a; d_rest),
    each 1 against an empty field.  Equal to exact_p_n(b, (a,) + d_rest).
    """
    p = exact_p_n(a, (b, *c_rest))
    d1, d2 = exact_p_n(b, c_rest), exact_p_n(a, d_rest)
    return (1 - p) / (1 + (1 / (d1 * d2) - 1) * p)


def exact_complement_solution(opponents, c) -> Fraction:
    """The protagonist a that solves a c = (1 - a)(1 - c) sum q(b_i).

    That relation is P_n(a; opponents) = 1 - c, and it is symmetric in a and c.
    """
    c = Fraction(c)
    total = sum(exact_strength(b) for b in opponents)
    return (1 - c) * total / (c + (1 - c) * total)
