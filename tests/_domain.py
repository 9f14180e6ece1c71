"""Percentages drawn over the whole domain [0, 1], shared by the tests.

A generator is a list of strata ``(cutoff, pick)``: ``draw`` takes one
``u = rng.random()`` and calls the first ``pick(rng)`` whose cutoff exceeds
``u``.  Each pick makes exactly one more call on ``rng``, so a seeded test
draws the same cases whatever module its strata live in.
"""

import math

from hypothesis import strategies as st

# One ulp inside each end of [0, 1], the subnormal edges, and the ends themselves.
EDGE_PCTS = (0.0, -0.0, 1.0, 5e-324, 2.0**-1022 - 5e-324, 2.0**-1022, 1.0 - 2.0**-53, 0.5)
OUT_OF_DOMAIN = (math.nan, math.inf, -math.inf, -5e-324, -0.1, 1.0 + 2.0**-52)
# The same ideas as command-line text.
EDGE_TEXT = ("0", "1", "-0.0", "5e-324", repr(2.0**-1022), repr(1.0 - 2.0**-53), "0.5")
BAD_TEXT = ("nan", "inf", "-0.1", repr(1.0 + 2.0**-52))


def draw(rng, strata):
    u = rng.random()
    return next(pick for cutoff, pick in strata if u < cutoff)(rng)


def one_of(values):
    return lambda rng: rng.choice(values)


def subnormal(rng):
    return rng.randrange(1, 2**52) * 5e-324


def below(decades):
    """10**-U(0, decades): piled up near 0."""
    return lambda rng: 10.0 ** -rng.uniform(0.0, decades)


def near_one(decades):
    """1 - 10**-U(0, decades): piled up near 1."""
    return lambda rng: 1.0 - 10.0 ** -rng.uniform(0.0, decades)


def uniform(low, high):
    return lambda rng: rng.uniform(low, high)


def unit(rng):
    return rng.random()


# Contest validation and p_n: every edge, subnormals, both ends, some invalid values.
CORE_STRATA = [
    (0.02, one_of(OUT_OF_DOMAIN)),
    (0.25, one_of(EDGE_PCTS)),
    (0.40, subnormal),
    (0.60, below(300.0)),
    (0.80, near_one(16.0)),
    (1.0, unit),
]
# The CLI's percentages, as text once passed through str: the full domain and a little beyond.
CLI_STRATA = [
    (0.02, one_of(BAD_TEXT)),
    (0.2, one_of(EDGE_TEXT)),
    (0.35, subnormal),
    (0.6, below(300.0)),
    (0.8, near_one(16.0)),
    (1.0, unit),
]
# Near both ends, where odds formed as 1/p - 1 cancel; every exact P_n exceeds 1e-32.
NEAR_ENDS_STRATA = [
    (0.4, below(15.0)),
    (0.8, near_one(15.0)),
    (1.0, uniform(0.05, 0.95)),
]
# Strictly inside (0, 1) down to 1e-320 and one ulp below 1, where odds between two
# opponents leave the float range.
INTERIOR_STRATA = [
    (0.35, below(320.0)),
    (0.70, near_one(16.0)),
    (0.80, one_of((5e-324, 1e-310, 2.0**-1022, 1.0 - 2.0**-53))),
    (1.0, unit),
]

# Every float in [0, 1]: plain draws (subnormals included), the ends and one ulp
# inside each, and log-uniform values piled up near both ends.
full_domain = st.one_of(
    st.sampled_from((0.0, 5e-324, 2.0**-1022, 0.5, 1.0 - 2.0**-53, 1.0)),
    st.floats(0.0, 1.0),
    st.floats(0.0, 320.0).map(lambda k: 10.0**-k),
    st.floats(0.0, 16.0).map(lambda k: 1.0 - 10.0**-k),
)
