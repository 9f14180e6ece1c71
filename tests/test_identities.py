import math
import random
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from multijames import Contest, UndefinedContestError, cli, james_p, p_n, strength
from multijames.identities import (
    METHODS,
    odds_from_sum,
    p_n_expanded_sum,
    p_n_partitioned,
    p_n_product_form,
    p_n_reduction,
    p_n_shifted_sum,
    p_n_substitution,
    validate_partition,
)

from multijames.verify import (
    CanonicalFamily,
    SampleSpec,
    check_uniqueness_properties,
    counterexample_family,
)

from _domain import CORE_STRATA, INTERIOR_STRATA, NEAR_ENDS_STRATA, draw, full_domain
from _oracles import (
    exact_distorted_difference,
    exact_james,
    exact_or_none,
    exact_p_n,
    exact_product_form,
    exact_strength,
)

interior = st.floats(0.01, 0.99)
opponent_lists = st.lists(interior, min_size=1, max_size=6)


def random_interior_contest(rng, n_max=8):
    n = rng.randint(1, n_max)
    return Contest(rng.uniform(0.05, 0.95), tuple(rng.uniform(0.05, 0.95) for _ in range(n)))


class TestProductForm:
    def test_frozen_value(self):
        assert p_n_product_form(Contest(0.5, (0.8, 0.5))) == pytest.approx(1 / 6, abs=1e-15)

    @given(interior, interior)
    def test_single_opponent_reduces_to_james(self, a, b):
        assert p_n_product_form(Contest(a, (b,))) == pytest.approx(james_p(a, b), rel=1e-14)

    def test_single_one_forces_loss(self):
        assert p_n_product_form(Contest(0.5, (0.3, 1.0))) == 0.0

    def test_undefined(self):
        with pytest.raises(UndefinedContestError):
            p_n_product_form(Contest(0.0, (0.0,)))

    def test_heavy_field_does_not_underflow(self):
        # Every product of 200 factors of 0.001 underflows a float.
        a, bs = 0.5, (0.999,) * 200
        exact = exact_p_n(Fraction(a), bs)
        assert exact_product_form(a, bs) == exact
        assert p_n_product_form(Contest(a, bs)) == pytest.approx(float(exact), rel=1e-13, abs=0.0)

    @pytest.mark.parametrize(
        "a, bs",
        [
            (0.5, (0.999,) * 255 + (1.0,)),
            (1.0, (0.999,) * 256),
            (0.0, (0.999,) * 255 + (1.0,)),
        ],
        ids=["opponent-at-one", "protagonist-at-one", "zero-against-one"],
    )
    def test_boundary_percentage_in_heavy_field(self, a, bs):
        assert p_n_product_form(Contest(a, bs)) == float(exact_product_form(a, bs))

    def test_large_random_field(self):
        rng = random.Random(256)
        for _ in range(5):
            a = rng.random()
            bs = tuple(rng.random() for _ in range(256))
            expected = float(exact_product_form(a, bs))
            assert p_n_product_form(Contest(a, bs)) == pytest.approx(expected, rel=1e-13, abs=0.0)

    # Each 0.75 is a factor 1 - b of exactly 2**-2, and the 40 mild factors multiply to
    # about 0.98.  So 149 of them keep the product of all factors above 2**-300 and 150
    # take it below.  The third column counts how often an earlier two-pass form
    # restarted its prefix and suffix runs of products at that threshold; it only
    # names the cases now.
    @pytest.mark.parametrize(
        "count, where, restarts",
        [
            (149, "front", (0, 0)),
            (149, "middle", (0, 0)),
            (149, "back", (0, 0)),
            (150, "front", (1, 1)),
            (150, "middle", (1, 1)),
            (150, "back", (1, 1)),
            (300, "front", (1, 2)),
            (300, "middle", (2, 2)),
            (300, "back", (2, 1)),
        ],
    )
    def test_runs_restart_at_the_threshold(self, count, where, restarts):
        rng = random.Random(count)
        mild = [rng.uniform(1e-4, 1e-3) for _ in range(40)]
        at = {"front": 0, "middle": 20, "back": 40}[where]
        bs = (*mild[:at], *[0.75] * count, *mild[at:])
        for a in (0.3, 5e-324, NEAR_ONE):
            assert not out_of_bound(p_n_product_form(Contest(a, bs)), exact_p_n(a, bs)), a

    @pytest.mark.parametrize("edge", [0.0, 1.0])
    @pytest.mark.parametrize("at", [0, 100, 160, 298])
    def test_boundary_opponent_around_a_restart(self, edge, at):
        # Among 298 factors of 2**-2, an opponent at 1 is a zero factor and one at 0 a
        # zero term.
        bs = [0.75] * 299
        bs[at] = edge
        for a in (0.3, 1.0 - edge):  # not a second percentage at 1, which is undefined
            value = p_n_product_form(Contest(a, bs))
            assert value == pytest.approx(float(exact_product_form(a, bs)), rel=1e-13, abs=0.0)

    # p starts at 2**900 and is rescaled below 2**200: 350 factors of 2**-2 reach 2**200,
    # 351 rescale once and 701 twice.  The opponent put first, last of those factors, or
    # after them is at 0, at 1, or a plain 0.3.
    @pytest.mark.parametrize("count", [350, 351, 701])
    @pytest.mark.parametrize("edge", [0.3, 0.0, 1.0])
    def test_rescale_threshold(self, count, edge):
        for at in (0, count - 1, count):
            bs = [0.75] * count + [0.3]
            bs[at] = edge
            for a in (0.3, 5e-324, NEAR_ONE):
                exact = exact_product_form(a, bs)
                assert not beyond_product_bound(p_n_product_form(Contest(a, bs)), exact, len(bs))

    def test_within_the_stated_bound(self):
        rng = random.Random(PRODUCT_BOUND_SEED)
        for _ in range(PRODUCT_BOUND_CONTESTS):
            n = rng.choice((1, 2, 4, 16, 64, 256))
            a = draw(rng, INTERIOR_STRATA)
            bs = tuple(draw(rng, INTERIOR_STRATA) for _ in range(n))
            value = p_n_product_form(Contest(a, bs))
            assert not beyond_product_bound(value, exact_p_n(a, bs), n), (a, bs)


# The product form's docstring bound: (3n + 8) 2**-53 relative, plus 2**-1075 absolute
# where the result is subnormal.  Seed and size were fixed before the first run.
PRODUCT_BOUND_SEED = 27
PRODUCT_BOUND_CONTESTS = 600


def beyond_product_bound(value, exact, n):
    return abs(Fraction(value) - exact) > (3 * n + 8) * Fraction(2) ** -53 * exact + Fraction(2) ** -1075


class TestSumFormula:
    def test_frozen_value(self):
        assert odds_from_sum(Contest(0.5, (0.8, 0.5))) == pytest.approx(5.0, rel=1e-14)

    @given(interior)
    def test_single_even_opponent(self, a):
        assert odds_from_sum(Contest(a, (0.5,))) == pytest.approx((1 - a) / a, rel=1e-12)

    def test_balanced_field(self):
        assert odds_from_sum(Contest(0.4, (1 / 3, 1 / 3))) == pytest.approx(1.5, rel=1e-12)

    def test_rejects_boundary(self):
        with pytest.raises(ValueError):
            odds_from_sum(Contest(0.5, (0.0,)))

    @pytest.mark.parametrize("position", [0, 1, 2])
    @pytest.mark.parametrize("edge", [0.0, 1.0])
    def test_boundary_opponent_named_anywhere(self, edge, position):
        opps = [0.25, 0.75]
        opps.insert(position, edge)
        with pytest.raises(ValueError) as exc:
            odds_from_sum(Contest(0.5, opps))
        assert str(exc.value) == f"opponent must lie strictly inside (0, 1), got {edge!r}"

    def test_overflowing_total(self):
        # The odds against a exceed the largest float, so odds_from_sum returns inf, while
        # every method, sum included, still returns the exact 4.1e-309 to one subnormal step.
        a, bs = 1.300396413717238e-308, (0.6995037488483575, 0.0677, 0.2476, 0.2909)
        assert odds_from_sum(Contest(a, bs)) == math.inf
        exact = exact_p_n(a, bs)
        for evaluate in cli.METHODS.values():
            assert abs(Fraction(evaluate(Contest(a, bs), 0.5, None)) - exact) <= 2.0**-1074


class TestSubstitution:
    @given(interior, opponent_lists)
    def test_pivot_at_protagonist_is_identity(self, a, bs):
        c = Contest(a, tuple(bs))
        assert p_n_substitution(c, a) == pytest.approx(p_n(c), rel=1e-14)

    def test_frozen_values(self):
        assert p_n_substitution(Contest(0.5, (0.8, 0.5)), 0.5) == pytest.approx(
            1 / 6, rel=1e-14
        )
        # q(0.6) = 1.5, opponents sum to 2: P = 1.5/3.5 = 3/7.
        assert p_n_substitution(Contest(0.6, (0.5, 0.5)), 0.3) == pytest.approx(
            3 / 7, rel=1e-12
        )

    def test_rejects_boundary_pivot(self):
        with pytest.raises(ValueError):
            p_n_substitution(Contest(0.5, (0.5,)), 1.0)

    def test_rejects_nan_pivot(self):
        # A NaN passed both comparisons of the range check, and came back as the probability.
        with pytest.raises(ValueError, match="pivot must lie strictly inside"):
            p_n_substitution(Contest(0.5, (0.5,)), math.nan)

    @pytest.mark.parametrize(
        "a, bs, pivot",
        [
            (0.5, (0.5,), 1e-320),
            (0.5, (0.99,), 1e-307),
            (1e-300, (1e-300,), 1.0 - 2.0**-53),
            (5e-324, (5e-324,), 0.5),
            (1.0 - 2.0**-53, (0.5, 1.0 - 2.0**-53), 5e-324),
        ],
    )
    def test_extreme_pivot_or_protagonist(self, a, bs, pivot):
        # At least one factor leaves the float range here; their product does not.
        # The first case printed nan, and the others gave 0.0 or nan.
        exact = exact_p_n(a, bs)
        got = p_n_substitution(Contest(a, bs), pivot)
        assert abs(Fraction(got) - exact) <= 1e-15 * exact


class TestPartition:
    def test_validate_partition(self):
        validate_partition([(0, 1), (2,)], 3)
        with pytest.raises(ValueError):
            validate_partition([(0,), (0, 1)], 2)
        with pytest.raises(ValueError):
            validate_partition([(0,)], 2)
        with pytest.raises(ValueError):
            validate_partition([(), (0,)], 1)
        with pytest.raises(ValueError):
            validate_partition([(0, 5)], 2)

    @pytest.mark.parametrize(
        "blocks, message",
        [
            ([[0, math.nan]], "partition index nan is not an integer"),
            ([[0, 0]], "partition index 0 repeated"),
            ([[0], []], "partition blocks must be nonempty"),
            ([[0, 2]], "partition index 2 outside 0..1"),
            ([[-1, 0]], "partition index -1 outside 0..1"),
            ([[0], [1.5]], "partition index 1.5 is not an integer"),
            ([[0, 1.0]], "partition index 1.0 is not an integer"),
            ([(0, 1.5)], "partition index 1.5 is not an integer"),
            ([[0, [1]]], "partition index [1] is not an integer"),
            ([[Decimal(0), 1.0]], "partition index Decimal('0') is not an integer"),
        ],
    )
    def test_validate_partition_messages(self, blocks, message):
        # A set comparison takes 1.0 for 1, and validate_partition once accepted
        # [(0, 1.5)] for n = 2, although index 1 is never covered.  An unhashable
        # or a Decimal index is named too, not left to raise a TypeError.
        with pytest.raises(ValueError) as exc:
            validate_partition(blocks, 2)
        assert str(exc.value) == message

    @pytest.mark.parametrize("blocks", [[(0, 1.0)], [(0, 1.5)]])
    def test_non_integer_index_is_a_value_error(self, blocks):
        # This was a TypeError from indexing the field with a float.
        with pytest.raises(ValueError, match="is not an integer"):
            p_n_partitioned(Contest(0.5, (0.3, 0.6)), blocks)

    @pytest.mark.parametrize("blocks", [[[0], [np.int64(1)]], [[True, 0]], [(1,), (0,)]])
    def test_integer_like_indices_are_accepted(self, blocks):
        assert validate_partition(blocks, 2) == tuple(map(tuple, blocks))
        c = Contest(0.5, (0.3, 0.6))
        assert p_n_partitioned(c, blocks) == pytest.approx(p_n(c), rel=1e-14)

    def test_singletons_match_sum_path(self):
        c = Contest(0.5, (0.8, 0.5))
        singles = p_n_partitioned(c, [(0,), (1,)])
        assert singles == pytest.approx(1.0 / (1.0 + odds_from_sum(c)), rel=1e-14)

    def test_one_block_matches_direct(self):
        c = Contest(0.5, (0.8, 0.5))
        assert p_n_partitioned(c, [(0, 1)]) == pytest.approx(p_n(c), rel=1e-14)

    def test_frozen_cross_agreement(self):
        c = Contest(0.5, (0.8, 0.5, 0.6))
        assert p_n_partitioned(c, [(0, 1), (2,)]) == pytest.approx(p_n(c), rel=1e-12)

    def test_invariant_across_partitions(self):
        rng = random.Random(7)
        c = Contest(0.45, (0.3, 0.7, 0.55, 0.62, 0.12))
        reference = p_n(c)
        for _ in range(50):
            blocks = random_partition(rng, c.n)
            assert p_n_partitioned(c, blocks) == pytest.approx(reference, rel=1e-12)

    def test_no_blocks_is_the_sum_formula(self):
        # The same bits, or the same error, as the n singleton blocks it stands for,
        # and as the sum entry.
        rng = random.Random(NO_BLOCKS_SEED)
        for k in range(NO_BLOCKS_CONTESTS):
            strata = (CORE_STRATA, INTERIOR_STRATA)[k % 2]
            n = rng.choice((1, 2, 4, 16, 64, 256))
            a = draw(rng, strata)
            bs = tuple(draw(rng, strata) for _ in range(n))
            try:
                c = Contest(a, bs)
            except ValueError:  # outside the domain, so no evaluator sees it
                continue
            expected = outcome(p_n_partitioned, c, [[i] for i in range(n)])
            assert outcome(METHODS["partition"], c, 0.5, None) == expected, (a, bs)
            assert outcome(METHODS["sum"], c, 0.5, None) == expected, (a, bs)

    def test_within_the_stated_bound(self):
        # Sum, and partition with and without blocks, against p_n_partitioned's bound.
        rng = random.Random(SUM_BOUND_SEED)
        for _ in range(SUM_BOUND_CONTESTS):
            n = rng.choice((1, 2, 4, 16, 64, 256))
            a = draw(rng, INTERIOR_STRATA)
            bs = tuple(draw(rng, INTERIOR_STRATA) for _ in range(n))
            c, exact = Contest(a, bs), exact_p_n(a, bs)
            for method, blocks in (("sum", None), ("partition", None),
                                   ("partition", random_partition(rng, n))):
                value = METHODS[method](c, 0.5, blocks)
                assert not beyond_sum_bound(value, exact), (method, a, bs, blocks)


# Seeds and sizes were fixed before the first run.
NO_BLOCKS_SEED = 32
NO_BLOCKS_CONTESTS = 2000
SUM_BOUND_SEED = 45
SUM_BOUND_CONTESTS = 600


def random_partition(rng, n):
    """The indices 0..n-1, shuffled and cut into 1 to n blocks."""
    indices = list(range(n))
    rng.shuffle(indices)
    k = rng.randint(1, n)
    cuts = sorted(rng.sample(range(1, n), k - 1)) if k > 1 else []
    blocks, start = [], 0
    for cut in cuts + [n]:
        blocks.append(tuple(indices[start:cut]))
        start = cut
    return blocks


def outcome(evaluate, *args):
    """The value's hex, or the class and message of the ValueError raised instead."""
    try:
        return evaluate(*args).hex()
    except ValueError as exc:
        return type(exc), str(exc)


def beyond_sum_bound(value, exact):
    """Outside 10 2**-53 relative, plus 2**-1075 absolute where the result is subnormal."""
    return abs(Fraction(value) - exact) > 10 * Fraction(2) ** -53 * exact + Fraction(2) ** -1075


class TestReduction:
    @given(interior, interior)
    def test_single_opponent_is_plain_odds(self, a, b):
        assert p_n_reduction(Contest(a, (b,))) == pytest.approx(james_p(a, b), rel=1e-14)

    def test_frozen_value(self):
        assert p_n_reduction(Contest(0.5, (0.5, 0.5))) == pytest.approx(1 / 3, rel=1e-14)

    def test_zero_tail_still_valid(self):
        assert p_n_reduction(Contest(0.5, (0.6, 0.0))) == pytest.approx(
            james_p(0.5, 0.6), rel=1e-14
        )

    def test_rejects_boundary_first_opponent(self):
        with pytest.raises(ValueError):
            p_n_reduction(Contest(0.5, (0.0, 0.5)))

    @pytest.mark.parametrize("bs", [(5e-324, 0.9), (1e-310, 0.5), (1e-300, 1.0 - 2.0**-53)])
    def test_rejects_first_opponent_lost_against_the_rest(self, bs):
        # P(b1 beats the rest) is subnormal or 0.0, so dividing by it would
        # give a wrong value or a ZeroDivisionError.
        with pytest.raises(ValueError, match=r"below 2\*\*-1022"):
            p_n_reduction(Contest(0.5, bs))

    def test_first_opponent_just_above_the_floor(self):
        a, bs = 0.5, (2.0**-1020, 0.5)
        assert p_n_reduction(Contest(a, bs)) == pytest.approx(float(exact_p_n(a, bs)), rel=1e-15)


class TestShiftedSum:
    @given(interior, interior)
    def test_single_opponent(self, a, b):
        assert p_n_shifted_sum(Contest(a, (b,))) == pytest.approx(james_p(a, b), rel=1e-14)

    def test_frozen_values(self):
        assert p_n_shifted_sum(Contest(0.5, (0.5, 0.5))) == pytest.approx(1 / 3, rel=1e-14)
        assert p_n_shifted_sum(Contest(0.4, (1 / 3, 1 / 3))) == pytest.approx(0.4, rel=1e-12)


class TestExpandedSum:
    def test_frozen_chain_terms(self):
        # Chain terms: q(0.8)/q(0.5) = 4 and 4 * q(0.5)/q(0.8) = 1: odds = 5.
        assert p_n_expanded_sum(Contest(0.5, (0.8, 0.5))) == pytest.approx(1 / 6, rel=1e-14)

    def test_chain_through_near_one_opponents(self):
        # Each pairwise probability in the chain is near 1; 1/p - 1 left
        # this 5.2% low.
        c = Contest(0.5, (0.999999, 1e-9, 0.999999))
        assert p_n_expanded_sum(c) == pytest.approx(p_n(c), rel=1e-12)

    @given(interior, st.lists(interior, min_size=2, max_size=6), st.randoms(use_true_random=False))
    def test_permutation_agreement(self, a, bs, rnd):
        perm = list(bs)
        rnd.shuffle(perm)
        c1 = p_n_expanded_sum(Contest(a, tuple(bs)))
        c2 = p_n_expanded_sum(Contest(a, tuple(perm)))
        assert c1 == pytest.approx(c2, rel=1e-12)


def uniqueness_check(family, name):
    spec = SampleSpec(n_values=(1, 2, 3, 4), points=150, seed=12, tolerance=1e-9)
    return next(r for r in check_uniqueness_properties(family, spec) if r.name == name)


def win_odds(a, field):
    p = p_n(Contest(a, field))
    return p / (1.0 - p)


def exact_win_odds(a, field):
    p = exact_p_n(a, field)
    return p / (1 - p)


class TestDistortedDifference:
    """P_m(b; a, d_rest) from p = P_n(a; b, c_rest): (1 - p) / (1 + (1/(d1 d2) - 1) p)."""

    @given(interior, interior)
    def test_empty_rests_exact_complement(self, a, b):
        exact = exact_distorted_difference(b, a)
        assert exact == exact_p_n(b, (a,)) == 1 - exact_james(a, b)
        assert p_n(Contest(b, (a,))) == pytest.approx(float(exact), rel=1e-15)

    def test_symmetric_three_player_value(self):
        half = Fraction(1, 2)
        assert exact_distorted_difference(half, half, (half,), (half,)) == Fraction(1, 3)
        assert p_n(Contest(0.5, (0.5, 0.5))) == pytest.approx(1 / 3, rel=1e-14)

    @given(interior, interior, st.integers(1, 3), st.integers(1, 3))
    def test_equal_rest_specialization(self, a, b, m, n):
        # All c's equal b and all d's equal a collapses the formula to
        # (1 - Pn) / (1 + (mn - 1) Pn).
        via_formula = exact_distorted_difference(b, a, (b,) * (n - 1), (a,) * (m - 1))
        assert via_formula == exact_p_n(b, (a,) * m)
        pn = p_n(Contest(a, (b,) * n))
        collapsed = (1 - pn) / (1 + (m * n - 1) * pn)
        direct = p_n(Contest(b, (a,) * m))
        assert float(via_formula) == pytest.approx(direct, rel=1e-12)
        assert collapsed == pytest.approx(direct, rel=1e-12)

    @given(interior, interior, opponent_lists, opponent_lists)
    def test_general_rests(self, a, b, c_rest, d_rest):
        via_formula = exact_distorted_difference(b, a, c_rest, d_rest)
        assert via_formula == exact_p_n(b, (a, *d_rest))
        assert p_n(Contest(b, (a, *d_rest))) == pytest.approx(float(via_formula), rel=1e-12)


class TestOddsRatio:
    """With one protagonist, the ratio of its odds of winning against two
    fields is the ratio of their total strengths, whatever the protagonist."""

    def test_identical_opponents(self):
        field = (0.3, 0.6)
        assert exact_win_odds(0.4, field) / exact_win_odds(0.4, field) == 1
        assert win_odds(0.4, field) / win_odds(0.4, field) == 1.0

    def test_frozen_value(self):
        # q(0.5)/q(0.8) = 1/4, independent of the shared protagonist.
        expected = exact_strength(0.5) / exact_strength(0.8)
        assert exact_win_odds(0.4, (0.8,)) / exact_win_odds(0.4, (0.5,)) == expected
        assert win_odds(0.4, (0.8,)) / win_odds(0.4, (0.5,)) == pytest.approx(0.25, rel=1e-12)

    def test_protagonist_invariance(self):
        bs, cs = (0.8, 0.3), (0.5, 0.6, 0.2)
        r1 = exact_win_odds(0.3, bs) / exact_win_odds(0.3, cs)
        assert exact_win_odds(0.7, bs) / exact_win_odds(0.7, cs) == r1
        assert win_odds(0.7, bs) / win_odds(0.7, cs) == pytest.approx(float(r1), rel=1e-12)
        assert uniqueness_check(CanonicalFamily(), "odds-ratio-independence").passed
        assert not uniqueness_check(
            counterexample_family("mismatched-base"), "odds-ratio-independence"
        ).passed

    def test_matches_strength_ratio(self):
        bs, cs = (0.8, 0.3), (0.5, 0.6)
        expected = math.fsum(strength(x) for x in cs) / math.fsum(strength(x) for x in bs)
        assert win_odds(0.4, bs) / win_odds(0.4, cs) == pytest.approx(expected, rel=1e-12)

    def test_tiny_fields(self):
        # Both probabilities are near 1, so odds formed as p / (1 - p) would
        # cost 1.1e-5 relative; the sum formula's odds against do not.
        c1, c2 = (1e-12,), (3e-12, 1e-13)
        exact = sum(map(exact_strength, c2)) / sum(map(exact_strength, c1))
        assert exact_win_odds(0.5, c1) / exact_win_odds(0.5, c2) == exact
        got = odds_from_sum(Contest(0.5, c2)) / odds_from_sum(Contest(0.5, c1))
        assert abs(Fraction(got) - exact) <= 1e-15 * exact

    def test_protagonist_mismatch(self):
        # Protagonists a1 and a2 scale the ratio by q(a1)/q(a2).
        bs, cs = (0.5,), (0.5,)
        ratio = exact_win_odds(0.4, bs) / exact_win_odds(0.5, cs)
        assert ratio == exact_strength(0.4) / exact_strength(0.5) != 1


class TestIiaRatio:
    """P(b; a, shared) / P(a; b, shared) = q(b)/q(a), whatever the shared field."""

    @staticmethod
    def ratio(a, b, shared):
        return p_n(Contest(b, (a, *shared))) / p_n(Contest(a, (b, *shared)))

    @given(interior)
    def test_equal_competitors(self, a):
        assert self.ratio(a, a, (0.3, 0.6)) == pytest.approx(1.0, rel=1e-12)

    def test_frozen_value(self):
        shared = (0.4, 0.6)
        exact = exact_p_n(0.8, (0.5, *shared)) / exact_p_n(0.5, (0.8, *shared))
        assert exact == exact_strength(0.8) / exact_strength(0.5)
        assert self.ratio(0.5, 0.8, shared) == pytest.approx(4.0, rel=1e-12)
        assert uniqueness_check(CanonicalFamily(), "iia").passed
        assert not uniqueness_check(counterexample_family("mismatched-base"), "iia").passed

    @given(interior, interior, st.lists(st.floats(0.01, 0.95), max_size=4))
    def test_independent_of_shared_field(self, a, b, shared):
        exact = exact_p_n(b, (a, *shared)) / exact_p_n(a, (b, *shared))
        assert exact == exact_strength(b) / exact_strength(a)
        base = james_p(b, a) / james_p(a, b)
        assert self.ratio(a, b, tuple(shared)) == pytest.approx(base, rel=1e-12)


class TestCrossAgreement:
    def test_all_evaluators_agree(self):
        rng = random.Random(20240901)
        for _ in range(300):
            c = random_interior_contest(rng)
            reference = p_n(c)
            values = [
                p_n_product_form(c),
                1.0 / (1.0 + odds_from_sum(c)),
                p_n_substitution(c, rng.uniform(0.05, 0.95)),
                p_n_reduction(c),
                p_n_shifted_sum(c),
                p_n_expanded_sum(c),
                p_n_partitioned(c, [(i,) for i in range(c.n)]),
            ]
            for value in values:
                assert value == pytest.approx(reference, rel=1e-12)

    def test_agreement_with_exact_oracle(self):
        a = Fraction(2, 7)
        bs = (Fraction(3, 8), Fraction(5, 9), Fraction(1, 6))
        expected = float(exact_p_n(a, bs))
        c = Contest(float(a), tuple(float(b) for b in bs))
        assert p_n(c) == pytest.approx(expected, rel=1e-13)
        assert p_n_product_form(c) == pytest.approx(expected, rel=1e-13)
        assert p_n_expanded_sum(c) == pytest.approx(expected, rel=1e-13)


# The fuzz from ROADMAP item 1: percentages piled up near 0 and near 1,
# where odds formed as 1/p - 1 cancel.  Seed and size were fixed before the
# first run.
FUZZ_SEED = 11
FUZZ_CONTESTS = 20_000
FUZZ_REL_BOUND = 1e-9


def test_every_method_near_both_ends():
    rng = random.Random(FUZZ_SEED)
    failures = dict.fromkeys(cli.METHODS, 0)
    for _ in range(FUZZ_CONTESTS):
        n = rng.choice((1, 2, 3, 4, 8))
        a = draw(rng, NEAR_ENDS_STRATA)
        bs = tuple(draw(rng, NEAR_ENDS_STRATA) for _ in range(n))
        c = Contest(a, bs)
        # Every exact value here exceeds 1e-32, so a float holds it to 1e-16.
        exact = float(exact_p_n(a, bs))
        for method, evaluate in cli.METHODS.items():
            if abs(evaluate(c, 0.5, None) - exact) > FUZZ_REL_BOUND * exact:
                failures[method] += 1
    assert failures == dict.fromkeys(cli.METHODS, 0)


# Every cli.METHODS evaluator returns P_n within this bound of the exact value, or
# raises its documented ValueError; none returns a NaN.  The absolute part is one
# subnormal step, so a probability below 2**-1022 may not read as 0.0.
METHOD_REL_BOUND = Fraction(1e-9)
METHOD_ABS_BOUND = Fraction(2.0**-1074)


def method_outcomes(a, bs, pivot):
    """Each cli.METHODS evaluator's value on Contest(a, bs), or the ValueError it raised."""
    c = Contest(a, bs)
    outcomes = {}
    for method, evaluate in cli.METHODS.items():
        try:
            outcomes[method] = evaluate(c, pivot, None)
        except ValueError as exc:
            outcomes[method] = exc
    return outcomes


def out_of_bound(value, exact):
    return math.isnan(value) or abs(Fraction(value) - exact) > (
        METHOD_REL_BOUND * exact + METHOD_ABS_BOUND)


# 4000 contests strictly inside (0, 1), down to 1e-320 and up to one ulp below 1,
# where odds between two opponents leave the float range.  Seed and size were fixed
# before the first run.
SAMPLE_SEED = 21
SAMPLE_CONTESTS = 4000


def test_every_method_on_the_interior_sample():
    rng = random.Random(SAMPLE_SEED)
    failures = dict.fromkeys(cli.METHODS, 0)
    reduction_refused = 0
    for _ in range(SAMPLE_CONTESTS):
        n = rng.choice((1, 2, 3, 4, 8))
        a = draw(rng, INTERIOR_STRATA)
        bs = tuple(draw(rng, INTERIOR_STRATA) for _ in range(n))
        exact = exact_p_n(a, bs)
        for method, value in method_outcomes(a, bs, 0.5).items():
            if isinstance(value, ValueError):
                # The one documented refusal on an interior contest.
                assert method == "reduction" and "below 2**-1022" in str(value), (method, a, bs)
                reduction_refused += 1
            elif out_of_bound(value, exact):
                failures[method] += 1
    assert failures == dict.fromkeys(cli.METHODS, 0)
    assert reduction_refused > 0  # the sample reaches the refusal


# 200 contests of 64 or 256 opponents drawn like the sample above, so the product form
# rescales its products many times.  Seed and size were fixed before the first run.
LARGE_SAMPLE_SEED = 22
LARGE_SAMPLE_CONTESTS = 200


def test_every_method_on_a_large_field_sample():
    rng = random.Random(LARGE_SAMPLE_SEED)
    failures = dict.fromkeys(cli.METHODS, 0)
    for _ in range(LARGE_SAMPLE_CONTESTS):
        n = rng.choice((64, 256))
        a = draw(rng, INTERIOR_STRATA)
        bs = tuple(draw(rng, INTERIOR_STRATA) for _ in range(n))
        exact = exact_p_n(a, bs)
        for method, value in method_outcomes(a, bs, 0.5).items():
            if isinstance(value, ValueError):
                assert method == "reduction" and "below 2**-1022" in str(value), (method, a, bs)
            elif out_of_bound(value, exact):
                failures[method] += 1
    assert failures == dict.fromkeys(cli.METHODS, 0)


NEAR_ONE = 1.0 - 2.0**-53


@pytest.mark.parametrize("a", [0.5, 5e-324, NEAR_ONE])
@pytest.mark.parametrize("evaluate", [p_n_product_form, p_n_expanded_sum], ids=["product", "expanded"])
def test_deep_field_with_subnormal_opponents(evaluate, a):
    # Each factor 1 - b is 2**-53, so the product form rescales p and s every 14 opponents.
    bs = [NEAR_ONE] * 256
    bs[3], bs[100], bs[101], bs[255] = 5e-324, 2.0**-1022, 5e-324, 2.0**-1022
    assert not out_of_bound(evaluate(Contest(a, bs)), exact_p_n(a, bs))


@pytest.mark.parametrize(
    "a, bs",
    [
        (0.5, (2.0**-899, 2.0**-901, 2.0**-900)),
        (2.0**-901, (2.0**-899, 0.5, 2.0**-950, NEAR_ONE)),
        (2.0**-899, (5e-324, 2.0**-901, NEAR_ONE, 2.0**-900 * (1 - 2.0**-53))),
        # Every chain term is normal, but unlifted the ratio q(b_2)/q(b_1), about 2**-1050,
        # would keep 24 bits, and the last term would carry that error.
        (0.5, (1 - 2.0**-50, 1.2345 * 2.0**-1000, 1 / 3, 2.0**-899 * 1.3, 1 - 2.0**-50)),
    ],
)
def test_expanded_strengths_straddling_the_lift(a, bs):
    assert not out_of_bound(p_n_expanded_sum(Contest(a, bs)), exact_p_n(a, bs))


@settings(max_examples=400, deadline=None)
@seed(5)
@given(full_domain, st.lists(full_domain, min_size=1, max_size=8), full_domain)
def test_every_method_on_the_full_domain(a, bs, pivot):
    exact = exact_or_none(a, bs)
    inside = 0.0 < a < 1.0 and all(0.0 < b < 1.0 for b in bs)
    for method, value in method_outcomes(a, bs, pivot).items():
        if not isinstance(value, ValueError):
            assert exact is not None and not out_of_bound(value, exact), (method, value)
        elif method in ("direct", "product"):
            assert exact is None and isinstance(value, UndefinedContestError), (method, value)
        elif method == "reduction":
            assert not inside or "below 2**-1022" in str(value), value
        else:  # the other routes need every percentage, and the pivot, inside (0, 1)
            assert not inside or method == "substitution" and not 0.0 < pivot < 1.0, value


SCREENED = {
    "sum": odds_from_sum,
    "substitution": lambda c: p_n_substitution(c, 0.5),
    "partition": lambda c: p_n_partitioned(c, [range(c.n)]),
    "shifted": p_n_shifted_sum,
    "expanded": p_n_expanded_sum,
    "reduction": p_n_reduction,
}


@pytest.mark.parametrize("method", SCREENED)
@pytest.mark.parametrize("n", [1, 2, 16, 256])
@pytest.mark.parametrize("edge", [0.0, 1.0])
def test_boundary_opponent_at_every_position(method, n, edge):
    evaluate = SCREENED[method]
    rng = random.Random(n)
    field = [rng.uniform(0.05, 0.95) for _ in range(n)]
    for position in range(n):
        bs = field[:position] + [edge] + field[position + 1:]
        with pytest.raises(ValueError) as exc:
            evaluate(Contest(edge, bs))  # the protagonist is reported first
        assert str(exc.value) == f"protagonist must lie strictly inside (0, 1), got {edge!r}"
        if method == "reduction" and position:
            if edge == 0.0:  # the rest may hold zeros
                assert not out_of_bound(evaluate(Contest(0.4, bs)), exact_p_n(0.4, bs))
                continue
            message = "remaining opponents must lie in [0, 1)"
        else:
            name = "first opponent" if method == "reduction" else "opponent"
            message = f"{name} must lie strictly inside (0, 1), got {edge!r}"
        with pytest.raises(ValueError) as exc:
            evaluate(Contest(0.4, bs))
        assert str(exc.value) == message


def test_field_whose_product_underflows():
    # 0.01**256 underflows to 0, though no opponent is 0; the screen must not take it for one.
    bs = (0.01,) * 256
    assert math.prod(bs) == 0.0
    for a in (0.5, 1e-300, NEAR_ONE):
        for method, value in method_outcomes(a, bs, 0.5).items():
            assert not out_of_bound(value, exact_p_n(a, bs)), (method, a, value)
