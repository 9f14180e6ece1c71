import math
import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from multijames import Contest, UndefinedContestError, cli, james_p, p_n, strength
from multijames.identities import (
    distorted_difference,
    iia_ratio,
    odds_from_sum,
    odds_ratio,
    p_n_expanded_sum,
    p_n_partitioned,
    p_n_product_form,
    p_n_reduction,
    p_n_shifted_sum,
    p_n_substitution,
    validate_partition,
)

from _oracles import exact_p_n, exact_product_form, exact_strength

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
        # Each term is near the largest float, so fsum's total overflows.  The
        # exact probability, 4.1e-309, is then within 2**-1022 of 0.0.
        a, bs = 1.300396413717238e-308, (0.6995037488483575, 0.0677, 0.2476, 0.2909)
        assert odds_from_sum(Contest(a, bs)) == math.inf
        exact = exact_p_n(a, bs)
        for evaluate in cli.METHODS.values():
            assert abs(Fraction(evaluate(Contest(a, bs), 0.5, None)) - exact) <= 2.0**-1022


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
            indices = list(range(c.n))
            rng.shuffle(indices)
            k = rng.randint(1, c.n)
            cuts = sorted(rng.sample(range(1, c.n), k - 1)) if k > 1 else []
            blocks, start = [], 0
            for cut in cuts + [c.n]:
                blocks.append(tuple(indices[start:cut]))
                start = cut
            assert p_n_partitioned(c, blocks) == pytest.approx(reference, rel=1e-12)


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


class TestDistortedDifference:
    @given(interior, interior)
    def test_empty_rests_exact_complement(self, a, b):
        assert distorted_difference(b, a) == 1.0 - james_p(a, b)

    def test_symmetric_three_player_value(self):
        assert distorted_difference(0.5, 0.5, (0.5,), (0.5,)) == pytest.approx(
            1 / 3, rel=1e-14
        )

    @given(interior, interior, st.integers(1, 3), st.integers(1, 3))
    def test_equal_rest_specialization(self, a, b, m, n):
        # All c's equal b and all d's equal a collapses the formula to
        # (1 - Pn) / (1 + (mn - 1) Pn).
        via_formula = distorted_difference(b, a, (b,) * (n - 1), (a,) * (m - 1))
        pn = p_n(Contest(a, (b,) * n))
        collapsed = (1 - pn) / (1 + (m * n - 1) * pn)
        direct = p_n(Contest(b, (a,) * m))
        assert via_formula == pytest.approx(direct, rel=1e-12)
        assert collapsed == pytest.approx(direct, rel=1e-12)

    def test_rejects_boundary(self):
        with pytest.raises(ValueError):
            distorted_difference(0.5, 1.0)
        with pytest.raises(ValueError):
            distorted_difference(0.5, 0.5, (0.0,), ())


class TestOddsRatio:
    def test_identical_opponents(self):
        c = Contest(0.4, (0.3, 0.6))
        assert odds_ratio(c, c) == pytest.approx(1.0, rel=1e-14)

    def test_frozen_value(self):
        # q(0.5)/q(0.8) = 1/4, independent of the shared protagonist.
        assert odds_ratio(Contest(0.4, (0.8,)), Contest(0.4, (0.5,))) == pytest.approx(
            0.25, rel=1e-12
        )

    def test_protagonist_invariance(self):
        bs, cs = (0.8, 0.3), (0.5, 0.6, 0.2)
        r1 = odds_ratio(Contest(0.3, bs), Contest(0.3, cs))
        r2 = odds_ratio(Contest(0.7, bs), Contest(0.7, cs))
        assert r1 == pytest.approx(r2, rel=1e-12)

    def test_matches_strength_ratio(self):
        bs, cs = (0.8, 0.3), (0.5, 0.6)
        expected = math.fsum(strength(x) for x in cs) / math.fsum(strength(x) for x in bs)
        assert odds_ratio(Contest(0.4, bs), Contest(0.4, cs)) == pytest.approx(
            expected, rel=1e-12
        )

    def test_tiny_fields(self):
        # Both probabilities are near 1, so 1 - p cost 1.1e-5 relative.
        c1, c2 = (1e-12,), (3e-12, 1e-13)
        exact = sum(map(exact_strength, c2)) / sum(map(exact_strength, c1))
        got = odds_ratio(Contest(0.5, c1), Contest(0.5, c2))
        assert abs(Fraction(got) - exact) <= 1e-15 * exact

    def test_protagonist_mismatch(self):
        with pytest.raises(ValueError):
            odds_ratio(Contest(0.4, (0.5,)), Contest(0.5, (0.5,)))


class TestIiaRatio:
    @given(interior)
    def test_equal_competitors(self, a):
        assert iia_ratio(a, a, (0.3, 0.6)) == pytest.approx(1.0, rel=1e-12)

    def test_frozen_value(self):
        assert iia_ratio(0.5, 0.8, (0.4, 0.6)) == pytest.approx(4.0, rel=1e-12)

    @given(interior, interior, st.lists(st.floats(0.01, 0.95), max_size=4))
    def test_independent_of_shared_field(self, a, b, shared):
        base = james_p(b, a) / james_p(a, b)
        assert iia_ratio(a, b, tuple(shared)) == pytest.approx(base, rel=1e-12)


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


def near_ends_pct(rng):
    u = rng.random()
    if u < 0.4:
        return 10.0 ** -rng.uniform(0.0, 15.0)
    if u < 0.8:
        return 1.0 - 10.0 ** -rng.uniform(0.0, 15.0)
    return rng.uniform(0.05, 0.95)


def test_every_method_near_both_ends():
    rng = random.Random(FUZZ_SEED)
    failures = dict.fromkeys(cli.METHODS, 0)
    for _ in range(FUZZ_CONTESTS):
        n = rng.choice((1, 2, 3, 4, 8))
        a = near_ends_pct(rng)
        bs = tuple(near_ends_pct(rng) for _ in range(n))
        c = Contest(a, bs)
        # Every exact value here exceeds 1e-32, so a float holds it to 1e-16.
        exact = float(exact_p_n(a, bs))
        for method, evaluate in cli.METHODS.items():
            if abs(evaluate(c, 0.5, None) - exact) > FUZZ_REL_BOUND * exact:
                failures[method] += 1
    assert failures == dict.fromkeys(cli.METHODS, 0)
