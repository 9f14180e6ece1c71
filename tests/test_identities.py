import math
import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from multijames import Contest, UndefinedContestError, james_p, p_n, strength
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

from _oracles import exact_p_n, exact_product_form

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
