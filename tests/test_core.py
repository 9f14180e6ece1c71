import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from multijames import (
    Contest,
    ContestClass,
    UndefinedContestError,
    balanced_opposition,
    classify_contest,
    james_p,
    level_transform,
    p_n,
    solve_protagonist_complement,
    strength,
    strength_inv,
)

from _oracles import exact_james, exact_p_n

interior = st.floats(0.01, 0.99)
opponent_lists = st.lists(interior, min_size=1, max_size=6)


class TestStrength:
    def test_examples(self):
        assert strength(0.5) == 1.0
        assert strength(0.0) == 0.0
        assert strength(0.8) == pytest.approx(4.0, rel=1e-14)
        assert strength(1.0) == math.inf

    def test_inverse_examples(self):
        assert strength_inv(1.0) == 0.5
        assert strength_inv(4.0) == pytest.approx(0.8, rel=1e-14)
        assert strength_inv(0.0) == 0.0
        assert strength_inv(math.inf) == 1.0

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            strength(-0.1)
        with pytest.raises(ValueError):
            strength(float("nan"))
        with pytest.raises(ValueError):
            strength_inv(-1.0)

    @given(st.floats(0.0, 0.999))
    def test_round_trip(self, s):
        assert strength_inv(strength(s)) == pytest.approx(s, rel=1e-14, abs=1e-14)


class TestClassify:
    @pytest.mark.parametrize(
        "a,bs,expected",
        [
            (0.0, (0.0, 0.0), ContestClass.UNDEFINED),
            (1.0, (1.0, 0.5), ContestClass.UNDEFINED),
            (1.0, (0.3, 0.4), ContestClass.FORCED_WIN),
            (0.5, (0.3, 1.0), ContestClass.FORCED_LOSS),
            (0.5, (0.3, 0.4), ContestClass.REGULAR),
            (0.0, (0.3,), ContestClass.REGULAR),
        ],
    )
    def test_examples(self, a, bs, expected):
        assert classify_contest(Contest(a, bs)) is expected

    def test_contest_validates(self):
        with pytest.raises(ValueError):
            Contest(1.5, (0.5,))
        with pytest.raises(ValueError):
            Contest(0.5, ())
        with pytest.raises(ValueError):
            Contest(float("nan"), (0.5,))


class TestJamesP:
    def test_condition_a_fixed_point(self):
        assert james_p(0.6, 0.5) == pytest.approx(0.6, abs=1e-15)

    def test_zero_opponent_always_loses(self):
        assert james_p(0.7, 0.0) == 1.0

    def test_frozen_value(self):
        # Fraction oracle: 0.6*0.6 / (0.6*0.6 + 0.4*0.4) = 9/13
        expected = exact_james(Fraction(3, 5), Fraction(2, 5))
        assert expected == Fraction(9, 13)
        assert james_p(0.6, 0.4) == pytest.approx(float(expected), rel=1e-14)

    def test_undefined_corners(self):
        with pytest.raises(UndefinedContestError):
            james_p(0.0, 0.0)
        with pytest.raises(UndefinedContestError):
            james_p(1.0, 1.0)

    @given(interior, interior)
    def test_complementarity(self, a, b):
        assert james_p(a, b) + james_p(b, a) == pytest.approx(1.0, abs=1e-12)


class TestPn:
    def test_balanced_uniform_fixed_point(self):
        assert p_n(Contest(0.4, (1 / 3, 1 / 3))) == pytest.approx(0.4, abs=1e-12)

    def test_three_identical_competitors(self):
        assert p_n(Contest(0.5, (0.5, 0.5))) == pytest.approx(1 / 3, abs=1e-15)

    def test_frozen_value(self):
        expected = exact_p_n(Fraction(1, 2), (Fraction(4, 5), Fraction(1, 2)))
        assert expected == Fraction(1, 6)
        assert p_n(Contest(0.5, (0.8, 0.5))) == pytest.approx(float(expected), abs=1e-15)

    def test_zero_opponent_reduces_exactly(self):
        assert p_n(Contest(0.7, (0.4, 0.0))) == james_p(0.7, 0.4)

    def test_forced_outcomes(self):
        assert p_n(Contest(1.0, (0.3, 0.4))) == 1.0
        assert p_n(Contest(0.5, (0.3, 1.0))) == 0.0
        with pytest.raises(UndefinedContestError):
            p_n(Contest(0.0, (0.0, 0.0)))

    def test_subnormal_protagonist(self):
        # Nothing divides by a or by an underflowed a * (1 - b).  Against two
        # even opponents the exact value, about 2.5e-324, lies within one
        # subnormal step of 0.0; against weak opponents it is an ordinary float.
        assert p_n(Contest(5e-324, (0.5, 0.5))) == 0.0
        assert p_n(Contest(1e-310, (1e-300, 1e-300))) == pytest.approx(5e-11, rel=1e-9)
        assert p_n(Contest(5e-324, (1e-300, 1e-300))) == pytest.approx(2.47032822921e-24, rel=1e-9)

    @given(interior, interior)
    def test_single_opponent_matches_james_exactly(self, a, b):
        assert p_n(Contest(a, (b,))) == james_p(a, b)

    @given(interior, opponent_lists, st.randoms(use_true_random=False))
    def test_permutation_invariance_exact(self, a, bs, rnd):
        perm = list(bs)
        rnd.shuffle(perm)
        assert p_n(Contest(a, tuple(perm))) == p_n(Contest(a, tuple(bs)))

    @given(interior, opponent_lists)
    def test_appending_zero_opponent_exact(self, a, bs):
        assert p_n(Contest(a, tuple(bs) + (0.0,))) == p_n(Contest(a, tuple(bs)))

    @given(st.lists(interior, min_size=2, max_size=6))
    @settings(max_examples=200)
    def test_normalization(self, xs):
        total = math.fsum(
            p_n(Contest(xs[i], tuple(xs[:i] + xs[i + 1:]))) for i in range(len(xs))
        )
        assert total == pytest.approx(1.0, rel=1e-12)

    @given(interior, st.floats(0.01, 0.97), st.floats(1e-3, 0.02), opponent_lists)
    def test_strictly_decreasing_in_opponent(self, a, b_lo, gap, rest):
        b_hi = b_lo + gap
        lo = p_n(Contest(a, (b_lo,) + tuple(rest)))
        hi = p_n(Contest(a, (b_hi,) + tuple(rest)))
        assert hi < lo

    @given(st.floats(0.01, 0.97), st.floats(1e-3, 0.02), opponent_lists)
    def test_strictly_increasing_in_protagonist(self, a_lo, gap, bs):
        a_hi = a_lo + gap
        assert p_n(Contest(a_hi, tuple(bs))) > p_n(Contest(a_lo, tuple(bs)))

    @given(interior, interior, st.integers(1, 5), st.integers(1, 5))
    def test_complement_identity(self, a, b, k, extra):
        n = k + extra
        lhs = p_n(Contest(1 - b, ((1 - b),) * (k - 1) + ((1 - a),) * (n + 1 - k)))
        rhs = p_n(Contest(a, (a,) * (k - 1) + (b,) * (n + 1 - k)))
        assert lhs == pytest.approx(rhs, rel=1e-12)

    @given(interior, opponent_lists, st.sampled_from([0.1, 0.5, 2.0, 10.0]))
    def test_level_invariance(self, a, bs, t):
        transformed = Contest(
            level_transform(a, t), tuple(level_transform(b, t) for b in bs)
        )
        assert p_n(transformed) == pytest.approx(p_n(Contest(a, tuple(bs))), rel=1e-12)


class TestInvolution:
    # james_p(a, .) is its own inverse: james_p(a, james_p(a, b)) = b.
    def test_frozen_value(self):
        expected = exact_james(Fraction(3, 5), Fraction(3, 4))
        assert expected == Fraction(1, 3)
        c = james_p(0.6, 0.75)
        assert c == pytest.approx(float(expected), rel=1e-14)
        assert james_p(0.6, c) == pytest.approx(0.75, rel=1e-12)

    @given(interior)
    def test_half_maps_to_self(self, a):
        assert james_p(a, 0.5) == pytest.approx(a, abs=1e-15)
        assert james_p(a, a) == pytest.approx(0.5, abs=1e-12)

    @given(interior)
    def test_half_protagonist_complements(self, b):
        assert james_p(0.5, b) == pytest.approx(1 - b, abs=1e-15)

    @given(interior, interior)
    def test_involution_round_trip(self, a, b):
        assert james_p(a, james_p(a, b)) == pytest.approx(b, rel=1e-12, abs=1e-12)


class TestSolveProtagonistComplement:
    def test_frozen_value(self):
        a = solve_protagonist_complement((0.5, 0.5), 0.5)
        assert a == pytest.approx(2 / 3, rel=1e-14)
        assert p_n(Contest(a, (0.5, 0.5))) == pytest.approx(0.5, rel=1e-12)

    def test_balanced_field_gives_complement(self):
        assert solve_protagonist_complement((1 / 3, 1 / 3), 0.5) == pytest.approx(
            0.5, rel=1e-12
        )

    @given(opponent_lists, interior)
    def test_symmetry(self, bs, c):
        a = solve_protagonist_complement(bs, c)
        assert solve_protagonist_complement(bs, a) == pytest.approx(c, rel=1e-9)

    def test_rejects_degenerate_opponents(self):
        with pytest.raises(ValueError):
            solve_protagonist_complement((0.0, 0.0), 0.5)
        with pytest.raises(ValueError):
            solve_protagonist_complement((0.5, 1.0), 0.5)
        with pytest.raises(ValueError):
            solve_protagonist_complement((0.5,), 0.0)


class TestLevelTransform:
    @given(st.floats(0.0, 1.0))
    def test_identity_and_fixed_points(self, s):
        assert level_transform(s, 1.0) == pytest.approx(s, abs=1e-15)

    def test_frozen_value(self):
        out = level_transform(0.5, 3.0)
        assert out == pytest.approx(0.75, abs=1e-15)
        assert strength(out) == pytest.approx(3.0 * strength(0.5), rel=1e-14)

    def test_boundary_fixed_points(self):
        assert level_transform(0.0, 7.0) == 0.0
        assert level_transform(1.0, 7.0) == 1.0

    def test_rejects_nonpositive_scale(self):
        with pytest.raises(ValueError):
            level_transform(0.5, 0.0)
        with pytest.raises(ValueError):
            level_transform(0.5, -2.0)

    @pytest.mark.parametrize("t", [math.inf, math.nan])
    def test_rejects_non_finite_scale(self, t):
        with pytest.raises(ValueError):
            level_transform(0.5, t)

    @given(st.floats(0.0, 0.999), st.floats(0.01, 100.0))
    def test_scales_strength(self, s, t):
        # 1 - s cancellation near s = 1 limits the achievable precision.
        assert strength(level_transform(s, t)) == pytest.approx(
            t * strength(s), rel=1e-9, abs=1e-12
        )


class TestBalancedOpposition:
    def test_examples(self):
        assert balanced_opposition((1 / 3, 1 / 3))
        assert balanced_opposition((0.5,))
        assert not balanced_opposition((0.5, 0.5))

    @given(interior)
    def test_balanced_field_is_fixed_point(self, a):
        assert balanced_opposition((1 / 3, 1 / 3))
        assert p_n(Contest(a, (1 / 3, 1 / 3))) == pytest.approx(a, rel=1e-12)
