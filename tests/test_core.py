import dataclasses
import itertools
import math
import pickle
import random
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from multijames import (
    Contest,
    ContestClass,
    UndefinedContestError,
    classify_contest,
    james_p,
    level_transform,
    p_n,
    strength,
)

import multijames.core as core
from multijames.core import _check_pct
from multijames.tree import GraphError, PairwiseEdge

from _domain import CORE_STRATA, EDGE_PCTS, below, draw, near_one, one_of, subnormal, unit
from _oracles import (
    exact_complement_solution,
    exact_james,
    exact_or_none,
    exact_p_n,
    exact_product_form,
    exact_strength,
)

interior = st.floats(0.01, 0.99)
opponent_lists = st.lists(interior, min_size=1, max_size=6)


class TestStrength:
    def test_examples(self):
        assert strength(0.5) == 1.0
        assert strength(0.0) == 0.0
        assert strength(0.8) == pytest.approx(4.0, rel=1e-14)
        assert strength(1.0) == math.inf

    def test_inverse_examples(self):
        # An even percentage rescaled by q has strength q: it is q / (1 + q).
        assert level_transform(0.5, 1.0) == 0.5
        assert level_transform(0.5, 4.0) == pytest.approx(0.8, rel=1e-14)
        assert level_transform(0.5, 0.25) == pytest.approx(0.2, rel=1e-14)

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            strength(-0.1)
        with pytest.raises(ValueError):
            strength(float("nan"))

    @given(st.floats(0.0, 0.999))
    def test_round_trip(self, s):
        q = Fraction(strength(s))
        assert float(q / (1 + q)) == pytest.approx(s, rel=1e-14, abs=1e-14)


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

    @pytest.mark.parametrize(
        "a, b",
        [
            (1e-315, 1e-10),
            (5e-324, 0.38187143371746135),
            (5e-324, 0.5),
            (1e-300, 1.0 - 2.0**-53),
            (2.0**-1022, 0.5),
        ],
    )
    def test_subnormal_numerator_rounds_once(self, a, b):
        # a * (1 - b) lands on the subnormal grid, or below it; rounding it
        # there cost 1e-10 relative in the first case and a whole step in the
        # second.
        exact = exact_james(a, b)
        got = james_p(a, b)
        assert abs(Fraction(got) - exact) <= 2e-15 * exact + Fraction(5e-324)
        assert p_n(Contest(a, (b,))) == got

    def test_underflowed_numerator_is_not_zero(self):
        # a * (1 - b) rounds to 0.0 here, but the exact value is a itself.
        assert james_p(5e-324, 0.5) == 5e-324

    @pytest.mark.parametrize("a, b", [(0.0, 0.5), (0.5, 1.0), (5e-324, 1.0)])
    def test_exact_zero_keeps_its_path(self, a, b):
        assert james_p(a, b).hex() == (0.0).hex()

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

    def test_oracle_is_exact_for_float_inputs(self):
        # 200 opponents at 0.999 need far more precision than a float holds.
        assert isinstance(exact_p_n(0.5, (0.999,) * 200), Fraction)
        assert isinstance(exact_james(0.6, 0.4), Fraction)
        assert exact_p_n(0.5, (0.8, 0.5)) == exact_p_n(Fraction(1, 2), (0.8, Fraction(1, 2)))

    def test_zero_opponent_reduces_exactly(self):
        # Zero opponents reach classify_contest through the zero product, and the
        # one live opponent then goes to the pairwise kernel, wherever it stands.
        pairs = [(0.7, 0.4), (0.78, 0.3), (5e-324, 0.5), (1e-310, 1e-300), (1.0, 0.3), (0.0, 0.3),
                 (0.5, 1.0 - 2.0**-53)]
        for zeros in (1, 2, 16, 256):
            for a, b in pairs:
                expected = james_p(a, b).hex()
                for at in range(zeros + 1):
                    field = (0.0,) * at + (b,) + (0.0,) * (zeros - at)
                    assert p_n(Contest(a, field)).hex() == expected, (a, b, zeros, at)

    def test_forced_outcomes(self):
        assert p_n(Contest(1.0, (0.3, 0.4))) == 1.0
        assert p_n(Contest(0.5, (0.3, 1.0))) == 0.0
        with pytest.raises(UndefinedContestError):
            p_n(Contest(0.0, (0.0, 0.0)))

    @pytest.mark.parametrize(
        "a, opponents, expected",
        [
            (1.0, (0.3, 0.4), 1.0),
            (1.0, (0.0, 0.0), 1.0),
            (0.0, (0.3, 0.4), 0.0),
            (-0.0, (0.3, 0.4), 0.0),
            (5e-324, (0.0, 0.0), 1.0),
            (0.7, (0.0, 0.0, 0.0), 1.0),
        ],
    )
    def test_formula_covers_boundaries(self, a, opponents, expected):
        # No branch handles a forced win, a zero protagonist or an all-zero
        # field: the formula itself yields these values, sign bit included.
        assert p_n(Contest(a, opponents)).hex() == expected.hex()

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
    """a c = (1 - a)(1 - c) sum q(b_i) gives the protagonist a with P_n = 1 - c."""

    def test_frozen_value(self):
        half = Fraction(1, 2)
        a = exact_complement_solution((half, half), half)
        assert a == Fraction(2, 3)
        assert exact_p_n(a, (half, half)) == half
        assert p_n(Contest(float(a), (0.5, 0.5))) == pytest.approx(0.5, rel=1e-12)

    def test_balanced_field_gives_complement(self):
        third = Fraction(1, 3)
        assert exact_complement_solution((third, third), Fraction(1, 2)) == Fraction(1, 2)
        assert p_n(Contest(0.5, (1 / 3, 1 / 3))) == pytest.approx(0.5, rel=1e-12)

    @given(opponent_lists, interior)
    def test_symmetry(self, bs, c):
        a = exact_complement_solution(bs, c)
        assert exact_p_n(a, bs) == 1 - Fraction(c)
        assert exact_complement_solution(bs, a) == Fraction(c)
        assert p_n(Contest(float(a), bs)) == pytest.approx(1 - c, rel=1e-9)

    def test_rejects_degenerate_opponents(self):
        # No protagonist reaches a probability 1 - c in (0, 1) against an
        # all-zero field or a field holding a 1, and c = 0 asks for a = 1.
        for a in (0.01, 0.5, 0.99):
            assert p_n(Contest(a, (0.0, 0.0))) == 1.0
            assert p_n(Contest(a, (0.5, 1.0))) == 0.0
        assert exact_complement_solution((0.5,), 0) == 1


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
    """Against a field whose strengths sum to 1, P_n equals the protagonist's percentage."""

    BALANCED = [
        (Fraction(1, 3), Fraction(1, 3)),
        (Fraction(1, 2),),
        (Fraction(1, 4),) * 3,
        (Fraction(1, 5), Fraction(1, 5), Fraction(1, 3)),
    ]

    def test_examples(self):
        a = Fraction(3, 7)
        for field in self.BALANCED:
            assert sum(map(exact_strength, field)) == 1
            assert exact_p_n(a, field) == a
        assert exact_p_n(a, (Fraction(1, 2),) * 2) != a

    @given(interior)
    def test_balanced_field_is_fixed_point(self, a):
        for field in self.BALANCED:
            assert exact_p_n(a, field) == Fraction(a)
            assert p_n(Contest(a, tuple(map(float, field)))) == pytest.approx(a, rel=1e-12)


@pytest.mark.parametrize(
    "call",
    [
        lambda: james_p(-0.0, 0.5),
        lambda: strength(-0.0),
        lambda: level_transform(-0.0, 2.0),
        lambda: Contest(-0.0, (-0.0, 0.5)).opponents[0],
    ],
    ids=["james_p", "strength", "level_transform", "contest_opponent"],
)
def test_negative_zero_input_gives_positive_zero(call):
    assert math.copysign(1.0, call()) == 1.0


BAD_PCTS = [math.nan, math.inf, -math.inf, -0.1, 1.0 + 2.0**-52, 2]
FIELD = (0.25, 0.5, 0.75)


def with_value_at(position, value, field=FIELD):
    """The field with one value put first, in the middle or last."""
    opps = list(field)
    opps.insert({"first": 0, "middle": len(field) // 2, "last": len(field)}[position], value)
    return opps


class TestContestValidation:
    @pytest.mark.parametrize("position", ["first", "middle", "last"])
    @pytest.mark.parametrize("bad", BAD_PCTS, ids=repr)
    def test_bad_opponent_named_by_caller_repr(self, bad, position):
        with pytest.raises(ValueError) as exc:
            Contest(0.5, with_value_at(position, bad))
        assert str(exc.value) == f"opponent must lie in [0, 1], got {bad!r}"

    @pytest.mark.parametrize("bad", BAD_PCTS, ids=repr)
    def test_first_of_two_bad_values_is_named(self, bad):
        for opps, first in (((0.5, 2, bad), 2), ((0.5, bad, 2), bad)):
            with pytest.raises(ValueError) as exc:
                Contest(0.5, opps)
            assert str(exc.value).endswith(f"got {first!r}")

    @pytest.mark.parametrize("position", ["first", "middle", "last"])
    def test_negative_zero_stored_as_positive_zero(self, position):
        opps = Contest(0.5, with_value_at(position, -0.0)).opponents
        assert opps == tuple(with_value_at(position, 0.0))
        assert all(math.copysign(1.0, b) == 1.0 for b in opps)

    @pytest.mark.parametrize("position", ["first", "middle", "last"])
    @pytest.mark.parametrize(
        "value, stored",
        [(1, 1.0), (0, 0.0), ("0.125", 0.125), (np.float64(0.375), 0.375)],
        ids=["int-1", "int-0", "str", "numpy-float64"],
    )
    def test_elements_stored_as_float(self, value, stored, position):
        opps = Contest(0.5, with_value_at(position, value)).opponents
        assert opps == tuple(with_value_at(position, stored))
        assert all(type(b) is float for b in opps)

    def test_generator_and_list_arguments(self):
        expected = Contest(0.5, (0.25, 0.5))
        assert Contest(0.5, (b for b in (0.25, 0.5))) == expected
        assert Contest(0.5, [0.25, 0.5]) == expected
        assert Contest(protagonist=0.5, opponents=[0.25, 0.5]) == expected
        assert type(Contest(0.5, [0.25]).opponents) is tuple

    def test_value_semantics(self):
        c = Contest(0.5, (0.25, 1))
        same = Contest(0.5, (0.25, 1.0))
        assert c == same and hash(c) == hash(same)
        assert c != Contest(0.5, (1.0, 0.25))
        assert repr(c) == "Contest(protagonist=0.5, opponents=(0.25, 1.0))"
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
            assert pickle.loads(pickle.dumps(c, protocol)) == c

    @pytest.mark.parametrize("attr", ["protagonist", "opponents", "other"])
    def test_assignment_raises(self, attr):
        c = Contest(0.5, (0.25,))
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(c, attr, 0.1)
        assert c == Contest(0.5, (0.25,))


FULL_DOMAIN_SEED = 9
FULL_DOMAIN_CONTESTS = 3000
# Relative above the subnormal range, absolute inside it.  p_n is about seven
# roundings of positive terms with no cancellation, some 8 ulps.  A product
# rounded on the subnormal grid before the last division would lose relative
# precision; james_p switches forms there, so a result inside that range is
# off by one step at most.
P_N_REL_BOUND = 2e-15
P_N_ABS_BOUND = 5e-324


def reference_contest(a, bs):
    """What Contest stored before its fast path: _check_pct, value by value."""
    return _check_pct(a, "protagonist"), tuple(_check_pct(b, "opponent") for b in bs)


def test_full_domain_contest_and_p_n():
    rng = random.Random(FULL_DOMAIN_SEED)
    checked = undefined = 0
    for _ in range(FULL_DOMAIN_CONTESTS):
        n = rng.choice((1, 2, 3, 4, 8, 16))
        a = draw(rng, CORE_STRATA)
        bs = tuple(draw(rng, CORE_STRATA) for _ in range(n))
        try:
            ref = reference_contest(a, bs)
        except ValueError as exc:
            with pytest.raises(ValueError) as got:
                Contest(a, bs)
            assert str(got.value) == str(exc)
            continue
        c = Contest(a, bs)
        assert [v.hex() for v in (c.protagonist, *c.opponents)] == [
            v.hex() for v in (ref[0], *ref[1])
        ]
        exact = exact_or_none(*ref)
        if exact is None:
            with pytest.raises(UndefinedContestError):
                p_n(c)
            undefined += 1
            continue
        got = p_n(c)
        assert abs(Fraction(got) - exact) <= P_N_REL_BOUND * exact + Fraction(P_N_ABS_BOUND), (
            a, bs, got, float(exact))
        checked += 1
    # The draw must reach every outcome it is meant to cover.
    assert checked > FULL_DOMAIN_CONTESTS // 2 and undefined > 10


GRID_PCTS = (0.0, 5e-324, 2.0**-1022, 0.5, 1.0 - 2.0**-53, 1.0)


def grid_contests():
    """Every contest over GRID_PCTS with n <= 3: zero opponents, opponents at 1,
    and fields whose product underflows although no opponent is 0."""
    for n in (1, 2, 3):
        for a, *bs in itertools.product(GRID_PCTS, repeat=n + 1):
            yield a, tuple(bs)


def test_boundary_grid_p_n():
    undefined = 0
    for a, bs in grid_contests():
        exact = exact_or_none(a, bs)
        c = Contest(a, bs)
        if exact is None:
            with pytest.raises(UndefinedContestError):
                p_n(c)
            undefined += 1
            continue
        got = p_n(c)
        assert abs(Fraction(got) - exact) <= P_N_REL_BOUND * exact + Fraction(P_N_ABS_BOUND), (
            a, bs, got, float(exact))
    assert undefined > 100


def test_p_n_checks_no_value_again(monkeypatch):
    """p_n on a built Contest neither re-checks a percentage nor calls james_p."""
    rng = random.Random(4)
    contests = [Contest(a, bs) for a, bs in grid_contests()]
    contests += [Contest(rng.random(), tuple(rng.random() for _ in range(n))) for n in (1, 4, 256)]

    def outcome(c):
        try:
            return p_n(c).hex()
        except UndefinedContestError as exc:
            return str(exc)

    expected = [outcome(c) for c in contests]

    def forbidden(*args, **kwargs):
        raise AssertionError("a checked value was checked again")

    for name in ("james_p", "_check_pct", "_check_pcts"):
        monkeypatch.setattr(core, name, forbidden)
    assert [outcome(c) for c in contests] == expected


# Values of every kind a caller may hand over, valid or not, for the entry checks.
ODD_INPUTS = [
    0.5, 0.0, -0.0, 1.0, 5e-324, 1.0 - 2.0**-53, math.nan, math.inf, -math.inf, -0.1,
    1.0 + 2.0**-52, 0, 1, 2, -1, True, False, np.float64(0.375), np.float64(-0.0),
    np.float64(math.nan), np.float32(0.25), np.int64(1), np.int64(0), Fraction(1, 3),
    Fraction(3, 2), Decimal("0.25"), Decimal("NaN"), "0.125", "1", "abc", "", None, [0.5],
]


def shape(value):
    """A value with its type, and a float's sign and every bit."""
    if isinstance(value, tuple):
        return tuple(map(shape, value))
    return type(value), value.hex() if type(value) is float else repr(value)


def outcome(thunk):
    try:
        return "ok", shape(thunk())
    except Exception as exc:
        return type(exc), str(exc)


def reference_james(a, b):
    """james_p through the per-value checks, as it ran before its inline test."""
    a, b = _check_pct(a, "a"), _check_pct(b, "b")
    if a == b and (a == 0.0 or a == 1.0):
        raise UndefinedContestError(f"probability undefined for a = b = {a}")
    return core._james(a, b)


def reference_edge(u, v, x):
    p = float(x)
    if not 0.0 < p < 1.0:
        raise GraphError(f"edge probability must lie strictly inside (0, 1), got {x!r}")
    return u, v, p


@pytest.mark.parametrize("x", ODD_INPUTS, ids=repr)
def test_inline_checks_match_the_per_value_path(x):
    """Contest, james_p and PairwiseEdge store what the per-value checks store and
    raise their first message, whatever the type of the value."""
    for field in ((x,), (0.25, x), (x, 0.75), (x, 2), (x, math.nan), (0.25, 0.5, x, 0.0)):
        expected = outcome(lambda: reference_contest(0.5, field))
        for arg in (field, list(field), (v for v in field)):
            got = outcome(lambda: (lambda c: (c.protagonist, c.opponents))(Contest(0.5, arg)))
            assert got == expected
    assert outcome(lambda: Contest(x, (0.5,)).protagonist) == outcome(
        lambda: _check_pct(x, "protagonist"))
    for a, b in ((x, 0.25), (0.25, x), (x, x), (x, math.nan), (0.0, x), (x, 1.0)):
        assert outcome(lambda: james_p(a, b)) == outcome(lambda: reference_james(a, b))
    edge = outcome(lambda: (lambda e: (e.u, e.v, e.p_u_beats_v))(PairwiseEdge("u", "v", x)))
    assert edge == outcome(lambda: reference_edge("u", "v", x))


def test_exact_floats_in_range_skip_the_per_value_check(monkeypatch):
    """An exact float in range never reaches _check_pct: Contest, james_p or PairwiseEdge."""
    def refuse(value, name="winning percentage"):
        raise AssertionError(f"{name} {value!r} went to the per-value check")

    monkeypatch.setattr(core, "_check_pct", refuse)
    ends = (0.0, -0.0, 5e-324, 2.0**-1022, 0.5, 1.0 - 2.0**-53, 1.0)
    field = ends[2:]  # opponents in (0, 1]; a zero sends the field to the per-value loop
    for a in ends:
        for opps in (field, list(field), field[::-1], (1.0,), (0.5,) * 256):
            assert Contest(a, opps).opponents == tuple(opps)
        for b in ends:
            try:
                assert 0.0 <= james_p(a, b) <= 1.0
            except UndefinedContestError:
                assert a == b and a in (0.0, 1.0)
    for p in field[:-1]:
        assert PairwiseEdge("u", "v", p).p_u_beats_v == p
    assert Contest(0.5, field).opponents is field  # stored as given, uncopied


LEVEL_SEED = 23
LEVEL_PAIRS = 20000
# level_transform's documented bound: four roundings of 2**-53 relative, and the last
# rounding on the subnormal grid, half a step, absolute.
LEVEL_REL_BOUND = Fraction(5, 10**16)
LEVEL_ABS_BOUND = Fraction(2) ** -1075
LEVEL_STRATA = [
    (0.15, one_of(EDGE_PCTS)),
    (0.30, subnormal),
    (0.55, below(300.0)),
    (0.80, near_one(16.0)),
    (1.0, unit),
]


def exact_level_transform(s, t) -> Fraction:
    s, t = Fraction(s), Fraction(t)
    return t * s / ((1 - s) + t * s)


def assert_level_transform_within_bound(s, t):
    got, exact = level_transform(s, t), exact_level_transform(s, t)
    assert abs(Fraction(got) - exact) <= LEVEL_REL_BOUND * exact + LEVEL_ABS_BOUND, (
        s, t, got, float(exact))


@pytest.mark.parametrize(
    "s, t",
    [(1.0, 1e-17), (1.0 - 2.0**-53, 2.0**-60), (1.0 - 1e-10, 1.2345e-320),
     (5e-324, 5e-324), (0.5, 1.7e308), (2.0**-1022, 2.0**-60)],
)
def test_level_transform_where_t_s_is_tiny(s, t):
    """t*s below 2**-53 once vanished beside 1 + (t - 1)*s, or divided by zero; t*s
    rounded on the subnormal grid and divided by a small 1 - s loses its precision."""
    assert_level_transform_within_bound(s, t)


def test_level_transform_full_domain():
    rng = random.Random(LEVEL_SEED)
    for _ in range(LEVEL_PAIRS):
        s = draw(rng, LEVEL_STRATA)
        t = math.ldexp(rng.uniform(0.5, 1.0), rng.randrange(-1073, 1024))
        assert_level_transform_within_bound(s, t)
