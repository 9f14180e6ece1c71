import json
import math
import pickle
import random
import tracemalloc
from array import array
from fractions import Fraction

import numpy as np
import pytest

from multijames import Contest, UndefinedContestError, cli, p_n, strength
from multijames.verify import (
    COUNTEREXAMPLE_NAMES,
    CandidateFamily,
    CanonicalFamily,
    CheckReport,
    MAX_OPPONENTS,
    GridFamily,
    SampleSpec,
    check_conditions,
    check_matches_canonical,
    check_uniqueness_properties,
    counterexample_family,
    run_all_checks,
)

from _grids import canonical_payload, reference_tables, sample_points
from _oracles import exact_p_n, exact_strength

SPEC = SampleSpec(n_values=(1, 2, 3, 4), points=150, seed=12, tolerance=1e-9)


def by_name(reports):
    return {r.name: r for r in reports}


class TestStrictUtility:
    """P_n is Luce's strict-utility choice probability with weights q = s/(1 - s)."""

    def test_proportional_weights(self):
        # Weights 2, 1, 1 are the percentages 2/3, 1/2, 1/2.
        half = Fraction(1, 2)
        assert exact_p_n(Fraction(2, 3), (half, half)) == half
        assert p_n(Contest(2 / 3, (0.5, 0.5))) == pytest.approx(0.5, abs=1e-15)

    def test_single_outcome(self):
        # Zero-strength opponents take no share of the choice.
        assert exact_p_n(Fraction(37, 47), (0,)) == 1
        assert p_n(Contest(3.7 / 4.7, (0.0,))) == 1.0

    def test_q_weights_reproduce_p_n(self):
        a, bs = 0.45, (0.3, 0.7, 0.55)
        weights = [strength(x) for x in (a, *bs)]
        assert p_n(Contest(a, bs)) == pytest.approx(weights[0] / math.fsum(weights), rel=1e-12)
        exact = [exact_strength(x) for x in (a, *bs)]
        assert exact_p_n(a, bs) == exact[0] / sum(exact)

    def test_distribution_sums_to_one(self):
        # Every competitor's probability of beating all the others, summed.
        weights = [Fraction(1, 10) + (i % 97) for i in range(100)]
        pcts = [w / (1 + w) for w in weights]
        assert sum(exact_p_n(x, pcts[:i] + pcts[i + 1:]) for i, x in enumerate(pcts)) == 1
        floats = [float(x) for x in pcts]
        total = math.fsum(p_n(Contest(x, floats[:i] + floats[i + 1:])) for i, x in enumerate(floats))
        assert total == pytest.approx(1.0, abs=1e-14)

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            Contest(0.5, ())  # no other outcome
        with pytest.raises(UndefinedContestError):
            p_n(Contest(0.0, (0.0,)))  # every weight zero
        with pytest.raises(ValueError):
            Contest(0.5, (-0.1,))  # a negative weight


class TestCanonicalFamily:
    def test_all_conditions_pass(self):
        for report in check_conditions(CanonicalFamily(), SPEC):
            assert report.passed, f"{report.name}: {report.max_violation}"

    def test_all_uniqueness_properties_pass(self):
        for report in check_uniqueness_properties(CanonicalFamily(), SPEC):
            assert report.passed, f"{report.name}: {report.max_violation}"

    def test_matches_canonical_with_zero_violation(self):
        report = check_matches_canonical(CanonicalFamily(), SPEC)
        assert report.max_violation == 0.0

    def test_canonical_side_builds_no_checked_contest(self, monkeypatch):
        # The verifier's own draws need no check; the naive family calls only james_p.
        built = []
        init = Contest.__init__
        monkeypatch.setattr(Contest, "__init__", lambda self, *args: built.append(init(self, *args)))
        Contest(0.5, (0.5,))
        assert len(built) == 1
        report = check_matches_canonical(counterexample_family("naive-product"), SPEC)
        assert report.samples == 600 and not report.passed
        assert len(built) == 1


class TestCounterexamples:
    def test_registry(self):
        assert COUNTEREXAMPLE_NAMES == ("mismatched-base", "naive-product", "squared-odds")
        with pytest.raises(ValueError):
            counterexample_family("nope")

    def test_naive_product_breaks_normalization(self):
        reports = by_name(run_all_checks(counterexample_family("naive-product"), SPEC))
        assert not reports["condition-C"].passed
        assert reports["condition-C"].worst_input is not None
        # Single-opponent games are untouched, so appending a zero opponent
        # and permuting still behave.
        assert reports["condition-B"].passed
        assert reports["condition-F"].passed
        assert not reports["matches-canonical"].passed

    def test_squared_odds_at_one(self):
        family = counterexample_family("squared-odds")
        assert family(1.0, [0.5, 0.9]) == 1.0
        assert family(0.7, [0.2, 1.0]) == 0.0
        assert family(0.5, [0.5, 0.5]) == 1 / 3

    @pytest.mark.parametrize(
        "a, bs, expected",
        [(1e-200, [1e-200], 0.5), (1e-200, [2e-200], 0.2), (5e-324, [5e-324, 5e-324], 1 / 3)],
    )
    def test_squared_odds_on_tiny_strengths(self, a, bs, expected):
        # Unscaled, every squared strength here underflows to 0.
        assert counterexample_family("squared-odds")(a, bs) == pytest.approx(expected, rel=1e-15)

    @pytest.mark.parametrize(
        "a, bs", [(0.0, [0.0]), (0.0, [0.0, -0.0]), (1.0, [1.0]), (1.0, [0.5, 1.0]), (0.5, [1.0, 1.0])]
    )
    def test_squared_odds_undefined_where_p_n_is(self, a, bs):
        with pytest.raises(UndefinedContestError):
            p_n(Contest(a, bs))
        with pytest.raises(UndefinedContestError):
            counterexample_family("squared-odds")(a, bs)

    def test_squared_odds_fails_only_the_fixed_point(self):
        reports = by_name(run_all_checks(counterexample_family("squared-odds"), SPEC))
        assert not reports["condition-A"].passed
        assert not reports["matches-canonical"].passed
        # Every formula-based property holds for this family, which is why
        # the structural conditions are needed at all.
        for name in (
            "condition-B",
            "condition-C",
            "condition-D",
            "condition-E",
            "condition-F",
            "sum-formula",
            "substitution-formula",
            "reduction-formula",
            "iia",
            "odds-ratio-independence",
        ):
            assert reports[name].passed, name

    def test_mismatched_base_fails_substitution_with_witness(self):
        reports = by_name(
            check_uniqueness_properties(counterexample_family("mismatched-base"), SPEC)
        )
        report = reports["substitution-formula"]
        assert not report.passed
        witness = report.worst_input
        assert witness is not None and len(witness) >= 3
        # Re-confirm the witness: the family's own J1 does not route the odds.
        family = counterexample_family("mismatched-base")
        a, c, *bs = witness
        lhs = 1.0 / family(a, bs) - 1.0
        rhs = (1.0 / family(a, [c]) - 1.0) * (1.0 / family(c, bs) - 1.0)
        assert abs(1.0 / (1.0 + rhs) - 1.0 / (1.0 + lhs)) > SPEC.tolerance


class TestEvaluatorFailures:
    def test_failure_surfaces_as_failed_check(self):
        class Broken(CandidateFamily):
            name = "broken"

            def __call__(self, a, opponents):
                raise RuntimeError("boom")

        report = check_matches_canonical(Broken(), SPEC)
        assert not report.passed
        assert report.max_violation == math.inf
        assert "boom" in report.worst_input[0]

    def test_nan_family_fails_every_check(self):
        class AlwaysNan(CandidateFamily):
            def __call__(self, a, opponents):
                return math.nan

        for report in run_all_checks(AlwaysNan(), SampleSpec(points=20)):
            assert not report.passed, report.name
            assert report.max_violation == math.inf
            assert report.worst_input[0] == "violation nan", report.name

    @pytest.mark.parametrize("value", [math.inf, -0.5, 1.5, "0.5", None])
    def test_value_outside_unit_interval_is_named(self, value):
        class Returns(CandidateFamily):
            def __call__(self, a, opponents):
                return value

        for report in run_all_checks(Returns(), SampleSpec(points=20)):
            assert report.max_violation == math.inf
            assert report.worst_input == (f"evaluator returned {value!r}",), report.name

    @pytest.mark.parametrize("value", [0.0, 1.0, 1e-308])
    def test_check_arithmetic_is_never_blamed_on_the_evaluator(self, value):
        # Odds 1/0 - 1, ratios x/0 and an fsum of odds near 1e308 once raised
        # inside the checks, and were reported as evaluator failures.
        class Constant(CandidateFamily):
            def __call__(self, a, opponents):
                return value

        reports = by_name(run_all_checks(Constant(), SampleSpec(points=20)))
        for report in reports.values():
            assert "evaluator" not in str(report.worst_input), report.name
        for name in ("sum-formula", "substitution-formula", "reduction-formula", "iia"):
            assert reports[name].passed, name
        assert not reports["condition-C"].passed

    def test_failure_inside_family_keeps_its_witness(self):
        class FailsAtThree(CandidateFamily):
            def __call__(self, a, opponents):
                if len(opponents) == 3:
                    raise ZeroDivisionError("inside the family")
                return p_n(Contest(a, tuple(opponents)))

        report = check_matches_canonical(FailsAtThree(), SPEC)
        assert report.max_violation == math.inf
        assert report.worst_input == ("evaluator failure: ZeroDivisionError('inside the family')",)


def assert_same_values(got, expected, axes_by_n):
    """Bit-equal values at seeded in-range, clamped and node points of each table."""
    rng = random.Random(0)
    for axes in axes_by_n.values():
        for point in sample_points(rng, axes, 200):
            assert got(point[0], point[1:]) == expected(point[0], point[1:]), point


@pytest.fixture(scope="module")
def grid():
    return GridFamily.tabulate_canonical(resolution=101, n_max=2)


class TestGridFamily:
    def test_interpolation_accuracy(self, grid):
        assert grid(0.5, [0.8, 0.5]) == pytest.approx(1 / 6, abs=1e-4)

    def test_conditions_pass_at_grid_tolerance(self, grid):
        spec = SampleSpec(n_values=(1, 2), points=200, seed=3, tolerance=1e-3)
        for report in check_conditions(grid, spec):
            assert report.passed, f"{report.name}: {report.max_violation}"

    def test_canonical_gap_is_interpolation_limited(self, grid):
        spec = SampleSpec(n_values=(1, 2), points=200, seed=3, tolerance=1e-3)
        report = check_matches_canonical(grid, spec)
        assert 0.0 < report.max_violation <= 1e-3

    def test_larger_n_values_are_skipped(self, grid):
        spec = SampleSpec(n_values=(1, 2, 3, 4), points=20, seed=3, tolerance=1e-3)
        reports = check_conditions(grid, spec)
        assert all(r.samples == 40 for r in reports)

    def test_out_of_range_n_rejected(self, grid):
        with pytest.raises(ValueError):
            grid(0.5, [0.5, 0.5, 0.5])

    def test_clamps_out_of_grid_points(self, grid):
        assert grid(0.5, [0.5]) == pytest.approx(0.5, abs=1e-6)
        assert 0.0 <= grid(1.0, [0.5]) <= 1.0

    def test_round_trip_through_file(self, grid, tmp_path):
        payload = canonical_payload(11, 2)
        small = GridFamily.from_dict(payload)
        path = tmp_path / "grid.json"
        path.write_text(json.dumps(payload))
        loaded = GridFamily.from_dict(cli._read_json(str(path)))
        assert loaded.max_n == 2
        assert_same_values(loaded, small, {n: t["grids"] for n, t in payload.items()})

    def test_pickle_round_trip(self, grid):
        loaded = pickle.loads(pickle.dumps(grid))
        assert loaded.max_n == grid.max_n == 2
        assert_same_values(loaded, grid, {n: [[0.0, 1.0]] * (n + 1) for n in (1, 2)})

    @pytest.mark.parametrize(
        "grids, values",
        [
            ([[0.0, 0.5, 0.4], [0.0, 1.0]], [0.0] * 6),  # not monotonic
            ([[0.0, 0.0], [0.0, 1.0]], [0.0] * 4),  # repeated node
            ([[0.5], [0.0, 1.0]], [0.0] * 2),  # single point
            ([[0.0, 1.0], [0.0, 1.0]], [0.0] * 3),  # wrong value count
            ([[0.0, 1.0], [0.0, "inf"]], [0.0] * 4),  # non-finite node
            ([[0.0, 1.0], ["-inf", 0.0]], [0.0] * 4),  # non-finite node
            ([[0.0, 1.0], [0.0, 1.0]], [[0, 1, 1], [1]]),  # ragged, though 4 values in all
            ([[0.0, 1.0], [0.0, 1.0]], [[0, 1], 1, 0]),  # a row and bare values mixed
            ([[0.0, 1.0]], [0.0, 1.0]),  # one axis where n = 1 needs two
        ],
    )
    def test_malformed_tables_rejected(self, grids, values):
        with pytest.raises(ValueError):
            GridFamily.from_dict({"1": {"grids": grids, "values": values}})

    def test_descending_axis_is_stored_ascending(self):
        up = GridFamily.from_dict({"1": {"grids": [[0.0, 1.0], [0.0, 0.5, 1.0]],
                                         "values": [0.1, 0.2, 0.3, 0.4, 0.5, 0.6]}})
        down = GridFamily.from_dict({"1": {"grids": [[0.0, 1.0], [1.0, 0.5, 0.0]],
                                           "values": [0.3, 0.2, 0.1, 0.6, 0.5, 0.4]}})
        assert_same_values(down, up, {1: [[0.0, 0.5, 1.0]] * 2})

    def test_nan_coordinate_rejected(self, grid):
        with pytest.raises(ValueError):
            grid(math.nan, [0.5])

    @pytest.mark.parametrize("flipped", [(0,), (1,), (2,), (0, 2), (0, 1, 2)])
    def test_descending_axes_match_numpy_flip(self, flipped):
        rng = random.Random(sum(flipped))
        grids = [[0.0, 0.5, 1.0], [0.0, 0.25, 0.5, 1.0], [0.0, 1.0]]
        values = np.array([rng.random() for _ in range(24)]).reshape(3, 4, 2)
        up = GridFamily({2: (grids, values.tolist())})
        down = GridFamily({2: ([g[::-1] if k in flipped else g for k, g in enumerate(grids)],
                               np.flip(values, flipped).ravel().tolist())})
        assert down._tables == up._tables

    def test_flat_array_is_kept_as_is(self):
        table = array("d", [0.0, 0.25, 0.75, 1.0])
        family = GridFamily({1: ([[0.0, 1.0], [0.0, 1.0]], table)})
        assert family._tables[1][2] is table


class TestTabulateCanonical:
    """The in-place build against the multi-pass numpy build it replaced."""

    @pytest.mark.parametrize("resolution, n_max", [(2, 1), (9, 3), (21, 3), (101, 2)])
    def test_tables_are_byte_identical(self, resolution, n_max):
        tables = GridFamily.tabulate_canonical(resolution, n_max)._tables
        got = {n: (axes, offsets, flat.tobytes()) for n, (axes, offsets, flat) in tables.items()}
        assert got == reference_tables(resolution, n_max)

    def test_peak_memory_is_the_tables(self):
        GridFamily.tabulate_canonical(2, 1)  # numpy imported before tracing starts
        tracemalloc.start()
        try:
            before, _ = tracemalloc.get_traced_memory()
            tracemalloc.reset_peak()
            family = GridFamily.tabulate_canonical(41, 3)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        table_bytes = sum(len(flat) * flat.itemsize for _, _, flat in family._tables.values())
        assert peak - before <= 1.25 * table_bytes


class TestReportShape:
    def test_as_dict(self):
        report = CheckReport("demo", 10, 0.5, (0.1, 0.2), 1e-9)
        payload = report.as_dict()
        assert payload["check"] == "demo"
        assert payload["passed"] is False
        assert payload["worst_input"] == [0.1, 0.2]

    def test_run_all_order_is_stable(self):
        names = [r.name for r in run_all_checks(CanonicalFamily(), SampleSpec(points=5))]
        assert names == [
            "condition-A",
            "condition-B",
            "condition-C",
            "condition-D",
            "condition-E",
            "condition-F",
            "sum-formula",
            "substitution-formula",
            "reduction-formula",
            "iia",
            "odds-ratio-independence",
            "matches-canonical",
        ]


class TestSampleSpec:
    @pytest.mark.parametrize(
        "kwargs, message",
        [
            ({"points": 2.5}, "samples per opponent count must be an integer, got 2.5"),
            ({"points": math.nan}, "samples per opponent count must be an integer, got nan"),
            ({"points": "3"}, "samples per opponent count must be an integer, got '3'"),
            ({"points": 0}, "samples per opponent count must be at least 1, got 0"),
            ({"n_values": (1.5,)}, "opponent count must be an integer, got 1.5"),
            ({"n_values": (1, 2.0)}, "opponent count must be an integer, got 2.0"),
            ({"n_values": (None,)}, "opponent count must be an integer, got None"),
            ({"n_values": ()}, "opponent counts must be a nonempty list of n >= 1, got []"),
            ({"n_values": (2, 0)}, "opponent counts must be a nonempty list of n >= 1, got [2, 0]"),
            ({"tolerance": None}, "tolerance must be finite and >= 0, got None"),
            ({"tolerance": "1e-9"}, "tolerance must be finite and >= 0, got '1e-9'"),
            ({"tolerance": [1]}, "tolerance must be finite and >= 0, got [1]"),
            # A range past the limit stops at its first such count, before it fills memory.
            ({"n_values": range(1, 10**18)}, "opponent count 4097 outside 1..4096"),
            ({"n_values": range(-10**18, 5)},
             "opponent count -1000000000000000000 outside 1..4096"),
            ({"n_values": (3, -4097)}, "opponent count -4097 outside 1..4096"),
        ],
    )
    def test_bad_counts_raise_on_entry(self, kwargs, message):
        with pytest.raises(ValueError) as exc:
            SampleSpec(**kwargs)
        assert str(exc.value) == message

    def test_counts_up_to_the_limit_are_kept(self):
        assert SampleSpec(n_values=range(MAX_OPPONENTS - 1, MAX_OPPONENTS + 1)).n_values == (
            MAX_OPPONENTS - 1, MAX_OPPONENTS
        )

    def test_counts_stored_as_int_tuple(self):
        spec = SampleSpec(n_values=(n for n in (np.int64(1), 3)), points=np.int64(5))
        assert spec.n_values == (1, 3) and spec.points == 5
        assert type(spec.n_values) is tuple
        assert [type(v) for v in (*spec.n_values, spec.points)] == [int] * 3
        assert len(run_all_checks(CanonicalFamily(), spec)) == 12


def _raises_at_three(a, opponents):
    if len(opponents) == 3:
        raise RuntimeError("no member for n = 3")
    return p_n(Contest(a, tuple(opponents)))


# Each planted family breaks one assumption of the uniqueness result; the
# check named beside it is the one that assumption feeds.
PLANTED = {
    "nan": (lambda a, opponents: math.nan, "condition-A"),
    "constant-half": (lambda a, opponents: 0.5, "condition-C"),
    "one-minus-a": (lambda a, opponents: 1.0 - a, "condition-E"),
    "p_n-plus-1e-6": (lambda a, opponents: p_n(Contest(a, tuple(opponents))) + 1e-6,
                      "matches-canonical"),
    "order-dependent": (
        lambda a, opponents: p_n(Contest(a, tuple(opponents)))
        * (1.0 + 1e-3 * (opponents[0] - opponents[-1])),
        "condition-F",
    ),
    "raises-at-n3": (_raises_at_three, "matches-canonical"),
}
MUTATION_SPEC = SampleSpec(points=100, seed=5)


class TestMutationTable:
    """Every wrong family fails a named check; the canonical one passes all twelve."""

    @pytest.mark.parametrize("name", PLANTED)
    def test_planted_family_fails_its_check(self, name):
        evaluate, check = PLANTED[name]

        class Planted(CandidateFamily):
            def __call__(self, a, opponents):
                return evaluate(a, opponents)

        reports = by_name(run_all_checks(Planted(), MUTATION_SPEC))
        assert len(reports) == 12
        assert not reports[check].passed
        assert reports[check].worst_input is not None

    def test_raising_family_names_its_failure(self):
        class Planted(CandidateFamily):
            def __call__(self, a, opponents):
                return _raises_at_three(a, opponents)

        report = check_matches_canonical(Planted(), MUTATION_SPEC)
        assert report.samples == 201  # n = 1 and 2 pass, the first n = 3 sample raises
        assert report.worst_input == ("evaluator failure: RuntimeError('no member for n = 3')",)

    def test_canonical_family_passes_every_check(self):
        reports = run_all_checks(CanonicalFamily(), MUTATION_SPEC)
        assert [r.name for r in reports if not r.passed] == []
        assert len(reports) == 12
