import json
import math
import pickle

import pytest

from multijames import Contest, p_n, strength
from multijames.verify import (
    COUNTEREXAMPLE_NAMES,
    CandidateFamily,
    CanonicalFamily,
    CheckReport,
    GridFamily,
    SampleSpec,
    check_conditions,
    check_matches_canonical,
    check_uniqueness_properties,
    counterexample_family,
    run_all_checks,
    strict_utility,
    strict_utility_distribution,
)

SPEC = SampleSpec(n_values=(1, 2, 3, 4), points=150, seed=12, tolerance=1e-9)


def by_name(reports):
    return {r.name: r for r in reports}


class TestStrictUtility:
    def test_proportional_weights(self):
        assert strict_utility({"x": 2.0, "y": 1.0, "z": 1.0}, "x") == 0.5

    def test_single_outcome(self):
        assert strict_utility({"only": 3.7}, "only") == 1.0

    def test_q_weights_reproduce_p_n(self):
        a, bs = 0.45, (0.3, 0.7, 0.55)
        weights = {"A": strength(a)}
        weights.update({f"B{i}": strength(b) for i, b in enumerate(bs)})
        assert strict_utility(weights, "A") == pytest.approx(
            p_n(Contest(a, bs)), rel=1e-12
        )

    def test_distribution_sums_to_one(self):
        weights = {f"o{i}": 0.1 + (i % 97) for i in range(10_000)}
        dist = strict_utility_distribution(weights)
        assert math.fsum(dist.values()) == pytest.approx(1.0, abs=1e-14)

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            strict_utility({}, "x")
        with pytest.raises(ValueError):
            strict_utility({"x": 0.0}, "x")
        with pytest.raises(ValueError):
            strict_utility({"x": 1.0}, "y")


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
        small = GridFamily.tabulate_canonical(resolution=11, n_max=2)
        path = tmp_path / "grid.json"
        path.write_text(json.dumps(small.to_dict()))
        loaded = GridFamily.from_file(str(path))
        assert loaded.max_n == 2
        assert loaded(0.5, [0.5, 0.5]) == pytest.approx(small(0.5, [0.5, 0.5]), abs=1e-12)

    def test_pickle_round_trip(self, grid):
        loaded = pickle.loads(pickle.dumps(grid))
        assert loaded.to_dict() == grid.to_dict()
        assert loaded(0.3, [0.6, 0.45]) == grid(0.3, [0.6, 0.45])

    @pytest.mark.parametrize(
        "grids, values",
        [
            ([[0.0, 0.5, 0.4], [0.0, 1.0]], [0.0] * 6),  # not monotonic
            ([[0.0, 0.0], [0.0, 1.0]], [0.0] * 4),  # repeated node
            ([[0.5], [0.0, 1.0]], [0.0] * 2),  # single point
            ([[0.0, 1.0], [0.0, 1.0]], [0.0] * 3),  # wrong value count
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
        assert down.to_dict() == up.to_dict()
        assert down(0.25, [0.7]) == up(0.25, [0.7])

    def test_nan_coordinate_rejected(self, grid):
        with pytest.raises(ValueError):
            grid(math.nan, [0.5])


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
