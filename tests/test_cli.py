import json
import math
import os
import random
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

from multijames import __version__, cli

from _grids import canonical_payload
from _oracles import exact_p_n

SRC = Path(__file__).resolve().parents[1] / "src"
GOLDEN = Path(__file__).resolve().parent / "golden"

CHAIN_EDGES = {
    "root": "A",
    "edges": [
        {"u": "A", "v": "B1", "p_u_beats_v": 0.6},
        {"u": "B1", "v": "B2", "p_u_beats_v": 0.75},
    ],
}

FIGURE_EDGES = {
    "root": "A",
    "edges": [
        {"u": u, "v": v, "p_u_beats_v": 0.5}
        for u, v in (
            ("A", "B1"),
            ("A", "B2"),
            ("B2", "B3"),
            ("B2", "B4"),
            ("B4", "B5"),
            ("B4", "B6"),
            ("A", "B7"),
            ("B7", "B8"),
        )
    ],
}

TRIANGLE_EDGES = {
    "root": "A",
    "edges": [
        {"u": "A", "v": "B1", "p_u_beats_v": 0.5},
        {"u": "A", "v": "B2", "p_u_beats_v": 0.5},
        {"u": "B1", "v": "B2", "p_u_beats_v": 0.5},
    ],
}

# Each c_i beats c_{i+1} with probability 1e-200: the path odds overflow floats.
LOPSIDED_CHAIN = {
    "root": "c0",
    "edges": [
        {"u": f"c{i}", "v": f"c{i + 1}", "p_u_beats_v": 1e-200} for i in range(63)
    ],
}

SPLIT_EDGES = {
    "root": "A",
    "edges": [
        {"u": "A", "v": "B1", "p_u_beats_v": 0.5},
        {"u": "B2", "v": "B3", "p_u_beats_v": 0.5},
    ],
}


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _reject_constant(name):
    raise ValueError(f"{name} is not JSON")


def parse_json(text):
    """Parse CLI output as strict JSON: a bare NaN, Infinity or -Infinity fails."""
    return json.loads(text, parse_constant=_reject_constant)


def run_json(capsys, *argv):
    code, out, err = run(capsys, "--output", "json", *argv)
    return code, (parse_json(out) if out.strip() else None), err


def write_json(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


class TestPredict:
    def test_table_output(self, capsys):
        code, out, _ = run(capsys, "predict", "-a", "0.5", "-b", "0.8,0.5")
        assert code == 0
        assert "probability: 0.1666666666666666" in out

    def test_json_output(self, capsys):
        code, payload, _ = run_json(capsys, "predict", "-a", "0.6", "-b", "0.4")
        assert code == 0
        assert payload["probability"] == pytest.approx(9 / 13, rel=1e-15)
        assert payload["n_opponents"] == 1
        assert payload["method"] == "direct"

    @pytest.mark.parametrize("method", cli.METHODS)
    def test_each_method(self, capsys, method):
        code, payload, _ = run_json(
            capsys, "predict", "-a", "0.5", "-b", "0.8,0.5", "--method", method
        )
        assert code == 0
        assert payload["probability"] == pytest.approx(1 / 6, rel=1e-12)

    def test_all_methods_agree(self, capsys):
        code, payload, _ = run_json(
            capsys, "predict", "-a", "0.45", "-b", "0.3,0.7,0.55", "--all-methods"
        )
        assert code == 0
        assert len(payload["methods"]) == len(cli.METHODS)
        assert payload["max_discrepancy"] < 1e-12

    def test_explicit_blocks(self, capsys):
        code, payload, _ = run_json(
            capsys,
            "predict", "-a", "0.5", "-b", "0.8,0.5,0.6",
            "--method", "partition", "--blocks", "1,2|3",
        )
        assert code == 0
        direct = run_json(capsys, "predict", "-a", "0.5", "-b", "0.8,0.5,0.6")[1]
        assert payload["probability"] == pytest.approx(
            direct["probability"], rel=1e-12
        )

    def test_undefined_contest_exit_code(self, capsys):
        code, _, err = run(capsys, "predict", "-a", "0", "-b", "0")
        assert code == 2
        assert "undefined" in err

    def test_out_of_range_percentage(self, capsys):
        code, _, _ = run(capsys, "predict", "-a", "1.5", "-b", "0.5")
        assert code == 2

    def test_bad_opponent_list(self, capsys):
        code, _, err = run(capsys, "predict", "-a", "0.5", "-b", "0.5,oops")
        assert code == 4
        assert "could not parse" in err

    def test_bad_blocks(self, capsys):
        code, _, _ = run(
            capsys,
            "predict", "-a", "0.5", "-b", "0.5,0.5",
            "--method", "partition", "--blocks", "1|x",
        )
        assert code == 4

    @pytest.mark.parametrize(
        "a, opponents, expected",
        [("5e-324", "0.5,0.5", 0.0), ("1e-310", "1e-300,1e-300", 5e-11)],
    )
    def test_subnormal_protagonist(self, capsys, a, opponents, expected):
        code, payload, err = run_json(capsys, "predict", "-a", a, "-b", opponents)
        assert code == 0
        assert payload["probability"] == pytest.approx(expected, rel=1e-9, abs=0.0)
        assert err == ""

    @pytest.mark.parametrize("how", [("--method", "reduction"), ("--all-methods",)])
    def test_subnormal_protagonist_every_method(self, capsys, how):
        # The odds against a overflow to inf here; 1/p - 1 divided by zero.
        code, payload, err = run_json(
            capsys, "predict", "-a", "5e-324", "-b", "0.555346112404169", *how
        )
        assert code == 0 and err == ""
        exact = exact_p_n(5e-324, (0.555346112404169,))
        values = payload["methods"].values() if "methods" in payload else [payload["probability"]]
        for value in values:
            assert abs(Fraction(value) - exact) <= 2.0**-1022

    def test_near_one_pairwise_probabilities(self, capsys):
        # reduction, shifted and expanded returned about 1.0 for about 3e-13.
        code, payload, _ = run_json(
            capsys,
            "predict", "-a", "0.9964055423011359",
            "-b", "2.076322614354331e-15,0.999999999999999", "--all-methods",
        )
        assert code == 0
        assert payload["max_discrepancy"] <= 1e-12

    def test_subnormal_pivot(self, capsys):
        code, payload, err = run_json(
            capsys,
            "predict", "-a", "0.5", "-b", "0.5", "--method", "substitution", "--pivot", "1e-320",
        )
        assert code == 0 and err == ""
        assert payload["probability"] == pytest.approx(0.5, rel=1e-15)

    def test_reduction_underflow_exits_2(self, capsys):
        code, _, err = run(capsys, "predict", "-a", "0.5", "-b", "5e-324,0.9", "--method", "reduction")
        assert code == 2
        assert err.startswith("error: reduction:")

    def test_full_domain_exits_0_or_2(self, capsys):
        # Seed and size were fixed before the first run.
        rng = random.Random(12)
        edges = ("0", "1", "-0.0", "5e-324", repr(2.0**-1022), repr(1.0 - 2.0**-53), "0.5")
        bad = ("nan", "inf", "-0.1", repr(1.0 + 2.0**-52))

        def pct():
            u = rng.random()
            if u < 0.02:
                return rng.choice(bad)
            if u < 0.2:
                return rng.choice(edges)
            if u < 0.35:
                return repr(rng.randrange(1, 2**52) * 5e-324)
            if u < 0.6:
                return repr(10.0 ** -rng.uniform(0.0, 300.0))
            if u < 0.8:
                return repr(1.0 - 10.0 ** -rng.uniform(0.0, 16.0))
            return repr(rng.random())

        codes = []
        for _ in range(1000):
            bs = ",".join(pct() for _ in range(rng.choice((1, 2, 3, 4, 8))))
            # The = form keeps argparse from reading "-0.0,..." as an option.
            argv = ["predict", f"-a={pct()}", f"-b={bs}", f"--pivot={pct()}", "--all-methods"]
            code, _, err = run(capsys, *argv)
            assert code in (0, 2), argv
            assert err == "" if code == 0 else err.startswith("error:"), argv
            codes.append(code)
        assert codes.count(0) > 200 and codes.count(2) > 200


class TestSimulate:
    def test_deterministic_estimate(self, capsys):
        argv = ("simulate", "-a", "0.5", "-b", "0.8,0.5", "-n", "20000")
        code1, p1, _ = run_json(capsys, *argv)
        code2, p2, _ = run_json(capsys, *argv)
        assert code1 == code2 == 0
        assert p1 == p2
        assert p1["trials_completed"] + p1["trials_abandoned"] == 20000
        assert abs(p1["z_score"]) < 4.0

    def test_seed_flag_changes_stream(self, capsys):
        argv = ("simulate", "-a", "0.5", "-b", "0.5", "-n", "20000")
        _, p1, _ = run_json(capsys, "--seed", "1", *argv)
        _, p2, _ = run_json(capsys, "--seed", "2", *argv)
        assert p1["estimate"] != p2["estimate"]

    def test_undefined_contest(self, capsys):
        code, _, _ = run(capsys, "simulate", "-a", "0", "-b", "0", "-n", "100")
        assert code == 2

    def test_per_competitor_wins(self, capsys):
        code, payload, _ = run_json(capsys, "simulate", "-a", "0.5", "-b", "0.8,0.5", "-n", "20000")
        assert code == 0
        wins = payload["per_competitor_wins"]
        assert len(wins) == 3
        assert sum(wins) == payload["trials_completed"]
        assert wins[0] / payload["trials_completed"] == payload["estimate"]

    def test_wilson_interval_when_protagonist_never_wins(self, capsys):
        argv = ("--seed", "1", "simulate", "-a", "0.01", "-b", "0.99", "-n", "1000")
        code, payload, _ = run_json(capsys, *argv)
        assert code == 0
        assert payload["estimate"] == payload["standard_error"] == 0.0
        low, high = payload["wilson_95"]
        assert low == 0.0
        assert high == pytest.approx(3.8e-3, rel=0.01)
        assert high > payload["closed_form"] == pytest.approx(1.02e-4, rel=0.01)

    @pytest.mark.parametrize(
        "argv",
        [
            ("simulate", "-a", "1e-12", "-b", "1e-12", "--max-rounds", "1", "-n", "100"),
            # About 8e-4 of these trials resolve within the default round cap.
            ("--seed", "0", "simulate", "-a", "0.9", "-b", ",".join(["0.9"] * 8), "-n", "1000"),
        ],
    )
    def test_too_few_resolved(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err.startswith("error: only ") and "Traceback" not in err

    def test_too_few_trials(self, capsys):
        code, out, err = run(capsys, "simulate", "-a", "0.5", "-b", "0.5", "-n", "10")
        assert code == 2
        assert out == ""
        assert err.startswith("error: simulate needs at least 30 trials")

    # --seed is a global option; the others belong to simulate.
    @pytest.mark.parametrize(
        "before, after",
        [
            ((), ("-n", "100000000000000000000")),
            (("--seed", "-1"), ()),
            ((), ("--max-rounds", "0")),
            ((), ("-n", "0")),
            # Once overflowed the float conversion of (1 - P1)^R with exit 1.
            ((), ("--max-rounds", "1" + "0" * 400)),
        ],
    )
    def test_bad_config_exits_2_at_once(self, capsys, before, after):
        start = time.perf_counter()
        code, out, err = run(capsys, *before, "simulate", "-a", "0.5", "-b", "0.5", *after)
        assert time.perf_counter() - start < 1.0
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and "Traceback" not in err


class TestInferTree:
    def test_chain_value(self, capsys, tmp_path):
        path = write_json(tmp_path, "chain.json", CHAIN_EDGES)
        code, payload, _ = run_json(capsys, "infer-tree", path)
        assert code == 0
        assert payload["probability"] == pytest.approx(9 / 17, rel=1e-14)
        assert payload["n_opponents"] == 2

    def test_figure_all_even(self, capsys, tmp_path):
        path = write_json(tmp_path, "figure.json", FIGURE_EDGES)
        code, payload, _ = run_json(capsys, "infer-tree", path)
        assert code == 0
        assert payload["probability"] == pytest.approx(1 / 9, rel=1e-14)
        assert payload["n_opponents"] == 8

    def test_cycle_exits_graph_error(self, capsys, tmp_path):
        path = write_json(tmp_path, "triangle.json", TRIANGLE_EDGES)
        code, _, err = run(capsys, "infer-tree", path)
        assert code == 3
        assert "ExtraEdgesError" in err

    def test_root_override(self, capsys, tmp_path):
        payload = {"edges": CHAIN_EDGES["edges"]}
        path = write_json(tmp_path, "noroot.json", payload)
        assert run(capsys, "infer-tree", path)[0] == 4
        code, result, _ = run_json(capsys, "infer-tree", path, "--root", "A")
        assert code == 0
        assert result["probability"] == pytest.approx(9 / 17, rel=1e-14)

    @pytest.mark.parametrize("root, expected", [("c0", 0.0), ("c63", 1.0)])
    def test_lopsided_chain(self, capsys, tmp_path, root, expected):
        path = write_json(tmp_path, "lopsided.json", LOPSIDED_CHAIN)
        code, payload, _ = run_json(capsys, "infer-tree", path, "--root", root)
        assert code == 0
        assert payload["probability"] == expected

    def test_malformed_json(self, capsys, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        code, _, err = run(capsys, "infer-tree", str(path))
        assert code == 4
        assert "broken.json:1" in err

    def test_missing_file(self, capsys, tmp_path):
        code, _, _ = run(capsys, "infer-tree", str(tmp_path / "absent.json"))
        assert code == 4

    def test_not_utf8(self, capsys, tmp_path):
        path = tmp_path / "edges.json"
        path.write_bytes(b'{"root": "\xff"}')
        code, out, err = run(capsys, "infer-tree", str(path))
        assert (code, out) == (4, "")
        assert err.startswith("error:") and "UTF-8" in err


class TestPropagate:
    def test_round_trip(self, capsys, tmp_path):
        path = write_json(tmp_path, "chain.json", CHAIN_EDGES)
        code, payload, _ = run_json(capsys, "propagate", path, "--anchor", "A=0.6")
        assert code == 0
        pcts = payload["percentages"]
        assert pcts["A"] == pytest.approx(0.6, abs=1e-15)
        assert pcts["B1"] == pytest.approx(0.5, rel=1e-12)
        assert pcts["B2"] == pytest.approx(0.25, rel=1e-12)

    def test_anchor_syntax_error(self, capsys, tmp_path):
        path = write_json(tmp_path, "chain.json", CHAIN_EDGES)
        code, _, err = run(capsys, "propagate", path, "--anchor", "A")
        assert code == 4
        assert "NAME=PCT" in err

    def test_boundary_anchor(self, capsys, tmp_path):
        path = write_json(tmp_path, "chain.json", CHAIN_EDGES)
        code, _, _ = run(capsys, "propagate", path, "--anchor", "A=1.0")
        assert code == 2

    def test_anchor_outside_root_component(self, capsys, tmp_path):
        path = write_json(tmp_path, "split.json", SPLIT_EDGES)
        code, _, err = run(capsys, "propagate", path, "--anchor", "B2=0.5")
        assert code == 3
        assert "DisconnectedError" in err

    def test_graph_error_precedes_boundary_anchor(self, capsys, tmp_path):
        path = write_json(tmp_path, "triangle.json", TRIANGLE_EDGES)
        code, _, err = run(capsys, "propagate", path, "--anchor", "A=1.0")
        assert code == 3
        assert "ExtraEdgesError" in err


class TestIngest:
    def write_csv(self, tmp_path, rows, header="event_id,competitor,rank"):
        path = tmp_path / "events.csv"
        path.write_text("\n".join([header] + rows) + "\n")
        return str(path)

    def test_single_event_percentages(self, capsys, tmp_path):
        rows = [f"race,c{r},{r}" for r in range(1, 11)]
        path = self.write_csv(tmp_path, rows)
        code, payload, _ = run_json(capsys, "ingest", path)
        assert code == 0
        for r in range(1, 11):
            assert payload["competitors"][f"c{r}"]["pct"] == pytest.approx(
                (10 - r) / 9, rel=1e-15
            )

    def test_bad_header(self, capsys, tmp_path):
        path = self.write_csv(tmp_path, ["e,a,1"], header="id,name,place")
        code, _, err = run(capsys, "ingest", path)
        assert code == 4
        assert ":1:" in err

    def test_bad_rank_reports_line(self, capsys, tmp_path):
        path = self.write_csv(tmp_path, ["e,a,1", "e,b,second"])
        code, _, err = run(capsys, "ingest", path)
        assert code == 4
        assert ":3:" in err

    @pytest.mark.parametrize(
        "row",
        [b"e1,\xff\xfe,1", b"e1," + b"x" * 200_000 + b",1"],
        ids=["not-utf8", "field-over-csv-limit"],
    )
    def test_unreadable_csv_exits_parse_error(self, capsys, tmp_path, row):
        path = tmp_path / "events.csv"
        path.write_bytes(b"event_id,competitor,rank\n" + row + b"\n")
        code, out, err = run(capsys, "ingest", str(path))
        assert (code, out) == (4, "")
        assert err.startswith("error:") and "Traceback" not in err

    def test_half_output_is_pinned(self, capsys):
        # Ties and a pair that meets in three events.  The expected bytes
        # were written by the game-by-game standings implementation.
        events = str(GOLDEN / "ingest_half.csv")
        code = cli.main(["--output", "json", "ingest", events, "--ties", "half"])
        assert code == 0
        out = capsys.readouterr().out
        assert out == (GOLDEN / "ingest_half.json").read_text(encoding="utf-8")
        parse_json(out)

    def test_ties_rejected_by_default(self, capsys, tmp_path):
        path = self.write_csv(tmp_path, ["e,a,1", "e,b,1", "e,c,3"])
        assert run(capsys, "ingest", path)[0] == 4
        code, payload, _ = run_json(capsys, "ingest", path, "--ties", "half")
        assert code == 0
        assert payload["competitors"]["a"]["pct"] == pytest.approx(0.75, rel=1e-15)


class TestVerify:
    def test_builtin_passes(self, capsys):
        code, out, _ = run(
            capsys, "verify", "--family", "builtin", "--samples", "100", "--n-max", "3"
        )
        assert code == 0
        assert out.count("PASS") == 12
        assert "FAIL" not in out

    def test_naive_product_fails_normalization(self, capsys):
        code, out, _ = run(
            capsys,
            "verify", "--family", "counterexample:naive-product",
            "--samples", "100", "--n-max", "3",
        )
        assert code == 1
        failing = [line for line in out.splitlines() if line.endswith("FAIL") or "FAIL " in line]
        assert any(line.startswith("condition-C") for line in failing)

    def test_squared_odds_json_report(self, capsys):
        code, payload, _ = run_json(
            capsys,
            "verify", "--family", "counterexample:squared-odds",
            "--samples", "100", "--n-max", "3",
        )
        assert code == 1
        checks = {c["check"]: c for c in payload["checks"]}
        assert not checks["condition-A"]["passed"]
        assert checks["sum-formula"]["passed"]

    def test_grid_family_default_tolerance(self, capsys, tmp_path):
        path = write_json(tmp_path, "grid.json", canonical_payload(41, 2))
        code, out, _ = run(
            capsys,
            "--tol", "0.02",
            "verify", "--family", f"grid:{path}",
            "--samples", "60", "--n-max", "2",
        )
        assert code == 0
        assert "FAIL" not in out

    @pytest.mark.parametrize(
        "family",
        [
            "builtin",
            "counterexample:mismatched-base",
            "counterexample:naive-product",
            "counterexample:squared-odds",
        ],
    )
    def test_json_output_is_pinned(self, capsys, family):
        # The expected bytes were written when this subcommand still built
        # its JSON report itself instead of going through _emit.
        argv = ["--output", "json", "--seed", "5", "verify", "--family", family,
                "--samples", "100", "--n-max", "3"]
        code = cli.main(argv)
        assert code == (0 if family == "builtin" else 1)
        golden = GOLDEN / f"verify_{family.rpartition(':')[2]}.json"
        out = capsys.readouterr().out
        assert out == golden.read_text(encoding="utf-8")
        parse_json(out)

    @pytest.mark.parametrize(
        "argv",
        [
            ("verify", "--samples", "0"),
            ("verify", "--n-min", "3", "--n-max", "1"),
            ("verify", "--n-min", "0"),
            ("--tol", "nan", "verify"),
            ("--tol", "-1", "verify"),
            ("verify", "--family", "grid:{grid}", "--n-min", "3"),
        ],
        ids=["no-samples", "empty-n-range", "zero-opponents", "nan-tol", "negative-tol",
             "grid-without-requested-n"],
    )
    def test_bad_sample_spec_exits_before_any_check(self, capsys, tmp_path, argv):
        path = write_json(tmp_path, "grid.json", canonical_payload(5, 2))
        for output in ("table", "json"):
            code, out, err = run(
                capsys, "--output", output, *(arg.format(grid=path) for arg in argv)
            )
            assert code == 2
            assert err.startswith("error:")
            assert out == ""

    def test_unknown_family(self, capsys):
        code, _, err = run(capsys, "verify", "--family", "mystery")
        assert code == 4
        assert "unknown family" in err

    def test_unknown_counterexample(self, capsys):
        code, _, _ = run(capsys, "verify", "--family", "counterexample:nope")
        assert code == 2

    def test_missing_grid_file(self, capsys, tmp_path):
        code, _, _ = run(capsys, "verify", "--family", f"grid:{tmp_path}/none.json")
        assert code == 4

    @pytest.mark.parametrize(
        "payload",
        [
            [1, 2],
            {"1": None},
            {"1": {"grids": 3, "values": [0.0] * 4}},
            {"1": {"grids": [[0.0, 1.0], 5], "values": [0.0] * 4}},
            {"1": {"grids": [[0.0, 1.0], [0.0, 1.0]], "values": [0.0, {}, 0.0, 0.0]}},
        ],
        ids=["list-payload", "null-table", "integer-grids", "integer-axis", "object-value"],
    )
    def test_malformed_grid_file_exits_parse_error(self, capsys, tmp_path, payload):
        path = write_json(tmp_path, "grid.json", payload)
        code, out, err = run(capsys, "verify", "--family", f"grid:{path}")
        assert (code, out) == (4, "")
        assert err.startswith("error:") and "malformed grid family file" in err

    def test_strict_json_spells_every_non_finite_float(self):
        payload = {"x": [math.inf, -math.inf, math.nan, 0.5], "y": {"z": (math.nan,)}, "n": 3}
        expected = {"x": ["inf", "-inf", "nan", 0.5], "y": {"z": ["nan"]}, "n": 3}
        assert cli._strict(payload) == expected

    @pytest.mark.parametrize("node", ["inf", "-inf", "nan"])
    def test_non_finite_grid_axis_exits_parse_error(self, capsys, tmp_path, node):
        payload = {"1": {"grids": [[0, 1], [0, node]], "values": [0, 0, 0, 0]}}
        path = write_json(tmp_path, "grid.json", payload)
        code, out, err = run(capsys, "verify", "--family", f"grid:{path}")
        assert (code, out) == (4, "")
        assert err.startswith("error:") and "malformed grid family file" in err

    def test_nan_grid_fails_every_check(self, capsys, tmp_path):
        path = write_json(
            tmp_path, "grid.json", {"1": {"grids": [[0, 1], [0, 1]], "values": [[0, "nan"], [1, 0]]}}
        )
        code, payload, _ = run_json(capsys, "verify", "--family", f"grid:{path}", "--n-max", "1")
        assert code == 1
        for check in payload["checks"]:
            assert not check["passed"], check["check"]
            assert check["worst_input"][0] == "violation nan"
            assert check["max_violation"] == "inf"  # strict JSON: a string, not Infinity


class TestVersion:
    def test_prints_version_and_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["--version"])
        assert exc.value.code == 0
        assert capsys.readouterr().out.strip() == f"multijames {__version__}"


# Every subcommand but grid verify must start on standard-library imports.
# numpy is blocked, so importing it fails instead of only being reported.
_IMPORT_PROBE = """
import contextlib, io, json, sys
sys.modules["numpy"] = None
from multijames import cli

edges, events = sys.argv[1:]
calls = [
    ["predict", "-a", "0.5", "-b", "0.8,0.5"],
    ["predict", "-a", "0.5", "-b", "0.8,0.5", "--all-methods"],
    ["infer-tree", edges],
    ["propagate", edges, "--anchor", "A=0.6"],
    ["ingest", events],
    ["simulate", "-a", "0.5", "-b", "0.8,0.5", "-n", "1000"],
    ["verify", "--family", "builtin", "--samples", "5", "--n-max", "2"],
]
with contextlib.redirect_stdout(io.StringIO()):
    codes = [cli.main(argv) for argv in calls]
print(json.dumps({"codes": codes, "loaded": sorted(
    name for name in ("numpy", "scipy") if sys.modules.get(name) is not None)}))
"""


class TestImportHygiene:
    def test_light_subcommands_import_no_numpy_or_scipy(self, tmp_path):
        edges = write_json(tmp_path, "chain.json", CHAIN_EDGES)
        events = tmp_path / "events.csv"
        events.write_text("event_id,competitor,rank\nrace,a,1\nrace,b,2\nrace,c,3\n")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [str(SRC), *filter(None, [os.environ.get("PYTHONPATH")])]))
        proc = subprocess.run(
            [sys.executable, "-c", _IMPORT_PROBE, edges, str(events)],
            capture_output=True, text=True, env=env, check=True,
        )
        result = json.loads(proc.stdout)
        assert result["codes"] == [0] * 7
        assert result["loaded"] == []

    def test_source_does_not_mention_scipy(self):
        sources = [p for p in SRC.rglob("*") if p.is_file() and "__pycache__" not in p.parts]
        assert sources
        assert [p.name for p in sources if b"scipy" in p.read_bytes()] == []
