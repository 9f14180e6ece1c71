import json
import math
import os
import random
import subprocess
import sys
import time
import warnings
from fractions import Fraction
from pathlib import Path

import pytest

from multijames import __version__, cli
from multijames.ingest import UnbalancedScheduleWarning

from _domain import CLI_STRATA, draw
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


def pct(rng):
    """A percentage as command-line text, drawn over the full domain and a little beyond."""
    return str(draw(rng, CLI_STRATA))


def pct_list(rng):
    return ",".join(pct(rng) for _ in range(rng.choice((1, 2, 3, 4, 8))))


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
        "blocks, message",
        [
            ("1|3", "partition index 3 outside 1..2"),
            ("1,1|2", "partition index 1 repeated"),
            ("0|1,2", "partition index 0 outside 1..2"),
            ("2", "partition does not cover indices [1]"),
        ],
    )
    # A method that takes no partition checks a given one too.
    @pytest.mark.parametrize(
        "how", [["--method", "partition"], ["--all-methods"], ["--method", "direct"]]
    )
    def test_partition_messages_name_indices_as_typed(self, capsys, blocks, message, how):
        code, out, err = run(
            capsys, "predict", "-a", "0.5", "-b", "0.5,0.4", "--blocks", blocks, *how
        )
        assert code == 2
        assert out == ""
        assert err == f"error: {message}\n"

    @pytest.mark.parametrize(
        "a, opponents, expected",
        [("5e-324", "0.5,0.5", 0.0), ("1e-310", "1e-300,1e-300", 5e-11)],
    )
    def test_subnormal_protagonist(self, capsys, a, opponents, expected):
        code, payload, err = run_json(capsys, "predict", "-a", a, "-b", opponents)
        assert code == 0
        assert payload["probability"] == pytest.approx(expected, rel=1e-9, abs=0.0)
        assert err == ""

    @pytest.mark.parametrize(
        "how",
        [
            ("-a", "5e-324", "-b", "0.555346112404169", "--method", "reduction"),
            ("-a", "5e-324", "-b", "0.555346112404169", "--all-methods"),
            # Sum, partition and reduction printed 0.0 for this one, with exit 0.
            *[
                ("-a", "1e-310", "-b", "0.5868054142911576,5e-324", *method)
                for method in (("--method", "sum"), ("--method", "partition"),
                               ("--method", "reduction"), ("--all-methods",))
            ],
            # q(b)/a of two subnormals is exact, 1/3; dividing q(b) by a's frexp
            # mantissa first would round it on the subnormal grid, to 1/4.
            ("-a", "1.5e-323", "-b", "5e-324", "--all-methods"),
        ],
    )
    def test_subnormal_protagonist_every_method(self, capsys, how):
        # The odds against a subnormal a may leave the float range; 1/p - 1 divided by zero.
        code, payload, err = run_json(capsys, "predict", *how)
        assert code == 0 and err == ""
        exact = exact_p_n(float(how[1]), tuple(map(float, how[3].split(","))))
        values = payload["methods"].values() if "methods" in payload else [payload["probability"]]
        for value in values:
            assert abs(Fraction(value) - exact) <= 2.0**-1074
        assert payload.get("max_discrepancy", 0.0) <= 2.0**-1074

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
        codes = []
        for _ in range(1000):
            bs = pct_list(rng)
            # The = form keeps argparse from reading "-0.0,..." as an option.
            argv = ["predict", f"-a={pct(rng)}", f"-b={bs}", f"--pivot={pct(rng)}",
                    "--all-methods"]
            code, payload, err = run_json(capsys, *argv)
            assert code in (0, 2), argv
            assert err == "" if code == 0 else err.startswith("error:"), argv
            # A NaN is no probability: exit 0 must come with a value from every method.
            assert code != 0 or "nan" not in payload["methods"].values(), (argv, payload)
            codes.append(code)
        assert codes.count(0) > 200 and codes.count(2) > 200

    @pytest.mark.parametrize(
        "argv",
        [
            ("-a", "0.999875491066751", "-b", "5e-324,0.9999999999999999", "--method", "shifted"),
            ("-a", "0.999875491066751", "-b", "5e-324,0.9999999999999999", "--method", "expanded"),
            ("-a", "0.999999999999999",
             "-b", "1.65440408079603e-180,0.9999996976022407,5e-324,0.052173628310167586",
             "--all-methods"),
        ],
    )
    def test_opponent_odds_out_of_float_range(self, capsys, argv):
        # q(b_j)/q(b_1) overflows here and odds(a, b_1) underflows to 0, so shifted and
        # expanded printed "nan" with exit 0; --all-methods reported a spread of 1.1e-16.
        code, payload, _ = run_json(capsys, "predict", *argv)
        assert code == 0
        exact = exact_p_n(float(argv[1]), [float(b) for b in argv[3].split(",")])
        values = payload["methods"].values() if "methods" in payload else [payload["probability"]]
        for value in values:
            assert abs(Fraction(value) - exact) <= 1e-9 * exact + Fraction(2.0**-1022), payload

    def test_all_methods_spread_shows_a_nan(self, capsys, monkeypatch):
        # A NaN that is not the first value slips past max and min.
        monkeypatch.setitem(cli.METHODS, "broken", lambda c, pivot, blocks: math.nan)
        code, payload, _ = run_json(capsys, "predict", "-a", "0.5", "-b", "0.8,0.5", "--all-methods")
        assert code == 0
        assert payload["methods"]["broken"] == payload["max_discrepancy"] == "nan"


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

    @pytest.mark.parametrize("a, b", [("0.01", "0.99"), ("0.99", "0.01")])
    def test_no_z_score_without_a_standard_error(self, capsys, a, b):
        # Every trial went one way, so the plug-in standard error is 0.0; a z-score
        # of 0.0 would claim a perfect fit the run did not earn.
        code, payload, _ = run_json(capsys, "--seed", "1", "simulate", "-a", a, "-b", b, "-n", "1000")
        assert code == 0
        assert payload["standard_error"] == 0.0
        assert payload["estimate"] in (0.0, 1.0)
        assert payload["z_score"] is None

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

    @pytest.mark.parametrize("command", [["infer-tree"], ["propagate", "--anchor", "A=0.5"]])
    @pytest.mark.parametrize("p", ['"abc"', '""', "1" + "0" * 400], ids=["text", "empty", "huge-int"])
    def test_unconvertible_edge_probability_exits_parse_error(self, capsys, tmp_path, command, p):
        path = tmp_path / "edges.json"
        path.write_text('{"root": "A", "edges": [{"u": "A", "v": "B", "p_u_beats_v": %s}]}' % p)
        code, out, err = run(capsys, command[0], str(path), *command[1:])
        assert (code, out) == (4, "")
        assert err.startswith("error:") and "malformed edge entry" in err

    @pytest.mark.parametrize("p", ['"1.5"', '"nan"', "1e400", "0"])
    def test_out_of_range_edge_probability_stays_graph_error(self, capsys, tmp_path, p):
        path = tmp_path / "edges.json"
        path.write_text('{"root": "A", "edges": [{"u": "A", "v": "B", "p_u_beats_v": %s}]}' % p)
        code, out, err = run(capsys, "infer-tree", str(path))
        assert (code, out) == (3, "")
        assert err.startswith("error: GraphError:")


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

    def test_anchor_percentage_not_a_number(self, capsys, tmp_path):
        path = write_json(tmp_path, "chain.json", CHAIN_EDGES)
        code, out, err = run(capsys, "propagate", path, "--anchor", "A=abc")
        assert (code, out) == (4, "")
        assert "could not parse anchor percentage" in err

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
        # A quoted name over two lines: the bad rank is on physical line 4.
        path = self.write_csv(tmp_path, ['e,"a\nb",1', "e,c,x"])
        code, _, err = run(capsys, "ingest", path)
        assert code == 4
        assert ":4:" in err

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

    def test_blank_competitor_name_exits_parse_error(self, capsys, tmp_path):
        path = self.write_csv(tmp_path, ["e1,a,1", "e1,,2"])
        code, out, err = run(capsys, "ingest", path)
        assert (code, out) == (4, "")
        assert err == "error: event 'e1': competitor names must be nonempty\n"

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
            # Each once built its whole range first and died of a MemoryError, exit 1.
            ("verify", "--n-max", str(10**18)),
            ("verify", "--n-min", str(-10**18)),
        ],
        ids=["no-samples", "empty-n-range", "zero-opponents", "nan-tol", "negative-tol",
             "grid-without-requested-n", "huge-n-max", "huge-negative-n-min"],
    )
    def test_bad_sample_spec_exits_before_any_check(self, capsys, tmp_path, argv):
        path = write_json(tmp_path, "grid.json", canonical_payload(5, 2))
        for output in ("table", "json"):
            code, out, err = run(
                capsys, "--output", output, *(arg.format(grid=path) for arg in argv)
            )
            assert code == 2
            assert err.startswith("error:") and err.count("\n") == 1
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
            {"1": {"grids": [[0.0, 1.0], [0.0, 1.0]], "values": [[0, 1, 1], [1]]}},
            {"1": {"grids": [[0.0, 1.0], [0.0, 1.0]], "values": [0, 1, 1, 10**400]}},
            {"1": {"grids": [[0.0, 1.0], [0.0, 10**400]], "values": [0, 1, 1, 0]}},
        ],
        ids=["list-payload", "null-table", "integer-grids", "integer-axis", "object-value",
             "ragged-values", "huge-int-value", "huge-int-node"],
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


# Malformed input files shared by infer-tree, propagate and grid verify.
MALFORMED_FILES = {
    "list.json": "[1, 2]",
    "no-edges.json": '{"root": "A"}',
    "edges-not-list.json": '{"root": "A", "edges": 5}',
    "edge-not-object.json": '{"root": "A", "edges": ["ab"]}',
    "edge-missing-key.json": '{"root": "A", "edges": [{"u": "A", "v": "B"}]}',
    "p-text.json": '{"root": "A", "edges": [{"u": "A", "v": "B", "p_u_beats_v": "abc"}]}',
    "p-object.json": '{"root": "A", "edges": [{"u": "A", "v": "B", "p_u_beats_v": {}}]}',
    "p-null.json": '{"root": "A", "edges": [{"u": "A", "v": "B", "p_u_beats_v": null}]}',
    "p-true.json": '{"root": "A", "edges": [{"u": "A", "v": "B", "p_u_beats_v": true}]}',
    "no-root.json": '{"edges": []}',
    "empty-root.json": '{"root": "", "edges": []}',
    "null-table.json": '{"1": null}',
    "truncated.json": '{"root": "A", "edges": [',
    "empty.json": "",
    "deeply-nested.json": "[" * 100_000,
    "not-utf8.json": b'{"root": "\xff", "edges": []}',
    "absent.json": None,
}
GRAPH_DEFECTS = ("cycle", "duplicate", "self-loop", "empty-name", "second-component", "lone-root")


def write_malformed(tmp_path):
    paths = []
    for name, content in MALFORMED_FILES.items():
        path = tmp_path / name
        if isinstance(content, bytes):
            path.write_bytes(content)
        elif content is not None:
            path.write_text(content)
        paths.append(str(path))
    return paths


def random_tree(rng, full_domain):
    """A tree payload, its vertex names and whether every edge probability is valid."""
    names = [f"v{i}" for i in range(rng.randint(2, 8))]
    edges = []
    for child in range(1, len(names)):
        parent = rng.randrange(child)
        p = float(pct(rng)) if full_domain else rng.uniform(0.01, 0.99)
        u, v = (names[parent], names[child]) if rng.random() < 0.5 else (names[child], names[parent])
        edges.append({"u": u, "v": v, "p_u_beats_v": p})
    valid = all(0.0 < e["p_u_beats_v"] < 1.0 for e in edges)
    return {"root": names[0], "edges": edges}, names, valid


def plant_defect(rng, payload, names, defect):
    """Make the tree in ``payload`` fail one graph check, with valid edge probabilities."""
    edges = payload["edges"]
    if defect == "cycle":
        if len(names) == 2:
            edges.append(dict(edges[0]))  # two vertices close a cycle only by repeating
        else:
            u, v = rng.sample(names, 2)
            while any({u, v} == {e["u"], e["v"]} for e in edges):
                u, v = rng.sample(names, 2)
            edges.append({"u": u, "v": v, "p_u_beats_v": 0.5})
    elif defect == "duplicate":
        e = rng.choice(edges)
        edges.append({"u": e["v"], "v": e["u"], "p_u_beats_v": 0.5})
    elif defect == "self-loop":
        edges.append({"u": names[-1], "v": names[-1], "p_u_beats_v": 0.5})
    elif defect == "empty-name":
        edges.append({"u": names[-1], "v": "", "p_u_beats_v": 0.5})
    elif defect == "second-component":
        edges.append({"u": "x1", "v": "x2", "p_u_beats_v": 0.5})
    else:
        payload["root"] = "lone"


class TestMalformedFiles:
    """Every file of MALFORMED_FILES, once, through each subcommand that reads a file.

    Each exits with the code the README gives for it, 4 for a parse error, with
    one ``error:`` line and no traceback or report.  The one file that parses,
    p-true.json, holds an edge probability of 1.0 (JSON true): a graph error, 3.
    """

    ARGV = {
        "infer-tree": lambda path: ["infer-tree", path],
        "propagate": lambda path: ["propagate", path, "--anchor=A=0.5"],
        "ingest": lambda path: ["ingest", path],
        "verify": lambda path: ["verify", "--family", f"grid:{path}", "--samples", "3"],
    }

    @pytest.mark.parametrize("command", ARGV)
    def test_documented_exit(self, capsys, tmp_path, command):
        for path in write_malformed(tmp_path):
            graph_error = command in ("infer-tree", "propagate") and path.endswith("p-true.json")
            argv = self.ARGV[command](path)
            code, out, err = run(capsys, *argv)
            assert code == (3 if graph_error else 4), (argv, err)
            assert out == "", argv
            assert err.startswith("error:") and err.count("\n") == 1, (argv, err)
            assert "Traceback" not in err, argv


class TestFileReadErrors:
    """A file that cannot be read as UTF-8 JSON gets one message, whichever command reads it.

    The graph and the grid reader share it; the events reader shares the part
    that opens and decodes the file.
    """

    DEFECTS = ("truncated.json", "empty.json", "not-utf8.json", "deeply-nested.json", "absent.json")

    @pytest.mark.parametrize("name", DEFECTS)
    def test_same_message_for_graph_and_grid(self, capsys, tmp_path, name):
        path = next(p for p in write_malformed(tmp_path) if p.endswith(name))
        commands = [["infer-tree", path], ["verify", "--family", f"grid:{path}"]]
        if name in ("not-utf8.json", "absent.json"):
            commands.append(["ingest", path])
        errors = set()
        for argv in commands:
            code, out, err = run(capsys, *argv)
            assert (code, out) == (4, ""), argv
            assert err.startswith("error:") and path in err, (argv, err)
            errors.add(err)
        assert len(errors) == 1, errors


class TestSubcommandExitCodes:
    """Every subcommand exits 0, 2, 3 or 4, or 1 from verify, with no traceback.

    In process through ``cli.main``, on full-domain percentages and on
    malformed JSON and CSV files.  A failing exit writes one line that
    starts with ``error:`` and no report.
    """

    SEED = 14
    CASES_PER_SUBCOMMAND = 60  # fixed, with the seed, before the first run

    def predict_case(self, rng, tmp_path, malformed):
        argv = ["predict", f"-a={pct(rng)}", f"-b={pct_list(rng)}", f"--pivot={pct(rng)}",
                "--method", rng.choice(list(cli.METHODS))]
        if rng.random() < 0.2:
            argv.append("--blocks=" + rng.choice(("1", "1|2", "1,2|3", "x", "0", "9", "1|1")))
        return argv, {0, 2, 4}

    def tree_case(self, rng, tmp_path, malformed, command):
        if rng.random() < 0.25:
            path = rng.choice(malformed)
            expected = {3, 4}  # a malformed file is a parse error; true as p is a graph error
            anchor = "A=0.5"
            names = ["A"]
        else:
            payload, names, valid = random_tree(rng, full_domain=rng.random() < 0.3)
            defect = rng.choice(GRAPH_DEFECTS) if rng.random() < 0.4 else None
            if defect:
                plant_defect(rng, payload, names, defect)
            path = write_json(tmp_path, f"tree{rng.randrange(10**9)}.json", payload)
            expected = {3} if defect or not valid else {0}
            anchor = f"{rng.choice(names + ['nobody'])}={pct(rng)}"
        if command == "infer-tree":
            return ["infer-tree", path], expected
        if rng.random() < 0.1:
            anchor = anchor.partition("=")[0]  # no percentage at all
        return ["propagate", path, f"--anchor={anchor}"], expected | {0, 2, 3, 4}

    def ingest_case(self, rng, tmp_path, malformed):
        path = tmp_path / f"events{rng.randrange(10**9)}.csv"
        u = rng.random()
        if u < 0.05:
            path.write_bytes(b"event_id,competitor,rank\ne1,\xff,1\n")
        elif u < 0.1:
            path.write_text(rng.choice(("", "id,name,place\ne,a,1\n", "event_id,competitor\n")))
        else:
            lines = ["event_id,competitor,rank"]
            for e in range(rng.randint(1, 4)):
                field = [rng.choice("abcdef") for _ in range(rng.randint(1, 5))]
                rank = 1
                for i, name in enumerate(field):
                    if i and rng.random() > 0.3:
                        rank = i + 1  # else tied with the finisher before
                    text = str(rank)
                    if rng.random() < 0.05:
                        text = rng.choice(("0", "-1", "1.5", "x", "", "99", "1" * 40))
                    lines.append(f"e{e},{name},{text}")
                if rng.random() < 0.05:
                    lines.append(rng.choice(("", "e9,a", "e9,a,1,extra")))
            path.write_text("\n".join(lines) + "\n")
        return ["ingest", str(path), "--ties", rng.choice(("reject", "half"))], {0, 4}

    def simulate_case(self, rng, tmp_path, malformed):
        argv = [
            "--seed", rng.choice(("0", "7", "-1")),
            "simulate", f"-a={pct(rng)}", f"-b={pct_list(rng)}",
            "-n", rng.choice(("0", "29", "30", "1000", str(2**52), str(2**52 + 1), "1" + "0" * 20)),
            "--max-rounds", rng.choice(("0", "1", "3", "10000", str(2**53), str(2**53 + 1))),
        ]
        return argv, {0, 2}

    def verify_case(self, rng, tmp_path, malformed):
        grid = tmp_path / "grid.json"
        if not grid.exists():
            grid.write_text(json.dumps(canonical_payload(5, 2)))
        family = rng.choice((
            "builtin", "counterexample:naive-product", "counterexample:squared-odds",
            "counterexample:mismatched-base", "counterexample:nope", "mystery", f"grid:{grid}",
            f"grid:{rng.choice(malformed)}",
        ))
        tol = rng.choice(((), ("--tol", "0"), ("--tol", "0.5"), ("--tol", "nan"), ("--tol", "-1"),
                          ("--tol", "inf")))
        argv = [*tol, "--seed", rng.choice(("0", "3")), "verify", "--family", family,
                "--samples", rng.choice(("0", "1", "3")), "--n-min", rng.choice("0123"),
                "--n-max", rng.choice("124")]
        return argv, {0, 1, 2, 4}

    def test_exit_codes(self, capsys, tmp_path):
        rng = random.Random(self.SEED)
        malformed = write_malformed(tmp_path)
        makers = {
            "predict": self.predict_case,
            "infer-tree": lambda *a: self.tree_case(*a, "infer-tree"),
            "propagate": lambda *a: self.tree_case(*a, "propagate"),
            "ingest": self.ingest_case,
            "simulate": self.simulate_case,
            "verify": self.verify_case,
        }
        seen = {command: set() for command in makers}
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UnbalancedScheduleWarning)
            for command, make in makers.items():
                for _ in range(self.CASES_PER_SUBCOMMAND):
                    argv, expected = make(rng, tmp_path, malformed)
                    code, out, err = run(capsys, *argv)
                    assert code in expected, (argv, err)
                    assert code in (0, 2, 3, 4) or (code == 1 and command == "verify"), argv
                    assert "Traceback" not in err, argv
                    if code in (0, 1):
                        assert err == "" and out, argv
                    else:
                        assert err.startswith("error:") and err.count("\n") == 1, (argv, err)
                        assert out == "", argv
                    seen[command].add(code)
        # Every subcommand both succeeded and failed; graph errors reached exit 3.
        assert all(0 in codes and len(codes) > 1 for codes in seen.values()), seen
        assert 3 in seen["infer-tree"] and 3 in seen["propagate"] and 1 in seen["verify"]


def child_env():
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC), *filter(None, [os.environ.get("PYTHONPATH")])]))


class TestClosedPipe:
    """A reader that leaves before the report is written costs no traceback and no exit code."""

    @pytest.mark.parametrize("output", ["table", "json"])
    @pytest.mark.parametrize(
        "argv, code",
        [
            (["predict", "-a", "0.5", "-b", "0.8,0.5"], 0),
            (["verify", "--family", "counterexample:naive-product", "--samples", "20"], 1),
        ],
        ids=["predict", "verify-failing"],
    )
    def test_reader_gone_before_output(self, tmp_path, output, argv, code):
        with open(tmp_path / "stderr", "w+b") as err:
            proc = subprocess.Popen(
                [sys.executable, "-m", "multijames.cli", "--output", output, *argv],
                stdout=subprocess.PIPE, stderr=err, env=child_env(),
            )
            # The child is still starting up, so every write it makes finds no reader.
            proc.stdout.close()
            assert proc.wait(timeout=120) == code
            err.seek(0)
            assert err.read() == b""


# Every subcommand, grid verify included, must start on standard-library imports.
# numpy is blocked, so importing it fails instead of only being reported.
# The probe prints the modules loaded after importing the CLI and after each call.
_IMPORT_PROBE = """
import contextlib, io, json, sys
sys.modules["numpy"] = None
from multijames import cli

def loaded():
    return sorted(name for name, module in sys.modules.items() if module is not None)

edges, events, grid = sys.argv[1:]
calls = [
    ["predict", "-a", "0.5", "-b", "0.8,0.5"],
    ["predict", "-a", "0.5", "-b", "0.8,0.5", "--all-methods"],
    ["infer-tree", edges],
    ["propagate", edges, "--anchor", "A=0.6"],
    ["ingest", events],
    ["simulate", "-a", "0.5", "-b", "0.8,0.5", "-n", "1000"],
    ["verify", "--family", "builtin", "--samples", "5", "--n-max", "2"],
    ["--tol", "0.05", "verify", "--family", f"grid:{grid}", "--samples", "5", "--n-max", "2"],
]
codes, snapshots = [], [loaded()]
with contextlib.redirect_stdout(io.StringIO()):
    for argv in calls:
        codes.append(cli.main(argv))
        snapshots.append(loaded())
print(json.dumps({"codes": codes, "snapshots": snapshots}))
"""

# What each call of the probe may add, among multijames modules and csv.
_OWN_MODULES = [
    set(),
    set(),
    {"multijames.tree"},
    set(),  # propagate's module came with infer-tree
    {"multijames.ingest", "csv"},
    {"multijames.simulate"},
    {"multijames.verify"},
    set(),  # grid verify's module came with builtin verify
]


@pytest.fixture(scope="module")
def import_probe(tmp_path_factory):
    tmp_path = tmp_path_factory.mktemp("probe")
    edges = write_json(tmp_path, "chain.json", CHAIN_EDGES)
    events = tmp_path / "events.csv"
    events.write_text("event_id,competitor,rank\nrace,a,1\nrace,b,2\nrace,c,3\n")
    grid = write_json(tmp_path, "grid.json", canonical_payload(21, 2))
    proc = subprocess.run(
        [sys.executable, "-c", _IMPORT_PROBE, edges, str(events), grid],
        capture_output=True, text=True, env=child_env(), check=True,
    )
    result = json.loads(proc.stdout)
    assert result["codes"] == [0] * 8
    return [set(snapshot) for snapshot in result["snapshots"]]


# Error exits of the subcommands that read no graph: each exit code, and whether
# multijames.tree was loaded by then.
_ERROR_PROBE = """
import contextlib, io, json, sys
from multijames import cli

calls = [
    ["predict", "-a", "1.5", "-b", "0.5"],
    ["predict", "-a", "1", "-b", "1,0.5"],
    ["simulate", "-a", "0.5", "-b", "0.5", "-n", "0"],
    ["verify", "--samples", "0"],
    ["ingest", sys.argv[1]],
]
results = []
with contextlib.redirect_stderr(io.StringIO()):
    for argv in calls:
        results.append([cli.main(argv), "multijames.tree" in sys.modules])
print(json.dumps(results))
"""


class TestErrorExitImports:
    def test_error_exits_load_no_graph_module(self, tmp_path):
        events = tmp_path / "events.csv"
        events.write_text("id,name,place\ne,a,1\n")
        proc = subprocess.run(
            [sys.executable, "-c", _ERROR_PROBE, str(events)],
            capture_output=True, text=True, env=child_env(), check=True,
        )
        assert json.loads(proc.stdout) == [[2, False]] * 4 + [[4, False]]


class TestImportHygiene:
    def test_light_subcommands_import_no_numpy_or_scipy(self, import_probe):
        for snapshot in import_probe:
            assert not snapshot & {"numpy", "scipy"}

    def test_no_call_loads_dataclasses_or_inspect(self, import_probe):
        for snapshot in import_probe:
            assert not snapshot & {"dataclasses", "inspect"}

    def test_predict_loads_no_other_subcommand(self, import_probe):
        heavy = {"multijames.tree", "multijames.ingest", "multijames.simulate",
                 "multijames.verify", "csv"}
        for snapshot in import_probe[:3]:  # after the import and both predict calls
            assert not snapshot & heavy

    def test_each_subcommand_adds_only_its_own_module(self, import_probe):
        for before, after, own in zip(import_probe, import_probe[1:], _OWN_MODULES):
            added = {name for name in after - before
                     if name == "csv" or name.startswith("multijames.")}
            assert added == own

    def test_tree_loads_no_identities_or_numpy(self):
        # The tree ends through core's range-safe step and needs nothing of identities.
        code = "import json, sys, multijames.tree; print(json.dumps(sorted(sys.modules)))"
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              env=child_env(), check=True)
        loaded = set(json.loads(proc.stdout))
        assert "multijames.core" in loaded
        assert not loaded & {"multijames.identities", "numpy"}

    def test_source_does_not_mention_scipy(self):
        sources = [p for p in SRC.rglob("*") if p.is_file() and "__pycache__" not in p.parts]
        assert sources
        assert [p.name for p in sources if b"scipy" in p.read_bytes()] == []
