import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from multijames import __version__, cli

SRC = Path(__file__).resolve().parents[1] / "src"

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


def run_json(capsys, *argv):
    code, out, err = run(capsys, "--output", "json", *argv)
    return code, (json.loads(out) if out.strip() else None), err


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
        from multijames.verify import GridFamily

        grid = GridFamily.tabulate_canonical(resolution=41, n_max=2)
        path = tmp_path / "grid.json"
        path.write_text(json.dumps(grid.to_dict()))
        code, out, _ = run(
            capsys,
            "--tol", "0.02",
            "verify", "--family", f"grid:{path}",
            "--samples", "60", "--n-max", "2",
        )
        assert code == 0
        assert "FAIL" not in out

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


class TestVersion:
    def test_prints_version_and_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["--version"])
        assert exc.value.code == 0
        assert capsys.readouterr().out.strip() == f"multijames {__version__}"


# Every subcommand except simulate must start on standard-library imports.
_IMPORT_PROBE = """
import contextlib, io, json, sys
from multijames import cli

edges, events = sys.argv[1:]
calls = [
    ["predict", "-a", "0.5", "-b", "0.8,0.5"],
    ["predict", "-a", "0.5", "-b", "0.8,0.5", "--all-methods"],
    ["infer-tree", edges],
    ["propagate", edges, "--anchor", "A=0.6"],
    ["ingest", events],
    ["verify", "--family", "builtin", "--samples", "5", "--n-max", "2"],
]
with contextlib.redirect_stdout(io.StringIO()):
    codes = [cli.main(argv) for argv in calls]
print(json.dumps({"codes": codes, "loaded": sorted(
    name for name in ("numpy", "scipy") if name in sys.modules)}))
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
        assert result["codes"] == [0] * 6
        assert result["loaded"] == []

    def test_source_does_not_mention_scipy(self):
        sources = [p for p in SRC.rglob("*") if p.is_file() and "__pycache__" not in p.parts]
        assert sources
        assert [p.name for p in sources if b"scipy" in p.read_bytes()] == []
