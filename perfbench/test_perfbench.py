"""Self-test of the benchmark at tiny input sizes.

    python3 -m pytest perfbench/test_perfbench.py
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

import run

BENCHMARK = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
WORKLOAD_METRICS = {
    "cli-oneshot": {"cli_p50_ms": "ms", "cli_tail_ms": "ms"},
    "closed-form": {"direct_evals_per_s": "1/s", "method_evals_per_s": "1/s"},
    "oracle": {"sim_trials_per_s": "1/s", "verify_samples_per_s": "1/s"},
    "league": {"ingest_pairs_per_s": "1/s", "tree_vertices_per_s": "1/s"},
}


def bench(capsys, workload: str, trace: int) -> tuple[dict, dict]:
    """Run one tiny benchmark; return its result object and its metric lines."""
    argv = ["--workload", workload, "--seed", "3", "--seconds", "0", "--trace", str(trace), "--tiny"]
    assert run.main(argv) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    printed = {}
    for line in lines:
        if line.startswith("metric "):
            _, name, value, unit, n = line.split()[:5]
            assert n.startswith("n=") and int(n[2:]) >= 1, line
            printed[name] = (float(value), unit)
    return json.loads(lines[-1]), printed


def declared(kind: str) -> dict[str, str]:
    return {m["name"]: m["unit"] for m in BENCHMARK[kind]}


@pytest.mark.parametrize("workload", sorted(WORKLOAD_METRICS))
def test_untraced_run_emits_every_end_to_end_metric(capsys, workload):
    result, printed = bench(capsys, workload, 0)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared("end_to_end")
    assert all(v["value"] > 0 for v in result["metrics"].values())
    expected = dict(WORKLOAD_METRICS[workload], ops_failed_frac="frac")
    assert {name: printed[name][1] for name in expected} == expected


def test_traced_run_emits_every_per_layer_metric(capsys):
    result, printed = bench(capsys, "closed-form", 1)
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared("per_layer")
    assert result["metrics"]["core.calls"]["value"] > 0
    assert result["metrics"]["verify.calls_per_sample"]["value"] >= 1


def test_perturbed_evaluator_raises_ops_failed_frac(capsys, monkeypatch):
    _, clean = bench(capsys, "closed-form", 0)
    core = pytest.importorskip("multijames.core")
    exact = core.p_n
    monkeypatch.setattr(core, "p_n", lambda c: exact(c) * (1.0 + 1e-9))
    result, perturbed = bench(capsys, "closed-form", 0)
    assert not result["correct"] and result["failed"] > 0
    assert perturbed["ops_failed_frac"][0] > clean["ops_failed_frac"][0]
