"""End-to-end acceptance checks with explicit runtime budgets.

Each test prints one PASS line with capture suspended, so a plain
``pytest tests/test_acceptance.py`` run shows the full scorecard.
"""

import json
import math
import random
import time
from contextlib import contextmanager

import pytest

from multijames import Contest, cli, james_p, p_n
from multijames.identities import (
    odds_from_sum,
    p_n_expanded_sum,
    p_n_partitioned,
    p_n_product_form,
    p_n_reduction,
    p_n_shifted_sum,
    p_n_substitution,
)
from multijames.ingest import EventRecord, build_standings
from multijames.simulate import SimConfig, estimate_p_n
from multijames.tree import CompetitionGraph, PairwiseEdge, p_n_from_tree, propagate_percentages
from multijames.verify import (
    COUNTEREXAMPLE_NAMES,
    CanonicalFamily,
    SampleSpec,
    check_conditions,
)

from _oracles import exact_distorted_difference, exact_james, exact_p_n

CANONICAL_CONTESTS = (
    Contest(0.4, (1 / 3, 1 / 3)),
    Contest(0.5, (0.5, 0.5)),
    Contest(0.5, (0.8, 0.5)),
)


@contextmanager
def budget(name: str, seconds: float, capsys):
    start = time.perf_counter()
    yield
    elapsed = time.perf_counter() - start
    assert elapsed < seconds, f"{name}: {elapsed:.2f}s exceeds {seconds}s budget"
    with capsys.disabled():
        print(f"acceptance {name}: PASS ({elapsed:.2f}s)", flush=True)


def random_contest(rng, n_max=8):
    n = rng.randint(1, n_max)
    return Contest(
        rng.uniform(0.05, 0.95), tuple(rng.uniform(0.05, 0.95) for _ in range(n))
    )


def random_blocks(rng, n):
    indices = list(range(n))
    rng.shuffle(indices)
    k = rng.randint(1, n)
    cuts = sorted(rng.sample(range(1, n), k - 1)) if k > 1 else []
    blocks, start = [], 0
    for cut in cuts + [n]:
        blocks.append(tuple(indices[start:cut]))
        start = cut
    return blocks


def test_01_canonical_values(capsys):
    with budget("01-canonical-values", 1.0, capsys):
        assert abs(p_n(CANONICAL_CONTESTS[0]) - 0.4) < 1e-12
        assert abs(p_n(CANONICAL_CONTESTS[1]) - 1 / 3) < 1e-12
        assert abs(p_n(CANONICAL_CONTESTS[2]) - 1 / 6) < 1e-12
        assert abs(james_p(0.6, 0.4) - 9 / 13) < 1e-12


def test_02_condition_suite(capsys):
    with budget("02-condition-suite", 10.0, capsys):
        spec = SampleSpec(
            n_values=tuple(range(1, 9)), points=1000, seed=2024, tolerance=1e-9
        )
        reports = check_conditions(CanonicalFamily(), spec)
        for report in reports:
            assert report.samples == 8000
            assert report.max_violation < 1e-9, (
                f"{report.name}: {report.max_violation} at {report.worst_input}"
            )


def test_03_identity_cross_agreement(capsys):
    with budget("03-identity-cross-agreement", 10.0, capsys):
        rng = random.Random(31337)
        for _ in range(1000):
            c = random_contest(rng)
            values = [
                p_n(c),
                p_n_product_form(c),
                1.0 / (1.0 + odds_from_sum(c)),
                p_n_substitution(c, rng.uniform(0.05, 0.95)),
                p_n_partitioned(c, random_blocks(rng, c.n)),
                p_n_reduction(c),
                p_n_shifted_sum(c),
                p_n_expanded_sum(c),
            ]
            spread = max(values) - min(values)
            assert spread < 1e-12, f"spread {spread} on {c}"


def test_04_tree_round_trip(capsys):
    with budget("04-tree-round-trip", 5.0, capsys):
        rng = random.Random(4096)
        for _ in range(200):
            k = rng.randint(2, 12)
            names = ["A"] + [f"B{i}" for i in range(1, k)]
            pcts = {name: rng.uniform(0.05, 0.95) for name in names}
            edges = []
            for i in range(1, k):
                j = rng.randrange(i)
                u, v = names[j], names[i]
                if rng.random() < 0.5:
                    u, v = v, u
                edges.append(PairwiseEdge(u, v, james_p(pcts[u], pcts[v])))
            g = CompetitionGraph("A", tuple(edges))
            expected = p_n(Contest(pcts["A"], tuple(pcts[n] for n in names[1:])))
            assert abs(p_n_from_tree(g) - expected) <= 1e-12 * max(1.0, expected)
            anchor = rng.choice(names)
            recovered = propagate_percentages(g, anchor, pcts[anchor])
            for name in names:
                assert abs(recovered[name] - pcts[name]) <= 1e-12


def test_05_monte_carlo_oracle(capsys):
    with budget("05-monte-carlo-oracle", 60.0, capsys):
        for contest in CANONICAL_CONTESTS:
            result = estimate_p_n(contest, SimConfig(trials=1_000_000, seed=5))
            closed = p_n(contest)
            gap = abs(result.win_probability_estimate - closed)
            assert gap < 3 * result.standard_error, (
                f"{contest}: gap {gap} vs SE {result.standard_error}"
            )
            pcts = (contest.protagonist,) + contest.opponents
            for i, pct in enumerate(pcts):
                rest = tuple(p for j, p in enumerate(pcts) if j != i)
                target = p_n(Contest(pct, rest))
                freq = result.per_competitor_wins[i] / result.trials_completed
                se = math.sqrt(target * (1 - target) / result.trials_completed)
                assert abs(freq - target) < 4 * se, f"competitor {i} of {contest}"


def test_06_equal_field_cross_probability(capsys):
    with budget("06-equal-field-cross-probability", 5.0, capsys):
        rng = random.Random(606)
        for m in (1, 2, 3):
            for n in (1, 2, 3):
                for _ in range(100):
                    a = rng.uniform(0.05, 0.95)
                    b = rng.uniform(0.05, 0.95)
                    pn = p_n(Contest(a, (b,) * n))
                    collapsed = (1 - pn) / (1 + (m * n - 1) * pn)
                    via_formula = exact_distorted_difference(
                        b, a, (b,) * (n - 1), (a,) * (m - 1)
                    )
                    direct = p_n(Contest(b, (a,) * m))
                    assert via_formula == exact_p_n(b, (a,) * m)
                    assert abs(collapsed - direct) < 1e-12
                    assert abs(float(via_formula) - direct) < 1e-12
        for _ in range(100):
            a = rng.uniform(0.05, 0.95)
            b = rng.uniform(0.05, 0.95)
            assert exact_distorted_difference(b, a) == 1 - exact_james(a, b)
            assert abs(p_n(Contest(b, (a,))) - (1.0 - james_p(a, b))) < 1e-15


def test_07_verifier_discrimination(capsys):
    documented_failure = {
        "naive-product": "condition-C",
        "squared-odds": "condition-A",
        "mismatched-base": "substitution-formula",
    }
    with budget("07-verifier-discrimination", 30.0, capsys):
        assert cli.main(["--output", "json", "verify", "--family", "builtin"]) == 0
        capsys.readouterr()
        for name in COUNTEREXAMPLE_NAMES:
            code = cli.main(
                ["--output", "json", "verify", "--family", f"counterexample:{name}"]
            )
            out = capsys.readouterr().out
            assert code == 1, name
            checks = {c["check"]: c for c in json.loads(out)["checks"]}
            failed = checks[documented_failure[name]]
            assert not failed["passed"], name
            assert failed["worst_input"], name


def test_08_event_ingestion(capsys):
    with budget("08-event-ingestion", 1.0, capsys):
        event = EventRecord(
            "race", tuple((f"c{r}", r) for r in range(1, 11))
        )
        standings = build_standings([event])
        for r in range(1, 11):
            assert standings.pct(f"c{r}") == pytest.approx((10 - r) / 9, rel=1e-15)
        assert standings.wins["c3"] == 7
        assert standings.losses["c3"] == 2
