"""The four benchmark workloads.

Each workload makes its inputs from the seed in ``setup`` and yields timed
operations from ``cycle``; the run repeats cycles until its time is up.
``gate`` checks one operation's output after timing, ``probes`` runs the
fixed boundary cases (the documented domain's edges, where the program has
known defects) once, ``end_to_end`` turns the timed operations into the
workload's named metrics, and ``layers`` turns a traced cycle's spans into
per-layer metrics.  The program is used only through its public functions
and its command line.
"""

from __future__ import annotations

import importlib
import json
import math
import os
import random
import shutil
import statistics
import subprocess
import sys
import tempfile
import warnings
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter as now

from gate import (
    ABS_FLOOR,
    close,
    exact_p_n,
    float_p_n,
    pair,
    probe,
    reference_standings,
    sim_agrees,
)

ROOT = Path(__file__).resolve().parent.parent
LOW, HIGH = 0.05, 0.95
CLI_TIMEOUT_S = 120
DOCUMENTED_EXITS = {0, 1, 2, 3, 4}


@dataclass
class Op:
    """One timed operation.  Operations of one ``kind`` do the same work."""

    stream: str
    kind: str
    work: int
    seconds: float
    output: object
    count: int = 1
    failed: int = 0
    # Seconds times scale are seconds at the reference speed (see run.py).
    scale: float = 1.0

    @property
    def normalized_s(self) -> float:
        return self.seconds * self.scale


def stream_rate(ops: list[Op], stream: str) -> tuple[float, int]:
    """Work per second over one cycle's mix: total work over summed per-kind medians.

    Using the median time of each kind keeps the rate independent of where
    the run's deadline cut the last cycle.
    """
    kinds: dict[str, list[Op]] = {}
    for op in ops:
        if op.stream == stream:
            kinds.setdefault(op.kind, []).append(op)
    work = sum(group[0].work for group in kinds.values())
    seconds = sum(statistics.median(op.normalized_s for op in group) for group in kinds.values())
    return work / seconds, sum(len(group) for group in kinds.values())


def _median_us(tr, name: str, **attrs) -> tuple[float, str, int]:
    med, k = tr.median(name, **attrs)
    return med * 1e6, "us", k


def _median_s(tr, name: str, **attrs) -> tuple[float, str, int]:
    med, k = tr.median(name, **attrs)
    return med, "s", k


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def random_blocks(rng: random.Random, n: int) -> list[list[int]]:
    """A seeded partition of range(n) into between 1 and 4 nonempty blocks."""
    indices = list(range(n))
    rng.shuffle(indices)
    k = rng.randint(1, min(n, 4))
    cuts = sorted(rng.sample(range(1, n), k - 1)) + [n]
    blocks, start = [], 0
    for cut in cuts:
        blocks.append(indices[start:cut])
        start = cut
    return blocks


class Workload:
    name = ""
    in_process = True  # False when the work runs in child processes
    trace_cycles = 1
    stream_metrics: tuple[str, str] = ("", "")
    scaled_streams: tuple[str, ...] = ()  # streams referred to a reference speed (run.py)

    def setup(self, seed: int, tiny: bool = False) -> None:
        raise NotImplementedError

    def cycle(self, tr=None):
        raise NotImplementedError

    def gate(self, op: Op) -> int:
        raise NotImplementedError

    def probes(self, tr=None) -> list[tuple[str, bool, str]]:
        return []

    def end_to_end(self, ops: list[Op]) -> dict[str, tuple[float, str, int]]:
        raise NotImplementedError

    def layers(self, tr) -> dict[str, tuple[float, str, int]]:
        return {}

    def close(self) -> None:
        pass


# ---------------------------------------------------------------------------
# closed-form: core and identities in process

METHODS = ("product", "sum", "substitution", "reduction", "shifted", "expanded", "partition")
N_VALUES = (1, 4, 16, 256)


class ClosedForm(Workload):
    """Contests with n in {1, 4, 16, 256}: each through ``p_n`` and one identity in turn."""

    name = "closed-form"
    trace_cycles = 10
    stream_metrics = ("direct_evals_per_s", "method_evals_per_s")
    scaled_streams = ("direct", "method")

    def setup(self, seed, tiny=False):
        self.core = importlib.import_module("multijames.core")
        self.ident = importlib.import_module("multijames.identities")
        ident = self.ident
        functions = {
            "product": ident.p_n_product_form,
            "sum": ident.odds_from_sum,
            "substitution": ident.p_n_substitution,
            "reduction": ident.p_n_reduction,
            "shifted": ident.p_n_shifted_sum,
            "expanded": ident.p_n_expanded_sum,
            "partition": ident.p_n_partitioned,
        }
        rng = random.Random(f"closed-form:{seed}")
        per_n = 7 if tiny else 56
        self.pool = []
        self.calls = []
        for n in N_VALUES:
            for k in range(per_n):
                a = rng.uniform(LOW, HIGH)
                bs = tuple(rng.uniform(LOW, HIGH) for _ in range(n))
                method = METHODS[k % len(METHODS)]
                extra = ()
                if method == "substitution":
                    extra = (rng.uniform(LOW, HIGH),)
                elif method == "partition":
                    extra = (random_blocks(rng, n),)
                self.pool.append((a, bs))
                # odds_from_sum returns the odds against; the run converts them
                # to a probability the way the CLI does.
                self.calls.append((a, bs, method, functions[method], extra, method == "sum"))
        self._refs = None

    def cycle(self, tr=None):
        Contest, p_n = self.core.Contest, self.core.p_n
        start = now()
        if tr is None:
            out = [p_n(Contest(a, bs)) for a, bs in self.pool]
        else:
            out = []
            for a, bs in self.pool:
                t0 = now()
                c = Contest(a, bs)
                t1 = now()
                out.append(p_n(c))
                t2 = now()
                tr.add("core.Contest", t0, t1, n=len(bs))
                tr.add("core.p_n", t1, t2, n=len(bs))
            tr.count("core.calls", len(out))
        yield Op("direct", "direct", len(out), now() - start, out, count=len(out))

        start = now()
        out = []
        if tr is None:
            for a, bs, _, fn, extra, odds in self.calls:
                v = fn(Contest(a, bs), *extra)
                out.append(1.0 / (1.0 + v) if odds else v)
        else:
            for a, bs, method, fn, extra, odds in self.calls:
                t0 = now()
                c = Contest(a, bs)
                t1 = now()
                v = fn(c, *extra)
                t2 = now()
                tr.add("core.Contest", t0, t1, n=len(bs))
                tr.add("identities." + method, t1, t2, n=len(bs))
                out.append(1.0 / (1.0 + v) if odds else v)
        yield Op("method", "method", len(out), now() - start, out, count=len(out))

    def _references(self) -> list[float]:
        if self._refs is None:
            self._refs = [float(exact_p_n(a, bs)) for a, bs in self.pool]
        return self._refs

    def gate(self, op):
        return sum(
            not close(v, ref, len(bs))
            for v, ref, (_, bs) in zip(op.output, self._references(), self.pool)
        )

    def probes(self, tr=None):
        core, ident = self.core, self.ident
        C = core.Contest
        half = (0.5, 0.5)
        near_one = 1.0 - 2.0**-53
        heavy = (0.999,) * 200
        cases = [
            ("p_n.subnormal-protagonist", lambda: core.p_n(C(5e-324, half)),
             float(exact_p_n(5e-324, half)), 2, ()),
            ("product.200x0.999", lambda: ident.p_n_product_form(C(0.5, heavy)),
             float(exact_p_n(0.5, heavy)), 200, ()),
            ("level_transform.inf-scale", lambda: core.level_transform(0.5, math.inf),
             1.0, 1, (ValueError,)),
            ("p_n.one-ulp-below-1", lambda: core.p_n(C(near_one, (near_one, 0.5))),
             float(exact_p_n(near_one, (near_one, 0.5))), 2, ()),
            ("p_n.subnormal-opponents", lambda: core.p_n(C(0.5, (5e-324, 5e-324))),
             float(exact_p_n(0.5, (5e-324, 5e-324))), 2, ()),
            ("p_n.zero-opponent", lambda: core.p_n(C(0.3, (0.0, 0.7))),
             float(exact_p_n(0.3, (0.0, 0.7))), 2, ()),
            ("p_n.forced-loss", lambda: core.p_n(C(0.3, (1.0, 0.7))), 0.0, 2, ()),
        ]
        return [(name, *probe(thunk, ref, n, documented)) for name, thunk, ref, n, documented in cases]

    def end_to_end(self, ops):
        direct, n_direct = stream_rate(ops, "direct")
        method, n_method = stream_rate(ops, "method")
        return {
            "direct_evals_per_s": (direct, "1/s", n_direct),
            "method_evals_per_s": (method, "1/s", n_method),
        }

    def layers(self, tr):
        out = {}
        for n in N_VALUES:
            out[f"core.contest_us.n{n}"] = _median_us(tr, "core.Contest", n=n)
            out[f"core.p_n_us.n{n}"] = _median_us(tr, "core.p_n", n=n)
        for method in METHODS:
            for n in (4, 256):
                out[f"identities.{method}_us.n{n}"] = _median_us(tr, "identities." + method, n=n)
        return out


# ---------------------------------------------------------------------------
# oracle: Monte Carlo simulator, then the verifier

SIM_CASES = (
    ("pair", 0.5, (0.8, 0.5), 1_000_000),
    ("even8", 0.5, (0.5,) * 8, 1_000_000),
)
# The round-cap case: about 8e-4 of its trials resolve within the default
# cap of 10 000 rounds.  Seed 0 is the documented reproduction.
ROUNDCAP = ("roundcap", 0.9, (0.9,) * 8, 1000, 0)
VERIFY_N = (1, 2, 3, 4)


def _counting_family(verify, family, tr, core_calls: bool):
    """Wrap a candidate family so the verifier's calls into it are counted from outside."""

    class Counting(verify.CandidateFamily):
        name = family.name
        max_n = family.max_n

        def __call__(self, a, opponents):
            tr.count("verify.family_calls")
            if core_calls:  # the canonical family makes exactly one p_n call
                tr.count("core.calls")
            return family(a, opponents)

    return Counting()


class Oracle(Workload):
    """The simulator's 1M-trial cases, then the verifier on three families."""

    name = "oracle"
    stream_metrics = ("sim_trials_per_s", "verify_samples_per_s")
    scaled_streams = ("verify",)

    def setup(self, seed, tiny=False):
        self.sim = importlib.import_module("multijames.simulate")
        self.verify = importlib.import_module("multijames.verify")
        core = importlib.import_module("multijames.core")
        rng = random.Random(f"oracle:{seed}")
        scale = 1000 if tiny else 1
        self.cases = [
            (name, core.Contest(a, bs), trials // scale, rng.randrange(2**32), float(exact_p_n(a, bs)))
            for name, a, bs, trials in SIM_CASES
        ]
        name, a, bs, trials, sim_seed = ROUNDCAP
        self.roundcap = (core.Contest(a, bs), trials // (10 if tiny else 1), sim_seed, float(exact_p_n(a, bs)))
        resolution, points, grid_points = (9, 10, 5) if tiny else (41, 1000, 250)
        start = now()
        grid = self.verify.GridFamily.tabulate_canonical(resolution, 3)
        self.grid_build_s = now() - start
        spec_seed = rng.randrange(2**32)
        SampleSpec = self.verify.SampleSpec
        self.families = [
            ("builtin", self.verify.CanonicalFamily(), SampleSpec(VERIFY_N, points, spec_seed)),
            ("naive_product", self.verify.counterexample_family("naive-product"),
             SampleSpec(VERIFY_N, points, spec_seed)),
            ("grid", grid, SampleSpec(VERIFY_N, grid_points, spec_seed, tolerance=1e-3)),
        ]
        self.last_sim = {}

    def cycle(self, tr=None):
        SimConfig, estimate = self.sim.SimConfig, self.sim.estimate_p_n
        for name, contest, trials, seed, _ in self.cases:
            start = now()
            result = estimate(contest, SimConfig(trials=trials, seed=seed))
            end = now()
            if tr is not None:
                tr.add("simulate." + name, start, end)
                self.last_sim[name] = (trials, result.trials_abandoned)
            yield Op("sim", name, trials, end - start, result)
        v = self.verify
        checks = (
            ("conditions", v.check_conditions),
            ("uniqueness", v.check_uniqueness_properties),
            ("canonical", v.check_matches_canonical),
        )
        for name, family, spec in self.families:
            if tr is not None:
                family = _counting_family(v, family, tr, name == "builtin")
            reports = []
            start = now()
            for part, check in checks:
                t0 = now()
                got = check(family, spec)
                if tr is not None:
                    tr.add("verify." + part, t0, now(), family=name)
                reports.extend(got if isinstance(got, list) else [got])
            end = now()
            samples = sum(r.samples for r in reports)
            if tr is not None:
                tr.add("verify." + name, start, end)
                tr.count("verify.samples", samples)
            yield Op("verify", name, samples, end - start, (family, spec, reports))

    def gate(self, op):
        if op.stream == "sim":
            ref = next(case[4] for case in self.cases if case[0] == op.kind)
            r = op.output
            return int(not sim_agrees(r.win_probability_estimate, r.standard_error, ref))
        family, spec, reports = op.output
        n_used = [n for n in spec.n_values if family.max_n is None or n <= family.max_n]
        if len(reports) != 12 or any(r.samples != spec.points * len(n_used) for r in reports):
            return 1
        passed = {r.name: r.passed for r in reports}
        if op.kind == "builtin":
            return int(not all(passed.values()))
        if op.kind == "naive_product":
            # Its docstring: fails normalization and the balanced-field fixed point.
            return int(passed["condition-A"] or passed["condition-C"])
        # A grid family has no documented verdict; its evaluator must never fail.
        return int(not all(math.isfinite(r.max_violation) for r in reports))

    def probes(self, tr=None):
        contest, trials, seed, ref = self.roundcap
        start = now()
        try:
            r = self.sim.estimate_p_n(contest, self.sim.SimConfig(trials=trials, seed=seed))
        except self.sim.AllTrialsAbandonedError:
            ok, detail, abandoned = True, "documented AllTrialsAbandonedError", trials
        except Exception as exc:  # an undocumented exception is a finding
            ok, detail, abandoned = False, f"{type(exc).__name__}: {exc}", trials
        else:
            ok = sim_agrees(r.win_probability_estimate, r.standard_error, ref)
            abandoned = r.trials_abandoned
            detail = (
                f"estimate {r.win_probability_estimate!r} se {r.standard_error!r} "
                f"vs {ref!r}, {abandoned} of {trials} trials abandoned"
            )
        if tr is not None:
            tr.add("simulate.roundcap", start, now())
            self.last_sim["roundcap"] = (trials, abandoned)
        return [("simulate.roundcap", ok, detail)]

    def end_to_end(self, ops):
        sim, n_sim = stream_rate(ops, "sim")
        ver, n_ver = stream_rate(ops, "verify")
        return {
            "sim_trials_per_s": (sim, "1/s", n_sim),
            "verify_samples_per_s": (ver, "1/s", n_ver),
        }

    def layers(self, tr):
        out = {}
        for name, (trials, abandoned) in self.last_sim.items():
            med, k = tr.median("simulate." + name)
            out[f"simulate.{name}.trials_per_s"] = (trials / med, "1/s", k)
            out[f"simulate.{name}.abandoned_frac"] = (abandoned / trials, "frac", 1)
        for name, _, _ in self.families:
            out[f"verify.{name}_s"] = _median_s(tr, "verify." + name)
        for part in ("conditions", "uniqueness", "canonical"):
            total, k = tr.total("verify." + part)
            out[f"verify.{part}_s"] = (total / self.trace_cycles, "s", k)
        out["verify.grid_build_s"] = (self.grid_build_s, "s", 1)
        samples = tr.counters.get("verify.samples", 0)
        out["verify.calls_per_sample"] = (
            tr.counters.get("verify.family_calls", 0) / samples if samples else 0.0, "count", samples,
        )
        return out


# ---------------------------------------------------------------------------
# league: ingest a season, then tree inference and propagation


def _chain_probes(tree, length: int = 64):
    """A chain whose every edge is won by the far end with probability 1 - 1e-200."""
    edges = tuple(tree.PairwiseEdge(f"c{i}", f"c{i + 1}", 1e-200) for i in range(length - 1))
    return [
        # The root at the weak end almost surely loses: P is below any float.
        ("tree.chain-weak-root", lambda: tree.p_n_from_tree(tree.CompetitionGraph("c0", edges)), 0.0),
        ("tree.chain-strong-root",
         lambda: tree.p_n_from_tree(tree.CompetitionGraph(f"c{length - 1}", edges)), 1.0),
    ]


class League(Workload):
    """A seeded season into standings, then a 100k-vertex tree inferred and propagated."""

    name = "league"
    stream_metrics = ("ingest_pairs_per_s", "tree_vertices_per_s")

    def setup(self, seed, tiny=False):
        self.ingest = importlib.import_module("multijames.ingest")
        self.tree = importlib.import_module("multijames.tree")
        # Standings over a pool this size are unbalanced by design.
        warnings.simplefilter("ignore", self.ingest.UnbalancedScheduleWarning)
        rng = random.Random(f"league:{seed}")
        n_events, pool, big, vertices = (12, 60, 30, 300) if tiny else (300, 1200, 1000, 100_000)
        names = [f"p{i:04d}" for i in range(pool)]
        self.events = []
        for e in range(n_events):
            field = rng.sample(names, rng.randint(5, 40))
            ranks = []
            for i in range(len(field)):
                # Every fourth event has ties, under competition ranking.
                tie = e % 4 == 0 and i > 0 and rng.random() < 0.3
                ranks.append(ranks[-1] if tie else i + 1)
            placements = list(zip(field, ranks))
            rng.shuffle(placements)
            self.events.append((f"e{e}", tuple(placements)))
        ranks = list(range(1, big + 1))
        rng.shuffle(ranks)
        self.big = tuple(zip(rng.sample(names, big), ranks))
        self.regular_pairs = sum(len(p) * (len(p) - 1) // 2 for _, p in self.events)
        self.big_pairs = big * (big - 1) // 2

        self.pct = [rng.uniform(LOW, HIGH) for _ in range(vertices)]
        self.edges = []
        for child in range(1, vertices):
            parent = rng.randrange(child)
            u, v = (parent, child) if rng.random() < 0.5 else (child, parent)
            self.edges.append((f"t{u}", f"t{v}", pair(self.pct[u], self.pct[v])))
        self.anchor = rng.randrange(vertices)
        self._refs = None

    def cycle(self, tr=None):
        ing, tree = self.ingest, self.tree

        def timed(name, start):
            end = now()
            if tr is not None:
                tr.add(name, start, end)
            return end - start

        start = now()
        records = [ing.EventRecord(eid, placements) for eid, placements in self.events]
        big = ing.EventRecord("big", self.big)
        yield Op("ingest", "records", 0, timed("ingest.records", start), len(records) + 1)
        start = now()
        standings = ing.build_standings(records, ing.TiesPolicy.HALF)
        yield Op("ingest", "standings", self.regular_pairs, timed("ingest.standings", start), standings)
        start = now()
        standings = ing.build_standings([big], ing.TiesPolicy.HALF)
        yield Op("ingest", "big", self.big_pairs, timed("ingest.big_event", start), standings)

        start = now()
        graph = tree.CompetitionGraph(
            "t0", tuple(tree.PairwiseEdge(u, v, p) for u, v, p in self.edges)
        )
        yield Op("tree", "build", 0, timed("tree.graph_build", start), len(graph.vertices))
        start = now()
        value = tree.p_n_from_tree(graph)
        yield Op("tree", "infer", 0, timed("tree.infer", start), value)
        start = now()
        pcts = tree.propagate_percentages(graph, f"t{self.anchor}", self.pct[self.anchor])
        yield Op("tree", "propagate", len(self.pct), timed("tree.propagate", start), pcts)

    def _references(self):
        if self._refs is None:
            regular = reference_standings([p for _, p in self.events])
            pairwise: dict[tuple[str, str], list[float]] = {}
            for _, placements in self.events:
                for i, (x, rx) in enumerate(placements):
                    for y, ry in placements[i + 1:]:
                        (u, ru), (v, rv) = sorted(((x, rx), (y, ry)))
                        score = 1.0 if ru < rv else 0.0 if rv < ru else 0.5
                        cell = pairwise.setdefault((u, v), [0.0, 0.0])
                        cell[0] += score
                        cell[1] += 1.0 - score
            self._refs = {
                "standings": regular,
                "pairwise": {k: tuple(v) for k, v in pairwise.items()},
                "big": reference_standings([self.big]),
                "infer": float_p_n(self.pct[0], self.pct[1:]),
            }
        return self._refs

    def gate(self, op):
        kind, out = op.kind, op.output
        if kind == "records":
            return int(out != len(self.events) + 1)
        if kind == "build":
            return int(out != len(self.pct))
        refs = self._references()
        if kind in ("standings", "big"):
            wins, losses, pairs = refs[kind]
            ok = out.wins == wins and out.losses == losses
            ok = ok and sum(u + v for u, v in out.pairwise.values()) == pairs
            if kind == "standings":
                ok = ok and out.pairwise == refs["pairwise"]
            else:
                ok = ok and len(out.pairwise) == pairs
            return int(not ok)
        if kind == "infer":
            return int(not (isinstance(out, float) and abs(out - refs["infer"]) <= 1e-9 * refs["infer"]))
        # propagate: every seeded percentage is recovered.
        if len(out) != len(self.pct):
            return 1
        return int(any(abs(out.get(f"t{i}", -1.0) - p) > 1e-9 for i, p in enumerate(self.pct)))

    def probes(self, tr=None):
        return [(name, *probe(thunk, ref)) for name, thunk, ref in _chain_probes(self.tree)]

    def end_to_end(self, ops):
        ingest, n_ingest = stream_rate(ops, "ingest")
        tree, n_tree = stream_rate(ops, "tree")
        return {
            "ingest_pairs_per_s": (ingest, "1/s", n_ingest),
            "tree_vertices_per_s": (tree, "1/s", n_tree),
        }

    def layers(self, tr):
        return {
            "tree.graph_build_s": _median_s(tr, "tree.graph_build"),
            "tree.infer_s": _median_s(tr, "tree.infer"),
            "tree.propagate_s": _median_s(tr, "tree.propagate"),
            "tree.vertices": (len(self.pct), "count", 1),
            "ingest.records_s": _median_s(tr, "ingest.records"),
            "ingest.standings_s": _median_s(tr, "ingest.standings"),
            "ingest.big_event_s": _median_s(tr, "ingest.big_event"),
            "ingest.pairs": (self.regular_pairs + self.big_pairs, "count", 1),
        }


# ---------------------------------------------------------------------------
# cli-oneshot: one short command-line call at a time

IMPORTS = (
    ("interpreter", None),
    ("core", "multijames.core"),
    ("cli", "multijames.cli"),
    ("simulate", "multijames.simulate"),
    ("verify", "multijames.verify"),
)


def import_ms(module: str | None) -> float:
    """Import time of one statement from ``python -X importtime``, in ms.

    For ``None`` this is every import the interpreter makes at start-up;
    otherwise the top-level ``multijames`` entries of ``import <module>``.
    """
    code = "pass" if module is None else f"import {module}"
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-c", code],
        cwd=ROOT, env=child_env(), capture_output=True, text=True, timeout=CLI_TIMEOUT_S,
    )
    total = 0
    for line in proc.stderr.splitlines():
        if not line.startswith("import time:") or "cumulative" in line:
            continue
        _, cumulative, name = line[len("import time:"):].split("|")
        # Nested imports are indented by two spaces per level after the one separator space.
        if name.startswith("  "):
            continue
        if module is None or name.strip().split(".")[0] == "multijames":
            total += int(cumulative)
    return total / 1000.0


class CliOneshot(Workload):
    """Each subcommand once per cycle, as a child process on small seeded inputs."""

    name = "cli-oneshot"
    in_process = False
    stream_metrics = ("cli_p50_ms", "cli_tail_ms")
    scaled_streams = ("cli",)

    def setup(self, seed, tiny=False):
        work = ROOT / ".perfbench_tmp"
        work.mkdir(exist_ok=True)
        self.tmp = Path(tempfile.mkdtemp(prefix="cli-", dir=work))
        rng = random.Random(f"cli-oneshot:{seed}")

        def pcts(k):
            return [rng.uniform(LOW, HIGH) for _ in range(k)]

        a, *bs = pcts(rng.randint(3, 6))
        self.contest = (a, tuple(bs))
        self.sim_contest = (pcts(1)[0], tuple(pcts(2)))
        vertices = 12
        self.tree_pct = pcts(vertices)
        edges = []
        for child in range(1, vertices):
            parent = rng.randrange(child)
            edges.append({"u": f"v{parent}", "v": f"v{child}",
                          "p_u_beats_v": pair(self.tree_pct[parent], self.tree_pct[child])})
        (self.tmp / "tree.json").write_text(json.dumps({"root": "v0", "edges": edges}))
        anchor = rng.randrange(vertices)
        names = [f"c{i}" for i in range(20)]
        self.events = []
        lines = ["event_id,competitor,rank"]
        for e in range(8):
            field = rng.sample(names, rng.randint(4, 9))
            ranks = []
            for i in range(len(field)):
                ranks.append(ranks[-1] if i > 0 and rng.random() < 0.25 else i + 1)
            self.events.append(list(zip(field, ranks)))
            lines += [f"e{e},{name},{rank}" for name, rank in zip(field, ranks)]
        (self.tmp / "events.csv").write_text("\n".join(lines) + "\n")
        sim_seed = rng.randrange(2**31)

        def csv(xs):
            return ",".join(repr(x) for x in xs)

        predict = ["predict", "-a", repr(a), "-b", csv(bs)]
        sa, sbs = self.sim_contest
        self.invocations = [
            ("predict", predict),
            ("predict_all", predict + ["--all-methods"]),
            ("infer_tree", ["infer-tree", str(self.tmp / "tree.json")]),
            ("propagate", ["propagate", str(self.tmp / "tree.json"),
                           "--anchor", f"v{anchor}={self.tree_pct[anchor]!r}"]),
            ("ingest", ["ingest", str(self.tmp / "events.csv"), "--ties", "half"]),
            ("simulate", ["--seed", str(sim_seed), "simulate", "-a", repr(sa), "-b", csv(sbs),
                          "-n", str(2000 if tiny else 20000)]),
            ("verify", ["--seed", str(sim_seed), "verify", "--family", "builtin",
                        "--samples", str(5 if tiny else 20)]),
        ]
        # Warm-up: the first call fills the bytecode and page caches.
        self._call(predict)

    def close(self):
        tmp = getattr(self, "tmp", None)
        if tmp is not None:
            shutil.rmtree(tmp, ignore_errors=True)
            try:
                tmp.parent.rmdir()
            except OSError:
                pass

    def _call(self, argv):
        start = now()
        proc = subprocess.run(
            [sys.executable, "-m", "multijames.cli", "--output", "json", *argv],
            cwd=ROOT, env=child_env(), capture_output=True, text=True, timeout=CLI_TIMEOUT_S,
        )
        return start, now(), proc

    def cycle(self, tr=None):
        for name, argv in self.invocations:
            start, end, proc = self._call(argv)
            if tr is not None:
                tr.add("cli." + name, start, end)
            yield Op("cli", name, 1, end - start, (proc.returncode, proc.stdout, proc.stderr))

    def gate(self, op):
        code, stdout, stderr = op.output
        if code not in DOCUMENTED_EXITS or code != 0 or "Traceback" in stderr:
            return 1
        try:
            out = json.loads(stdout)
            return int(not self._output_ok(op.kind, out))
        except (ValueError, KeyError, TypeError, AttributeError):
            return 1

    def _output_ok(self, kind, out) -> bool:
        a, bs = self.contest
        ref = float(exact_p_n(a, bs))
        if kind == "predict":
            return close(out["probability"], ref, len(bs))
        if kind == "predict_all":
            return len(out["methods"]) == 8 and all(close(v, ref, len(bs)) for v in out["methods"].values())
        if kind == "infer_tree":
            return abs(out["probability"] - float_p_n(self.tree_pct[0], self.tree_pct[1:])) <= 1e-12
        if kind == "propagate":
            got = out["percentages"]
            return len(got) == len(self.tree_pct) and all(
                abs(got[f"v{i}"] - p) <= 1e-12 for i, p in enumerate(self.tree_pct)
            )
        if kind == "ingest":
            wins, losses, _ = reference_standings(self.events)
            got = out["competitors"]
            return set(got) == set(wins) and all(
                got[name]["wins"] == wins[name] and got[name]["losses"] == losses[name] for name in got
            )
        if kind == "simulate":
            sim_ref = float(exact_p_n(*self.sim_contest))
            return close(out["closed_form"], sim_ref, 2) and sim_agrees(
                out["estimate"], out["standard_error"], sim_ref
            )
        return len(out["checks"]) == 12 and all(check["passed"] for check in out["checks"])

    def probes(self, tr=None):
        results = []
        cases = (
            ("cli.predict-subnormal", ["predict", "-a", "5e-324", "-b", "0.5,0.5"],
             lambda out: out["probability"] <= ABS_FLOOR),
            ("cli.simulate-roundcap",
             ["--seed", "0", "simulate", "-a", "0.9", "-b", ",".join(["0.9"] * 8), "-n", "1000"],
             lambda out: sim_agrees(out["estimate"], out["standard_error"], 1.0 / 9.0)),
        )
        for name, argv, value_ok in cases:
            _, _, proc = self._call(argv)
            # Documented outcomes: a correct value (exit 0) or an undefined-contest error (exit 2).
            ok = proc.returncode == 2 and "Traceback" not in proc.stderr
            if proc.returncode == 0:
                try:
                    ok = value_ok(json.loads(proc.stdout))
                except (ValueError, KeyError, TypeError):
                    ok = False
            last = proc.stderr.strip().splitlines()[-1:] or [" ".join(proc.stdout.split())]
            detail = f"exit {proc.returncode}: {last[0][:200]}"
            results.append((name, ok, detail))
        return results

    def end_to_end(self, ops):
        # Whole cycles only, so that every subcommand weighs the same.
        calls = [op for op in ops if op.stream == "cli"]
        calls = calls[: len(calls) - len(calls) % len(self.invocations)]
        times = sorted(op.normalized_s * 1000.0 for op in calls)
        n = len(times)
        # The tail is the highest percentile with at least ten calls beyond
        # it, but never below the median; a run of ten calls or fewer
        # reports its maximum.
        tail_index = max(n - 11, n // 2) if n > 10 else n - 1
        self.tail_percentile = 100.0 * (tail_index + 1) / n
        return {
            "cli_p50_ms": (statistics.median(times), "ms", n),
            "cli_tail_ms": (times[tail_index], "ms", n),
        }

    def layers(self, tr):
        out = {}
        for name, _ in self.invocations:
            med, k = tr.median("cli." + name)
            out[f"cli.{name}_ms"] = (med * 1000.0, "ms", k)
        for name, module in IMPORTS:
            out[f"cli.import_{name}_ms"] = (import_ms(module), "ms", 1)
        return out


WORKLOADS = {cls.name: cls for cls in (CliOneshot, ClosedForm, Oracle, League)}
