"""Command-line interface tying the evaluators, simulator, and verifier together.

Exit codes: 0 ok, 1 failed verification checks, 2 undefined contest (or
other invalid percentages, an invalid simulate config, too few simulated
trials resolved, or an invalid verify sample spec), 3 competition-graph
error, 4 input parse error.
"""

from __future__ import annotations

import argparse
import io
import json
import math
import os
import sys

from . import __version__
from .core import Contest, GraphError, UndefinedContestError, p_n
from .identities import (
    odds_from_sum,
    p_n_expanded_sum,
    p_n_partitioned,
    p_n_product_form,
    p_n_reduction,
    p_n_shifted_sum,
    p_n_substitution,
)

EXIT_OK = 0
EXIT_CHECKS_FAILED = 1
EXIT_UNDEFINED = 2
EXIT_GRAPH = 3
EXIT_PARSE = 4

# Every evaluator takes (contest, pivot, blocks); blocks None means one
# block per opponent.
METHODS = {
    "direct": lambda c, pivot, blocks: p_n(c),
    "product": lambda c, pivot, blocks: p_n_product_form(c),
    "sum": lambda c, pivot, blocks: 1.0 / (1.0 + odds_from_sum(c)),
    "substitution": lambda c, pivot, blocks: p_n_substitution(c, pivot),
    "reduction": lambda c, pivot, blocks: p_n_reduction(c),
    "shifted": lambda c, pivot, blocks: p_n_shifted_sum(c),
    "expanded": lambda c, pivot, blocks: p_n_expanded_sum(c),
    "partition": lambda c, pivot, blocks: p_n_partitioned(
        c, blocks or [[i] for i in range(c.n)]
    ),
}


class ParseError(ValueError):
    pass


def _strict(value):
    """``value`` with each non-finite float spelled as the string "inf", "-inf" or "nan"."""
    if isinstance(value, float):
        return value if math.isfinite(value) else repr(value)
    if isinstance(value, dict):
        return {k: _strict(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_strict(v) for v in value]
    return value


def _emit(payload: dict | str, fmt: str) -> None:
    """Write one report, or a string as it is, to stdout; a closed pipe ends it quietly."""
    if isinstance(payload, str):
        text = payload
    elif fmt == "json":
        text = json.dumps(_strict(payload), indent=2, sort_keys=True, allow_nan=False)
    else:
        lines = []  # str of a float is its repr
        for key, value in payload.items():
            if isinstance(value, dict):
                lines.append(f"{key}:")
                lines.extend(f"  {k}: {v}" for k, v in value.items())
            else:
                lines.append(f"{key}: {value}")
        text = "\n".join(lines)
    try:
        print(text, flush=True)
    except BrokenPipeError:
        # Point stdout at the null device, so that the flush at exit has nothing to fail on.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())


def _parse_percent_list(text: str) -> tuple[float, ...]:
    try:
        return tuple(float(part) for part in text.split(",") if part.strip() != "")
    except ValueError:
        raise ParseError(f"could not parse percentage list {text!r}") from None


def _parse_blocks(text: str) -> list[list[int]]:
    """Parse 1-based partition syntax like '1,2|3' into 0-based blocks."""
    try:
        return [
            [int(idx) - 1 for idx in chunk.split(",") if idx.strip() != ""]
            for chunk in text.split("|")
        ]
    except ValueError:
        raise ParseError(f"could not parse partition {text!r}") from None


def cmd_predict(args) -> int:
    contest = Contest(args.protagonist, _parse_percent_list(args.opponents))
    blocks = _parse_blocks(args.blocks) if args.blocks else None
    if args.all_methods:
        values = {m: f(contest, args.pivot, blocks) for m, f in METHODS.items()}
        spread = max(values.values()) - min(values.values())
        if any(map(math.isnan, values.values())):  # which max and min skip in most orders
            spread = math.nan
        _emit(
            {"methods": values, "max_discrepancy": spread, "n_opponents": contest.n},
            args.output,
        )
        return EXIT_OK
    value = METHODS[args.method](contest, args.pivot, blocks)
    _emit(
        {"method": args.method, "probability": value, "n_opponents": contest.n},
        args.output,
    )
    return EXIT_OK


def cmd_simulate(args) -> int:
    from .simulate import AllTrialsAbandonedError, SimConfig, estimate_p_n

    contest = Contest(args.protagonist, _parse_percent_list(args.opponents))
    cfg = SimConfig(
        trials=args.trials,
        max_rounds_per_trial=args.max_rounds,
        seed=args.seed,
    )
    try:
        result = estimate_p_n(contest, cfg)
    except AllTrialsAbandonedError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_UNDEFINED
    closed = p_n(contest)
    se = result.standard_error  # 0.0 when every trial went one way: then no z-score
    z = (result.win_probability_estimate - closed) / se if se > 0 else None
    _emit(
        {
            "estimate": result.win_probability_estimate,
            "standard_error": result.standard_error,
            "wilson_95": list(result.wilson_95),
            "trials_completed": result.trials_completed,
            "trials_abandoned": result.trials_abandoned,
            "per_competitor_wins": list(result.per_competitor_wins.values()),
            "closed_form": closed,
            "z_score": z,
            "seed": args.seed,
        },
        args.output,
    )
    return EXIT_OK


def _read_text(path: str) -> str:
    """The file at ``path`` as UTF-8 text, line endings as they are; ParseError otherwise."""
    try:
        with open(path, "r", encoding="utf-8", newline="") as fh:
            return fh.read()
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from None
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: unreadable as UTF-8 text ({exc})") from None


def _read_json(path: str):
    """The JSON value in the file at ``path``; ParseError when it cannot be read or parsed."""
    try:
        return json.loads(_read_text(path))  # a ParseError from the read passes through
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}:{exc.lineno}: {exc.msg}") from None
    except RecursionError as exc:  # nested deeper than the parser's recursion limit
        raise ParseError(f"{path}: unreadable as JSON ({exc})") from None


def _load_graph(path: str, root_override: str | None = None):
    from .tree import CompetitionGraph, PairwiseEdge

    payload = _read_json(path)
    if not isinstance(payload, dict) or "edges" not in payload:
        raise ParseError(f"{path}: expected an object with 'root' and 'edges'")
    root = root_override or payload.get("root")
    if not root:
        raise ParseError(f"{path}: no root given (file key 'root' or --root)")
    # Every entry is parsed before any edge is built: PairwiseEdge's GraphError
    # is a ValueError too, and must keep its own exit code.
    try:
        entries = [(str(e["u"]), str(e["v"]), float(e["p_u_beats_v"])) for e in payload["edges"]]
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ParseError(f"{path}: malformed edge entry ({exc})") from None
    return CompetitionGraph(root=str(root), edges=(PairwiseEdge(*e) for e in entries))


def cmd_infer_tree(args) -> int:
    from .tree import p_n_from_tree

    graph = _load_graph(args.edges_file, args.root)
    value = p_n_from_tree(graph)
    _emit(
        {
            "root": graph.root,
            "n_opponents": len(graph.vertices) - 1,
            "probability": value,
        },
        args.output,
    )
    return EXIT_OK


def cmd_propagate(args) -> int:
    from .tree import propagate_percentages

    if "=" not in args.anchor:
        raise ParseError("--anchor expects NAME=PCT, e.g. --anchor B4=0.55")
    name, _, pct_text = args.anchor.partition("=")
    try:
        pct = float(pct_text)
    except ValueError:
        raise ParseError(f"could not parse anchor percentage {pct_text!r}") from None
    graph = _load_graph(args.edges_file, args.root)
    percentages = propagate_percentages(graph, name.strip(), pct)
    _emit(
        {"anchor": name.strip(), "percentages": dict(sorted(percentages.items()))},
        args.output,
    )
    return EXIT_OK


def _read_placements(path: str) -> dict[str, list[tuple[str, int]]]:
    """Each event's (competitor, rank) rows, events in order of first appearance."""
    import csv

    placements: dict[str, list[tuple[str, int]]] = {}
    reader = csv.reader(io.StringIO(_read_text(path), newline=""))
    try:
        header = next(reader, None)
        if header is None or [h.strip() for h in header] != ["event_id", "competitor", "rank"]:
            raise ParseError(f"{path}:1: expected header 'event_id,competitor,rank', got {header}")
        for lineno, row in enumerate(reader, start=2):
            if not row or all(not cell.strip() for cell in row):
                continue
            if len(row) != 3:
                raise ParseError(f"{path}:{lineno}: expected 3 columns, got {len(row)}")
            event_id, competitor, rank_text = (cell.strip() for cell in row)
            try:
                rank = int(rank_text)
            except ValueError:
                raise ParseError(
                    f"{path}:{lineno}: rank must be an integer, got {rank_text!r}"
                ) from None
            placements.setdefault(event_id, []).append((competitor, rank))
    except csv.Error as exc:  # a field over csv's limit
        raise ParseError(f"{path}: unreadable as CSV ({exc})") from None
    return placements


def cmd_ingest(args) -> int:
    from .ingest import EventRecord, MalformedRanksError, TiedRanksError
    from .ingest import TiesPolicy, build_standings

    placements = _read_placements(args.events_csv)
    try:
        events = [EventRecord(eid, tuple(rows)) for eid, rows in placements.items()]
        standings = build_standings(events, TiesPolicy(args.ties))
    except (TiedRanksError, MalformedRanksError) as exc:
        raise ParseError(str(exc)) from None
    _emit(standings.as_dict(), args.output)
    return EXIT_OK


def _build_family(spec_text: str):
    from .verify import COUNTEREXAMPLE_NAMES, CanonicalFamily, GridFamily, counterexample_family

    if spec_text in ("builtin", "canonical"):
        return CanonicalFamily()
    if spec_text.startswith("counterexample:"):
        return counterexample_family(spec_text.split(":", 1)[1])
    if spec_text.startswith("grid:"):
        path = spec_text.split(":", 1)[1]
        payload = _read_json(path)
        try:
            return GridFamily.from_dict(payload, name=spec_text)
        except ValueError as exc:
            raise ParseError(f"{path}: malformed grid family file ({exc})") from None
    raise ParseError(
        f"unknown family {spec_text!r}; use builtin, grid:PATH, or "
        f"counterexample:{{{','.join(COUNTEREXAMPLE_NAMES)}}}"
    )


def cmd_verify(args) -> int:
    from .verify import GridFamily, SampleSpec, run_all_checks

    family = _build_family(args.family)
    tolerance = args.tol
    if tolerance is None:
        # Grid families are interpolation-limited; default loosened tolerance.
        tolerance = 1e-3 if isinstance(family, GridFamily) else 1e-9
    spec = SampleSpec(
        n_values=tuple(range(args.n_min, args.n_max + 1)),
        points=args.samples,
        seed=args.seed,
        tolerance=tolerance,
    )
    reports = run_all_checks(family, spec)
    if args.output == "json":
        _emit({"family": family.name, "checks": [r.as_dict() for r in reports]}, "json")
    else:
        lines = [f"family: {family.name}"]
        for r in reports:
            status = "PASS" if r.passed else "FAIL"
            line = (
                f"{r.name:<26} samples={r.samples:<6} "
                f"max_violation={r.max_violation:.3e} tol={r.tolerance:.1e} {status}"
            )
            if not r.passed and r.worst_input is not None:
                line += f"  worst={r.worst_input}"
            lines.append(line)
        _emit("\n".join(lines), args.output)
    return EXIT_OK if all(r.passed for r in reports) else EXIT_CHECKS_FAILED


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="multijames",
        description="Win probabilities for one protagonist against n opponents.",
    )
    parser.add_argument(
        "--output", choices=("table", "json"), default="table", help="report format"
    )
    parser.add_argument("--tol", type=float, default=None, help="check tolerance")
    parser.add_argument("--seed", type=int, default=0, help="random seed")
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("predict", help="closed-form win probability")
    p.add_argument("-a", "--protagonist", type=float, required=True)
    p.add_argument(
        "-b", "--opponents", required=True, help="comma-separated opponent percentages"
    )
    p.add_argument("--method", choices=METHODS, default="direct")
    p.add_argument("--pivot", type=float, default=0.5, help="substitution pivot")
    p.add_argument("--blocks", default=None, help="partition, 1-based, e.g. '1,2|3'")
    p.add_argument("--all-methods", action="store_true")
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("simulate", help="Monte Carlo estimate")
    p.add_argument("-a", "--protagonist", type=float, required=True)
    p.add_argument("-b", "--opponents", required=True)
    p.add_argument("-n", "--trials", type=int, default=100_000)
    p.add_argument("--max-rounds", type=int, default=10_000)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("infer-tree", help="win probability from n pairwise match-ups")
    p.add_argument("edges_file")
    p.add_argument("--root", default=None, help="override the file's root")
    p.set_defaults(func=cmd_infer_tree)

    p = sub.add_parser("propagate", help="recover all percentages from one anchor")
    p.add_argument("edges_file")
    p.add_argument("--anchor", required=True, help="NAME=PCT")
    p.add_argument("--root", default=None, help="override the file's root")
    p.set_defaults(func=cmd_propagate)

    p = sub.add_parser("ingest", help="events CSV to pairwise standings")
    p.add_argument("events_csv")
    p.add_argument("--ties", choices=("reject", "half"), default="reject")
    p.set_defaults(func=cmd_ingest)

    p = sub.add_parser("verify", help="check a candidate family")
    p.add_argument("--family", default="builtin")
    p.add_argument("--samples", type=int, default=1000)
    p.add_argument("--n-min", type=int, default=1)
    p.add_argument("--n-max", type=int, default=4)
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except UndefinedContestError as exc:
        print(f"error: undefined contest: {exc}", file=sys.stderr)
        return EXIT_UNDEFINED
    except GraphError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_GRAPH
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_UNDEFINED


if __name__ == "__main__":
    sys.exit(main())
