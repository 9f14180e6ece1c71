"""Command-line interface tying the evaluators, simulator, and verifier together.

Exit codes: 0 ok, 1 failed verification checks, 2 undefined contest (or
other invalid percentages, or too few simulated trials requested or
resolved), 3 competition-graph error, 4 input parse error.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys

from . import __version__
from .core import Contest, UndefinedContestError, p_n
from .identities import (
    odds_from_sum,
    p_n_expanded_sum,
    p_n_partitioned,
    p_n_product_form,
    p_n_reduction,
    p_n_shifted_sum,
    p_n_substitution,
)
from .ingest import (
    EventRecord,
    MalformedRanksError,
    TiedRanksError,
    TiesPolicy,
    build_standings,
)
from .tree import CompetitionGraph, GraphError, PairwiseEdge, p_n_from_tree, propagate_percentages

# simulate (numpy) and verify are imported inside their subcommands, so the
# other subcommands start with standard-library imports only.

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


def _emit(payload: dict, fmt: str) -> None:
    if fmt == "json":
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        for key, value in payload.items():
            if isinstance(value, dict):
                print(f"{key}:")
                for k, v in value.items():
                    print(f"  {k}: {v!r}" if isinstance(v, float) else f"  {k}: {v}")
            elif isinstance(value, float):
                print(f"{key}: {value!r}")
            else:
                print(f"{key}: {value}")


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
    z = (
        (result.win_probability_estimate - closed) / result.standard_error
        if result.standard_error > 0
        else 0.0
    )
    _emit(
        {
            "estimate": result.win_probability_estimate,
            "standard_error": result.standard_error,
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


def _load_graph(path: str, root_override: str | None = None) -> CompetitionGraph:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            payload = json.load(fh)
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}:{exc.lineno}: {exc.msg}") from None
    if not isinstance(payload, dict) or "edges" not in payload:
        raise ParseError(f"{path}: expected an object with 'root' and 'edges'")
    root = root_override or payload.get("root")
    if not root:
        raise ParseError(f"{path}: no root given (file key 'root' or --root)")
    try:
        edges = tuple(
            PairwiseEdge(str(e["u"]), str(e["v"]), float(e["p_u_beats_v"]))
            for e in payload["edges"]
        )
    except (KeyError, TypeError) as exc:
        raise ParseError(f"{path}: malformed edge entry ({exc})") from None
    return CompetitionGraph(root=str(root), edges=edges)


def cmd_infer_tree(args) -> int:
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


def _load_events(path: str) -> list[EventRecord]:
    placements: dict[str, list[tuple[str, int]]] = {}
    order: list[str] = []
    try:
        fh = open(path, "r", encoding="utf-8", newline="")
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from None
    with fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or [h.strip() for h in header] != ["event_id", "competitor", "rank"]:
            raise ParseError(
                f"{path}:1: expected header 'event_id,competitor,rank', got {header}"
            )
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
            if event_id not in placements:
                placements[event_id] = []
                order.append(event_id)
            placements[event_id].append((competitor, rank))
    try:
        return [EventRecord(eid, tuple(placements[eid])) for eid in order]
    except MalformedRanksError as exc:
        raise ParseError(str(exc)) from None


def cmd_ingest(args) -> int:
    events = _load_events(args.events_csv)
    try:
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
        try:
            return GridFamily.from_file(path)
        except OSError as exc:
            raise ParseError(f"cannot read {path}: {exc}") from None
        except (json.JSONDecodeError, KeyError, ValueError) as exc:
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
        print(
            json.dumps(
                {"family": family.name, "checks": [r.as_dict() for r in reports]},
                indent=2,
                sort_keys=True,
            )
        )
    else:
        print(f"family: {family.name}")
        for r in reports:
            status = "PASS" if r.passed else "FAIL"
            line = (
                f"{r.name:<26} samples={r.samples:<6} "
                f"max_violation={r.max_violation:.3e} tol={r.tolerance:.1e} {status}"
            )
            if not r.passed and r.worst_input is not None:
                line += f"  worst={r.worst_input}"
            print(line)
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
