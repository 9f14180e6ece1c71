"""Tree-based inference from partial pairwise data.

When the probability of each of n single-opponent match-ups is known and
those match-ups connect every opponent to the protagonist (so the known
edges form a tree), the multi-opponent win probability is fully determined.
Given one anchor percentage the whole tree of winning percentages follows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable

__all__ = [
    "AnchorBoundaryError",
    "CompetitionGraph",
    "DisconnectedError",
    "DuplicateEdgeError",
    "ExtraEdgesError",
    "GraphError",
    "PairwiseEdge",
    "p_n_from_tree",
    "propagate_percentages",
]

class GraphError(ValueError):
    """Base class for competition-graph validation failures."""


class SelfLoopError(GraphError):
    pass


class DuplicateEdgeError(GraphError):
    pass


class ExtraEdgesError(GraphError):
    """At least as many edges as vertices: some edge closes a cycle."""


class DisconnectedError(GraphError):
    def __init__(self, unreachable: Iterable[str], start: str):
        self.unreachable = sorted(unreachable)
        super().__init__(f"vertices unreachable from {start!r}: {', '.join(self.unreachable)}")


class AnchorBoundaryError(ValueError):
    pass


@dataclass(frozen=True)
class PairwiseEdge:
    u: str
    v: str
    p_u_beats_v: float

    def __post_init__(self) -> None:
        if not self.u or not self.v:
            raise GraphError("edge endpoints must be nonempty names")
        if self.u == self.v:
            raise SelfLoopError(f"self-loop at {self.u!r}")
        p = float(self.p_u_beats_v)
        if math.isnan(p) or p <= 0.0 or p >= 1.0:
            raise GraphError(
                f"edge probability must lie strictly inside (0, 1), got {self.p_u_beats_v!r}"
            )
        object.__setattr__(self, "p_u_beats_v", p)


@dataclass(frozen=True)
class CompetitionGraph:
    """The known match-ups; ``vertices`` is the root plus every edge endpoint."""

    root: str
    edges: tuple[PairwiseEdge, ...]
    vertices: frozenset[str] = field(init=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "edges", tuple(self.edges))
        vertices = {self.root}
        for e in self.edges:
            vertices.add(e.u)
            vertices.add(e.v)
        object.__setattr__(self, "vertices", frozenset(vertices))


def _logit(p: float) -> float:
    """log(p / (1 - p)) for 0 < p < 1."""
    return math.log(p) - math.log1p(-p)


def _sigmoid(x: float) -> float:
    """1 / (1 + e^-x), through e^-|x| so that no magnitude of x overflows."""
    e = math.exp(-abs(x))
    return 1.0 / (1.0 + e) if x >= 0.0 else e / (1.0 + e)


def _walk(
    g: CompetitionGraph, start: str
) -> tuple[dict[str, dict[str, float]], dict[str, str]]:
    """Check that ``g`` is a tree and walk it breadth-first from ``start``.

    Returns the adjacency, which maps u -> v -> the log-odds that u beats v
    (so each reversed edge is the exact negation), and the parent of every
    other vertex in visiting order; neighbors are visited in sorted name order.
    """
    adj: dict[str, dict[str, float]] = {v: {} for v in g.vertices}
    for e in g.edges:
        if e.v in adj[e.u]:
            a, b = sorted((e.u, e.v))
            raise DuplicateEdgeError(f"duplicate edge between {a!r} and {b!r}")
        x = _logit(e.p_u_beats_v)
        adj[e.u][e.v] = x
        adj[e.v][e.u] = -x
    if len(g.edges) >= len(g.vertices):
        raise ExtraEdgesError(
            f"{len(g.edges)} edges over {len(g.vertices)} vertices: a cycle exists"
        )
    parent: dict[str, str] = {}
    order = [start]
    for node in order:
        for nbr in sorted(adj[node]):
            if nbr != start and nbr not in parent:
                parent[nbr] = node
                order.append(nbr)
    if len(order) < len(g.vertices):
        raise DisconnectedError(g.vertices - set(order), start)
    return adj, parent


def p_n_from_tree(g: CompetitionGraph) -> float:
    """Path Formula: win probability of the root from the tree's edge probabilities.

    Each opponent contributes the product, along its path from the root, of
    the ratios p(child beats parent) / p(parent beats child).  The products
    are summed as log-odds with a max-shifted log-sum-exp.
    """
    adj, parent = _walk(g, g.root)
    x = {g.root: 0.0}
    for child, par in parent.items():
        x[child] = x[par] - adj[par][child]
    # With the root's own term e^0 = 1 included, P = 1 / (1 + sum) = e^-L,
    # and L >= 0, so neither the sum nor the result can overflow.
    m = max(x.values())
    return math.exp(-(m + math.log(math.fsum(math.exp(v - m) for v in x.values()))))


def propagate_percentages(
    g: CompetitionGraph, anchor: str, anchor_pct: float
) -> dict[str, float]:
    """Recover every competitor's winning percentage from one known anchor.

    Walks outward from the anchor; each known edge probability c between a
    solved vertex s and its neighbor t yields pct(t) = james_p(pct(s), c)
    by the involutive property, i.e. logit(t) = logit(s) - logit(c).  Result
    is independent of traversal order on a tree; breadth-first with sorted
    names keeps it reproducible.

    The logits stay finite, but the final sigmoid correctly rounds a logit
    above about 36.7 to exactly 1.0 (and one below about -745 to 0.0).  Two
    competitors returned as 1.0 make a later ``p_n`` over them undefined.
    """
    if anchor not in g.vertices:
        raise GraphError(f"anchor {anchor!r} not among vertices")
    adj, parent = _walk(g, anchor)
    pct = float(anchor_pct)
    if not 0.0 < pct < 1.0:
        raise AnchorBoundaryError("anchor percentage must lie strictly inside (0, 1)")
    result = {anchor: _logit(pct)}
    for child, par in parent.items():
        result[child] = result[par] - adj[par][child]
    for v, x in result.items():
        result[v] = _sigmoid(x)
    result[anchor] = pct  # the anchor keeps its exact input
    return result
