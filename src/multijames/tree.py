"""Tree-based inference from partial pairwise data.

When the probability of each of n single-opponent match-ups is known and
those match-ups connect every opponent to the protagonist (so the known
edges form a tree), the multi-opponent win probability is fully determined.
Given one anchor percentage the whole tree of winning percentages follows.
"""

from __future__ import annotations

import math
from functools import cached_property
from typing import Iterable

from .core import GraphError, _Value

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


class PairwiseEdge(_Value):
    __slots__ = _fields = ("u", "v", "p_u_beats_v")

    def __init__(self, u: str, v: str, p_u_beats_v: float) -> None:
        if not u or not v:
            raise GraphError("edge endpoints must be nonempty names")
        if u == v:
            raise SelfLoopError(f"self-loop at {u!r}")
        p = float(p_u_beats_v)
        if not 0.0 < p < 1.0:  # nan fails both comparisons
            raise GraphError(
                f"edge probability must lie strictly inside (0, 1), got {p_u_beats_v!r}"
            )
        self._init(u, v, p)


class CompetitionGraph(_Value):
    """The known match-ups; ``vertices`` is the root plus every edge endpoint."""

    # No __slots__: the cached index lives in the instance dict.
    _fields = ("root", "edges", "vertices")

    def __init__(self, root: str, edges: Iterable[PairwiseEdge]) -> None:
        edges = tuple(edges)
        vertices = {root}
        for e in edges:
            vertices.add(e.u)
            vertices.add(e.v)
        self._init(root, edges, frozenset(vertices))

    def __reduce__(self):
        # The fields alone: the index is rebuilt on first use.
        return CompetitionGraph, (self.root, self.edges)

    @cached_property
    def _log_odds(self) -> dict[str, dict[str, float]]:
        """u -> v -> the log-odds that u beats v, each reversed edge the exact negation.

        Built by the first walk and kept; a build that raises keeps nothing."""
        adj: dict[str, dict[str, float]] = {v: {} for v in self.vertices}
        for e in self.edges:
            if e.v in adj[e.u]:
                a, b = sorted((e.u, e.v))
                raise DuplicateEdgeError(f"duplicate edge between {a!r} and {b!r}")
            adj[e.u][e.v] = x = _logit(e.p_u_beats_v)
            adj[e.v][e.u] = -x
        if len(self.edges) >= len(self.vertices):
            raise ExtraEdgesError(
                f"{len(self.edges)} edges over {len(self.vertices)} vertices: a cycle exists"
            )
        return adj


def _logit(p: float) -> float:
    """log(p / (1 - p)) for 0 < p < 1."""
    return math.log(p) - math.log1p(-p)


def _sigmoid(x: float) -> float:
    """1 / (1 + e^-x), through e^-|x| so that no magnitude of x overflows."""
    e = math.exp(-abs(x))
    return 1.0 / (1.0 + e) if x >= 0.0 else e / (1.0 + e)


def _walk(g: CompetitionGraph, start: str, x0: float) -> dict[str, float]:
    """Check that ``g`` is a tree and walk it breadth-first, neighbors in name order.

    Returns each vertex's path log-odds in visiting order: ``x0`` at ``start``,
    then its parent's value minus the log-odds that the parent beats it.
    """
    adj = g._log_odds
    x = {start: x0}
    order = [start]
    for node in order:
        row, base = adj[node], x[node]
        for nbr in sorted(row):
            if nbr not in x:
                x[nbr] = base - row[nbr]
                order.append(nbr)
    if len(order) < len(g.vertices):
        raise DisconnectedError(g.vertices - x.keys(), start)
    return x


def p_n_from_tree(g: CompetitionGraph) -> float:
    """Path Formula: win probability of the root from the tree's edge probabilities.

    Each opponent contributes the product, along its path from the root, of
    the ratios p(child beats parent) / p(parent beats child).  The products
    are summed as log-odds with a max-shifted log-sum-exp.
    """
    x = _walk(g, g.root, 0.0).values()
    # With the root's own term e^0 = 1 included, P = 1 / (1 + sum) = e^-L,
    # and L >= 0, so neither the sum nor the result can overflow.
    m = max(x)
    return math.exp(-(m + math.log(math.fsum(math.exp(v - m) for v in x))))


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
    pct = float(anchor_pct)
    inside = 0.0 < pct < 1.0
    x = _walk(g, anchor, _logit(pct) if inside else 0.0)  # a graph error comes first
    if not inside:
        raise AnchorBoundaryError("anchor percentage must lie strictly inside (0, 1)")
    result = {v: _sigmoid(t) for v, t in x.items()}
    result[anchor] = pct  # the anchor keeps its exact input
    return result
