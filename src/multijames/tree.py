"""Tree-based inference from partial pairwise data.

When the probability of each of n single-opponent match-ups is known and
those match-ups connect every opponent to the protagonist (so the known
edges form a tree), the multi-opponent win probability is fully determined.
Given one anchor percentage the whole tree of winning percentages follows.
"""

from __future__ import annotations

import math
from typing import Iterable

from .core import GraphError, _Value, _setattr

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
        if not 0.0 < (p := float(p_u_beats_v)) < 1.0:  # nan fails both comparisons
            raise GraphError("edge probability must lie strictly inside (0, 1), "
                             f"got {p_u_beats_v!r}")
        _setattr(self, "u", u)
        _setattr(self, "v", v)
        _setattr(self, "p_u_beats_v", p)


class CompetitionGraph(_Value):
    """The known match-ups, checked on entry to form a tree.

    ``vertices`` is the root plus every edge endpoint.  ``_x`` holds each vertex's
    path log-odds from the root, log q(v) - log q(root), in the order of a
    breadth-first walk from the root, neighbors in name order.
    """

    _fields = ("root", "edges", "vertices")
    __slots__ = (*_fields, "_x")

    def __init__(self, root: str, edges: Iterable[PairwiseEdge]) -> None:
        edges = tuple(edges)
        # u -> v -> the log-odds that u beats v, each reversed edge the exact negation.
        adj: dict[str, dict[str, float]] = {root: {}}
        for e in edges:
            row = adj.setdefault(e.u, {})
            if e.v in row:
                a, b = sorted((e.u, e.v))
                raise DuplicateEdgeError(f"duplicate edge between {a!r} and {b!r}")
            row[e.v] = lo = _logit(e.p_u_beats_v)
            adj.setdefault(e.v, {})[e.u] = -lo
        if len(edges) >= len(adj):
            raise ExtraEdgesError(f"{len(edges)} edges over {len(adj)} vertices: a cycle exists")
        # Each vertex's value is its parent's minus the log-odds that the parent beats it.
        x = {root: 0.0}
        order = [root]
        for node in order:
            row, base = adj[node], x[node]
            for nbr in sorted(row):
                if nbr not in x:
                    x[nbr] = base - row[nbr]
                    order.append(nbr)
        if len(x) < len(adj):
            raise DisconnectedError(adj.keys() - x.keys(), root)
        self._init(root, edges, frozenset(adj))
        _setattr(self, "_x", x)

    def __reduce__(self):
        # The fields alone: construction checks the tree again and rebuilds ``_x``.
        return CompetitionGraph, (self.root, self.edges)


def _logit(p: float) -> float:
    """log(p / (1 - p)) for 0 < p < 1."""
    return math.log(p) - math.log1p(-p)


def _sigmoid(x: float) -> float:
    """1 / (1 + e^-x), through e^-|x| so that no magnitude of x overflows."""
    e = math.exp(-abs(x))
    return 1.0 / (1.0 + e) if x >= 0.0 else e / (1.0 + e)


def p_n_from_tree(g: CompetitionGraph) -> float:
    """Path Formula: win probability of the root from the tree's edge probabilities.

    Each opponent contributes the product, along its path from the root, of
    the ratios p(child beats parent) / p(parent beats child).  The products
    are summed as log-odds with a max-shifted log-sum-exp.
    """
    x = g._x.values()
    # With the root's own term e^0 = 1 included, P = 1 / (1 + sum) = e^-L,
    # and L >= 0, so neither the sum nor the result can overflow.
    m = max(x)
    return math.exp(-(m + math.log(math.fsum(math.exp(v - m) for v in x))))


def propagate_percentages(
    g: CompetitionGraph, anchor: str, anchor_pct: float
) -> dict[str, float]:
    """Recover every competitor's winning percentage from one known anchor.

    An edge c = P(s beats t) gives logit(t) = logit(s) - logit(c) by the involutive
    property, so logit(v) = logit(anchor_pct) - x(anchor) + x(v), with x the graph's
    path log-odds from the root.  Keys follow the root's walk; the anchor keeps its
    exact input.

    Against the percentages that the float edges and ``anchor_pct`` fix exactly,
    each has relative error at most 7u (d(anchor) + d(v) + 2) (M + |L| + 1), plus
    2^-1074 absolute: u = 2^-53, d(v) is the number of edges from the root to v,
    M the largest |x(v)| and L = logit(anchor_pct).  Each path step adds at most
    7u (M + 1) to a logit, and the sigmoid does not amplify that.

    The logits stay finite, but the final sigmoid correctly rounds a logit
    above about 36.7 to exactly 1.0 (and one below about -745 to 0.0).  Two
    competitors returned as 1.0 make a later ``p_n`` over them undefined.
    """
    x = g._x
    if anchor not in x:
        raise GraphError(f"anchor {anchor!r} not among vertices")
    pct = float(anchor_pct)
    if not 0.0 < pct < 1.0:
        raise AnchorBoundaryError("anchor percentage must lie strictly inside (0, 1)")
    shift = _logit(pct) - x[anchor]
    result = {v: _sigmoid(shift + t) for v, t in x.items()}
    result[anchor] = pct
    return result
