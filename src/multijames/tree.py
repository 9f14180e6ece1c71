"""Tree-based inference from partial pairwise data.

When the probability of each of n single-opponent match-ups is known and
those match-ups connect every opponent to the protagonist (so the known
edges form a tree), the multi-opponent win probability is fully determined.
Given one anchor percentage the whole tree of winning percentages follows.
"""

from __future__ import annotations

from array import array
from math import frexp, fsum, ldexp
from typing import Iterable

from .core import GraphError, _Value, _p_from_odds, _setattr

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
    path odds from the root, q(v)/q(root), as ``frexp`` pairs in two flat arrays,
    mantissas (``array('d')``) and exponents (``array('q')``), plus a name -> slot
    dict, all in the order of a breadth-first walk from the root, neighbors in name
    order.  The walk frees each adjacency row once it expands that vertex.
    """

    _fields = ("root", "edges", "vertices")
    __slots__ = (*_fields, "_x")

    def __init__(self, root: str, edges: Iterable[PairwiseEdge]) -> None:
        edges = tuple(edges)
        # u -> v -> the probability that u beats v, negated on the reversed direction.
        adj: dict[str, dict[str, float]] = {root: {}}
        for e in edges:
            row = adj.setdefault(e.u, {})
            if e.v in row:
                a, b = sorted((e.u, e.v))
                raise DuplicateEdgeError(f"duplicate edge between {a!r} and {b!r}")
            row[e.v] = c = e.p_u_beats_v
            adj.setdefault(e.v, {})[e.u] = -c
        if len(edges) >= len(adj):
            raise ExtraEdgesError(f"{len(edges)} edges over {len(adj)} vertices: a cycle exists")
        # Each vertex's odds are its parent's times P(it beats the parent) / P(the parent beats
        # it), from that probability's mantissa and renormalized: three roundings, no overflow.
        # Expanded rows are popped, so the rows left are those the root cannot reach.
        slot, ms, ks = {root: 0}, array("d", [0.5]), array("q", [1])
        order = [root]
        for n, node in enumerate(order):
            row, m, k = adj.pop(node), ms[n], ks[n]
            for nbr in sorted(row):
                if nbr not in slot:
                    c = row[nbr]
                    f, j = frexp(c)  # f takes the sign of c
                    if c > 0.0:  # times (1 - c)/c
                        t, i = frexp(m * (1.0 - c) / f)
                        ks.append(k + i - j)
                    else:  # times -c/(1 + c)
                        t, i = frexp(-m * f / (1.0 + c))
                        ks.append(k + i + j)
                    ms.append(t)
                    slot[nbr] = len(order)
                    order.append(nbr)
        if adj:
            raise DisconnectedError(adj, root)
        self._init(root, edges, frozenset(slot))
        _setattr(self, "_x", (slot, ms, ks))

    def __reduce__(self):
        # The fields alone: construction checks the tree again and rebuilds ``_x``.
        return CompetitionGraph, (self.root, self.edges)


def p_n_from_tree(g: CompetitionGraph) -> float:
    """Path Formula: win probability of the root from the tree's edge probabilities.

    Each opponent contributes its path odds, the product along its path from the root
    of the ratios p(child beats parent) / p(parent beats child), and P = 1/(1 + sum).
    The terms are scaled by one power of two to the largest exponent, summed with
    ``fsum`` and ended through the range-safe step, so lopsided trees give 0.0 or 1.0
    rather than overflowing.  Every rounding is relative and no term cancels, so the
    result is within (3 depth + 5) 2^-53 of P, relative, plus 2^-1075 absolute where
    it is subnormal, with depth the most edges from the root to a vertex.
    """
    _, ms, ks = g._x
    top = max(ks[1:], default=0)  # the root's own odds, 1, come first
    return _p_from_odds(fsum([ldexp(m, k - top) for m, k in zip(ms[1:], ks[1:])]), top)


def propagate_percentages(
    g: CompetitionGraph, anchor: str, anchor_pct: float
) -> dict[str, float]:
    """Recover every competitor's winning percentage from one known anchor.

    An edge c = P(s beats t) gives q(t) = q(s) (1 - c)/c by the involutive property,
    so the odds against v are (1 - pct)/pct x(anchor)/x(v), with x the graph's path
    odds from the root, formed from mantissas and ended through the range-safe step.
    Keys follow the root's walk; the anchor keeps its exact input.

    Against the percentages that the float edges and ``anchor_pct`` fix exactly, each
    is within (3 (d(anchor) + d(v)) + 7) 2^-53 relative, plus 2^-1075 absolute where it
    is subnormal, with d(v) the number of edges from the root to v: three roundings a
    path step, four for the odds and two for the ending.  No odds overflow, but a
    percentage above 1 - 2^-54 is not a float and rounds to exactly 1.0; two
    competitors returned as 1.0 make a later ``p_n`` over them undefined.
    """
    slot, ms, ks = g._x
    if anchor not in slot:
        raise GraphError(f"anchor {anchor!r} not among vertices")
    pct = float(anchor_pct)
    if not 0.0 < pct < 1.0:
        raise AnchorBoundaryError("anchor percentage must lie strictly inside (0, 1)")
    (f, j), a = frexp(pct), slot[anchor]
    s, k = (1.0 - pct) / f * ms[a], ks[a] - j  # s * 2**k is the odds against the root
    result = {v: _p_from_odds(s / t, k - i) for v, t, i in zip(slot, ms, ks)}
    result[anchor] = pct
    return result
