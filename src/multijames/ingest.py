"""Turn multi-competitor event results into pairwise records and percentages.

An event with k finishers is scored as all C(k, 2) head-to-head games: the
better-placed competitor beats each competitor ranked below it.  A third-place
finisher out of ten therefore picks up seven wins and two losses.

Standings never list those games one by one.  A finisher's wins and losses
in an event follow from how many ranks are better, equal and worse than its
own: a valid rank r has r - 1 better finishers, and one count per rank gives
the ties, so they cost O(k log k) with the sort that validates the ranks.
Only the pairwise table is inherently quadratic: it is built as one dict of
the event's C(k, 2) name pairs, each mapped to a shared score tuple.  The
first event's dict becomes the running table, and each later one is merged
into it.  Every score is a multiple of 0.5, so the totals equal the
game-by-game sums exactly.
"""

from __future__ import annotations

import warnings
from collections import Counter, defaultdict
from enum import Enum
from itertools import combinations
from typing import Iterable

from .core import _Value

__all__ = [
    "EventRecord",
    "MalformedRanksError",
    "Standings",
    "TiedRanksError",
    "TiesPolicy",
    "UnbalancedScheduleWarning",
    "build_standings",
]


class TiesPolicy(Enum):
    REJECT = "reject"
    HALF = "half"


class TiedRanksError(ValueError):
    pass


class MalformedRanksError(ValueError):
    pass


class UnbalancedScheduleWarning(UserWarning):
    """Pairwise records are far from the equal-schedule assumption."""


def _integral_rank(event_id: str, rank) -> int:
    # int() truncates 1.5 and parses "1"; only a number equal to an integer is a rank.
    try:
        if int(rank) == rank:
            return int(rank)
    except (TypeError, ValueError, OverflowError):
        pass
    raise MalformedRanksError(f"event {event_id!r}: rank {rank!r} is not an integer")


class EventRecord(_Value):
    __slots__ = _fields = ("event_id", "placements")

    def __init__(self, event_id: str, placements: Iterable[tuple[str, int]]) -> None:
        placements = tuple((str(name), _integral_rank(event_id, rank)) for name, rank in placements)
        if len(placements) < 2:
            raise MalformedRanksError(f"event {event_id!r}: needs at least 2 competitors")
        names = [name for name, _ in placements]
        if len(set(names)) != len(names):
            raise MalformedRanksError(f"event {event_id!r}: repeated competitor names")
        if any(rank < 1 for _, rank in placements):
            raise MalformedRanksError(f"event {event_id!r}: ranks must be >= 1")
        self._init(event_id, placements)


# (u's score, v's score) for one game, shared by every pair with that outcome.
_U_WINS = (1.0, 0.0)
_V_WINS = (0.0, 1.0)
_TIE = (0.5, 0.5)


def _score(rank_u: int, rank_v: int) -> tuple[float, float]:
    """The better (lower) rank wins the game; equal ranks split it."""
    return _U_WINS if rank_u < rank_v else _V_WINS if rank_v < rank_u else _TIE


def _validate_ranks(e: EventRecord, ties: TiesPolicy) -> list[int]:
    """The event's ranks, sorted, once they are valid under ``ties``.

    Under REJECT the ranks must be 1..k, and a tie is reported before any
    other defect.  Under HALF they follow competition ranking: a rank equals
    1 + the number of strictly better finishers, so (1, 1, 3) is valid and
    (1, 1, 2) is not.
    """
    ranks = sorted(rank for _, rank in e.placements)
    tied = broken = False
    previous = 0
    # In sorted order, a rank that does not repeat its predecessor must equal
    # its 1-based position.
    for position, rank in enumerate(ranks, start=1):
        if rank == previous:
            tied = True
        elif rank != position:
            broken = True
        previous = rank
    if ties is TiesPolicy.REJECT:
        if tied:
            raise TiedRanksError(f"event {e.event_id!r}: tied ranks {ranks}")
        if broken:
            raise MalformedRanksError(
                f"event {e.event_id!r}: ranks {ranks} are not a permutation of 1..{len(ranks)}"
            )
    elif broken:
        raise MalformedRanksError(
            f"event {e.event_id!r}: ranks {ranks} break competition ranking"
        )
    return ranks


class Standings(_Value):
    __slots__ = _fields = ("wins", "losses", "pairwise", "ties_policy")
    __hash__ = None  # mutable, unlike the other value classes
    __setattr__ = object.__setattr__
    __delattr__ = object.__delattr__

    def __init__(self, wins=None, losses=None, pairwise=None, ties_policy=TiesPolicy.REJECT):
        # None: a fresh dict.
        self.wins = {} if wins is None else wins
        self.losses = {} if losses is None else losses
        self.pairwise = {} if pairwise is None else pairwise
        self.ties_policy = ties_policy

    def competitors(self) -> list[str]:
        return sorted(self.wins)

    def games(self, name: str) -> float:
        return self.wins.get(name, 0.0) + self.losses.get(name, 0.0)

    def pct(self, name: str) -> float:
        games = self.games(name)
        if games == 0:
            raise ValueError(f"{name!r} has no games; winning percentage undefined")
        return self.wins[name] / games

    def as_dict(self) -> dict:
        return {
            "ties_policy": self.ties_policy.value,
            "competitors": {
                name: {
                    "wins": self.wins[name],
                    "losses": self.losses[name],
                    "pct": self.pct(name) if self.games(name) else None,
                }
                for name in self.competitors()
            },
            "pairwise": [
                {"u": u, "v": v, "u_wins": uw, "v_wins": vw}
                for (u, v), (uw, vw) in sorted(self.pairwise.items())
            ],
        }


def build_standings(
    events: Iterable[EventRecord], ties: TiesPolicy = TiesPolicy.REJECT
) -> Standings:
    """Aggregate all-pairs results over events; order of events is irrelevant."""
    wins: dict[str, float] = defaultdict(float)
    losses: dict[str, float] = defaultdict(float)
    pairwise: dict[tuple[str, str], tuple[float, float]] = {}
    for event in events:
        ranks = _validate_ranks(event, ties)
        # A valid rank is 1 + the number of strictly better finishers.
        counts = Counter(ranks)
        for name, rank in event.placements:
            better = rank - 1
            tied = counts[rank] - 1
            worse = len(ranks) - rank - tied
            wins[name] += worse + 0.5 * tied
            losses[name] += better + 0.5 * tied
        # Names in an event are distinct, so this orders by name and every
        # key comes out as (u, v) with u < v.
        cells = {
            (u, v): _score(rank_u, rank_v)
            for (u, rank_u), (v, rank_v) in combinations(sorted(event.placements), 2)
        }
        if not pairwise:  # the first event's table becomes the running one
            pairwise = cells
            continue
        for key in cells.keys() & pairwise.keys():
            (u_total, v_total), (u_score, v_score) = pairwise[key], cells[key]
            cells[key] = (u_total + u_score, v_total + v_score)
        pairwise.update(cells)
    standings = Standings(
        wins=dict(wins), losses=dict(losses), pairwise=pairwise, ties_policy=ties
    )
    games = [standings.games(name) for name in standings.competitors()]
    if games and max(games) > 10 * min(games):
        warnings.warn(
            "pairwise records are highly unbalanced (>10x game-count spread); "
            "the equal-schedule assumption is doubtful",
            UnbalancedScheduleWarning,
            stacklevel=2,
        )
    return standings
