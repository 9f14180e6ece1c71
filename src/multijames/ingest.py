"""Turn multi-competitor event results into pairwise records and percentages.

An event with k finishers is scored as all C(k, 2) head-to-head games: the
better-placed competitor beats each competitor ranked below it.  A third-place
finisher out of ten therefore picks up seven wins and two losses.

Standings never list those games one by one.  A finisher's wins and losses
in an event follow from how many ranks are better, equal and worse than its
own: a valid rank r has r - 1 better finishers, and one count per rank gives
the ties, so they cost O(k log k) with the sort that validates the ranks.
The pairwise table is derived from the ranks too: it keeps each event's
placements in name order and each competitor's events, O(sum of k) memory,
and computes a cell where it is read.  Its ``len`` is counted once, when it
is built, from each competitor's set of opponents.  Every score is a
multiple of 0.5, so the totals equal the game-by-game sums exactly.
"""

from __future__ import annotations

import warnings
from collections import Counter, defaultdict
from collections.abc import ItemsView, Mapping, ValuesView
from enum import Enum
from itertools import chain, combinations, starmap
from operator import itemgetter
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
        if not all(names):
            raise MalformedRanksError(f"event {event_id!r}: competitor names must be nonempty")
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


class _Pairwise(Mapping):
    """The read-only pairwise table, derived from each event's ranks.

    ``events`` holds each event's (names, ranks) in name order.  A key is
    (u, v) with u < v, and its cell sums the scores of the events the two
    share.  Keys come event by event, pairs in name order, each at the first
    event the two share.  Only the count is computed ahead of a read.
    """

    __slots__ = ("_events", "_where", "_len")

    def __init__(self, events: list[tuple[tuple[str, ...], tuple[int, ...]]]) -> None:
        self._events = events
        self._where: dict[str, dict[int, int]] = {}  # name -> {event index: rank}
        for i, (names, ranks) in enumerate(events):
            for name, rank in zip(names, ranks):
                self._where.setdefault(name, {})[i] = rank
        self._len = sum(map(self._opponents, self._where.values())) // 2

    def _opponents(self, at: dict[int, int]) -> int:
        """How many competitors share an event with the one placed ``at``."""
        fields = [self._events[i][0] for i in at]
        return len(fields[0]) - 1 if len(fields) == 1 else len(set().union(*fields)) - 1

    def __getitem__(self, key):
        u, v = key if isinstance(key, tuple) and len(key) == 2 else (None, None)
        u_at, v_at = self._where.get(u, ()), self._where.get(v, ())
        shared = [i for i in u_at if i in v_at] if u_at and v_at and u < v else ()
        if not shared:
            raise KeyError(key)
        scores = [_score(u_at[i], v_at[i]) for i in shared]
        return scores[0] if len(scores) == 1 else tuple(map(sum, zip(*scores)))

    def _items(self):
        return chain.from_iterable(map(self._first_met, range(len(self._events))))

    def _first_met(self, i: int):
        """Event i's cells for the pairs that first meet there, in name order."""
        names, ranks = self._events[i]
        where = self._where
        cells = zip(combinations(names, 2), starmap(_score, combinations(ranks, 2)))
        shared = defaultdict(list)  # event index -> the names it shares with event i
        for name in names:
            for j in where[name]:
                shared[j].append(name)
        again = [(j, both) for j, both in shared.items() if len(both) > 1 and j != i]
        if not again:
            return cells
        cells = dict(cells)
        # Later events add to a cell before an earlier one drops it.
        for j, both in sorted(again, reverse=True):
            for u, v in combinations(both, 2):
                if j < i:  # the pair came out at an earlier event
                    cells.pop((u, v), None)
                else:
                    (u_total, v_total), (u_score, v_score) = (
                        cells[u, v], _score(where[u][j], where[v][j])
                    )
                    cells[u, v] = (u_total + u_score, v_total + v_score)
        return iter(cells.items())

    def __iter__(self):
        return map(itemgetter(0), self._items())

    def __len__(self) -> int:
        return self._len

    def items(self):
        return _Items(self)

    def values(self):
        return _Values(self)

    def __eq__(self, other):
        if not isinstance(other, Mapping):
            return NotImplemented
        missing = object()
        return len(self) == len(other) and all(other.get(k, missing) == v for k, v in self.items())

    def __repr__(self) -> str:
        return repr(dict(self.items()))

    def __reduce__(self):
        return type(self), (self._events,)


class _Items(ItemsView):
    __slots__ = ()

    def __iter__(self):
        return self._mapping._items()


class _Values(ValuesView):
    __slots__ = ()

    def __iter__(self):
        return map(itemgetter(1), self._mapping._items())


class Standings(_Value):
    """Wins, losses and pairwise records over a set of events.

    ``pairwise`` maps (u, v), u < v, to (u's score, v's score) summed over
    the events the two share.  ``build_standings`` makes it a read-only
    Mapping derived from each event's ranks, not a dict: O(sum of k) memory
    for events of k finishers, O(1) ``len``, and each cell computed where
    it is read.  A ``Standings`` built from an explicit dict keeps it.
    """

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
        # Sorting the rows by (u, v), rather than the (key, cell) pairs, keeps
        # no pair alive, which spares the collector on a large table.
        rows = [
            {"u": u, "v": v, "u_wins": uw, "v_wins": vw}
            for (u, v), (uw, vw) in self.pairwise.items()
        ]
        rows.sort(key=itemgetter("u", "v"))
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
            "pairwise": rows,
        }


def build_standings(
    events: Iterable[EventRecord], ties: TiesPolicy = TiesPolicy.REJECT
) -> Standings:
    """Aggregate all-pairs results over events; order of events is irrelevant."""
    wins: dict[str, float] = defaultdict(float)
    losses: dict[str, float] = defaultdict(float)
    placed = []
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
        # Names in an event are distinct, so this orders by name.
        placed.append(tuple(zip(*sorted(event.placements))))
    standings = Standings(
        wins=dict(wins), losses=dict(losses), pairwise=_Pairwise(placed), ties_policy=ties
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
