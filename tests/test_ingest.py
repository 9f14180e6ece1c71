import hashlib
import math
import pickle
import random
import tracemalloc
from collections import defaultdict
from collections.abc import Mapping
from itertools import combinations

import pytest

from multijames.ingest import (
    EventRecord,
    MalformedRanksError,
    Standings,
    TiedRanksError,
    TiesPolicy,
    UnbalancedScheduleWarning,
    build_standings,
)


def event(event_id, *placements):
    return EventRecord(event_id, tuple(placements))


def games(e):
    """Every game of one valid event as (u, v, u_score, v_score), the reference.

    The better (lower) rank wins the game and equal ranks split it.
    """
    for (u, rank_u), (v, rank_v) in combinations(e.placements, 2):
        u_score = 1.0 if rank_u < rank_v else 0.5 if rank_u == rank_v else 0.0
        yield u, v, u_score, 1.0 - u_score


def summed_pairs(events, ties):
    """Standings summed game by game over every event."""
    wins, losses = defaultdict(float), defaultdict(float)
    pairwise = {}
    for e in events:
        for u, v, u_score, v_score in games(e):
            if v < u:
                u, v, u_score, v_score = v, u, v_score, u_score
            wins[u] += u_score
            losses[u] += v_score
            wins[v] += v_score
            losses[v] += u_score
            u_total, v_total = pairwise.get((u, v), (0.0, 0.0))
            pairwise[(u, v)] = (u_total + u_score, v_total + v_score)
    return Standings(dict(wins), dict(losses), pairwise, ties)


def random_season(rng, ties, n_events=40, pool=12):
    """Overlapping fields drawn from a small pool, so pairs meet in many events."""
    names = [f"n{i:02d}" for i in range(pool)]
    events = []
    for e in range(n_events):
        field = rng.sample(names, rng.randint(2, pool))
        ranks = []
        for i in range(len(field)):
            # Under HALF, ties follow competition ranking.
            tie = ties is TiesPolicy.HALF and i > 0 and rng.random() < 0.4
            ranks.append(ranks[-1] if tie else i + 1)
        placements = list(zip(field, ranks))
        rng.shuffle(placements)
        events.append(EventRecord(f"e{e}", tuple(placements)))
    return events


def eager_pairwise(events):
    """The pairwise table built eagerly as one dict, the way it used to be stored.

    Each event's cells become a dict in name order; the first is the running
    table and each later one is merged into it, so a key sits at the first
    event its pair shares.  This is the reference for values and key order.
    """
    pairwise = {}
    for e in events:
        cells = {
            (u, v): (1.0, 0.0) if rank_u < rank_v else (0.0, 1.0) if rank_v < rank_u else (0.5, 0.5)
            for (u, rank_u), (v, rank_v) in combinations(sorted(e.placements), 2)
        }
        if not pairwise:
            pairwise = cells
            continue
        for key in cells.keys() & pairwise.keys():
            (u_total, v_total), (u_score, v_score) = pairwise[key], cells[key]
            cells[key] = (u_total + u_score, v_total + v_score)
        pairwise.update(cells)
    return pairwise


def hex_items(items):
    return [(key, (u.hex(), v.hex())) for key, (u, v) in items]


def big_event(k=1000, seed=5):
    """One seeded event of k finishers in shuffled rank order."""
    rng = random.Random(seed)
    ranks = list(range(1, k + 1))
    rng.shuffle(ranks)
    return event("big", *((f"p{i:04d}", rank) for i, rank in enumerate(ranks)))


class TestEventRecord:
    def test_needs_two_competitors(self):
        with pytest.raises(MalformedRanksError):
            event("e1", ("solo", 1))

    def test_rejects_repeated_names(self):
        with pytest.raises(MalformedRanksError):
            event("e1", ("x", 1), ("x", 2))

    def test_rejects_nonpositive_ranks(self):
        with pytest.raises(MalformedRanksError):
            event("e1", ("x", 0), ("y", 1))

    @pytest.mark.parametrize("rank", [1.5, 2.9, "one", "2", None, float("nan"), float("inf")])
    def test_rejects_non_integral_ranks(self, rank):
        with pytest.raises(MalformedRanksError, match="'heat'"):
            event("heat", ("a", 1), ("b", rank))

    @pytest.mark.parametrize("names", [("a", ""), ("", "b")])
    def test_rejects_blank_names(self, names):
        with pytest.raises(
            MalformedRanksError, match=r"^event 'e1': competitor names must be nonempty$"
        ):
            event("e1", (names[0], 1), (names[1], 2))

    def test_integral_floats_become_ints(self):
        e = event("e1", ("a", 1.0), ("b", 2))
        assert e.placements == (("a", 1), ("b", 2))
        assert all(type(rank) is int for _, rank in e.placements)


class TestExpandEvent:
    """One event counts as all of its C(k, 2) head-to-head games."""

    def test_third_of_ten(self):
        e = event("race", *((f"c{r}", r) for r in range(1, 11)))
        standings = build_standings([e])
        assert len(standings.pairwise) == math.comb(10, 2)
        assert standings.wins["c3"] == 7
        assert standings.losses["c3"] == 2
        assert standings.pairwise[("c1", "c3")] == (1.0, 0.0)
        assert standings.pairwise[("c3", "c4")] == (1.0, 0.0)

    def test_two_competitors_single_pair(self):
        standings = build_standings([event("e", ("a", 1), ("b", 2))])
        assert standings.pairwise == {("a", "b"): (1.0, 0.0)}
        assert standings.wins == {"a": 1.0, "b": 0.0}
        assert standings.losses == {"a": 0.0, "b": 1.0}

    def test_tied_ranks_rejected(self):
        e = event("e", ("a", 1), ("b", 1), ("c", 3))
        with pytest.raises(TiedRanksError):
            build_standings([e], TiesPolicy.REJECT)

    def test_tied_ranks_half_policy(self):
        e = event("e", ("a", 1), ("b", 1), ("c", 3))
        standings = build_standings([e], TiesPolicy.HALF)
        assert standings.pairwise == {
            ("a", "b"): (0.5, 0.5),
            ("a", "c"): (1.0, 0.0),
            ("b", "c"): (1.0, 0.0),
        }
        assert standings.wins == {"a": 1.5, "b": 1.5, "c": 0.0}
        assert standings.losses == {"a": 0.5, "b": 0.5, "c": 2.0}

    def test_rank_gaps_rejected(self):
        with pytest.raises(MalformedRanksError):
            build_standings([event("e", ("a", 1), ("b", 3))])

    def test_half_policy_requires_competition_ranking(self):
        # (1, 1, 2) skips nobody for the tie, so it is malformed.
        with pytest.raises(MalformedRanksError):
            build_standings([event("e", ("a", 1), ("b", 1), ("c", 2))], TiesPolicy.HALF)


class TestValidateRanks:
    @pytest.mark.parametrize(
        "ties, ranks, error, message",
        [
            # Under REJECT a tie is reported before any other defect.
            (TiesPolicy.REJECT, (1, 1, 3), TiedRanksError, r"tied ranks \[1, 1, 3\]"),
            (TiesPolicy.REJECT, (1, 3), MalformedRanksError, r"not a permutation of 1\.\.2"),
            (TiesPolicy.REJECT, (1, 1, 2), TiedRanksError, r"tied ranks \[1, 1, 2\]"),
            (TiesPolicy.HALF, (1, 1, 2), MalformedRanksError, "break competition ranking"),
            (TiesPolicy.HALF, (2, 2), MalformedRanksError, "break competition ranking"),
        ],
    )
    def test_invalid(self, ties, ranks, error, message):
        e = event("heat", *((f"c{i}", rank) for i, rank in enumerate(ranks)))
        with pytest.raises(error, match=message):
            build_standings([e], ties)

    def test_all_tied_is_valid_under_half(self):
        e = event("heat", ("a", 1), ("b", 1), ("c", 1))
        standings = build_standings([e], TiesPolicy.HALF)
        assert standings.wins == standings.losses == {"a": 1.0, "b": 1.0, "c": 1.0}
        assert standings.pairwise == {
            ("a", "b"): (0.5, 0.5),
            ("a", "c"): (0.5, 0.5),
            ("b", "c"): (0.5, 0.5),
        }


class TestBuildStandings:
    def test_single_event_percentages(self):
        e = event("race", *((f"c{r}", r) for r in range(1, 11)))
        standings = build_standings([e])
        for r in range(1, 11):
            assert standings.pct(f"c{r}") == pytest.approx((10 - r) / 9, rel=1e-15)

    def test_win_loss_balance(self):
        events = [
            event("e1", *((f"c{r}", r) for r in range(1, 6))),
            event("e2", ("c1", 1), ("c2", 2), ("x", 3)),
        ]
        standings = build_standings(events)
        total_pairs = math.comb(5, 2) + math.comb(3, 2)
        assert sum(standings.wins.values()) == total_pairs
        assert sum(standings.losses.values()) == total_pairs

    def test_event_order_invariance(self):
        events = [
            event("e1", ("a", 1), ("b", 2), ("c", 3)),
            event("e2", ("b", 1), ("a", 2)),
            event("e3", ("c", 1), ("a", 2), ("b", 3)),
        ]
        forward = build_standings(events)
        rng = random.Random(0)
        for _ in range(5):
            shuffled = list(events)
            rng.shuffle(shuffled)
            assert build_standings(shuffled).as_dict() == forward.as_dict()

    def test_disjoint_fields(self):
        events = [
            event("e1", ("a", 1), ("b", 2)),
            event("e2", ("x", 1), ("y", 2)),
        ]
        standings = build_standings(events)
        assert standings.pct("a") == 1.0
        assert standings.pct("y") == 0.0

    def test_empty_input(self):
        standings = build_standings([])
        assert standings.competitors() == []
        assert standings.as_dict()["pairwise"] == []

    def test_missing_competitor_pct_raises(self):
        standings = build_standings([event("e1", ("a", 1), ("b", 2))])
        with pytest.raises(ValueError):
            standings.pct("ghost")

    def test_unbalanced_schedule_warns(self):
        events = [
            event(f"e{i}", ("grinder", 1 + (i % 2)), ("partner", 2 - (i % 2)))
            for i in range(22)
        ]
        events.append(event("odd", ("rookie", 1), ("grinder", 2)))
        with pytest.warns(UnbalancedScheduleWarning):
            build_standings(events)

    def test_error_carries_event_id(self):
        events = [event("good", ("a", 1), ("b", 2)), event("bad", ("a", 1), ("b", 1))]
        with pytest.raises(TiedRanksError, match="bad"):
            build_standings(events)

    @pytest.mark.parametrize("ties", list(TiesPolicy))
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_summed_pairs(self, ties, seed):
        events = random_season(random.Random(seed), ties)
        got = build_standings(events, ties)
        want = summed_pairs(events, ties)
        assert got.wins == want.wins
        assert got.losses == want.losses
        assert got.pairwise == want.pairwise
        assert got.as_dict() == want.as_dict()

    def test_pairwise_cells(self):
        events = [
            event("e1", ("a", 1), ("b", 2)),
            event("e2", ("b", 1), ("a", 2)),
            event("e3", ("a", 1), ("b", 2)),
        ]
        standings = build_standings(events)
        assert standings.pairwise[("a", "b")] == (2.0, 1.0)

    def test_big_event_keeps_under_a_megabyte(self):
        # The table is derived from the ranks, so a 1000-finisher event keeps
        # its placements and each competitor's events, not 499,500 cells.
        big = big_event()
        tracemalloc.start()
        try:
            standings = build_standings([big])
            kept, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(standings.pairwise) == 499_500
        assert kept < 1_000_000


class TestPairwiseIsTheEagerTable:
    """Values and key order match the eagerly built dict, float for float."""

    @pytest.mark.parametrize("ties", list(TiesPolicy))
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_season(self, ties, seed):
        events = random_season(random.Random(seed), ties)
        pairwise = build_standings(events, ties).pairwise
        want = list(eager_pairwise(events).items())
        # Pools this small make many pairs meet in several events.
        assert sum(1 for _, (u, v) in want if u + v > 1) > len(want) // 2
        assert hex_items(pairwise.items()) == hex_items(want)
        assert list(pairwise) == list(pairwise.keys()) == [key for key, _ in want]
        assert hex_items(zip(pairwise, pairwise.values())) == hex_items(want)
        assert hex_items((key, pairwise[key]) for key, _ in want) == hex_items(want)

    def test_big_event(self):
        big = big_event()
        got = hex_items(build_standings([big]).pairwise.items())
        want = hex_items(eager_pairwise([big]).items())
        assert len(got) == 499_500
        digest = [hashlib.sha256(repr(items).encode()).hexdigest() for items in (got, want)]
        assert digest[0] == digest[1]


class TestPairwiseMapping:
    def standings(self):
        return build_standings([
            event("e1", ("a", 1), ("b", 2), ("c", 3)),
            event("e2", ("b", 1), ("a", 2)),
            event("e3", ("x", 1), ("y", 2)),
        ])

    def test_is_a_read_only_mapping(self):
        pairwise = self.standings().pairwise
        assert isinstance(pairwise, Mapping)
        assert not isinstance(pairwise, dict)
        with pytest.raises(TypeError):
            pairwise[("a", "b")] = (0.0, 0.0)
        with pytest.raises(TypeError):
            del pairwise[("a", "b")]
        assert pairwise[("a", "b")] == (1.0, 1.0)

    @pytest.mark.parametrize(
        "key",
        [
            ("b", "a"), ("a", "a"), ("a", "x"), ("a", "ghost"), ("ghost", "a"),
            "ab", ("a",), ("a", "b", "c"), 7,
        ],
        ids=[
            "reversed", "self", "never-met", "missing-v", "missing-u",
            "string", "short", "long", "int",
        ],
    )
    def test_missing_and_reversed_keys(self, key):
        pairwise = self.standings().pairwise
        with pytest.raises(KeyError):
            pairwise[key]
        assert key not in pairwise
        assert pairwise.get(key) is None
        assert pairwise.get(key, "default") == "default"

    def test_in_and_get(self):
        pairwise = self.standings().pairwise
        assert ("a", "c") in pairwise
        assert pairwise.get(("a", "c")) == (1.0, 0.0)
        assert pairwise.get(("x", "y"), "default") == (1.0, 0.0)
        assert (("a", "b"), (1.0, 1.0)) in pairwise.items()
        assert (("a", "b"), (1.0, 0.0)) not in pairwise.items()
        assert ("x", "y") in pairwise.keys()
        assert (1.0, 1.0) in pairwise.values()

    @pytest.mark.parametrize("ties", list(TiesPolicy))
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_len_counts_the_keys(self, ties, seed):
        pairwise = build_standings(random_season(random.Random(seed), ties), ties).pairwise
        keys = list(pairwise)
        assert len(pairwise) == len(keys) == len(set(keys))
        assert len(pairwise.items()) == len(pairwise.values()) == len(keys)
        assert len(self.standings().pairwise) == 4
        assert len(build_standings([]).pairwise) == 0

    def test_pickle_round_trip(self):
        events = random_season(random.Random(3), TiesPolicy.HALF)
        standings = build_standings(events, TiesPolicy.HALF)
        copy = pickle.loads(pickle.dumps(standings))
        assert copy == standings
        assert type(copy.pairwise) is type(standings.pairwise)
        assert hex_items(copy.pairwise.items()) == hex_items(standings.pairwise.items())

    def test_equals_an_explicit_dict_both_ways(self):
        events = random_season(random.Random(4), TiesPolicy.HALF)
        built = build_standings(events, TiesPolicy.HALF)
        explicit = Standings(
            dict(built.wins), dict(built.losses), eager_pairwise(events), TiesPolicy.HALF
        )
        assert isinstance(explicit.pairwise, dict)
        assert built == explicit and explicit == built
        assert built.pairwise == explicit.pairwise and explicit.pairwise == built.pairwise
        key = next(iter(explicit.pairwise))
        u, v = explicit.pairwise[key]
        explicit.pairwise[key] = (v, u + 1.0)
        assert built != explicit and explicit != built
        del explicit.pairwise[key]
        assert built != explicit and explicit != built
        assert built.pairwise != list(built.pairwise.items())

    def test_repr_is_the_dict_repr(self):
        standings = self.standings()
        assert repr(standings) == (
            "Standings(wins={'a': 2.0, 'b': 2.0, 'c': 0.0, 'x': 1.0, 'y': 0.0}, "
            "losses={'a': 1.0, 'b': 1.0, 'c': 2.0, 'x': 0.0, 'y': 1.0}, "
            "pairwise={('a', 'b'): (1.0, 1.0), ('a', 'c'): (1.0, 0.0), ('b', 'c'): (1.0, 0.0), "
            "('x', 'y'): (1.0, 0.0)}, ties_policy=<TiesPolicy.REJECT: 'reject'>)"
        )
        events = random_season(random.Random(5), TiesPolicy.HALF)
        built = build_standings(events, TiesPolicy.HALF)
        explicit = Standings(built.wins, built.losses, eager_pairwise(events), TiesPolicy.HALF)
        assert repr(built) == repr(explicit)
        assert repr(build_standings([]).pairwise) == "{}"
