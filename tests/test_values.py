"""Value semantics of the nine value classes: repr, equality, hashing, pickling, freezing.

These are the semantics the classes had as dataclasses, and the expected
strings were written against that implementation.
"""

import dataclasses
import pickle

import pytest

from multijames import Contest
from multijames.ingest import EventRecord, Standings, TiesPolicy
from multijames.simulate import SimConfig, SimResult
from multijames.tree import CompetitionGraph, PairwiseEdge
from multijames.verify import CheckReport, SampleSpec

EDGE = PairwiseEdge(u="A", v="B", p_u_beats_v=0.6)

# name -> (make, expected repr, hashable, fields); make builds a fresh
# instance by keyword, and fields lists every field in repr order.
CASES = {
    "Contest": (
        lambda: Contest(protagonist=0.5, opponents=[0.25, 0.75]),
        "Contest(protagonist=0.5, opponents=(0.25, 0.75))",
        True,
        ("protagonist", "opponents"),
    ),
    "PairwiseEdge": (
        lambda: PairwiseEdge(u="A", v="B", p_u_beats_v=0.6),
        "PairwiseEdge(u='A', v='B', p_u_beats_v=0.6)",
        True,
        ("u", "v", "p_u_beats_v"),
    ),
    "CompetitionGraph": (
        lambda: CompetitionGraph(root="A", edges=[]),
        "CompetitionGraph(root='A', edges=(), vertices=frozenset({'A'}))",
        True,
        ("root", "edges", "vertices"),
    ),
    "EventRecord": (
        lambda: EventRecord(event_id="e1", placements=[("a", 1.0), ("b", 2)]),
        "EventRecord(event_id='e1', placements=(('a', 1), ('b', 2)))",
        True,
        ("event_id", "placements"),
    ),
    "Standings": (
        lambda: Standings(
            wins={"a": 1.0}, losses={"b": 1.0}, pairwise={("a", "b"): (1.0, 0.0)},
            ties_policy=TiesPolicy.HALF,
        ),
        "Standings(wins={'a': 1.0}, losses={'b': 1.0}, pairwise={('a', 'b'): (1.0, 0.0)}, "
        "ties_policy=<TiesPolicy.HALF: 'half'>)",
        False,
        ("wins", "losses", "pairwise", "ties_policy"),
    ),
    "SimConfig": (
        lambda: SimConfig(trials=100, max_rounds_per_trial=10, seed=3),
        "SimConfig(trials=100, max_rounds_per_trial=10, seed=3)",
        True,
        ("trials", "max_rounds_per_trial", "seed"),
    ),
    "SimResult": (
        lambda: SimResult(
            win_probability_estimate=0.5, standard_error=0.1, trials_completed=90,
            trials_abandoned=10, per_competitor_wins={0: 45, 1: 45},
        ),
        "SimResult(win_probability_estimate=0.5, standard_error=0.1, trials_completed=90, "
        "trials_abandoned=10, per_competitor_wins={0: 45, 1: 45})",
        False,  # the wins dict makes the hash raise, though the class is frozen
        ("win_probability_estimate", "standard_error", "trials_completed", "trials_abandoned",
         "per_competitor_wins"),
    ),
    "SampleSpec": (
        lambda: SampleSpec(n_values=(1, 2), points=5, seed=1, tolerance=1e-9),
        "SampleSpec(n_values=(1, 2), points=5, seed=1, tolerance=1e-09)",
        True,
        ("n_values", "points", "seed", "tolerance"),
    ),
    "CheckReport": (
        lambda: CheckReport(
            name="sum-formula", samples=10, max_violation=0.0, worst_input=None, tolerance=1e-9
        ),
        "CheckReport(name='sum-formula', samples=10, max_violation=0.0, worst_input=None, "
        "tolerance=1e-09)",
        True,
        ("name", "samples", "max_violation", "worst_input", "tolerance"),
    ),
}

FROZEN = [name for name in CASES if name != "Standings"]


@pytest.mark.parametrize("name", CASES)
class TestValueSemantics:
    def test_repr(self, name):
        make, expected, _, _ = CASES[name]
        x = make()
        assert repr(x) == expected
        assert type(x).__name__ == name

    def test_equal_instances(self, name):
        make, _, hashable, _ = CASES[name]
        x, y = make(), make()
        assert x is not y
        assert x == y and not x != y
        if hashable:
            assert hash(x) == hash(y)
        else:
            with pytest.raises(TypeError, match="unhashable"):
                hash(x)

    def test_other_class_and_tuple_are_unequal(self, name):
        make, _, _, fields = CASES[name]
        x = make()
        other = CompetitionGraph("A", ()) if name == "PairwiseEdge" else EDGE
        as_tuple = tuple(getattr(x, field) for field in fields)
        for y in (other, as_tuple):
            assert x != y and not x == y
            assert x.__eq__(y) is NotImplemented

    def test_pickle_round_trip(self, name):
        make, expected, _, _ = CASES[name]
        x = make()
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
            loaded = pickle.loads(pickle.dumps(x, protocol))
            assert type(loaded) is type(x)
            assert loaded == x and repr(loaded) == expected

    def test_keyword_construction_matches_positional(self, name):
        make, _, _, fields = CASES[name]
        x = make()
        # A graph's vertices are derived, not passed.
        args = [getattr(x, field) for field in fields if field != "vertices"]
        assert type(x)(*args) == x


@pytest.mark.parametrize("name", FROZEN)
class TestFrozen:
    def test_assignment_raises(self, name):
        make, expected, _, fields = CASES[name]
        x = make()
        for field in (*fields, "other"):
            with pytest.raises(dataclasses.FrozenInstanceError, match="cannot assign to field"):
                setattr(x, field, 0)
        assert repr(x) == expected

    def test_deletion_raises(self, name):
        make, expected, _, fields = CASES[name]
        x = make()
        for field in fields:
            with pytest.raises(dataclasses.FrozenInstanceError, match="cannot delete field"):
                delattr(x, field)
        assert repr(x) == expected


class TestStandingsIsMutable:
    def test_fields_can_be_assigned_and_deleted(self):
        make = CASES["Standings"][0]
        s = make()
        s.ties_policy = TiesPolicy.REJECT
        s.wins["c"] = 2.0
        assert s != make()
        assert repr(s).endswith("ties_policy=<TiesPolicy.REJECT: 'reject'>)")
        del s.pairwise
        with pytest.raises(AttributeError):
            s.pairwise

    def test_unhashable(self):
        assert Standings.__hash__ is None
        with pytest.raises(TypeError, match="unhashable"):
            hash(Standings())

    def test_defaults_are_fresh_dicts(self):
        first, second = Standings(), Standings()
        assert first == second
        assert repr(first) == (
            "Standings(wins={}, losses={}, pairwise={}, ties_policy=<TiesPolicy.REJECT: 'reject'>)"
        )
        first.wins["a"] = 1.0
        assert second.wins == {}
