"""Core model: winning percentages, log5 strengths, and the n-opponent win probability.

The central quantity is the probability that a protagonist with winning
percentage ``a`` simultaneously defeats ``n`` opponents with percentages
``b_1..b_n``.  Everything here is a pure function of its inputs.
"""

from __future__ import annotations

import math
from enum import Enum
from typing import Iterable

__all__ = [
    "Contest",
    "ContestClass",
    "UndefinedContestError",
    "classify_contest",
    "james_p",
    "level_transform",
    "p_n",
    "strength",
]


_TINY = 2.0**-1022  # the smallest normal float
_setattr = object.__setattr__  # bound once: looking it up on every field store is slow


def _p_from_odds(s: float, e: int) -> float:
    """1/(1 + odds) for odds s * 2**e, with s finite and >= 0; 1.0 for s = 0."""
    try:
        return 1.0 / (1.0 + math.ldexp(s, e))
    except OverflowError:  # ldexp raises rather than round to inf; 1 + odds rounds to the odds
        m, k = math.frexp(s)
        return math.ldexp(1.0 / m, -e - k)


class UndefinedContestError(ValueError):
    """The requested probability has no defined value.

    This happens when every winning percentage is 0, or when at least two
    of them are 1.
    """


class GraphError(ValueError):
    """Base class for competition-graph validation failures; ``tree`` exports it."""


def _check_pct(value: float, name: str = "winning percentage") -> float:
    v = float(value)
    if not 0.0 <= v <= 1.0:  # nan fails both comparisons
        raise ValueError(f"{name} must lie in [0, 1], got {value!r}")
    # + 0.0 turns -0.0 into 0.0, so no evaluator returns a probability of -0.0.
    return v + 0.0


def _check_pcts(values: Iterable[float]) -> tuple[float, ...]:
    """``_check_pct`` over opponents, with one inline test per value.

    A field of exact floats in (0, 1] comes back as the caller's tuple, uncopied.
    The first other value (a zero, which may be -0.0, a NaN, or another type)
    sends the field to the per-value loop, which keeps its messages and order.
    """
    raw = tuple(values)
    for v in raw:
        if not (type(v) is float and 0.0 < v <= 1.0):  # nan fails the comparison
            return tuple(_check_pct(v, "opponent") for v in raw)
    return raw


class ContestClass(Enum):
    UNDEFINED = "undefined"
    FORCED_WIN = "forced_win"
    FORCED_LOSS = "forced_loss"
    REGULAR = "regular"


class _Value:
    """Equality, hashing, ``repr`` and pickling by the fields that ``_fields`` names.

    ``__init__`` stores the fields with ``_init``.  Any later assignment or deletion
    raises ``dataclasses.FrozenInstanceError``, imported on that error path alone.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def _init(self, *values) -> None:
        for name, value in zip(self._fields, values):
            _setattr(self, name, value)

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        return type(self), self._values()

    def __setattr__(self, name, value):
        from dataclasses import FrozenInstanceError
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        from dataclasses import FrozenInstanceError
        raise FrozenInstanceError(f"cannot delete field {name!r}")


class Contest(_Value):
    """One protagonist percentage plus an ordered list of opponent percentages.

    Validated once, on entry: every value is stored as a float in [0, 1],
    with -0.0 as 0.0.
    """

    __slots__ = _fields = ("protagonist", "opponents")

    def __init__(self, protagonist: float, opponents: Iterable[float]) -> None:
        fast = type(protagonist) is float and 0.0 <= protagonist <= 1.0
        a = protagonist + 0.0 if fast else _check_pct(protagonist, "protagonist")
        opps = _check_pcts(opponents)
        if not opps:
            raise ValueError("a contest needs at least one opponent")
        _setattr(self, "protagonist", a)
        _setattr(self, "opponents", opps)

    @property
    def n(self) -> int:
        return len(self.opponents)


def strength(s: float) -> float:
    """The log5 odds value q(s) = s/(1-s); positive infinity at s = 1."""
    s = _check_pct(s)
    if s == 1.0:
        return math.inf
    return s / (1.0 - s)


def classify_contest(c: Contest) -> ContestClass:
    ones = (c.protagonist == 1.0) + c.opponents.count(1.0)
    if ones >= 2:
        return ContestClass.UNDEFINED
    if c.protagonist == 0.0 and not any(c.opponents):
        return ContestClass.UNDEFINED
    if c.protagonist == 1.0:
        return ContestClass.FORCED_WIN
    if ones == 1:
        return ContestClass.FORCED_LOSS
    return ContestClass.REGULAR


def james_p(a: float, b: float) -> float:
    """Probability that a team with percentage ``a`` beats one with ``b``.

    This is the log5 formula a(1-b) / (a(1-b) + b(1-a)), undefined when
    a = b = 0 or a = b = 1.
    """
    a = a + 0.0 if type(a) is float and 0.0 <= a <= 1.0 else _check_pct(a, "a")
    b = b + 0.0 if type(b) is float and 0.0 <= b <= 1.0 else _check_pct(b, "b")
    if a == b and (a == 0.0 or a == 1.0):
        raise UndefinedContestError(f"probability undefined for a = b = {a}")
    return _james(a, b)


def _james(a: float, b: float) -> float:
    """james_p for checked a and b that are not both 0 or both 1."""
    num = a * (1.0 - b)
    if num < _TINY and a > 0.0 and b < 1.0:
        # a(1 - b) rounded on the subnormal grid, or to 0; this form rounds
        # only its result there.
        return a / (a + (1.0 - a) * (b / (1.0 - b)))
    return num / (num + b * (1.0 - a))


def _interior_strengths(values: tuple[float, ...]) -> list[float] | None:
    """q(b) = b/(1 - b) for each of checked values, or None where one of them is 0 or 1.

    A value at 1 shows up as a division by zero, and one at 0 as a zero product;
    a zero product may also be an underflow, so only then does the exact check run.
    """
    try:
        strengths = [b / (1.0 - b) for b in values]
    except ZeroDivisionError:
        return None
    if not math.prod(values) and 0.0 in values:
        return None
    return strengths


def p_n(c: Contest) -> float:
    """Probability that the protagonist beats every opponent at once.

    Evaluated as a / (a + (1 - a) * sum of opponent strengths), which never
    forms the protagonist's strength, so it does not overflow as a approaches 1.
    That one expression also gives 1.0 for a = 1 or an all-zero field and 0.0
    for a = 0.  Within 2e-15 relative, or one subnormal step below 2**-1022.
    The Contest has checked every value, so a field inside (0, 1) costs the
    strength pass, one C-level product (nonzero: no opponent is 0) and one fsum;
    only an opponent at 0 or 1 goes to classify_contest.
    """
    a, live = c.protagonist, c.opponents
    strengths = _interior_strengths(live)
    if strengths is None:
        cls = classify_contest(c)
        if cls is ContestClass.UNDEFINED:
            raise UndefinedContestError(
                "all percentages are 0 or at least two are 1; probability undefined"
            )
        if cls is ContestClass.FORCED_LOSS:
            return 0.0  # some b_i = 1, whose strength would divide by zero
        # Zero opponents add nothing to the sum; they are dropped only so that a
        # contest with one nonzero opponent reduces to james_p bit for bit.
        live = [b for b in live if b != 0.0]
        strengths = [b / (1.0 - b) for b in live]
    if len(live) == 1:
        return _james(a, live[0])
    # Each q(b_i) is bounded so long as b_i < 1, and fsum gives a correctly rounded
    # total, zeros or not, so the result is permutation invariant.  Nothing divides
    # by a, so a subnormal protagonist needs no special case.
    return a / (a + (1.0 - a) * math.fsum(strengths))


def _checked_contest(protagonist: float, opponents: tuple[float, ...]) -> Contest:
    """A Contest of floats in [0, 1] that the caller has checked already; none is checked again."""
    c = object.__new__(Contest)
    _setattr(c, "protagonist", protagonist)
    _setattr(c, "opponents", opponents)
    return c


def level_transform(s: float, t: float) -> float:
    """Rescale a percentage so its strength is multiplied by a finite t > 0.

    Within 5e-16 relative, plus 2**-1075 absolute: t*s and 1 - s add, never cancel.
    """
    s = _check_pct(s)
    t = float(t)
    if not 0.0 < t < math.inf:
        raise ValueError(f"scale factor must be positive and finite, got {t!r}")
    k = 1.0 if t * s >= _TINY else 2.0**600  # exact scaling, where t*s is not normal
    return t * (s * k) / ((1.0 - s) * k + t * (s * k))
