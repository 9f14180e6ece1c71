"""Empirical verifier for candidate multi-opponent win-probability families.

A candidate family is any evaluator J_n(a; b_1..b_n) -> [0, 1].  The checks
here probe the six structural conditions (fixed point against a balanced
uniform field, zero-opponent reduction, normalization, the complement
identity, monotonicity, permutation invariance), the five formula-based
uniqueness properties (sum, substitution, reduction, independence from
irrelevant alternatives, odds-ratio independence), and direct agreement
with the canonical family.
"""

from __future__ import annotations

import math
import operator
import random
from array import array
from bisect import bisect_right
from typing import Callable, Mapping, Sequence

from .core import Contest, UndefinedContestError, _Value, _checked_contest, james_p, p_n, strength

__all__ = [
    "CandidateFamily",
    "CanonicalFamily",
    "CheckReport",
    "GridFamily",
    "SampleSpec",
    "check_conditions",
    "check_matches_canonical",
    "check_uniqueness_properties",
    "counterexample_family",
    "COUNTEREXAMPLE_NAMES",
    "MAX_OPPONENTS",
    "run_all_checks",
]


# ---------------------------------------------------------------------------
# Candidate families


class CandidateFamily:
    """Evaluator contract: call with (a, opponents), get a value in [0, 1].

    ``max_n`` bounds the opponent counts the family supports (None means
    unbounded).
    """

    name: str = "candidate"
    max_n: int | None = None

    def __call__(self, a: float, opponents: Sequence[float]) -> float:
        raise NotImplementedError


class CanonicalFamily(CandidateFamily):
    name = "canonical"

    def __call__(self, a: float, opponents: Sequence[float]) -> float:
        return p_n(Contest(a, opponents))


class NaiveProductFamily(CandidateFamily):
    """Treats the opponents as independent pairwise games: prod of P(a, b_i).

    Matches the canonical family at n = 1 but fails normalization (and the
    balanced-field fixed point) for n >= 2.
    """

    name = "naive-product"

    def __call__(self, a: float, opponents: Sequence[float]) -> float:
        return math.prod(james_p(a, b) for b in opponents)


class SquaredOddsFamily(CandidateFamily):
    """Strict-utility family with weights q(s)^2 instead of q(s).

    Satisfies normalization, permutation invariance, and every formula-based
    uniqueness property, yet fails the balanced-uniform fixed point, so it
    does not match the canonical family.
    """

    name = "squared-odds"

    def __call__(self, a: float, opponents: Sequence[float]) -> float:
        ones = (a == 1.0) + sum(b == 1.0 for b in opponents)
        if ones >= 2 or not (a or any(opponents)):
            raise UndefinedContestError(
                "all percentages are 0 or at least two are 1; probability undefined"
            )
        if a == 1.0:
            return 1.0
        # Scaled by a power of two so that the largest strength lies in [0.5, 1)
        # and the squares cannot all underflow.  v * v is correctly rounded, unlike
        # pow, so the scale changes no square in the normal range.
        q = [strength(x) for x in (a, *opponents)]
        scale = -math.frexp(max(q))[1]
        wa, *wb = [v * v for v in (math.ldexp(x, scale) for x in q)]
        return wa / (wa + math.fsum(wb))


class MismatchedBaseFamily(CandidateFamily):
    """Canonical for n >= 2 but squared-odds at n = 1.

    The n = 1 member no longer generates the higher members, so the sum,
    substitution, reduction, and IIA formulas all fail with explicit
    witnesses.
    """

    name = "mismatched-base"

    def __call__(self, a: float, opponents: Sequence[float]) -> float:
        if len(opponents) == 1:
            return SquaredOddsFamily()(a, opponents)
        return p_n(Contest(a, opponents))


_COUNTEREXAMPLES: dict[str, Callable[[], CandidateFamily]] = {
    "naive-product": NaiveProductFamily,
    "squared-odds": SquaredOddsFamily,
    "mismatched-base": MismatchedBaseFamily,
}

COUNTEREXAMPLE_NAMES = tuple(sorted(_COUNTEREXAMPLES))


def counterexample_family(name: str) -> CandidateFamily:
    try:
        return _COUNTEREXAMPLES[name]()
    except KeyError:
        raise ValueError(
            f"unknown counterexample {name!r}; available: {', '.join(COUNTEREXAMPLE_NAMES)}"
        ) from None


class GridFamily(CandidateFamily):
    """Family tabulated on rectangular grids, one grid per opponent count.

    Evaluation is multilinear interpolation with coordinates clamped to the
    grid range.  Accuracy is interpolation-limited, so checks against grid
    families should use a loosened tolerance (1e-3 by default in the CLI).

    ``tables`` maps n to ``(axes, values)``: n + 1 strictly monotonic axes,
    and the values in C order over them, as JSON lists (nested or flat, each
    value anything ``float`` takes, so "nan" loads) or as a flat
    ``array("d")``, which the family keeps as it is.  Building runs on the
    standard library; only ``tabulate_canonical`` imports numpy.

    Each table is kept flat in C order, every axis ascending.  A call sums
    value x weight over the 2^(n+1) corners of the enclosing cell, first
    axis slowest, each weight the left-to-right product of the per-axis
    factors 1 - t or t.
    """

    def __init__(self, tables: Mapping[int, tuple[Sequence[Sequence[float]], list | array]],
                 name: str = "grid"):
        self.name = name
        self._tables: dict[int, tuple[tuple, tuple[int, ...], array]] = {}
        for n, (grids, values) in tables.items():
            if len(grids) != n + 1:
                raise ValueError(f"n={n} table needs {n + 1} axes, got {len(grids)}")
            axes, descending = [], []
            for k, grid in enumerate(grids):
                axis = [float(x) for x in grid]
                if not all(map(math.isfinite, axis)):
                    raise ValueError(f"n={n} table: axis {k} has a non-finite node")
                if len(axis) < 2:
                    raise ValueError(f"n={n} table: axis {k} needs at least 2 points")
                steps = list(zip(axis, axis[1:]))
                if all(lo > hi for lo, hi in steps):
                    axis.reverse()
                    descending.append(k)
                elif not all(lo < hi for lo, hi in steps):
                    raise ValueError(f"n={n} table: axis {k} must be strictly monotonic")
                axes.append(tuple(axis))
            shape = [len(axis) for axis in axes]
            strides = [math.prod(shape[k + 1:]) for k in range(len(shape))]
            flat = values
            if not isinstance(flat, array):
                while any(isinstance(v, (list, tuple)) for v in flat):
                    if not all(isinstance(v, (list, tuple)) and len(v) == len(flat[0]) for v in flat):
                        raise ValueError(f"n={n} table: values are not rectangular")
                    flat = [x for v in flat for x in v]
                flat = array("d", map(float, flat))
            if len(flat) != math.prod(shape):
                raise ValueError(f"n={n} table: {len(flat)} values for {math.prod(shape)} nodes")
            for k in descending:  # reverse the order of axis k's slabs within each block
                slab, block = strides[k], strides[k] * shape[k]
                ascending = array("d")
                for start in range(0, len(flat), block):
                    for i in range(start + block - slab, start - 1, -slab):
                        ascending += flat[i:i + slab]
                flat = ascending
            offsets = [0]
            for s in strides:
                offsets = [o + step for o in offsets for step in (0, s)]
            self._tables[n] = (
                tuple(zip(axes, strides, [size - 1 for size in shape])), tuple(offsets), flat
            )
        self.max_n = max(self._tables) if self._tables else 0

    def __call__(self, a: float, opponents: Sequence[float]) -> float:
        n = len(opponents)
        if n not in self._tables:
            raise ValueError(f"grid family has no table for n={n}")
        axes, offsets, values = self._tables[n]
        base, weights = 0, [1.0]
        for x, (axis, stride, top) in zip((a, *opponents), axes):
            if not axis[0] <= x <= axis[-1]:
                if x != x:
                    raise ValueError("grid family got a NaN coordinate")
                x = axis[0] if x < axis[0] else axis[-1]
            i = bisect_right(axis, x, 1, top) - 1
            t = (x - axis[i]) / (axis[i + 1] - axis[i])
            base += i * stride
            weights = [w * u for w in weights for u in (1.0 - t, t)]
        total = 0.0
        for offset, w in zip(offsets, weights):
            total += values[base + offset] * w
        return min(max(total, 0.0), 1.0)

    @classmethod
    def from_dict(cls, payload: Mapping, name: str = "grid") -> "GridFamily":
        """Build from ``{"n": {"grids": [...], "values": [...]}, ...}``; ValueError otherwise."""
        if not isinstance(payload, Mapping) or not all(
            isinstance(entry, Mapping)
            and isinstance(entry.get("grids"), list)
            and isinstance(entry.get("values"), list)
            for entry in payload.values()
        ):
            raise ValueError("expected an object of tables, each with list-valued grids and values")
        tables = {int(key): (entry["grids"], entry["values"]) for key, entry in payload.items()}
        try:
            return cls(tables, name=name)
        except (TypeError, OverflowError) as exc:  # not a list or a number; an int past float
            raise ValueError(f"malformed table: {exc}") from None

    @classmethod
    def tabulate_canonical(cls, resolution: int = 101, n_max: int = 3) -> "GridFamily":
        """Tabulate the canonical family on uniform [0, 1] grids.

        Grid nodes where the probability is undefined (all-zero corner,
        multiple percentages at 1) are stored as 0; interior sampling never
        interpolates across them alone.  Each table is written in place into
        the flat array the family keeps: the odds sum, plus 1, inverted.
        """
        import numpy as np

        axis = np.linspace(0.0, 1.0, resolution)
        a, b = axis[:, None], axis[None, :]
        with np.errstate(divide="ignore", invalid="ignore"):
            odds = b * (1.0 - a) / (a * (1.0 - b))  # opponent b's term of the odds sum
        # An opponent at 1 forces a loss when a < 1; with a = 1 too, the contest
        # is undefined and stored as 0.  An infinite term gives 0 for both.
        odds[:, axis == 1.0] = np.inf
        tables = {}
        for n in range(1, n_max + 1):
            shape = (resolution,) * (n + 1)
            terms = [odds.reshape((resolution,) + (1,) * (k - 1) + (resolution,) + (1,) * (n - k))
                     for k in range(1, n + 1)]
            table = array("d", [0.0]) * resolution ** (n + 1)
            view = np.frombuffer(table).reshape(shape)
            # Python's sum is the left fold 0 + t_1 + ... + t_(n-1), over a table
            # 1/resolution the size of the full one.
            np.add(sum(terms[:-1]), terms[-1], out=view)
            view += 1.0
            np.divide(1.0, view, out=view)
            view[axis == 0.0] = 0.0  # a = 0 loses, or is undefined against a zero field
            tables[n] = ([axis.tolist()] * (n + 1), table)
        return cls(tables, name=f"grid-canonical-{resolution}")


# ---------------------------------------------------------------------------
# Check machinery

MAX_OPPONENTS = 2**12  # normalization calls the family at n + 1 competitors: O(n**2) a sample


def _integer(value, name: str, bound: float = math.inf) -> int:
    """``operator.index(value)``, or a ValueError that names the value, also past +-bound."""
    try:
        n = operator.index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {value!r}") from None
    if abs(n) > bound:  # either way: a range stops at the first such count, before filling memory
        raise ValueError(f"{name} {n} outside 1..{bound}")
    return n


class SampleSpec(_Value):
    __slots__ = _fields = ("n_values", "points", "seed", "tolerance")

    def __init__(self, n_values: tuple[int, ...] = (1, 2, 3, 4), points: int = 250,
                 seed: int = 0, tolerance: float = 1e-9) -> None:
        points = _integer(points, "samples per opponent count")
        if points < 1:
            raise ValueError(f"samples per opponent count must be at least 1, got {points}")
        n_values = tuple(_integer(n, "opponent count", MAX_OPPONENTS) for n in n_values)
        if not n_values or min(n_values) < 1:
            raise ValueError(
                f"opponent counts must be a nonempty list of n >= 1, got {list(n_values)}"
            )
        try:
            finite = 0.0 <= tolerance < math.inf
        except TypeError:  # not a number, such as None or a string
            finite = False
        if not finite:
            raise ValueError(f"tolerance must be finite and >= 0, got {tolerance!r}")
        self._init(n_values, points, seed, tolerance)


class CheckReport(_Value):
    __slots__ = _fields = ("name", "samples", "max_violation", "worst_input", "tolerance")

    def __init__(self, name: str, samples: int, max_violation: float,
                 worst_input: tuple | None, tolerance: float) -> None:
        self._init(name, samples, max_violation, worst_input, tolerance)

    @property
    def passed(self) -> bool:
        return self.max_violation <= self.tolerance

    def as_dict(self) -> dict:
        return {
            "check": self.name,
            "samples": self.samples,
            "max_violation": self.max_violation,
            "worst_input": None if self.worst_input is None else list(self.worst_input),
            "tolerance": self.tolerance,
            "passed": self.passed,
        }


class _FamilyError(Exception):
    """A family call that raised, or returned a value outside [0, 1]; args[0] names it."""


def _guarded(f: CandidateFamily) -> Callable[[float, Sequence[float]], float]:
    """``f`` with every call checked, raising _FamilyError for a fault of the family's own.

    A NaN passes: it makes a NaN violation, which ``_scan`` names.
    """

    def call(a: float, opponents: Sequence[float]) -> float:
        try:
            value = f(a, opponents)
        except Exception as exc:
            raise _FamilyError(f"evaluator failure: {exc!r}") from exc
        try:
            if 0.0 <= value <= 1.0 or value != value:
                return value
        except TypeError:  # not a number
            pass
        raise _FamilyError(f"evaluator returned {value!r}")

    return call


def _scan(name: str, spec: SampleSpec, sample_fn) -> CheckReport:
    """Drive one check over the sample grid, tracking the worst violation.

    ``sample_fn(rng, n)`` returns (violation, witness).  A family fault
    counts as an infinite violation with its cause recorded, and so does a
    violation that is not a finite number >= 0, with its value.
    """
    rng = random.Random(f"{spec.seed}:{name}")
    worst = 0.0
    worst_input: tuple | None = None
    samples = 0
    for n in spec.n_values:
        for _ in range(spec.points):
            samples += 1
            try:
                violation, witness = sample_fn(rng, n)
            except _FamilyError as exc:  # surface as a failed check, not a crash
                return CheckReport(name, samples, math.inf, exc.args, spec.tolerance)
            if not 0.0 <= violation < math.inf:  # NaN, inf or negative: no evidence
                violation, witness = math.inf, (f"violation {violation!r}", *witness)
            if violation > worst:
                worst = violation
                worst_input = witness
    return CheckReport(name, samples, worst, worst_input, spec.tolerance)


def _supported(f: CandidateFamily, spec: SampleSpec) -> tuple[Callable, SampleSpec]:
    """``f`` guarded, and ``spec`` narrowed to the opponent counts that ``f`` supports."""
    n_values = tuple(n for n in spec.n_values if f.max_n is None or n <= f.max_n)
    return _guarded(f), SampleSpec(n_values, *spec._values()[1:])


def _odds(p: float) -> float:
    """The odds-against value 1/p - 1, i.e. P(loss)/P(win); inf at p = 0."""
    return 1.0 / p - 1.0 if p else math.inf


def _div(x: float, y: float) -> float:
    """x / y, where y = 0 gives x * inf (inf, or NaN for 0 / 0) instead of raising."""
    return x / y if y else x * math.inf


_LOW, _HIGH = 0.05, 0.95  # the range of every sampled percentage


def _uniform(rng: random.Random) -> float:
    return rng.uniform(_LOW, _HIGH)


def check_conditions(f: CandidateFamily, spec: SampleSpec) -> list[CheckReport]:
    """The six structural conditions, one report each."""
    f, spec = _supported(f, spec)

    def cond_a(rng, n):
        a = _uniform(rng)
        got = f(a, [1.0 / (n + 1)] * n)
        return abs(got - a), (a, n)

    def cond_b(rng, n):
        a = _uniform(rng)
        rest = [_uniform(rng) for _ in range(n - 1)]
        with_zero = f(a, rest + [0.0])
        reduced = f(a, rest) if rest else 1.0
        return abs(with_zero - reduced), (a, *rest)

    def cond_c(rng, n):
        xs = [_uniform(rng) for _ in range(n + 1)]
        total = math.fsum(
            f(xs[i], xs[:i] + xs[i + 1:]) for i in range(n + 1)
        )
        return abs(total - 1.0), tuple(xs)

    def cond_d(rng, n):
        a = _uniform(rng)
        b = _uniform(rng)
        k = rng.randint(1, n)
        lhs = f(1.0 - b, [1.0 - b] * (k - 1) + [1.0 - a] * (n + 1 - k))
        rhs = f(a, [a] * (k - 1) + [b] * (n + 1 - k))
        return abs(lhs - rhs), (a, b, k)

    def cond_e(rng, n):
        a = _uniform(rng)
        rest = [_uniform(rng) for _ in range(n - 1)]
        b_lo = rng.uniform(_LOW, _HIGH - 2e-3)
        b_hi = rng.uniform(b_lo + 1e-3, _HIGH)
        decrease = f(a, [b_lo] + rest) - f(a, [b_hi] + rest)
        if decrease > 0.0:
            return 0.0, None
        # Non-strict behavior fails even when the two values coincide.
        return max(-decrease, 10.0 * spec.tolerance), (a, b_lo, b_hi, *rest)

    def cond_f(rng, n):
        a = _uniform(rng)
        bs = [_uniform(rng) for _ in range(n)]
        perm = rng.sample(bs, len(bs))
        return abs(f(a, perm) - f(a, bs)), (a, *bs)

    return [
        _scan("condition-A", spec, cond_a),
        _scan("condition-B", spec, cond_b),
        _scan("condition-C", spec, cond_c),
        _scan("condition-D", spec, cond_d),
        _scan("condition-E", spec, cond_e),
        _scan("condition-F", spec, cond_f),
    ]


def check_uniqueness_properties(f: CandidateFamily, spec: SampleSpec) -> list[CheckReport]:
    """The five formula-based properties, each relating J_n to the family's own J_1."""
    f, spec = _supported(f, spec)

    def j1(a, b):
        return f(a, [b])

    def sum_formula(rng, n):
        a = _uniform(rng)
        bs = [_uniform(rng) for _ in range(n)]
        try:
            rhs = 1.0 / (1.0 + math.fsum([_odds(j1(a, b)) for b in bs]))
        except OverflowError:  # fsum raises rather than round a finite total to inf
            rhs = 0.0
        return abs(f(a, bs) - rhs), (a, *bs)

    def substitution(rng, n):
        a = _uniform(rng)
        c = _uniform(rng)
        bs = [_uniform(rng) for _ in range(n)]
        rhs = 1.0 / (1.0 + _odds(j1(a, c)) * _odds(f(c, bs)))
        return abs(f(a, bs) - rhs), (a, c, *bs)

    def reduction(rng, n):
        a = _uniform(rng)
        bs = [_uniform(rng) for _ in range(n)]
        tail = f(bs[0], bs[1:]) if len(bs) > 1 else 1.0
        rhs = 1.0 / (1.0 + _div(_odds(j1(a, bs[0])), tail))
        return abs(f(a, bs) - rhs), (a, *bs)

    def iia(rng, n):
        a = _uniform(rng)
        b = _uniform(rng)
        shared = [_uniform(rng) for _ in range(n - 1)]
        # Cross-multiplied so the violation stays on the probability scale.
        lhs = f(b, [a] + shared) * j1(a, b)
        rhs = f(a, [b] + shared) * j1(b, a)
        return abs(lhs - rhs), (a, b, *shared)

    def odds_ratio_indep(rng, n):
        m = rng.choice(spec.n_values)
        bs = [_uniform(rng) for _ in range(n)]
        cs = [_uniform(rng) for _ in range(m)]
        a1 = _uniform(rng)
        a2 = _uniform(rng)

        def ratio(a):
            pm = f(a, cs)
            pn = f(a, bs)
            return _div(pm * (1.0 - pn), (1.0 - pm) * pn)

        r1, r2 = ratio(a1), ratio(a2)
        return abs(r1 - r2) / max(1.0, abs(r1), abs(r2)), (a1, a2, *bs, *cs)

    return [
        _scan("sum-formula", spec, sum_formula),
        _scan("substitution-formula", spec, substitution),
        _scan("reduction-formula", spec, reduction),
        _scan("iia", spec, iia),
        _scan("odds-ratio-independence", spec, odds_ratio_indep),
    ]


def check_matches_canonical(f: CandidateFamily, spec: SampleSpec) -> CheckReport:
    """Largest pointwise gap between the family and the canonical evaluator."""
    f, spec = _supported(f, spec)

    def gap(rng, n):
        a = _uniform(rng)
        bs = [_uniform(rng) for _ in range(n)]
        return abs(f(a, bs) - p_n(_checked_contest(a, tuple(bs)))), (a, *bs)

    return _scan("matches-canonical", spec, gap)


def run_all_checks(f: CandidateFamily, spec: SampleSpec) -> list[CheckReport]:
    """Conditions, uniqueness properties, and canonical agreement, in fixed order."""
    reports = check_conditions(f, spec)
    reports.extend(check_uniqueness_properties(f, spec))
    reports.append(check_matches_canonical(f, spec))
    return reports
