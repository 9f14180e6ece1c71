"""GridFamily's evaluator against a reference multilinear interpolator.

The package has no scipy dependency; when scipy is installed its
``RegularGridInterpolator`` serves as an independent reference.
"""

import json
import math
import random

import pytest

from multijames.verify import GridFamily

from _grids import canonical_payload, sample_points

interpolate = pytest.importorskip("scipy.interpolate")
import numpy as np  # noqa: E402

TOL = 1e-15


def reference(payload):
    """One clamped scipy interpolator per table of a ``GridFamily.from_dict`` payload."""
    out = {}
    for key, entry in payload.items():
        axes = [np.asarray(g) for g in entry["grids"]]
        values = np.asarray(entry["values"]).reshape([len(g) for g in axes])
        interp = interpolate.RegularGridInterpolator(axes, values)
        lo = np.array([g.min() for g in axes])
        hi = np.array([g.max() for g in axes])
        out[int(key)] = lambda point, interp=interp, lo=lo, hi=hi: float(
            np.clip(interp(np.clip(point, lo, hi))[0], 0.0, 1.0)
        )
    return out


def assert_matches(family, payload, rng, count):
    ref = reference(payload)
    for n in ref:
        for point in sample_points(rng, payload[str(n)]["grids"], count):
            got = family(point[0], point[1:])
            assert abs(got - ref[n](point)) <= TOL, (n, point)


def test_canonical_tables_match_reference():
    # The reference interpolates the canonical values computed node by node.
    family = GridFamily.tabulate_canonical(resolution=11, n_max=3)
    assert_matches(family, canonical_payload(11, 3), random.Random(7), 400)


def test_non_uniform_axes_from_dict_match_reference():
    rng = random.Random(11)
    payload = {}
    for n in (1, 2, 3):
        grids = [
            sorted(rng.sample(range(-50, 150), rng.randint(2, 7))) for _ in range(n + 1)
        ]
        grids = [[x / 100 for x in axis] for axis in grids]
        size = math.prod(len(axis) for axis in grids)
        payload[str(n)] = {"grids": grids, "values": [rng.random() for _ in range(size)]}
    # A descending axis is stored ascending, with its values flipped.
    payload["1"]["grids"][1].reverse()
    family = GridFamily.from_dict(payload)
    assert_matches(family, payload, rng, 400)


def test_round_trip_is_bit_exact():
    payload = canonical_payload(9, 3)
    family = GridFamily.from_dict(payload)
    loaded = GridFamily.from_dict(json.loads(json.dumps(payload)))
    rng = random.Random(3)
    for n in (1, 2, 3):
        for point in sample_points(rng, payload[str(n)]["grids"], 200):
            assert loaded(point[0], point[1:]) == family(point[0], point[1:])
