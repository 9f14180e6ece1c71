"""Grid-family payloads and sample points for the GridFamily tests.

A payload has the JSON shape ``GridFamily.from_dict`` and ``verify --family
grid:PATH`` read: ``{"n": {"grids": [axis, ...], "values": [...]}, ...}`` with
the values flat in C order.
"""

import itertools
import math
from array import array

from multijames import Contest, UndefinedContestError, p_n


def canonical_payload(resolution, n_max):
    """The canonical family at every node of uniform [0, 1] grids, n = 1..n_max.

    Undefined nodes hold 0, the convention ``GridFamily.tabulate_canonical``
    follows too.
    """
    axis = [i / (resolution - 1) for i in range(resolution)]
    payload = {}
    for n in range(1, n_max + 1):
        values = []
        for a, *bs in itertools.product(axis, repeat=n + 1):
            try:
                values.append(p_n(Contest(a, bs)))
            except UndefinedContestError:
                values.append(0.0)
        payload[str(n)] = {"grids": [list(axis) for _ in range(n + 1)], "values": values}
    return payload


def sample_points(rng, axes, count):
    """In-range, out-of-range (clamped) and exact-node coordinates, mixed."""
    points = []
    for _ in range(count):
        point = []
        for axis in axes:
            lo, hi = sorted((axis[0], axis[-1]))  # an axis may be given descending
            kind = rng.randrange(3)
            if kind == 0:
                point.append(rng.uniform(lo, hi))
            elif kind == 1:
                beyond = rng.uniform(0, hi - lo)
                point.append(rng.choice([lo - beyond, hi + beyond]))
            else:
                point.append(rng.choice(axis))
        points.append(point)
    return points


def reference_tables(resolution, n_max):
    """``GridFamily.tabulate_canonical``'s tables as the multi-pass numpy build made them.

    Maps n to ``(axes, offsets, values bytes)``, the fields ``GridFamily``
    keeps per table: the whole grid formed as numpy temporaries, the special
    nodes patched by masks, then copied into a flat ``array("d")``.
    """
    import numpy as np

    axis = np.linspace(0.0, 1.0, resolution)
    tables = {}
    for n in range(1, n_max + 1):
        coords = np.meshgrid(*([axis] * (n + 1)), indexing="ij", sparse=True)
        a, bs = coords[0], coords[1:]
        with np.errstate(divide="ignore", invalid="ignore"):
            ratio_sum = sum(b * (1.0 - a) / (a * (1.0 - b)) for b in bs)
            values = 1.0 / (1.0 + ratio_sum)
        values = np.where(a == 0.0, 0.0, values)
        ones = (a == 1.0).astype(int) + sum((b == 1.0).astype(int) for b in bs)
        values = np.where((a == 1.0) & (ones == 1), 1.0, values)
        values = np.where((ones >= 1) & (a < 1.0), 0.0, values)
        values = np.where(ones >= 2, 0.0, values)
        np.nan_to_num(values, copy=False, nan=0.0)
        shape = [resolution] * (n + 1)
        strides = [math.prod(shape[k + 1:]) for k in range(n + 1)]
        offsets = [0]
        for s in strides:
            offsets = [o + step for o in offsets for step in (0, s)]
        axes = tuple((tuple(axis.tolist()), stride, resolution - 1) for stride in strides)
        flat = array("d")
        flat.frombytes(memoryview(np.ascontiguousarray(values)).cast("B"))
        tables[n] = (axes, tuple(offsets), flat.tobytes())
    return tables
