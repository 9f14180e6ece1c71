"""Grid-family payloads and sample points for the GridFamily tests.

A payload has the JSON shape ``GridFamily.from_dict`` and ``verify --family
grid:PATH`` read: ``{"n": {"grids": [axis, ...], "values": [...]}, ...}`` with
the values flat in C order.
"""

import itertools

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
