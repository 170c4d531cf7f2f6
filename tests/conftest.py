"""Helpers shared by several test modules (imported as ``conftest``)."""

import copy

from realwonder.exact import GaussianRational as gq
from realwonder.models import build_dcp
from realwonder.subspaces import ProjSubspace, rnc_points, span_points


def fixed_dcp():
    """Two real lines through a real point and a conjugate pair of
    points on a real line of P^3."""
    p0, p1, p2, z, zbar = rnc_points(3, [gq(0), gq(1), gq(2), gq(0, 1), gq(0, -1)])
    generators = [
        ("l01", span_points([p0, p1])),
        ("l02", span_points([p0, p2])),
        ("z", z),
        ("zbar", zbar),
        ("lz", span_points([z, zbar])),
    ]
    return build_dcp(3, generators)


def span_sum(u: ProjSubspace, v: ProjSubspace) -> ProjSubspace:
    """The span of two subspaces, from their basis rows."""
    return ProjSubspace.from_basis_rows(u.ambient_dim, u.basis + v.basis)


def point(coords) -> ProjSubspace:
    """The projective point of a nonzero coordinate vector."""
    coords = tuple(c if isinstance(c, gq) else gq(c) for c in coords)
    if all(c.is_zero for c in coords):
        raise ValueError("zero vector is not a projective point")
    return ProjSubspace.from_basis_rows(len(coords) - 1, [coords])


FUZZ_VALUES = [None, True, -1, 0, 3.7, 2, "12", "", "x", "1/0", [], {}, [[]], ["1"], [1, 2]]


def fuzz_mutate(rng, data):
    """data with one field, chosen among all its fields at every depth,
    dropped, retyped or emptied."""
    slots = []
    stack = [data]
    while stack:
        node = stack.pop()
        for key in list(node) if isinstance(node, dict) else range(len(node)):
            slots.append((node, key))
            if isinstance(node[key], (dict, list)):
                stack.append(node[key])
    if not slots:
        return data
    node, key = rng.choice(slots)
    child = node[key]
    action = rng.choice(["drop", "retype", "empty"])
    if action == "drop":
        del node[key]
    elif action == "empty" and isinstance(child, (dict, list, str)):
        node[key] = type(child)()
    else:
        # a copy: a later mutation must not change FUZZ_VALUES, nor
        # put a value inside itself
        node[key] = copy.deepcopy(rng.choice(FUZZ_VALUES))
    return data
