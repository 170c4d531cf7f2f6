"""Helpers shared by several test modules (imported as ``conftest``)."""

import copy
from unittest import mock

from realwonder import engine
from realwonder.arrangement import RetiredRow
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


def reference_step(arr):
    """blow_up_step(arr) with every stratum id passed to _elementary as
    later, so that no piece is retired at birth: the step whose rows a
    bare chain's at-birth RetiredRow stands for."""
    elementary = engine._elementary

    def keeping(a, cid, later):
        return elementary(a, cid, set(a.strata))

    with mock.patch.object(engine, "_elementary", keeping):
        return engine.blow_up_step(arr)


def check_born_retired(out, trace, reference):
    """The rows out, the result of a step, retired at birth against
    reference, the arrangement the same step makes when it retires
    nothing: each is the row of a piece the step made, and its
    reference row names no stratum of a later event, so every later
    center is Disjoint from that piece; every live row of out is its
    reference row without the dead pieces, in the same order.  Returns
    the dead pieces."""
    later = {sid for ev in out.events for sid in ev}
    dead = {nid for nid in trace.new_strata if isinstance(out.table[nid], RetiredRow)}
    for sid, row in out.table.items():
        if sid in dead:
            assert later.isdisjoint(reference.table[sid])
        elif not isinstance(row, RetiredRow):
            kept = [(b, v) for b, v in reference.table[sid].items() if b not in dead]
            assert list(row.items()) == kept
    return dead


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
