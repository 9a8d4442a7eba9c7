"""Reference WADQ and EADQ, decided from their definitions.

Both read the generators of K = F0(x) n G0(x), one double description of the
objective subgradients and the G-polar's normals.  `quals` decides both
without them, by one containment of K in the tangent cone C of S (Farkas),
and for WADQ one min-max LP (Motzkin); this is what those reductions are
checked against.

EADQ: the sublevel polyhedra Q^i(x) = {y in S : f_l(y) <= f_l(x) for all
l != i} are built row by row, and every generator of K is tested against the
tangent cone of each at x.

WADQ: the strict set {d in G0(x) : v'd < 0 for every v in F} must lie in the
tangent cone of S at x.
"""

from __future__ import annotations

from helpers_cones import tangent_cone
from mosipcert.cones import HPoly, dd_convert
from mosipcert.errors import ModelError, UnsupportedOperationError
from mosipcert.funcs import affine_pieces, evaluate
from mosipcert.quals import FAILS, HOLDS, UNDECIDABLE
from mosipcert.rationals import ONE, lincomb, qdot, vec_q


def sublevel_Q(p, x, i: int) -> HPoly:
    """Q^i(x) as an H-polyhedron (domain-free piecewise-linear objectives
    only); Q^1 = S when p = 1."""
    if p.feasible_set is None:
        raise ModelError("sublevel sets need an H-representation of S; supply feasible_set")
    x = vec_q(x)
    if p.num_objectives == 1:
        return p.feasible_set
    rows = list(p.feasible_set.rows)
    for l, f in enumerate(p.objectives):
        if l == i:
            continue
        pieces = affine_pieces(f)
        if f.domain is not None or pieces is None:
            raise UnsupportedOperationError("no polyhedral sublevel rows for this objective")
        level = evaluate(f, x)
        rows.extend((tuple(a), level - b) for a, b in pieces)
    return HPoly(p.dimension, rows)


def polar_intersection_generators(p, cp) -> tuple:
    """The generators of K = F0(x) n G0(x): one double description of the
    objective subgradients together with the G-polar's normals."""
    return dd_convert(p.dimension, list(cp.F) + list(cp.g_polar()[0].normals)).generators


def reference_eadq(p, cp) -> tuple:
    """(status, witness) of EADQ at the candidate point: each generator of
    F0 n G0, in order, against the contingent cone of each Q^i(x)."""
    if cp.G_is_empty:
        return FAILS, {"kind": "empty_active_union"}
    if p.feasible_set is None:
        return UNDECIDABLE, None
    try:
        tangents = [tangent_cone(sublevel_Q(p, cp.x, i), cp.x) for i in range(p.num_objectives)]
    except UnsupportedOperationError:
        return UNDECIDABLE, None
    generators = polar_intersection_generators(p, cp)
    for g in generators:
        for i, tangent in enumerate(tangents):
            if not tangent.member(g):
                return FAILS, {"kind": "escaping_generator", "generator": g, "objective": i}
    return HOLDS, {"kind": "generator_memberships", "generators": generators}


def reference_wadq(p, cp) -> tuple:
    """(status, witness) of WADQ at the candidate point, from its set.

    Every generator g of K has v'g <= 0 on F, so the strict set is empty
    exactly when the sum of the generators is not strict.  Otherwise the
    closure of the strict set is K, and the tangent cone is closed, so the
    strict set lies in it exactly when every generator of K does, those
    with max v'g = 0 included."""
    if cp.G_is_empty:
        return FAILS, {"kind": "empty_active_union"}
    if p.feasible_set is None:
        return UNDECIDABLE, None
    generators = polar_intersection_generators(p, cp)
    total = lincomb([ONE] * len(generators), generators, p.dimension)
    if max(qdot(v, total) for v in cp.F) >= 0:
        return HOLDS, {"kind": "empty_strict_set"}
    tangent = tangent_cone(p.feasible_set, cp.x)
    for g in generators:
        if not tangent.member(g):
            return FAILS, {"kind": "escaping_generator", "generator": g}
    return HOLDS, {"kind": "generator_memberships", "generators": generators}
