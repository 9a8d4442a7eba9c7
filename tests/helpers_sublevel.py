"""Reference EADQ, decided from its definition.

The sublevel polyhedra Q^i(x) = {y in S : f_l(y) <= f_l(x) for all l != i}
are built row by row, and every generator of F0(x) n G0(x) is tested against
the tangent cone of each at x.  `quals` decides EADQ by one containment in
the tangent cone C of S instead; this is what that reduction is checked
against.
"""

from __future__ import annotations

from helpers_cones import tangent_cone
from mosipcert.cones import HPoly
from mosipcert.errors import ModelError, UnsupportedOperationError
from mosipcert.funcs import affine_pieces, evaluate
from mosipcert.quals import FAILS, HOLDS, UNDECIDABLE
from mosipcert.rationals import vec_q


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
    generators = cp.fg_polar().generators
    for g in generators:
        for i, tangent in enumerate(tangents):
            if not tangent.member(g):
                return FAILS, {"kind": "escaping_generator", "generator": g, "objective": i}
    return HOLDS, {"kind": "generator_memberships", "generators": generators}
