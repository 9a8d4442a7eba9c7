"""Reference canonicalisers: the pruning loops that `mosipcert.cones` replaced
by one greedy loop over one Farkas redundancy LP.

Each one asks its redundancy question through `cones.decompose` instead:
a point is dropped when it is a convex combination of the other points, a
generator or normal when it is a conic combination of the others.  For
normals this is the Farkas dual of the implication test the library runs, so
the two formulations check each other.  `reference_dd_convert` runs the
replaced double description, +-axis slices pruned with LPs, and reads the
canonical form of a cone with lineality off the generators it finds.
`greedy_vertices` runs the greedy loop that Clarkson's algorithm replaced in
`Polytope`.
"""

from __future__ import annotations

from mosipcert.cones import _irredundant, _row_reduce, _unit, decompose, primitive
from mosipcert.rationals import ONE, qdot, vec_q


def _prune(kept: list, redundant) -> list:
    i = 0
    while i < len(kept):
        if redundant(kept[i], kept[:i] + kept[i + 1 :]):
            del kept[i]
        else:
            i += 1
    return kept


def _in_hull(p, others) -> bool:
    return isinstance(decompose(p, [others]), list)


def _in_cone(g, others) -> bool:
    return isinstance(decompose(g, (), [others]), list)


def reference_vertices(vertices) -> tuple:
    """Polytope(dim, vertices).vertices."""
    return tuple(_prune(sorted(set(vec_q(v) for v in vertices)), _in_hull))


def greedy_vertices(vertices) -> tuple:
    """Polytope(dim, vertices).vertices by the greedy loop `Polytope` ran
    before Clarkson's algorithm: the lifted points (p, 1), sorted, each
    dropped when it lies in the cone of the others still kept."""
    points = sorted(set(vec_q(v) for v in vertices))
    return tuple(p[:-1] for p in _irredundant([p + (ONE,) for p in points]))


def reference_rays(vectors) -> tuple:
    """FGCone(dim, vectors).generators, and HCone(dim, vectors).normals."""
    rays = {primitive(vec_q(v)) for v in vectors if any(c != 0 for c in vec_q(v))}
    return tuple(_prune(sorted(rays), _in_cone))


def _sliced_generators(dim: int, normals) -> list:
    """Generators of the cone: the canonical normals cut the +-axis
    generators of all space one halfspace at a time."""
    gens = [_unit(dim, j) for j in range(dim)] + [_unit(dim, j, -ONE) for j in range(dim)]
    for a in reference_rays(normals):
        vals = [qdot(a, g) for g in gens]
        keep = [g for g, v in zip(gens, vals) if v <= 0]
        new = []
        for gp, vp in zip(gens, vals):
            if vp <= 0:
                continue
            for gn, vn in zip(gens, vals):
                if vn < 0:
                    w = tuple(vp * cn - vn * cp for cp, cn in zip(gp, gn))
                    if any(c != 0 for c in w):
                        new.append(primitive(w))
        gens = _prune(sorted(set(keep) | set(new)), _in_cone)
    return gens


def reference_dd_convert(dim: int, normals) -> tuple:
    """dd_convert(HCone(dim, normals)).generators, read off the sliced
    generators G with LPs.  The lineality space L is spanned by the g with
    -g in cone(G); its basis in reduced row echelon form gives the +-
    primitive pairs, and the orthogonal projections of G onto L^perp,
    pruned, give the extreme rays of the pointed part."""
    gens = _sliced_generators(dim, normals)
    basis = [list(g) for g in gens if _in_cone(tuple(-c for c in g), gens)]
    basis = [primitive(b) for b in basis[: len(_row_reduce(basis, dim))]]
    lines = basis + [tuple(-c for c in b) for b in basis]
    ortho = []  # Gram-Schmidt: an orthogonal basis of L
    for b in basis:
        ortho.append(_minus_projection(b, ortho))
    pointed = reference_rays(_minus_projection(g, ortho) for g in gens)
    return tuple(sorted(set(lines) | set(pointed)))


def _minus_projection(g, ortho) -> tuple:
    """g less its orthogonal projection onto the span of the mutually
    orthogonal vectors `ortho`."""
    for w in ortho:
        f = qdot(g, w) / qdot(w, w)
        g = tuple(x - f * y for x, y in zip(g, w))
    return g
