"""Reference canonicalisers: plain pruning loops, written apart from
`mosipcert.cones`.

Each one asks its redundancy question as one LP: `lp_decompose` builds the
rows of `cones.decompose` (`decompose_rows`) and solves them with
`lp.feasible_point`, with none of decompose's shortcuts, so the elimination
that settles forced answers in `cones` is checked here, not run;
`lp_margin_decompose` solves decompose's margin LP the same way.  A point is dropped when it is
a convex combination of the other points, a generator or normal when it is
a conic combination of the others.  The library asks the same of rays and
normals; of points it runs Clarkson's algorithm, which `reference_vertices`
checks.  `reference_rays` is the canonical form of a cone read off its
generators with one LP per generator: the lineality space, its basis in
reduced row echelon form, and the pointed part pruned greedily, whose
survivors are its extreme rays.  `tangent_cone` is the canonical H-cone of a
polyhedron's active rows, the fresh reference for a point's tangent cone C.
`reference_dd_convert` runs the replaced double description, +-axis slices
pruned with LPs, and reads the canonical form off the generators it finds
with `reference_rays`.  `primitive` scales a rational vector to coprime
integers.  `reference_row_reduce` is the rational
Gauss-Jordan elimination that the integer elimination of `cones` replaced;
`reference_dd_convert` reads its lineality basis with it.
`greedy_vertices` runs the greedy loop that Clarkson's algorithm replaced
in `Polytope`.  `reference_separate` is the separation LP that
`membership` ran before its first LP separated too, and `reference_min_max`
the boxed min-max LP that decided and separated 0 from conv(points) +
cone(generators) for MFCQ, PMFCQ, COCQ, WADQ, KKT and `membership` before
`cones.strict_direction` read each direction off `decompose`'s Farkas
vector; `box_rows` is the unit box both ask.  `boxed_max` is the
boxed H-cone LP that `zero_interior` and the H-cone branch of
`cones.contains` ran before positive spanning and Farkas multipliers took
its place: `reference_nontrivial_direction` and `reference_hcone_contains`
keep those two uses.  `reference_axis_steps` is the axis-step LP that
`zero_interior` ran above dimension 3 before each step became one
`cones.decompose` with margin, and `reference_radius_by_axis_points` the
radius read off those steps.  `contains_across` and `cone_equal` compare cones
across representations, which the library never needs; `contains_point` and
`cone_contains` are the polytope and cone membership tests only tests ask.
"""

from __future__ import annotations

from mosipcert import lp
from mosipcert.cones import (
    ContainsResult,
    FGCone,
    HCone,
    HPoly,
    NotMember,
    Polytope,
    ZeroInterior,
    _primitive_ints,
    _unit,
    contains,
    dd_convert,
)
from mosipcert.errors import InternalInconsistencyError
from mosipcert.rationals import (
    ONE,
    ZERO,
    Q,
    qdot,
    scaled_ints,
    sqrt_exact,
    sqrt_lower_bound,
    vec_q,
)


def primitive(v) -> tuple:
    """Scale a nonzero rational vector to coprime integers (sign preserved)."""
    return tuple(Q(c) for c in _primitive_ints(scaled_ints(v)[0]))


# The rational Gauss-Jordan elimination that `mosipcert.cones` replaced by
# its integer elimination, kept verbatim as the reference of the
# differential tests.
def reference_row_reduce(rows, ncols: int) -> list:
    """Gauss-Jordan elimination, in place, of rational rows over their first
    `ncols` columns.  Returns the pivot columns in order; the i-th row ends
    with a unit pivot in the i-th of them and zeros above and below it."""
    pivots = []
    for col in range(ncols):
        rank = len(pivots)
        if rank == len(rows):
            break
        piv = next((r for r in range(rank, len(rows)) if rows[r][col] != 0), -1)
        if piv < 0:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        inv = 1 / rows[rank][col]
        rows[rank] = [v * inv for v in rows[rank]]
        for r in range(len(rows)):
            if r != rank and rows[r][col] != 0:
                f = rows[r][col]
                rows[r] = [v - f * w for v, w in zip(rows[r], rows[rank])]
        pivots.append(col)
    return pivots


def box_rows(dim: int, extra: int = 0) -> list:
    """-1 <= d_j <= 1 for the first `dim` of `dim + extra` variables."""
    rows = []
    for j in range(dim):
        e = list(_unit(dim + extra, j))
        rows.append((e, lp.LE, ONE))
        rows.append((list(e), lp.GE, -ONE))
    return rows


def _prune(kept: list, redundant) -> list:
    i = 0
    while i < len(kept):
        if redundant(kept[i], kept[:i] + kept[i + 1 :]):
            del kept[i]
        else:
            i += 1
    return kept


def decompose_rows(target, hulls, cones=()) -> tuple:
    """(k, rows): the plain rows of `cones.decompose(target, hulls, cones)`
    over its k columns: one equality per coordinate, columns in block order
    with the hull blocks first; the simplex row over the hull columns when
    there is a hull block; x_j >= 0."""
    columns = [c for block in (*hulls, *cones) for c in block]
    k, num_hull = len(columns), sum(len(block) for block in hulls)
    rows = [([c[i] for c in columns], lp.EQ, target[i]) for i in range(len(target))]
    if hulls:
        rows.append(([ONE] * num_hull + [ZERO] * (k - num_hull), lp.EQ, ONE))
    rows.extend((_unit(k, j), lp.GE, ZERO) for j in range(k))
    return k, rows


def lp_decompose(target, hulls, cones=()):
    """`cones.decompose(target, hulls, cones)` as the LP alone, with
    decompose's rows and none of its shortcuts."""
    return lp.feasible_point(*decompose_rows(target, hulls, cones))


def lp_margin_decompose(target, hulls, cones=()):
    """The `lp.solve` outcome of `cones.decompose(target, hulls, cones,
    margin=True)`'s LP alone: the plain rows with a trailing free column
    tau, maximised, one row sum(block) - tau >= 0 per hull block and
    tau <= 1."""
    k, plain = decompose_rows(target, hulls, cones)
    rows = [([*a, ZERO], rel, b) for a, rel, b in plain]
    pos = 0
    for block in hulls:
        rows.append(([ONE if pos <= j < pos + len(block) else ZERO for j in range(k)] + [-ONE], lp.GE, ZERO))
        pos += len(block)
    rows.append((_unit(k + 1, k), lp.LE, ONE))
    return lp.solve(lp.LinearProgram(k + 1, _unit(k + 1, k), rows))


def _in_hull(p, others) -> bool:
    return bool(others) and isinstance(lp_decompose(p, [others]), list)


def _in_cone(g, others) -> bool:
    return bool(others) and isinstance(lp_decompose(g, (), [others]), list)


def reference_vertices(vertices) -> tuple:
    """Polytope(dim, vertices).vertices."""
    return tuple(_prune(sorted(set(vec_q(v) for v in vertices)), _in_hull))


def greedy_vertices(vertices) -> tuple:
    """Polytope(dim, vertices).vertices by the greedy loop `Polytope` ran
    before Clarkson's algorithm: the lifted points (p, 1), sorted, each
    dropped when it lies in the cone of the others still kept."""
    points = sorted(set(vec_q(v) for v in vertices))
    return tuple(p[:-1] for p in _prune([p + (ONE,) for p in points], _in_cone))


def tangent_cone(poly: HPoly, x) -> HCone:
    """The feasible-direction (contingent) cone of the polyhedron at a point
    of it: the canonical HCone of the normals of its active rows."""
    return HCone(poly.dim, [poly.rows[i][0] for i in poly.active_rows(x)])


def _primitive_set(vectors) -> list:
    """The sorted distinct primitive rays of the nonzero vectors."""
    return sorted({primitive(vec_q(v)) for v in vectors if any(c != 0 for c in vec_q(v))})


def reference_rays(vectors) -> tuple:
    """FGCone(dim, vectors).generators, and HCone(dim, vectors).normals, read
    off the primitive rays G with LPs.  The lineality space L is spanned by
    the g with -g in cone(G); its basis in reduced row echelon form gives the
    +- primitive pairs, and the orthogonal projections of G onto L^perp,
    pruned, give the extreme rays of the pointed part."""
    gens = _primitive_set(vectors)
    if not gens:
        return ()
    basis = [list(g) for g in gens if _in_cone(tuple(-c for c in g), gens)]
    basis = [primitive(b) for b in basis[: len(reference_row_reduce(basis, len(gens[0])))]]
    lines = basis + [tuple(-c for c in b) for b in basis]
    ortho = []  # Gram-Schmidt: an orthogonal basis of L
    for b in basis:
        ortho.append(_minus_projection(b, ortho))
    pointed = _prune(_primitive_set(_minus_projection(g, ortho) for g in gens), _in_cone)
    return tuple(sorted(set(lines) | set(pointed)))


def _sliced_generators(dim: int, normals) -> list:
    """Generators of the cone: the normals, pruned, cut the +-axis
    generators of all space one halfspace at a time."""
    gens = [_unit(dim, j) for j in range(dim)] + [_unit(dim, j, -ONE) for j in range(dim)]
    for a in _prune(_primitive_set(normals), _in_cone):
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
    """dd_convert(dim, normals).generators: the canonical form of the
    sliced generators."""
    return reference_rays(_sliced_generators(dim, normals))


def _minus_projection(g, ortho) -> tuple:
    """g less its orthogonal projection onto the span of the mutually
    orthogonal vectors `ortho`."""
    for w in ortho:
        f = qdot(g, w) / qdot(w, w)
        g = tuple(x - f * y for x, y in zip(g, w))
    return g


def reference_separate(p, verts, gens):
    """The separating functional of a point p from the nonempty set
    conv(verts) + cone(gens), or None when p is in it: the separation LP
    `membership` ran before `reference_min_max` took its place.

    LP: max t with h'p - h'v >= t for all vertices, h'r <= 0 for all
    generators, |h|_inf <= 1.  The optimum is positive exactly when p is
    outside the set, since it is closed and convex, and 0 otherwise."""
    p = vec_q(p)
    dim = len(p)
    rows = [([p[i] - v[i] for i in range(dim)] + [-ONE], lp.GE, ZERO) for v in verts]
    rows.extend((list(g) + [ZERO], lp.LE, ZERO) for g in gens)
    rows.extend(box_rows(dim, 1))
    out = lp.solve(lp.LinearProgram(dim + 1, _unit(dim + 1, dim), rows))
    if not isinstance(out, lp.Optimal):
        raise AssertionError("t = 0, h = 0 is feasible and the box bounds t")
    if out.value <= 0:
        return None
    h = tuple(out.primal[:dim])
    sup = max(qdot(h, v) for v in verts)
    return NotMember(separator=h, gap=qdot(h, p) - sup)


def reference_min_max(points, gens, dim: int) -> tuple:
    """min over d in the unit box of max_v v'd subject to r'd <= 0 for the
    generators r: (value, d).  The value is <= 0 (d = 0 is feasible), and it
    is < 0 exactly when d strictly separates 0 from conv(points) +
    cone(gens) (positive homogeneity makes the box harmless)."""
    if not points:
        raise ValueError("min-max over an empty point set")
    rows = [(list(v) + [-ONE], lp.LE, ZERO) for v in points]
    rows += [(list(r) + [ZERO], lp.LE, ZERO) for r in gens]
    rows += box_rows(dim, 1)
    res = lp.solve(lp.LinearProgram(dim + 1, [ZERO] * dim + [-ONE], rows))
    if not isinstance(res, lp.Optimal):
        raise AssertionError("d = 0 is feasible and the box bounds the min-max LP")
    return -res.value, tuple(res.primal[:dim])


def contains_across(a, b) -> ContainsResult:
    """`cones.contains`, also between an FGCone and an HCone: generators
    against normals by dot products, and an HCone in an FGCone through the
    HCone's generators."""
    if isinstance(a, FGCone) and isinstance(b, HCone):
        for g in a.generators:
            if any(qdot(n, g) > 0 for n in b.normals):
                return ContainsResult(False, g)
        return ContainsResult(True)
    if isinstance(a, HCone) and isinstance(b, FGCone):
        return contains(dd_convert(a.dim, a.normals), b)
    return contains(a, b)


def cone_equal(a, b) -> bool:
    """Set equality across representations (mutual containment)."""
    return contains_across(a, b).holds and contains_across(b, a).holds


def contains_point(poly: Polytope, p) -> bool:
    """Is p in the polytope (one decomposition LP)?"""
    return _in_hull(vec_q(p), poly.vertices)


def cone_contains(cone: FGCone, p) -> bool:
    """Is p in cone(generators) (one decomposition LP, none for p = 0)?"""
    p = vec_q(p)
    return all(c == 0 for c in p) or _in_cone(p, cone.generators)


def boxed_max(normals, objective) -> lp.Optimal:
    """max objective'd over {d : a'd <= 0 for every normal a} intersected
    with the unit box -1 <= d_j <= 1.  d = 0 is feasible and the box bounds
    the objective, so the LP has an optimum."""
    rows = [(list(a), lp.LE, ZERO) for a in normals] + box_rows(len(objective))
    res = lp.solve(lp.LinearProgram(len(objective), list(objective), rows))
    if not isinstance(res, lp.Optimal):
        raise InternalInconsistencyError("the boxed cone LP has an optimum")
    return res


def reference_nontrivial_direction(h: HCone):
    """A nonzero member of {d : a'd <= 0 for all normals}, or None when the
    cone is {0}: the 2n boxed LPs maximising +-d_j that `zero_interior` ran
    on its pruned support cone before the positive-spanning test."""
    for j in range(h.dim):
        for sign in (ONE, -ONE):
            res = boxed_max(h.normals, _unit(h.dim, j, sign))
            if res.value > 0:
                return tuple(res.primal)
    return None


def reference_zero_inside(dim: int, verts, gens) -> bool:
    """0 in int(conv(verts) + cone(gens)), by the replaced triviality test of
    the support cone {d : v'd <= 0, r'd <= 0 for every vertex and
    generator}."""
    if not verts:
        return False
    return reference_nontrivial_direction(HCone(dim, list(verts) + list(gens))) is None


def reference_hcone_contains(a: HCone, b: HCone) -> ContainsResult:
    """`cones.contains` of two H-cones by the replaced boxed LPs: each
    normal t of b must have max t'd <= 0 over a in the unit box."""
    for t in b.normals:
        res = boxed_max(a.normals, t)
        if res.value > 0:
            return ContainsResult(False, tuple(res.primal))
    return ContainsResult(True)


def reference_axis_steps(dim: int, verts, gens) -> list:
    """Largest t <= 2**20 with t*sign*e_j in conv(verts) + cone(gens), for
    j = 0, ..., dim - 1 and sign = +1, -1 in turn: one LP each, with the step
    as a column of its own."""
    nv, ng = len(verts), len(gens)
    steps = []
    for j in range(dim):
        for sign in (ONE, -ONE):
            # max t s.t. t*sign*e_j = sum alpha v + sum mu g, convex alpha
            k = nv + ng + 1
            rows = []
            for i in range(dim):
                coeffs = [v[i] for v in verts] + [g[i] for g in gens]
                coeffs.append(-sign if i == j else ZERO)
                rows.append((coeffs, lp.EQ, ZERO))
            rows.append(([ONE] * nv + [ZERO] * (ng + 1), lp.EQ, ONE))
            rows.extend((_unit(k, idx), lp.GE, ZERO) for idx in range(nv + ng))
            rows.append((_unit(k, k - 1), lp.LE, Q(2**20)))  # cap: recession may allow any step
            res = lp.solve(lp.LinearProgram(k, _unit(k, k - 1), rows))
            if not (isinstance(res, lp.Optimal) and res.value > 0):
                raise InternalInconsistencyError("0 interior guarantees a positive axis step")
            steps.append(res.value)
    return steps


def reference_radius_by_axis_points(dim: int, steps) -> ZeroInterior:
    """The `ZeroInterior` of the smallest of the axis steps scaled by
    1/sqrt(n)."""
    t_min = min(steps)
    ratio = t_min * t_min / dim
    exact = sqrt_exact(ratio)
    radius = exact if exact is not None else sqrt_lower_bound(ratio)
    return ZeroInterior(
        True, radius, exact is not None, "axis-point bound scaled by 1/sqrt(n)"
    )
