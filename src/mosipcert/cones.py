"""Exact polyhedral geometry: polytopes, finitely generated cones, halfspace
cones, polar duality via double description, membership / containment /
interior tests.

Every question of the form "is the target a convex combination of these
points plus a conic combination of these generators" is one call to
`decompose`, the package's only decomposition LP: the pruning of the
constructors, `contains`, `cone_member`, `subspace_escape`, `membership`
(whose one caller is `gap.gap_eval`), the zero questions of the checkers and
of KKT (`problem.CandidatePoint.zero_decomposition`), the KKT searches, the
gap zero search and the axis steps of `zero_interior`'s radius above
dimension 3.  `hull_terms` reads its weights back per block of points.
When no weights exist, the Farkas vector of the infeasible LP is a
direction (`_escape_of`): `subspace_escape` and `normal_escape` return it,
Clarkson's algorithm steers by it, and the cone form slices a pointed cone
with it.  Over conv(points) + cone(generators) it strictly separates the
target (Farkas, Motzkin; `strict_direction`), so one LP decides and
separates: `membership`, MFCQ, PMFCQ, COCQ, WADQ and KKT read their
separating directions so.

Interior and containment ask no boxed LP.  0 is interior to conv(V) +
cone(R) exactly when V u R positively spans n-space (Davis 1954): rank n,
read off `_eliminate` with no LP, and a cone that is a subspace, one
`subspace_escape`.  One H-cone lies in another exactly when each normal of
the second is in the cone of the first one's normals (Farkas), one
`decompose` per normal, none for a multiple of a row (`normal_escape`,
which `contains` and WADQ and EADQ ask over rows as given).

No LP runs where one exact elimination (`_row_reduce`) already forces the
answer.  `decompose` returns weights that its equality rows force, when they
are nonnegative, with no LP (`_forced_weights`): independent columns and a
target in their span; with margin, they come with the margin they fix.
That settles most of `cone_member`, the lineality rounds of the canonical
cone form, the KKT and gap searches and the zero decompositions, and gives
`gap.witness_issues` its weights over N.  Linearly independent rays are their own canonical form
with no `decompose` at all, and Clarkson's algorithm steers by a null-space
direction when a point is off the affine hull of the extreme points found so
far (`_affine_escape`).  Each shortcut gives the answer the LP would give, so
every output is the same; where the LP's Farkas vector is read, the LP runs.

Everything is exact rational.  Every Polytope, FGCone and HCone holds a
canonical form that depends only on the set it describes (primitive integer
scaling for rays and normals, lexicographic sorting, redundancy removed), so
structural equality of two of them is set equality.  Clarkson's
output-sensitive algorithm (`_extreme_points`) finds both the extreme points
of a polytope and the extreme rays of a pointed cone, each test against the
extreme points found so far.  A cone keeps `dd_convert`'s form (below),
reached with `decompose` LPs and no dimension cap (`_pruned_rays`); the
normals of an HCone take the form of their own cone, the polar, so the
H-representation too is fixed by the cone.

The public constructors prune with LPs.  Rays that are canonical already go
through the one private constructor `_canonical`, with no LP: `polar` (a
cone's canonical generators are its polar's canonical normals, and back),
the output of `dd_convert`, and the rays a candidate point keeps per sorted
primitive integer set (`problem.CandidatePoint.cone`), which depend on that
set alone.  Rows that are only read by another LP need no canonical form:
`dd_convert` takes plain normals, pruned or not, and `HPoly.normal_rays`
lists a domain's active normals for `funcs.subdiff_set` unpruned.

`dd_convert` is one double description with no LP (only `_facets` calls
it, in dimension 4 at most), and its generators depend only on the cone.  A
cone C with lineality space L is L plus its pointed part C n L^perp, so its
form is the basis of L in reduced row echelon form, each vector a +- pair of
primitive rays, and the extreme rays of the pointed part.  `_extreme_rays`
builds those in integer arithmetic with the combinatorial adjacency test,
from the normals plus +-(basis of L), rows that span n-space.  A pointed
cone has L = {0} and keeps its extreme rays.  One elimination of the
normals (`_eliminate`) gives both L and the start of the double description,
so a pointed cone is eliminated once, and a cone with lineality once more
with +-(basis of L) appended.

The elimination (`_row_reduce`) is Gauss-Jordan in Python ints: each row is
scaled once by the lcm of its denominators, the pivots fall where the
rational elimination to unit pivots puts them, and every row changed is
divided by the gcd of its entries, as in the integer tableau of `lp`.  Every
row stays a positive multiple of the row of the rational reduced row echelon
form, so the sign of every entry, the lineality basis and every primitive
ray are those of the rational elimination, and `span_rank` and the rank test
of `zero_interior` read the same pivots.

Conventions:
* HCone(normals) is {d : a'd <= 0 for every normal a}; no normals = all space.
* FGCone(generators) is cone(generators) including 0; no generators = {0}.
* A (points, generators) pair, a subdifferential's shape, is conv(points) +
  cone(generators), read as LP columns or rows; no points = the empty set.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd, lcm
from operator import mul
from typing import Optional

from . import lp
from .errors import InternalInconsistencyError
from .rationals import (
    ONE,
    Q,
    ZERO,
    as_q,
    lincomb,
    qdot,
    scaled_ints,
    sqrt_exact,
    sqrt_lower_bound,
    vec_q,
)

AXIS_STEP_CAP = Q(2**20)  # the largest axis step asked: recession may allow any


def _primitive_ints(ints) -> tuple:
    """An integer vector divided by the gcd of its entries, sign preserved;
    the zero vector stays zero."""
    g = gcd(*ints)
    return tuple(c // g for c in ints) if g > 1 else tuple(ints)


def _unit(dim: int, j: int, scale=ONE) -> tuple:
    return tuple(scale if i == j else ZERO for i in range(dim))


def _extreme_points(points) -> list:
    """The extreme points of conv(points), for sorted distinct points, in
    their order; Clarkson's output-sensitive algorithm (More output-sensitive
    geometric algorithms, FOCS 1994).  `Polytope` keeps them, and
    `_pruned_rays` reads a pointed cone's extreme rays off the extreme points
    of a slice.

    The lexicographically largest maximiser of a linear function over the
    points is an extreme point.  The maximisers of +-p_j seed the extreme
    points E with no LP; in dimension 1 they are the two ends, and no LP
    runs.  Each other point p is tested against E only.  When p is not in
    conv(E), a direction d has d'(e, 1) <= 0 on E, hence on every point
    found inside conv(E), and d'(p, 1) > 0, so d'(q, 1) is maximised only by
    points still untested: the largest such maximiser joins E, and p is
    tested again unless it is that point.  When p is off the affine hull of
    E, `_affine_escape` gives such a d with no LP; otherwise one `decompose`
    over E decides, and its Farkas direction (`_escape_of`) is d.  The
    extreme points are unique, so the output does not depend on which d
    steers.  Each test settles one point, so there is one LP per point the
    seeds leave at most, with a row per coordinate, the simplex row and a
    row per extreme point found so far, and none where the elimination
    settles the point."""
    if not points:
        return []
    dim = len(points[0])
    found = dict.fromkeys(
        max(points, key=lambda q: (sign * q[j], q)) for j in range(dim) for sign in (ONE, -ONE)
    )
    untested = [p for p in points if p not in found] if dim != 1 else []
    for p in list(untested):
        while p in untested:
            d = _affine_escape(list(found), p)
            if d is None:
                res = decompose(p, [list(found)])
                if isinstance(res, list):
                    untested.remove(p)
                    continue
                d = _escape_of(res, dim + 1)
            v = max(untested, key=lambda q: (qdot(d[:-1], q) + d[-1], q))
            untested.remove(v)
            found[v] = None
    return [p for p in points if p in found]


def _affine_escape(points, p) -> Optional[tuple]:
    """When p is off the affine hull of the points, an integer d with
    d'(e, 1) = 0 for every point e and d'(p, 1) > 0; else None.  One
    `_eliminate` of the lifted points with (p, 1) last: (p, 1) is outside
    the span of the others exactly when its column is a pivot, and that
    pivot row, 0 left of its positive pivot, is (y'A', y') up to a positive
    factor, so y is d."""
    lifted = [tuple(e) + (ONE,) for e in points] + [tuple(p) + (ONE,)]
    m = len(lifted)
    rows, pivots = _eliminate(len(lifted[0]), lifted)
    if pivots[-1] != m - 1:
        return None
    return tuple(rows[len(pivots) - 1][m:])


def _primitive_int_set(dim: int, vectors, what: str) -> list:
    """Primitive integer tuples of the vectors, zeros dropped, duplicates
    merged, sorted."""
    prims = set()
    for v in vectors:
        v = vec_q(v)
        if len(v) != dim:
            raise ValueError(f"{what} dimension mismatch")
        if any(c != 0 for c in v):
            prims.add(_primitive_ints(scaled_ints(v)[0]))
    return sorted(prims)


def _pruned_rays(prims) -> tuple:
    """`dd_convert`'s form of the cone of a sorted primitive integer set, as
    rationals, with `decompose` LPs and no dimension cap.  Independent rays
    are in the form already.  Else each round asks one `decompose` of 0 over
    the rays as a hull: rays of positive weight lie in the lineality space
    L, which grows, and the input is projected onto L^perp; once no weights
    exist, the Farkas direction d has d'r < 0 on every ray, and the extreme
    rays are those whose slice points r / (-d'r) are extreme."""
    n = len(prims[0]) if prims else 0
    rays, basis = list(prims), []
    while len(_rref(rays, n)) < len(rays):
        res = decompose((ZERO,) * n, [rays])
        if not isinstance(res, list):
            d = _escape_of(res, n + 1)[:n]
            slices = {tuple(c / s for c in r): r for r, s in ((r, -qdot(d, r)) for r in rays)}
            rays = sorted(slices[p] for p in _extreme_points(sorted(slices)))
            break
        basis = _rref(basis + [r for r, w in zip(rays, res) if w > 0], n)
        rays = _projected(prims, basis)
    lines = basis + [tuple(-c for c in b) for b in basis]
    return tuple(tuple(Q(c) for c in r) for r in sorted(lines + rays))


def _rref(vectors, n: int) -> list:
    """The basis of the span of integer vectors of length n in reduced row
    echelon form, each vector primitive: it depends only on the span."""
    rows = [list(v) for v in vectors]
    return [_primitive_ints(row) for row in rows[: len(_row_reduce(rows, n))]]


def _projected(vectors, basis) -> list:
    """The projections of integer vectors onto the orthogonal complement of
    span(basis), primitive, distinct, nonzero and sorted, by Gram-Schmidt in
    integers: v less its projection onto w, times w'w, is (w'w) v - (v'w) w."""

    def less(v, ortho):
        for w in ortho:
            f = sum(map(mul, v, w))
            if f:
                v = _primitive_ints([sum(map(mul, w, w)) * a - f * b for a, b in zip(v, w)])
        return tuple(v)

    ortho = []
    for b in basis:
        ortho.append(less(b, ortho))
    return sorted({p for p in (less(v, ortho) for v in vectors) if any(p)})


def _canonical_rays(dim: int, vectors, what: str) -> tuple:
    """The shared canonical form of generators and normals: the primitive
    integer set, pruned."""
    return _pruned_rays(_primitive_int_set(dim, vectors, what))


def decompose(target, hulls, cones=(), margin=False):
    """Nonnegative weights writing `target` as a combination of the columns
    of `hulls` and `cones` (each a sequence of blocks of vectors) whose hull
    weights sum to 1.  This is the one decomposition LP of the package:
    pruning, membership, the zero questions of the checkers and of KKT, the
    KKT searches, the gap zero search and the axis steps of the interior
    radius all call it.

    Rows, in this order: one equality per coordinate, columns in block order
    with the hull blocks first; the simplex row over every hull column (only
    when there is a hull block); x_j >= 0 for every column.  With `margin`, a
    trailing free variable tau is maximised subject to one row
    sum(block) - tau >= 0 per hull block and tau <= 1.

    Returns the weights in column order (tau last with `margin`), or an
    `lp.Infeasible` whose Farkas vector over the plain rows (coordinates,
    simplex row, x >= 0) certifies that no weights exist, with or without
    `margin`.  Three cases need no LP: a zero target without hull blocks is
    the zero combination; no columns at all give the `lp.Infeasible` with
    Farkas vector minus (target, 1 with a hull block), every coefficient 0
    and the right-hand side -|target|^2 (- 1) < 0; and weights that the
    equality rows force (`_forced_weights`: the columns, each with its
    simplex-row entry, are linearly independent and the target is in their
    span) are unique, so when they are nonnegative they are the LP's only
    feasible point, and the margin its least hull-block sum, capped at 1
    (`_with_margin`).  Every other case runs the LP, whose Farkas vector the
    callers read.
    """
    columns = [c for block in (*hulls, *cones) for c in block]
    k = len(columns)
    if not hulls and all(c == 0 for c in target):
        return _with_margin([ZERO] * k, hulls, margin)
    if not columns:
        return lp.Infeasible([-c for c in target] + ([-ONE] if hulls else []))
    rows = [([c[i] for c in columns], lp.EQ, target[i]) for i in range(len(target))]
    num_hull = sum(len(block) for block in hulls)
    if hulls:
        rows.append(([ONE] * num_hull + [ZERO] * (k - num_hull), lp.EQ, ONE))
    forced = _forced_weights(k, rows)
    if forced is not None:
        return _with_margin(forced, hulls, margin)
    rows.extend((_unit(k, j), lp.GE, ZERO) for j in range(k))
    if not margin:
        return lp.feasible_point(k, rows)
    # tau is a free column that only the margin rows and its cap carry, with
    # nonnegative Farkas multipliers: on an infeasible LP those are exactly
    # 0, and the rest is a Farkas vector of the plain rows
    plain = len(rows)
    rows = [([*a, ZERO], rel, b) for a, rel, b in rows]
    pos = 0
    for block in hulls:
        row = [ZERO] * (k + 1)
        row[pos : pos + len(block)] = [ONE] * len(block)
        row[k] = -ONE
        rows.append((row, lp.GE, ZERO))
        pos += len(block)
    rows.append((_unit(k + 1, k), lp.LE, ONE))
    res = lp.solve(lp.LinearProgram(k + 1, _unit(k + 1, k), rows))
    if isinstance(res, lp.Infeasible):
        if any(y != 0 for y in res.farkas[plain:]):
            raise InternalInconsistencyError("the margin rows carry Farkas weight")
        return lp.Infeasible(res.farkas[:plain])
    if not isinstance(res, lp.Optimal):
        raise InternalInconsistencyError("the margin is capped, so the LP has an optimum")
    return res.primal


def _with_margin(weights, hulls, margin) -> list:
    """The weights, followed with `margin` by the margin the LP reaches at
    them: tau = min(1, least hull-block sum)."""
    if not margin:
        return weights
    tau, pos = ONE, 0
    for block in hulls:
        tau = min(tau, sum(weights[pos : pos + len(block)], ZERO))
        pos += len(block)
    return weights + [tau]


def _forced_weights(k: int, rows) -> Optional[list]:
    """The nonnegative weights x with a'x = b for every equality row (a, b)
    over k columns, when these rows force x; else None.  They force it when
    the columns are linearly independent and the right-hand side lies in
    their span: one Gauss-Jordan elimination of the integer rows (a, b)
    shows both, with pivots in the first k columns and a zero right-hand side
    on every row past them.  Then pivot row j reads p_j x_j = r_j, p_j > 0.
    The weights are re-checked by integer substitution into the rows, as
    `lp.solve` checks its results."""
    if k > len(rows):
        return None
    ints = [scaled_ints([*a, b])[0] for a, _, b in rows]
    reduced = [list(row) for row in ints]
    if len(_row_reduce(reduced, k)) < k or any(row[k] for row in reduced[k:]):
        return None
    if any(row[k] < 0 for row in reduced[:k]):
        return None
    den = lcm(*[reduced[j][j] for j in range(k)])
    xs = [reduced[j][k] * (den // reduced[j][j]) for j in range(k)]
    if any(sum(map(mul, row, xs)) != row[k] * den for row in ints):
        raise InternalInconsistencyError("forced weights failed substitution")
    return [Q(reduced[j][k], reduced[j][j]) for j in range(k)]


def _escape_of(res, dim: int) -> tuple:
    """The direction d = -y of an infeasible `decompose` of a target t, y
    the Farkas multipliers of its first `dim` rows.  Over cone(vectors)
    alone these are the coordinate rows: y'a >= 0 for every vector a and
    y't < 0, so d'a <= 0 and d't > 0.  Over conv(points), dim = len(t) + 1
    takes the simplex row too, and the same holds of the lifted points
    (p, 1) and target (t, 1): d'(p, 1) <= 0 for every point p and
    d'(t, 1) > 0."""
    return tuple(-y for y in res.farkas[:dim])


def hull_terms(weights, hulls) -> list:
    """(weight sum, convex coefficients, combination) per hull block, read
    off the leading entries of `decompose`'s weights.  A block of weight zero
    pins its first vertex: the selection is immaterial there."""
    out = []
    pos = 0
    for block in hulls:
        ws = weights[pos : pos + len(block)]
        pos += len(block)
        total = sum(ws, ZERO)
        if total > 0:
            coeffs = tuple(w / total for w in ws)
        else:
            coeffs = (ONE,) + (ZERO,) * (len(block) - 1)
        point = lincomb(coeffs, block, len(block[0]))
        out.append((total, coeffs, point))
    return out


# ---------------------------------------------------------------------------
# Types


@dataclass(frozen=True)
class Polytope:
    """Convex hull of finitely many points; canonical form keeps extreme points only."""

    dim: int
    vertices: tuple

    def __init__(self, dim: int, vertices):
        points = sorted(set(vec_q(v) for v in vertices))
        for p in points:
            if len(p) != dim:
                raise ValueError("vertex dimension mismatch")
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "vertices", tuple(_extreme_points(points)))


@dataclass(frozen=True)
class FGCone:
    """cone(generators), always closed; no generators means {0}.  The
    generators are `dd_convert`'s form, fixed by the cone."""

    dim: int
    generators: tuple

    def __init__(self, dim: int, generators):
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "generators", _canonical_rays(dim, generators, "generator"))


@dataclass(frozen=True)
class HCone:
    """{d : a'd <= 0 for all normals a}; no normals means all of n-space.
    The normals are `dd_convert`'s form of the polar, the cone of the
    normals, so the H-representation is fixed by the cone."""

    dim: int
    normals: tuple

    def __init__(self, dim: int, normals):
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "normals", _canonical_rays(dim, normals, "normal"))

    def member(self, d) -> bool:
        return all(qdot(a, d) <= 0 for a in self.normals)


@dataclass(frozen=True)
class HPoly:
    """H-polyhedron {x : a'x <= b per row}.  Rows are kept exactly as given
    (order and scaling included) so problem files round-trip bit-exactly."""

    dim: int
    rows: tuple  # ((a: tuple, b: Q), ...)

    def __init__(self, dim: int, rows):
        cleaned = []
        for a, b in rows:
            a = vec_q(a)
            if len(a) != dim:
                raise ValueError("row dimension mismatch")
            cleaned.append((a, as_q(b)))
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "rows", tuple(cleaned))

    def contains_point(self, x) -> bool:
        return all(qdot(a, x) <= b for a, b in self.rows)

    def active_rows(self, x) -> list:
        return [i for i, (a, b) in enumerate(self.rows) if qdot(a, x) == b]

    def normal_rays(self, x) -> tuple:
        """The sorted distinct primitive normals of the rows active at x,
        unpruned: they generate the normal cone at x."""
        active = [self.rows[i][0] for i in self.active_rows(x)]
        return tuple(tuple(Q(c) for c in r) for r in _primitive_int_set(self.dim, active, "normal"))

    def lp_rows(self) -> list:
        return [(list(a), lp.LE, b) for a, b in self.rows]


# ---------------------------------------------------------------------------
# Polars and double description


def _canonical(cls, dim: int, rays: tuple):
    """The FGCone or HCone of rays that are already canonical, built with no
    LP."""
    cone = object.__new__(cls)
    object.__setattr__(cone, "dim", dim)
    object.__setattr__(cone, "generators" if cls is FGCone else "normals", rays)
    return cone


def polar(c):
    """Negative polar cone: of an FGCone, {d : g'd <= 0 for every generator
    g}; of an HCone, the cone of its normals.  Generators and normals share
    one canonical form, so the rays carry over and no LP runs."""
    if isinstance(c, FGCone):
        return _canonical(HCone, c.dim, c.generators)
    return _canonical(FGCone, c.dim, c.normals)


def dd_convert(n: int, normals) -> FGCone:
    """Generators of {d in n-space : a'd <= 0 for every normal a} (double
    description) in the form of the module docstring: the +- pairs of
    `_lineality`'s basis and the extreme rays of the pointed part, sorted
    together.  The normals may be raw or canonical.  Fukuda and Prodon
    (Double description method revisited, 1996) take the lineality space out
    first the same way.  The generators are irredundant, so no LP prunes
    them."""
    normals = _primitive_int_set(n, normals, "normal")
    elimination = _eliminate(n, normals)
    lines = _lineality(n, len(normals), *elimination)
    if lines:
        lines += [tuple(-c for c in b) for b in lines]
        normals = normals + lines
        elimination = _eliminate(n, normals)
    rays = _extreme_rays(n, normals, *elimination)
    return _canonical(FGCone, n, tuple(tuple(Q(c) for c in r) for r in sorted(rays + lines)))


def _eliminate(n: int, normals) -> tuple:
    """Gauss-Jordan on [A' | I], A the (rational or integer) normals as
    rows: (rows, pivots).  Row i starts as (A'_i, e_i) times the lcm of the
    denominators of A'_i, so every row is integer.  Row operations keep each
    row a positive multiple of the form (y'A', y'), so the pivot columns pick
    the first independent normals, the right blocks of the pivot rows are
    positive multiples of the rows of (B^-1)' for the matrix B of those
    normals, and the rows past the pivots have y'A' = 0: their right blocks
    span the null space of A."""
    rows = []
    for i in range(n):
        ints, k = scaled_ints([a[i] for a in normals])
        unit = [0] * n
        unit[i] = k
        rows.append(ints + unit)
    return rows, _row_reduce(rows, len(normals))


def _lineality(n: int, m: int, rows, pivots) -> list:
    """The basis of {d : a'd = 0 for every normal a}, read off the null rows
    of `_eliminate`'s rows over m normals, in reduced row echelon form and
    each vector scaled to primitive integers: it depends only on the space,
    not on the normals that cut it out."""
    return _rref([row[m:] for row in rows[len(pivots):]], n)


def _extreme_rays(n: int, normals, rows, basis) -> list:
    """The extreme rays, as primitive integer tuples, of {d : a'd <= 0 for
    every normal a}, where the normals (distinct integer tuples) span
    n-space, so the cone is pointed; `rows` and `basis` are `_eliminate`'s
    elimination of them.

    The first n independent normals, rows of B, bound a simplicial cone whose
    rays are the columns of -B^-1.  Each other normal a is one double
    description step: rays with a'r <= 0 stay, and a ray with a'r > 0 meets a
    ray with a'r < 0 on a'd = 0 only when the two are adjacent, that is when
    no third ray vanishes on every normal both vanish on (the combinatorial
    test of Motzkin, Raiffa, Thompson and Thrall, 1953; Fukuda and Prodon,
    1996).  The cone stays pointed, so the rays stay its extreme rays and no
    pruning LP is needed.
    """
    m = len(normals)
    if len(basis) < n:
        raise InternalInconsistencyError("the double description rows span n-space")
    on_basis = sum(1 << k for k in basis)
    # (ray, bitmask of the normals seen so far that vanish on it)
    rays = [
        (_primitive_ints([-c for c in rows[j][m:]]), on_basis & ~(1 << k))
        for j, k in enumerate(basis)
    ]
    for k, a in enumerate(normals):
        if on_basis >> k & 1:
            continue
        bit = 1 << k
        signed = [(r, zero, sum(x * y for x, y in zip(a, r))) for r, zero in rays]
        kept = [(r, zero | bit if v == 0 else zero) for r, zero, v in signed if v <= 0]
        for p, zp, vp in signed:
            if vp <= 0:
                continue
            for q, zq, vq in signed:
                if vq >= 0:
                    continue
                common = zp & zq
                # an edge lies on n - 2 independent normals at least
                if common.bit_count() < n - 2:
                    continue
                if any(common & zero == common for r, zero in rays if r is not p and r is not q):
                    continue
                w = [vp * cq - vq * cp for cp, cq in zip(p, q)]
                kept.append((_primitive_ints(w), common | bit))
        rays = kept
    return [r for r, _ in rays]


# ---------------------------------------------------------------------------
# Membership and separation


@dataclass(frozen=True)
class Member:
    """p = sum alpha_v * v + sum mu_r * r with alpha a convex combination."""

    alpha: tuple
    mu: tuple


@dataclass(frozen=True)
class NotMember:
    """Separator h: h'p > sup over the set (sup finite along h)."""

    separator: tuple
    gap: Q  # h'p - sup_s h


def membership(p, points, gens):
    """Exact decomposition of p over conv(points) + cone(gens), or a verified
    separating functional: one `decompose`, whose Farkas vector, when p is
    outside, gives `strict_direction` over the shifted points v - p."""
    p = vec_q(p)
    if not points:
        return NotMember(separator=tuple(ZERO for _ in p), gap=ZERO)
    res = decompose(p, [points], [gens])
    if isinstance(res, list):
        nv = len(points)
        return Member(alpha=tuple(res[:nv]), mu=tuple(res[nv:]))
    shifted = [tuple(c - q for c, q in zip(v, p)) for v in points]
    value, h = strict_direction(shifted, res, len(p))
    return NotMember(separator=h, gap=-value)


def strict_direction(points, res, dim: int) -> tuple:
    """(max_v v'd, d) for the direction d of `res`, an infeasible `decompose`
    of t over conv(P) + cone(R) in dim-space, with `points` the shifted points
    v - t of P: `_escape_of` less its simplex entry, so v'd < 0 on the points
    and r'd <= 0 on R, scaled into the unit box, max_j |d_j| = 1.  Raises
    `InternalInconsistencyError` unless the value is < 0."""
    d = _escape_of(res, dim + 1)[:dim]
    value = max((qdot(v, d) for v in points), default=ZERO)
    if not value < 0:
        raise InternalInconsistencyError("the Farkas direction is not strictly negative")
    top = max(abs(c) for c in d)
    return value / top, tuple(c / top for c in d)


def cone_member(p, c: FGCone) -> Optional[list]:
    """Nonnegative coefficients writing p over c's generators, or None."""
    res = decompose(vec_q(p), (), [c.generators])
    return res if isinstance(res, list) else None


# ---------------------------------------------------------------------------
# Interior, subspaces, containment


def subspace_escape(normals) -> Optional[tuple]:
    """None when cone(normals) is a linear subspace, else a direction d with
    a'd <= 0 for every normal a and a'd < 0 for some, so d != 0.

    The cone is a subspace exactly when minus the sum of the normals lies in
    it, one `decompose` (no LP when the sum is 0).  Then {d : a'd <= 0 for
    every a}, the polar, is a subspace too: for the support normals of
    F* + G* that is the test of 0 in ri(F* + G*), and with rank n the test of
    0 in int(F* + G*)."""
    minus_sum = tuple(-sum(c, ZERO) for c in zip(*normals))
    res = decompose(minus_sum, (), [normals])
    return None if isinstance(res, list) else _escape_of(res, len(minus_sum))


@dataclass(frozen=True)
class ZeroInterior:
    inside: bool
    radius_lower_bound: Q
    exact: bool
    note: str = ""
    # when not inside: a nonzero direction with support <= 0 (exact counter-witness)
    witness_direction: Optional[tuple] = None


def zero_interior(dim: int, points, gens, escape=None) -> ZeroInterior:
    """Is 0 interior to conv(points) + cone(gens), with a certified ball radius.

    0 is interior to conv(V) + cone(R) exactly when V u R positively spans
    n-space (C. Davis, Theory of positive linear dependence, Amer. J. Math.
    1954): the vectors have rank n and their cone is a subspace.  A
    counter-witness is a nonzero d with v'd <= 0 and r'd <= 0 for every
    vertex and generator.  The rank test runs no LP: below rank n, the first
    basis vector of the null space (`_eliminate`, `_lineality`) is one.  At
    rank n, `subspace_escape` of the vertices then generators decides with
    one LP and gives one; `escape`, when given, returns that answer (a point
    keeps it).  The radius is exact (min facet distance) in dimension <= 3
    via a lifted double description; above that, certified axis-point
    stepping scaled by 1/sqrt(n).
    """
    if not points:
        return ZeroInterior(False, ZERO, True, "empty set")
    normals = list(points) + list(gens)
    rows, pivots = _eliminate(dim, normals)
    if len(pivots) < dim:
        null = _lineality(dim, len(normals), rows, pivots)[0]
        return ZeroInterior(False, ZERO, True, witness_direction=tuple(Q(c) for c in null))
    direction = escape() if escape is not None else subspace_escape(normals)
    if direction is not None:
        return ZeroInterior(False, ZERO, True, witness_direction=direction)
    if dim <= 3:
        return _radius_by_facets(dim, points, gens)
    return _radius_by_axis_points(dim, points, gens)


def _facets(dim: int, points, gens) -> list:
    """Facet rows (a, b) with conv(points) + cone(gens) = {x : a'x <= b}, via
    the lifted-cone polar: (a, -b) ranges over the generators of {(v,1), (r,0)}^0."""
    lifted = [tuple(v) + (ONE,) for v in points] + [tuple(g) + (ZERO,) for g in gens]
    facets = []
    for gen in dd_convert(dim + 1, lifted).generators:
        a, neg_b = gen[:dim], gen[dim]
        if any(c != 0 for c in a):
            facets.append((a, -neg_b))
    return facets


def _radius_by_facets(dim: int, points, gens) -> ZeroInterior:
    facets = _facets(dim, points, gens)
    if not facets:
        return ZeroInterior(
            True, ONE, False, "set is all of space; any radius certifies"
        )
    best, best_exact = None, True
    for a, b in facets:
        if not b > 0:
            raise InternalInconsistencyError("0 must be strictly inside every facet")
        ratio = b * b / qdot(a, a)  # squared facet distance
        exact = sqrt_exact(ratio)
        dist = exact if exact is not None else sqrt_lower_bound(ratio)
        if best is None or dist < best:
            best, best_exact = dist, exact is not None
    return ZeroInterior(True, best, best_exact)


def _radius_by_axis_points(dim: int, verts, gens) -> ZeroInterior:
    """Largest t <= AXIS_STEP_CAP with +-t*e_j in conv(verts) + cone(gens)
    for each axis; the cross-polytope they span contains the ball of radius
    t/sqrt(n).  Each step is one `decompose` (2n LPs): 0 over the hulls
    `verts` and the far point -CAP*u, u = +-e_j, with margin.  Weights alpha
    on `verts` and beta on the far point write (beta/sum alpha)*CAP*u into
    the set, and the margin tau = min(sum alpha, beta) <= 1/2 is largest
    exactly at the largest such step, so t = CAP*tau/(1 - tau)."""
    t_min = None
    for j in range(dim):
        for sign in (ONE, -ONE):
            far = _unit(dim, j, -sign * AXIS_STEP_CAP)
            res = decompose((ZERO,) * dim, [verts, [far]], [gens], margin=True)
            if not (isinstance(res, list) and res[-1] > 0):
                raise InternalInconsistencyError("0 interior guarantees a positive axis step")
            t = AXIS_STEP_CAP * res[-1] / (ONE - res[-1])
            if t_min is None or t < t_min:
                t_min = t
    ratio = t_min * t_min / dim
    exact = sqrt_exact(ratio)
    radius = exact if exact is not None else sqrt_lower_bound(ratio)
    return ZeroInterior(
        True, radius, exact is not None, "axis-point bound scaled by 1/sqrt(n)"
    )


@dataclass(frozen=True)
class ContainsResult:
    holds: bool
    witness: Optional[tuple] = None  # a point of the first set outside the second


def contains(a, b) -> ContainsResult:
    """Is the cone a a subset of the cone b, two FGCones or two HCones?  When
    not, witness lies in a and outside b.  Its callers are the check that G*
    lies in N (`problem.CandidatePoint.build`), and in `quals` LFMCQ (N in
    G*) and the H-cone inclusions in C of KTCQ and ACQ.
    Canonical forms are fixed by the cone, so equal cones hold at once.
    Each question is one `decompose`: a generator of a in cone(b's
    generators), or, for two HCones, a normal of b in cone(a's normals), by
    `normal_escape`, whose escaping direction is the witness."""
    if a.dim != b.dim or type(a) is not type(b):
        raise ValueError("contains compares two FGCones or two HCones of one dimension")
    if a == b:
        return ContainsResult(True)
    if isinstance(a, FGCone):
        for g in a.generators:
            if not isinstance(decompose(g, (), [b.generators]), list):
                return ContainsResult(False, g)
        return ContainsResult(True)
    escape = normal_escape(a.normals, b.normals)
    return ContainsResult(True) if escape is None else ContainsResult(False, escape[1])


def normal_escape(rows, normals) -> Optional[tuple]:
    """None when every normal t is in cone(rows), raw or canonical, so that
    t'd <= 0 wherever r'd <= 0 for every row r (Farkas); else (t, d) with
    r'd <= 0 on the rows and t'd > 0, the Farkas direction (`_escape_of`;
    t itself when there are no rows).  One `decompose` per normal, none for
    a positive multiple of a row."""
    same_ray = {_primitive_ints(scaled_ints(r)[0]) for r in rows}
    for t in normals:
        if _primitive_ints(scaled_ints(t)[0]) not in same_ray:
            res = decompose(t, (), [rows])
            if not isinstance(res, list):
                return t, _escape_of(res, len(t))
    return None


# ---------------------------------------------------------------------------
# Rank


def _row_reduce(rows, ncols: int) -> list:
    """Gauss-Jordan elimination, in place, of integer rows over their first
    `ncols` columns.  Returns the pivot columns in order.  The pivots are
    those of the rational elimination to unit pivots, the first nonzero
    entry from the current rank down, and every row stays a positive
    multiple of the row that elimination would hold: the i-th row ends with
    a positive entry in the i-th pivot column and zeros above and below it.
    A pivot row is negated when its entry is negative, every row changed is
    divided by the gcd of its entries, and row r loses row_r[col] / p times
    the pivot row after being multiplied by p / gcd(p, row_r[col]) > 0."""
    pivots = []
    for col in range(ncols):
        rank = len(pivots)
        if rank == len(rows):
            break
        piv = next((r for r in range(rank, len(rows)) if rows[r][col] != 0), -1)
        if piv < 0:
            continue
        prow = rows[piv]
        rows[piv] = rows[rank]
        g = gcd(*prow)
        if prow[col] < 0:
            g = -g
        if g != 1:
            prow = [v // g for v in prow]
        rows[rank] = prow
        p = prow[col]
        for r, row in enumerate(rows):
            f = row[col]
            if f != 0 and r != rank:
                g = gcd(f, p)
                a, b = p // g, f // g
                row = [a * v - b * w for v, w in zip(row, prow)]
                g = gcd(*row)
                rows[r] = [v // g for v in row] if g > 1 else row
        pivots.append(col)
    return pivots


def span_rank(points) -> int:
    """Rank of the span of the points (exact Gaussian elimination)."""
    rows = [scaled_ints(vec_q(p))[0] for p in points]
    return len(_row_reduce(rows, len(rows[0]))) if rows else 0
