"""Polyhedral kernel: frozen cases, canonicalization, bipolar round trips,
membership/separator exclusivity, interior radii."""

from __future__ import annotations

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers_cones import (
    cone_equal,
    contains_across,
    decompose_rows,
    greedy_vertices,
    lp_decompose,
    lp_margin_decompose,
    primitive,
    reference_axis_steps,
    reference_dd_convert,
    reference_hcone_contains,
    reference_nontrivial_direction,
    reference_radius_by_axis_points,
    reference_rays,
    reference_row_reduce,
    reference_separate,
    reference_vertices,
    reference_zero_inside,
)
from helpers_instances import random_polyhedral_problem
from helpers_lp import verify_farkas
from mosipcert import cones, lp
from mosipcert.cones import (
    FGCone,
    HCone,
    Member,
    NotMember,
    Polytope,
    cone_member,
    contains,
    dd_convert,
    membership,
    normal_escape,
    polar,
    span_rank,
    strict_direction,
    subspace_escape,
    zero_interior,
)
from mosipcert.errors import InternalInconsistencyError
from mosipcert.instances import FIXTURE_BUILDERS
from mosipcert.problem import CandidatePoint
from mosipcert.rationals import Q, lincomb, qdot, scaled_ints, vec_q

SEED = 987123


def _rand_vec(rng: random.Random, dim: int) -> list:
    return [Q(rng.randint(-3, 3)) for _ in range(dim)]


# ---------------------------------------------------------------------------
# polar / dd frozen cases


def test_polar_single_generator_line() -> None:
    h = polar(FGCone(1, [[2]]))
    assert h.normals == ((1,),)  # primitive scaling
    assert h.member([-5]) and not h.member([Q(1, 7)])


def test_polar_of_zero_cone_is_all_space() -> None:
    h = polar(FGCone(3, []))
    assert h.normals == ()
    assert h.member([1, -2, 3])


def test_polar_orthant() -> None:
    h = polar(FGCone(2, [[1, 0], [0, 1]]))
    assert h.normals == ((0, 1), (1, 0))


def test_dd_negative_orthant() -> None:
    g = dd_convert(2, [[1, 0], [0, 1]])
    assert g.generators == ((-1, 0), (0, -1))


def test_dd_halfline() -> None:
    g = dd_convert(1, [[2]])
    assert g.generators == ((-1,),)


def test_dd_no_normals_gives_all_space() -> None:
    g = dd_convert(2, [])
    assert set(g.generators) == {(1, 0), (-1, 0), (0, 1), (0, -1)}


# ---------------------------------------------------------------------------
# canonicalization


def test_polytope_drops_interior_and_duplicate_points() -> None:
    p = Polytope(1, [[0], [1], [Q(1, 2)], [1]])
    assert p.vertices == ((0,), (1,))


def test_polytope_empty() -> None:
    p = Polytope(2, [])
    assert not p.vertices


def test_fgcone_scales_and_prunes() -> None:
    c = FGCone(2, [[2, 0], [1, 0], [1, 1], [0, 3], [0, 0]])
    # (1,1) is between (1,0) and (0,1); zero vector dropped
    assert c.generators == ((0, 1), (1, 0))


def test_hcone_removes_implied_normals() -> None:
    h = HCone(2, [[1, 0], [0, 1], [1, 1], [2, 0]])
    assert h.normals == ((0, 1), (1, 0))


def _family(rng: random.Random, dim: int) -> list:
    """Vectors with every kind of redundancy the canonical forms remove: a
    duplicate, a zero vector, a positive multiple, a +- pair (a lineality
    line for cones) and a midpoint (an interior point for polytopes)."""
    base = [_rand_vec(rng, dim) for _ in range(rng.randint(1, 5))]
    v = rng.choice(base)
    out = base + [
        list(rng.choice(base)),
        [Q(0)] * dim,
        [Q(rng.randint(2, 3)) * c for c in rng.choice(base)],
        v,
        [-c for c in v],
    ]
    a, b = rng.sample(out, 2)
    out.append([(x + y) / 2 for x, y in zip(a, b)])
    rng.shuffle(out)
    return out


@pytest.mark.parametrize("dim", [1, 2, 3, 4, 5])
def test_canonical_forms_match_the_decompose_reference(dim: int) -> None:
    rng = random.Random(SEED + dim)
    for _ in range(10 if dim < 5 else 4):
        family = _family(rng, dim)
        assert Polytope(dim, family).vertices == reference_vertices(family)
        assert FGCone(dim, family).generators == reference_rays(family)
        assert HCone(dim, family).normals == reference_rays(family)
        normals = family[: rng.randint(1, 4)]
        h = HCone(dim, normals)
        assert dd_convert(h.dim, h.normals).generators == reference_dd_convert(dim, normals)


POINT_SET_KINDS = (
    "none", "one", "duplicates", "all-extreme", "interior", "grid", "lower-dimensional",
)


def _point_set(rng: random.Random, dim: int, kind: str) -> list:
    """Seeded points of one kind: duplicates; all extreme (eight points of
    the moment curve (t, t^2, ...), in convex position like the octagon's
    subgradients; collinear in dimension 1); extreme points with convex
    combinations inside; grid points of {0, 1, 2}^n, many collinear or
    coplanar, with ties in every coordinate; points of a lower-dimensional
    affine subspace; one point; none."""

    def vec() -> list:
        return [Q(rng.randint(-4, 4), rng.randint(1, 2)) for _ in range(dim)]

    if kind == "none":
        return []
    if kind == "one":
        return [vec()]
    if kind == "duplicates":
        points = [vec() for _ in range(rng.randint(2, 6))]
        return points + [list(rng.choice(points)) for _ in range(3)]
    if kind == "all-extreme":
        return [[Q(t) ** (j + 1) for j in range(dim)] for t in rng.sample(range(-5, 6), 8)]
    if kind == "interior":
        points = [vec() for _ in range(rng.randint(2, 6))]
        for _ in range(rng.randint(1, 6)):
            weights = [Q(rng.randint(0, 3)) for _ in points]
            total = sum(weights) or Q(1)
            points.append([sum(w * v[i] for w, v in zip(weights, points)) / total
                           for i in range(dim)])
        return points
    if kind == "grid":
        return [[Q(rng.randint(0, 2)) for _ in range(dim)] for _ in range(rng.randint(4, 16))]
    # an affine subspace of dimension below n (a point or a line in dimension 1)
    base, directions = vec(), [vec() for _ in range(rng.randint(0, dim - 1))]
    return [
        [b + sum(t * d[i] for t, d in zip(ts, directions)) for i, b in enumerate(base)]
        for ts in ([Q(rng.randint(-3, 3)) for _ in directions] for _ in range(rng.randint(2, 10)))
    ]


@pytest.mark.parametrize("dim", [1, 2, 3, 4, 5])
def test_polytope_matches_the_greedy_loop(dim: int, monkeypatch) -> None:
    # Clarkson's algorithm keeps the extreme points the greedy loop kept,
    # with at most one LP per point, each with a row per coordinate, the
    # simplex row and a row per extreme point found so far, and none in
    # dimension 1
    rng = random.Random(SEED + 10 * dim)
    rows = []
    solve = lp.solve
    monkeypatch.setattr(lp, "solve", lambda prog: rows.append(len(prog.rows)) or solve(prog))
    for kind in POINT_SET_KINDS:
        for _ in range(6):
            points = _point_set(rng, dim, kind)
            del rows[:]
            vertices = Polytope(dim, points).vertices
            assert len(rows) <= len({tuple(p) for p in points})
            assert all(r <= dim + 1 + len(vertices) for r in rows)
            assert not rows or dim > 1
            assert vertices == greedy_vertices(points), (kind, points)


def _count_solves(monkeypatch) -> list:
    count = [0]
    solve = lp.solve

    def counted(prog):
        count[0] += 1
        return solve(prog)

    monkeypatch.setattr(lp, "solve", counted)
    return count


def test_one_vector_canonicalisation_makes_no_lp(monkeypatch) -> None:
    count = _count_solves(monkeypatch)
    assert Polytope(2, [[1, 2], [1, 2]]).vertices == ((1, 2),)
    assert FGCone(2, [[2, 4], [0, 0], [1, 2]]).generators == ((1, 2),)
    assert HCone(2, [[2, 4], [1, 2]]).normals == ((1, 2),)
    assert count[0] == 0


# ---------------------------------------------------------------------------
# forced answers: settled by elimination, checked against the LP


def _decompose_input(rng: random.Random, dim: int) -> tuple:
    """Seeded (target, hulls, cones): zero to two hull blocks and cone
    blocks, some columns repeated, scaled or summed (dependent columns), some
    cones with a line (g and -g), and a target that is a nonnegative
    combination of the columns, one with a negative weight, or random."""

    def vec() -> tuple:
        return tuple(Q(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(dim))

    hulls = [[vec() for _ in range(rng.randint(1, 2))] for _ in range(rng.randint(0, 2))]
    cones_ = [[vec() for _ in range(rng.randint(1, 2))] for _ in range(rng.randint(0, 2))]
    if cones_ and rng.random() < 0.3:
        g = vec()
        cones_[0] += [g, tuple(-c for c in g)]
    blocks = hulls + cones_
    if blocks and rng.random() < 0.3:
        block = rng.choice(blocks)
        a, b = rng.choice(block), rng.choice(block)
        block.append(tuple(Q(rng.randint(1, 2)) * x + y for x, y in zip(a, b)))
    columns = [c for block in blocks for c in block]
    kind = rng.choice(("inside", "negative", "random"))
    if kind == "random" or not columns:
        return vec(), hulls, cones_
    weights = [Q(rng.randint(0, 3)) for _ in columns]
    if kind == "negative":
        weights[rng.randrange(len(weights))] = Q(-1)
    num_hull = sum(len(block) for block in hulls)
    total = sum(weights[:num_hull], Q(0))
    if hulls and total != 0:
        weights[:num_hull] = [w / total for w in weights[:num_hull]]
    target = tuple(sum((w * c[i] for w, c in zip(weights, columns)), Q(0)) for i in range(dim))
    return target, hulls, cones_


def test_decompose_matches_the_lp_on_generated_inputs(monkeypatch) -> None:
    # the weights settled by elimination are the LP's only feasible point,
    # and every other answer is the LP's own, Farkas vector included
    rng = random.Random(SEED + 70)
    inputs = []
    for _ in range(400):
        target, hulls, cones_ = _decompose_input(rng, rng.randint(1, 4))
        if hulls or (cones_ and any(c != 0 for c in target)):
            inputs.append((target, hulls, cones_, lp_decompose(target, hulls, cones_)))
    count = _count_solves(monkeypatch)
    settled = 0
    for target, hulls, cones_, reference in inputs:
        before = count[0]
        assert cones.decompose(target, hulls, cones_) == reference, (target, hulls, cones_)
        settled += count[0] == before
        assert count[0] == before or count[0] == before + 1
    # both paths are exercised
    assert 50 < settled < len(inputs) - 50


def _forced_margin_input(rng: random.Random) -> tuple:
    """Seeded (target, hulls, cones, weights) whose equality rows force the
    weights: zero to two hull blocks and cone blocks of random columns,
    independent with their simplex-row entries, and a target that the
    nonnegative weights, some of them 0, write over them."""
    while True:
        dim = rng.randint(1, 4)
        sizes = [rng.randint(1, 2) for _ in range(rng.randint(0, 2))]
        cone_sizes = [rng.randint(1, 2) for _ in range(rng.randint(0, 2))]
        hulls = [[tuple(Q(rng.randint(-3, 3)) for _ in range(dim)) for _ in range(m)] for m in sizes]
        cones_ = [[tuple(Q(rng.randint(-3, 3)) for _ in range(dim)) for _ in range(m)] for m in cone_sizes]
        k, rows = decompose_rows((Q(0),) * dim, hulls, cones_)
        if k == 0 or len(reference_row_reduce([list(a) for a, rel, _ in rows if rel == lp.EQ], k)) < k:
            continue
        weights = [Q(rng.choice((0, 1, 2, 3))) for _ in range(k)]
        num_hull = sum(sizes)
        total = sum(weights[:num_hull], Q(0))
        if num_hull and total == 0:
            weights[0], total = Q(1), Q(1)
        if num_hull:
            weights[:num_hull] = [w / total for w in weights[:num_hull]]
        columns = [c for block in hulls + cones_ for c in block]
        return vec_q(lincomb(weights, columns, dim)), hulls, cones_, weights


def test_forced_margin_matches_the_lp_it_skips(monkeypatch) -> None:
    # forced weights are the margin LP's only feasible point, so decompose
    # returns them, and the LP's tau, min(1, least hull-block sum), with no LP
    rng = random.Random(SEED + 71)
    cases = [_forced_margin_input(rng) for _ in range(150)]
    references = [lp_margin_decompose(t, h, c) for t, h, c, _ in cases]
    count = _count_solves(monkeypatch)
    taus = set()
    for (target, hulls, cones_, weights), reference in zip(cases, references):
        assert isinstance(reference, lp.Optimal)
        assert reference.primal[:-1] == weights
        assert cones.decompose(target, hulls, cones_, margin=True) == reference.primal
        assert cones.decompose(target, hulls, cones_) == weights
        taus.add(reference.primal[-1])
    assert count[0] == 0
    # the cap, a block sum below it, and 0 all occur
    assert {Q(0), Q(1)} < taus


def test_infeasible_margin_lp_returns_the_plain_rows_farkas_vector() -> None:
    # the margin rows and the tau cap carry no Farkas weight, so what is
    # returned certifies the plain rows, and the exact check of those zeros
    # holds on every infeasible input
    rng = random.Random(SEED + 72)
    refused = 0
    for _ in range(300):
        target, hulls, cones_ = _decompose_input(rng, rng.randint(1, 4))
        if not hulls:
            continue
        res = cones.decompose(target, hulls, cones_, margin=True)
        assert isinstance(res, list) == isinstance(lp_decompose(target, hulls, cones_), list)
        if isinstance(res, lp.Infeasible):
            assert verify_farkas(decompose_rows(target, hulls, cones_)[1], res.farkas)
            refused += 1
    assert refused > 20


def test_forced_weights_are_checked_by_substitution(monkeypatch) -> None:
    # an elimination that went wrong is caught before its weights leave
    gens = [(Q(1), Q(0)), (Q(1), Q(1))]
    assert cones.decompose((Q(3), Q(1)), (), [gens]) == [Q(2), Q(1)]
    real = cones._row_reduce

    def corrupted(rows, ncols):
        pivots = real(rows, ncols)
        rows[0][ncols] += rows[0][0]
        return pivots

    monkeypatch.setattr(cones, "_row_reduce", corrupted)
    with pytest.raises(InternalInconsistencyError):
        cones.decompose((Q(3), Q(1)), (), [gens])


@pytest.mark.parametrize("dim", [1, 2, 3, 4])
def test_cone_forms_do_not_depend_on_the_generating_set(dim: int) -> None:
    # a shuffled set, and the set with one nonnegative combination of its
    # members added, describe the same cone, so they give the same form
    rng = random.Random(SEED + 80 + dim)
    for _ in range(8):
        family = _family(rng, dim)
        fg, h = FGCone(dim, family), HCone(dim, family)
        for _ in range(4):
            rng.shuffle(family)
            weights = [Q(rng.randint(0, 2)) for _ in family]
            more = family + [list(lincomb(weights, family, dim))]
            assert FGCone(dim, family) == FGCone(dim, more) == fg, family
            assert HCone(dim, family) == HCone(dim, more) == h, family


@pytest.mark.parametrize("dim", [1, 2, 3, 4, 5])
def test_cone_forms_are_the_double_description_form(dim: int) -> None:
    # the generators of the polar's generators, both LP-free, are the cone's
    # dd_convert form; the constructors reach it with LPs
    rng = random.Random(SEED + 70 + dim)
    for _ in range(10):
        family = _family(rng, dim)
        form = dd_convert(dim, dd_convert(dim, family).generators)
        assert FGCone(dim, family).generators == form.generators, family
        assert HCone(dim, family).normals == form.generators, family


def test_double_description_output_is_a_fixed_point() -> None:
    rng = random.Random(SEED + 60)
    for _ in range(30):
        dim = rng.randint(1, 5)
        h = HCone(dim, _family(rng, dim)[: rng.randint(0, dim + 1)])
        g = dd_convert(h.dim, h.normals).generators
        assert FGCone(dim, g).generators == g


def test_cone_form_has_no_dimension_cap() -> None:
    # e_1..e_4 and minus their sum span a lineality space, the rest is a
    # pointed cone after projection; the constructor reaches the form in
    # dimension 7 with LPs
    rng = random.Random(SEED + 50)
    units = [[Q(int(i == j)) for i in range(7)] for j in range(4)]
    pointed = [
        [Q(rng.randint(-2, 2)) for _ in range(4)] + [Q(rng.randint(0, 3)) for _ in range(3)]
        for _ in range(6)
    ]
    family = units + [[-c for c in v] for v in units[:3]] + [[-1, -1, -1, -1, 0, 0, 0]] + pointed
    rng.shuffle(family)
    got = FGCone(7, family).generators
    assert got == reference_rays(family)
    assert sum(1 for g in got if tuple(-c for c in g) in got) == 8


@pytest.mark.parametrize("dim", [2, 3, 4, 5])
def test_extreme_points_match_the_lp_reference(dim: int) -> None:
    rng = random.Random(SEED + 100 + dim)
    for kind in POINT_SET_KINDS:
        for _ in range(4):
            points = sorted(set(vec_q(p) for p in _point_set(rng, dim, kind)))
            assert tuple(cones._extreme_points(points)) == reference_vertices(points), (kind, points)


def test_pruning_independent_vectors_makes_no_lp(monkeypatch) -> None:
    count = _count_solves(monkeypatch)
    vectors = [[1, 2, 0], [0, 1, -1], [3, 0, 1]]
    assert len(FGCone(3, vectors).generators) == 3
    assert len(HCone(3, vectors).normals) == 3
    assert count[0] == 0


def test_cone_member_over_independent_generators_makes_no_lp(monkeypatch) -> None:
    c = FGCone(3, [[1, 0, 0], [1, 1, 0], [0, 1, 2]])
    count = _count_solves(monkeypatch)
    weights = cone_member([5, 2, 2], c)
    assert count[0] == 0
    assert min(weights) >= 0 and lincomb(weights, c.generators, 3) == vec_q([5, 2, 2])
    # a negative forced weight, or a point off the span, still asks the LP
    assert cone_member([-1, 0, 0], c) is None
    assert count[0] == 1
    assert cone_member([1, 2, 3], FGCone(3, [[1, 0, 0], [0, 1, 0]])) is None
    assert count[0] == 2


def test_point_off_the_affine_hull_makes_no_clarkson_lp(monkeypatch) -> None:
    # the seeds, the maximisers of +-p_j, lie on the plane z = x; the apex
    # (0, 0, 1) is extreme in no coordinate, and the elimination shows it is
    # off their plane, so it joins with no LP
    seeds = [[2, 0, 2], [-2, 0, -2], [0, 2, 0], [0, -2, 0]]
    count = _count_solves(monkeypatch)
    vertices = Polytope(3, seeds + [[0, 0, 1]]).vertices
    assert count[0] == 0
    assert vertices == tuple(sorted(vec_q(p) for p in seeds + [[0, 0, 1]]))


def test_dd_convert_of_spanning_normals_makes_no_lp(monkeypatch) -> None:
    # a pointed cone's generators are its extreme rays, built without LPs,
    # from the canonical normals and from raw rows alike
    rng = random.Random(SEED)
    inputs = []
    while len(inputs) < 6:
        dim = rng.randint(2, 5)
        normals = _family(rng, dim)
        if span_rank(normals) == dim:
            inputs.append((HCone(dim, normals), normals))
    count = _count_solves(monkeypatch)
    for h, raw in inputs:
        assert dd_convert(h.dim, h.normals) == dd_convert(h.dim, raw)
    assert count[0] == 0


def test_dd_convert_with_lineality_makes_no_lp(monkeypatch) -> None:
    # a cone with lineality takes the same LP-free path: the +- pairs of its
    # lineality basis and the extreme rays of its pointed part, from the
    # canonical normals and from raw rows alike, and irredundant
    rng = random.Random(SEED)
    inputs = []
    while len(inputs) < 8:
        dim = rng.randint(2, 5)
        normals = _family(rng, dim)[: rng.randint(0, dim)]
        if len(inputs) % 2:
            normals = [v[:-1] + [Q(0)] for v in normals]  # a zero column
        if span_rank(normals) < dim:
            inputs.append((HCone(dim, normals), normals))
    count = _count_solves(monkeypatch)
    outs = []
    for h, raw in inputs:
        outs.append(dd_convert(h.dim, h.normals))
        assert dd_convert(h.dim, raw) == outs[-1]
    assert count[0] == 0
    for (h, _), out in zip(inputs, outs):
        assert FGCone(h.dim, out.generators) == out


POINTED_KINDS = ("plain", "duplicate", "redundant", "degenerate", "zero")
LINEALITY_KINDS = ("fewer", "zero column", "pairs", "none")


def _dd_normals(rng: random.Random, dim: int, kind: str) -> list:
    """Integer normals in [-2, 2] with one kind of awkwardness.  The pointed
    kinds span dim-space: a duplicate and a positive multiple, a redundant
    positive combination, a degenerate ray (many normals orthogonal to one
    vector), or a cone that is {0}.  The lineality kinds do not: fewer
    normals than the dimension, a zero column, +- pairs, or no normals."""
    if kind == "none":
        return []
    while True:
        count = rng.randint(1, dim - 1) if kind in ("fewer", "pairs") else rng.randint(dim, dim + 2)
        normals = [[rng.randint(-2, 2) for _ in range(dim)] for _ in range(count)]
        if kind == "duplicate":
            a = rng.choice(normals)
            normals.append(list(a))
            if max(map(abs, a)) <= 1:
                normals.append([2 * c for c in a])
        elif kind == "redundant":
            a, b = rng.sample(normals, 2)
            if all(abs(x + y) <= 2 for x, y in zip(a, b)):
                normals.append([x + y for x, y in zip(a, b)])
        elif kind == "degenerate":
            # normals orthogonal to (1, ..., 1) meet on that line
            for _ in range(dim + 1):
                head = [rng.randint(-1, 1) for _ in range(dim - 1)]
                normals.append(head + [-sum(head)])
        elif kind == "zero":
            # a normal opposite to the sum of the others pins every a'd to 0
            total = [sum(col) for col in zip(*normals)]
            normals.append([-c for c in total])
        elif kind == "zero column":
            j = rng.randrange(dim)
            for a in normals:
                a[j] = 0
        elif kind == "pairs":
            normals += [[-c for c in a] for a in rng.sample(normals, rng.randint(1, count))]
        if (span_rank(normals) == dim) == (kind in POINTED_KINDS):
            rng.shuffle(normals)
            return normals


def test_pointed_dd_matches_the_sliced_reference() -> None:
    # every kind meets every dimension; the reference's pruning LPs grow
    # fast with the dimension, so the higher dimensions get fewer cases
    rng = random.Random(SEED + 11)
    kinds = POINTED_KINDS + LINEALITY_KINDS
    zero_cones = degenerate_rays = 0
    lineality = {dim: 0 for dim in (2, 3, 4, 5)}
    for case in range(576):
        dim = (2, 3, 4, 5, 2, 3, 4, 2)[case % 8]
        normals = _dd_normals(rng, dim, kinds[case % len(kinds)])
        h = HCone(dim, normals)
        got = dd_convert(h.dim, h.normals)
        assert got.generators == reference_dd_convert(dim, normals)
        assert dd_convert(dim, normals) == got  # pruned or not
        zero_cones += not got.generators
        degenerate_rays += sum(
            sum(1 for a in h.normals if qdot(a, r) == 0) > dim - 1 for r in got.generators
        )
        lineality[dim] += span_rank(normals) < dim
    assert zero_cones >= 20 and degenerate_rays >= 20
    assert min(lineality.values()) >= 30


def test_primitive_scaling() -> None:
    assert primitive([Q(4, 6), Q(-2, 3)]) == (1, -1)
    assert primitive([Q(0), Q(5, 7)]) == (0, 1)


# ---------------------------------------------------------------------------
# membership / separation


def test_membership_interval_plus_ray() -> None:
    points, gens = Polytope(1, [[-2], [-1]]).vertices, FGCone(1, [[2]]).generators
    res = membership([0], points, gens)
    assert isinstance(res, Member)
    x = sum(a * v[0] for a, v in zip(res.alpha, points)) + sum(
        m * g[0] for m, g in zip(res.mu, gens)
    )
    assert x == 0 and sum(res.alpha) == 1
    assert all(a >= 0 for a in res.alpha) and all(m >= 0 for m in res.mu)


def test_membership_vertex_unit_coefficient() -> None:
    res = membership([1, 2], Polytope(2, [[1, 2], [3, -1]]).vertices, ())
    assert isinstance(res, Member)
    assert sorted(res.alpha) == [0, 1]


def test_separator_verifies_by_substitution() -> None:
    points, gens = Polytope(2, [[-1, 0]]).vertices, FGCone(2, [[4, 1], [0, 1]]).generators
    res = membership([0, 0], points, gens)
    assert isinstance(res, NotMember)
    h = res.separator
    sup_base = max(qdot(h, v) for v in points)
    assert qdot(h, (0, 0)) > sup_base
    assert all(qdot(h, g) <= 0 for g in gens)
    assert res.gap > 0


def test_membership_empty_base() -> None:
    res = membership([0], (), FGCone(1, [[1]]).generators)
    assert isinstance(res, NotMember)


# ---------------------------------------------------------------------------
# interior / triviality


def test_zero_interior_halfline_radius_two() -> None:
    zi = zero_interior(1, Polytope(1, [[-2], [-1]]).vertices, FGCone(1, [[2]]).generators)
    assert zi.inside and zi.radius_lower_bound == 2 and zi.exact


def test_zero_interior_simplex_unit_inradius() -> None:
    # all three facet distances equal 1 (normals are Pythagorean)
    zi = zero_interior(2, Polytope(2, [[0, Q(5, 4)], [3, -1], [-3, -1]]).vertices, ())
    assert zi.inside and zi.radius_lower_bound == 1 and zi.exact


def test_zero_interior_boundary_point() -> None:
    points = Polytope(2, [[0, 0], [1, 0], [0, 1]]).vertices
    zi = zero_interior(2, points, ())
    assert not zi.inside
    d = zi.witness_direction
    assert d is not None and any(c != 0 for c in d)
    assert all(qdot(v, d) <= 0 for v in points)


def test_zero_interior_empty() -> None:
    zi = zero_interior(2, (), ())
    assert not zi.inside


def test_zero_interior_axis_path_dim4() -> None:
    cube = Polytope(4, list(itertools.product([-1, 1], repeat=4))).vertices
    zi = zero_interior(4, cube, ())
    assert zi.inside and zi.radius_lower_bound == Q(1, 2)  # 1/sqrt(4), certified


def test_axis_steps_match_the_lp_reference() -> None:
    # each axis step is one decompose with margin; the replaced LP with the
    # step as its own column is the reference.  Dimensions 1-3 take the
    # facet radius in zero_interior, so the axis path is called directly;
    # unit generators make some steps unbounded, capped at 2**20
    rng = random.Random(SEED + 90)
    capped = set()
    for dim in (1, 2, 3, 4, 5):
        drawn = 0
        while drawn < 12:
            verts = [_rand_vec(rng, dim) for _ in range(rng.randint(1, 2 * dim + 2))]
            gens = [_rand_vec(rng, dim) for _ in range(rng.randint(0, 2))]
            if rng.random() < 0.4:
                gens.append(list(cones._unit(dim, rng.randrange(dim), Q(rng.choice((1, -1))))))
            if span_rank(verts + gens) < dim or subspace_escape(verts + gens) is not None:
                continue
            drawn += 1
            steps = reference_axis_steps(dim, verts, gens)
            capped.add(max(steps) == 2**20)
            want = reference_radius_by_axis_points(dim, steps)
            if dim <= 3:
                assert cones._radius_by_axis_points(dim, verts, gens) == want
            else:
                assert zero_interior(dim, verts, gens) == want
    assert capped == {True, False}


def test_zero_interior_radius_certifies_axis_points() -> None:
    rng = random.Random(SEED)
    checked = 0
    for _ in range(30):
        dim = rng.randint(1, 3)
        base = Polytope(dim, [_rand_vec(rng, dim) for _ in range(rng.randint(1, 4))])
        rec = FGCone(dim, [_rand_vec(rng, dim) for _ in range(rng.randint(0, 2))])
        zi = zero_interior(dim, base.vertices, rec.generators)
        if not zi.inside:
            continue
        checked += 1
        nu = zi.radius_lower_bound
        assert nu > 0
        for j in range(dim):
            for sign in (1, -1):
                p = [Q(0)] * dim
                p[j] = sign * nu
                assert isinstance(membership(p, base.vertices, rec.generators), Member)
    assert checked >= 3


def test_cone_triviality() -> None:
    assert reference_nontrivial_direction(HCone(1, [[1], [-1]])) is None
    d = reference_nontrivial_direction(HCone(1, [[1]]))
    assert d is not None and d[0] < 0


def _check_zero_interior(dim: int, points, gens) -> bool:
    """zero_interior(dim, points, gens) against the replaced 2n-boxed-LP
    triviality test: the same verdict, and when 0 is not interior a nonzero
    witness d with d'v <= 0 and d'g <= 0 for every vertex and generator.
    Returns the verdict."""
    zi = zero_interior(dim, points, gens)
    assert zi.inside == reference_zero_inside(dim, points, gens)
    if not zi.inside and points:
        d = zi.witness_direction
        assert len(d) == dim and any(c != 0 for c in d)
        assert all(qdot(d, v) <= 0 for v in points)
        assert all(qdot(d, g) <= 0 for g in gens)
    return zi.inside


def test_zero_interior_matches_the_boxed_reference_on_fixtures() -> None:
    outcomes = set()
    for build in FIXTURE_BUILDERS.values():
        p = build()
        cp = CandidatePoint.build(p, [Q(0)] * p.dimension)
        for points, gens in _fixture_sets(p, cp):
            outcomes.add(_check_zero_interior(p.dimension, points, gens))
    assert outcomes == {True, False}


def test_zero_interior_matches_the_boxed_reference_on_random_instances() -> None:
    rng = random.Random(5519)
    outcomes = []
    for _ in range(60):
        p, x = random_polyhedral_problem(rng)
        cp = CandidatePoint.build(p, x)
        outcomes.append(
            _check_zero_interior(p.dimension, cp.F_star.vertices, cp.G_star.generators)
        )
    assert outcomes.count(True) >= 10 and outcomes.count(False) >= 10


def test_zero_interior_matches_the_boxed_reference_on_random_sets() -> None:
    rng = random.Random(6121)
    outcomes = set()
    for _ in range(60):
        dim = rng.randint(1, 4)
        base = Polytope(dim, [_rand_vec(rng, dim) for _ in range(rng.randint(1, 6))])
        rec = FGCone(dim, [_rand_vec(rng, dim) for _ in range(rng.randint(0, 2))])
        outcomes.add(_check_zero_interior(dim, base.vertices, rec.generators))
    assert outcomes == {True, False}


def test_zero_interior_asks_one_lp_at_most_before_the_radius(monkeypatch) -> None:
    # below rank n the null space gives the witness with no LP; at rank n one
    # decomposition of minus the sum decides, none when the sum is 0
    sets = []
    rng = random.Random(5519)
    for _ in range(60):
        p, x = random_polyhedral_problem(rng)
        cp = CandidatePoint.build(p, x)
        sets.append((p.dimension, cp.F_star.vertices, cp.G_star.generators))
    solves = []
    solve = lp.solve
    monkeypatch.setattr(lp, "solve", lambda prog: solves.append(prog) or solve(prog))
    stub = lambda *args: "radius"  # noqa: E731
    monkeypatch.setattr(cones, "_radius_by_facets", stub)
    monkeypatch.setattr(cones, "_radius_by_axis_points", stub)
    ranks = set()
    for dim, points, gens in sets:
        normals = list(points) + list(gens)
        rank = span_rank(normals)
        zero_sum = all(sum(c) == 0 for c in zip(*normals))
        solves.clear()
        zero_interior(dim, points, gens)
        assert len(solves) == (0 if rank < dim or zero_sum else 1)
        ranks.add(rank < dim)
    assert ranks == {True, False}


def test_zero_interior_reads_a_given_escape() -> None:
    # a point hands over its kept answer, which is asked only at rank n
    corner = Polytope(2, [[0, 0], [1, 0], [0, 1]]).vertices
    normals = list(corner)
    asked = []
    zi = zero_interior(2, corner, (), lambda: asked.append(1) or subspace_escape(normals))
    assert asked == [1] and zi == zero_interior(2, corner, ()) and not zi.inside
    segment = Polytope(2, [[1, 0], [-1, 0]]).vertices
    zi = zero_interior(2, segment, (), lambda: asked.append(1))
    assert asked == [1] and not zi.inside and zi.witness_direction == (Q(0), Q(1))


def test_subspace_escape_witness() -> None:
    assert subspace_escape([(Q(1), Q(0)), (Q(-1), Q(0))]) is None
    normals = [(Q(1), Q(0)), (Q(0), Q(1)), (Q(-1), Q(1))]
    d = subspace_escape(normals)
    assert all(qdot(a, d) <= 0 for a in normals)
    assert any(qdot(a, d) < 0 for a in normals)


# ---------------------------------------------------------------------------
# containment / directions / rank


def test_contains_frozen() -> None:
    minus = HCone(1, [[1]])
    assert contains(minus, minus).holds
    res = contains(dd_convert(1, minus.normals), dd_convert(1, [[-1]]))
    assert not res.holds and res.witness == (-1,)
    # an H-cone with no normals is all of space: b's first normal escapes
    res = contains(HCone(2, []), HCone(2, [[0, 1], [1, 0]]))
    assert not res.holds and res.witness == (0, 1)
    res = contains(HCone(2, [[1, 0], [0, 1]]), HCone(2, [[1, 1]]))
    assert res.holds and res.witness is None


def test_contains_hcone_in_fgcone() -> None:
    res = contains_across(HCone(2, [[1, 0], [0, 1]]), FGCone(2, [[-1, 0], [0, -1]]))
    assert res.holds
    res = contains_across(HCone(2, [[1, 0]]), FGCone(2, [[-1, 0]]))
    assert not res.holds
    w = res.witness
    assert w[0] <= 0 and cone_member(w, FGCone(2, [[-1, 0]])) is None


def test_span_rank_frozen() -> None:
    assert span_rank([[-2], [-1]]) == 1
    assert span_rank([[-1, 0]]) == 1
    assert span_rank([[0, 0]]) == 0
    assert span_rank([[1, 0, 0], [1, 1, 0], [2, 1, 0]]) == 2


ELIMINATION_DENOMINATORS = [1, 1, 2, 3, 7, 10**9 + 7]


def _elimination_matrix(rng: random.Random) -> tuple:
    """(rows, ncols, features): a rational matrix with integer or rational
    entries (denominators up to 10**9 + 7), now and then a zero column and
    a row that depends on the others, with more rows than columns or fewer."""
    nrows, ncols = rng.randint(1, 6), rng.randint(1, 6)
    integer = rng.random() < 0.3
    rows = [
        [Q(rng.randint(-4, 4), 1 if integer else rng.choice(ELIMINATION_DENOMINATORS))
         for _ in range(ncols)]
        for _ in range(nrows)
    ]
    features = {"integer" if integer else "rational"}
    if ncols > 1 and rng.random() < 0.4:
        zero = rng.randrange(ncols)
        for row in rows:
            row[zero] = Q(0)
        features.add("zero column")
    if nrows > 1 and rng.random() < 0.5:
        f, g = (Q(rng.randint(-3, 3), rng.choice(ELIMINATION_DENOMINATORS)) for _ in range(2))
        a, b = rng.sample(range(nrows), 2)
        rows[rng.randrange(nrows)] = [f * x + g * y for x, y in zip(rows[a], rows[b])]
        features.add("dependent row")
    if nrows != ncols:
        features.add("more rows" if nrows > ncols else "fewer rows")
    return rows, ncols, features


def _positive_multiple(ints, ref) -> bool:
    """ints = c * ref for some rational c > 0, or both are zero."""
    j = next((j for j, x in enumerate(ref) if x != 0), -1)
    if j < 0:
        return all(x == 0 for x in ints)
    c = Q(ints[j]) / ref[j]
    return c > 0 and all(x == c * y for x, y in zip(ints, ref))


def test_integer_elimination_matches_the_rational_reference() -> None:
    # the same pivots as the rational Gauss-Jordan elimination, and every row
    # a positive multiple of its row, so signs, the lineality basis and every
    # primitive ray of the double description are unchanged; both over all
    # columns and, as `_eliminate` does, over a leading block of them
    rng = random.Random(f"{SEED}:elimination")
    seen = set()
    for _ in range(300):
        rows, ncols, features = _elimination_matrix(rng)
        seen |= features
        for width in sorted({ncols, rng.randint(1, ncols)}):
            ref = [list(row) for row in rows]
            ints = [scaled_ints(row)[0] for row in rows]
            assert cones._row_reduce(ints, width) == reference_row_reduce(ref, width)
            assert all(type(x) is int for row in ints for x in row)
            assert all(_positive_multiple(z, r) for z, r in zip(ints, ref))
    assert seen == {"integer", "rational", "zero column", "dependent row", "more rows", "fewer rows"}


def test_eliminate_matches_the_rational_reference() -> None:
    # [A' | I] with the identity block scaled with its row, for rational
    # normals (as `zero_interior` passes them) and integer ones (`dd_convert`)
    rng = random.Random(f"{SEED}:eliminate")
    for _ in range(100):
        rows, dim, _ = _elimination_matrix(rng)
        normals = [tuple(row) for row in rows]
        if rng.random() < 0.3:
            normals = [tuple(scaled_ints(a)[0]) for a in normals]
        ref = [[Q(a[i]) for a in normals] + [Q(int(j == i)) for j in range(dim)]
               for i in range(dim)]
        ref_pivots = reference_row_reduce(ref, len(normals))
        ints, pivots = cones._eliminate(dim, normals)
        assert pivots == ref_pivots
        assert all(_positive_multiple(z, r) for z, r in zip(ints, ref))


# ---------------------------------------------------------------------------
# property-based sweeps


@st.composite
def fgcones(draw, max_dim: int = 3):
    dim = draw(st.integers(1, max_dim))
    k = draw(st.integers(0, 4))
    gens = [
        [draw(st.integers(-3, 3)) for _ in range(dim)] for _ in range(k)
    ]
    return FGCone(dim, gens)


@given(fgcones())
@settings(max_examples=60, deadline=None)
def test_bipolar_round_trip(c: FGCone) -> None:
    # polar(dd_convert(polar(c))) recovers c as a set
    h = polar(c)
    back = polar(dd_convert(h.dim, h.normals))
    assert cone_equal(back, c)


@given(fgcones(), st.lists(st.integers(-4, 4), min_size=3, max_size=3))
@settings(max_examples=60, deadline=None)
def test_dd_membership_agreement(c: FGCone, raw: list) -> None:
    h = polar(c)
    d = raw[: c.dim]
    direct = h.member(d)
    via_generators = cone_member(d, dd_convert(h.dim, h.normals)) is not None
    assert direct == via_generators


def _check_against_reference_separate(p, points, gens):
    """membership(p, points, gens) against the replaced separation LP: the
    same verdict, and a separator with gap = h'p - max h'v > 0 and h'r <= 0.
    Returns the pair of separators, (None, None) when p is in the set."""
    res, ref = membership(p, points, gens), reference_separate(p, points, gens)
    assert isinstance(res, Member) == (ref is None)
    if ref is None:
        return None, None
    h = res.separator
    assert res.gap == qdot(h, p) - max(qdot(h, v) for v in points) > 0
    assert all(qdot(h, r) <= 0 for r in gens)
    return res, ref


def _fixture_sets(p, cp) -> list:
    """F* + G*, each active constraint's subdifferential and the envelope's
    at the point, as (points, generators) pairs, where nonempty."""
    sets = [(cp.F_star.vertices, cp.G_star.generators)]
    sets += [cp.constraint_subdiff(k) for k in cp.T]
    sets.append(cp.psi_subdiff())
    return [s for s in sets if s is not None and s[0]]


def test_membership_separator_matches_the_reference_on_fixtures() -> None:
    # the verdict is the reference LP's, and each separator is valid; it is
    # read off decompose's Farkas vector, not the reference LP's optimum
    separated = 0
    for build in FIXTURE_BUILDERS.values():
        p = build()
        cp = CandidatePoint.build(p, [Q(0)] * p.dimension)
        n = p.dimension
        targets = [vec_q(t) for t in ([0] * n, [1] * n, [-1] * n, [-2] + [3] * (n - 1))]
        for points, gens in _fixture_sets(p, cp):
            for target in targets:
                res, ref = _check_against_reference_separate(target, points, gens)
                separated += ref is not None
    assert separated >= 10


def test_membership_separator_matches_the_reference_on_random_instances() -> None:
    rng = random.Random(4211)
    outcomes = set()
    for _ in range(40):
        p, x = random_polyhedral_problem(rng)
        cp = CandidatePoint.build(p, x)
        res, _ = _check_against_reference_separate(x, cp.F_star.vertices, cp.G_star.generators)
        outcomes.add(res is None)
    assert outcomes == {True, False}


def test_membership_separator_matches_the_reference_on_random_sets() -> None:
    rng = random.Random(977)
    outcomes = set()
    for _ in range(60):
        dim = rng.randint(1, 3)
        base = Polytope(dim, [_rand_vec(rng, dim) for _ in range(rng.randint(1, 4))])
        rec = FGCone(dim, [_rand_vec(rng, dim) for _ in range(rng.randint(0, 2))])
        p = _rand_vec(rng, dim)
        p[0] += 1 if p[0] >= 0 else -1  # p != 0
        res, _ = _check_against_reference_separate(p, base.vertices, rec.generators)
        outcomes.add(res is None)
    assert outcomes == {True, False}


@given(st.integers(0, 10**6))
@settings(max_examples=40, deadline=None)
def test_membership_separator_exclusivity(seed: int) -> None:
    rng = random.Random(seed)
    dim = rng.randint(1, 3)
    base = Polytope(dim, [_rand_vec(rng, dim) for _ in range(rng.randint(1, 4))])
    rec = FGCone(dim, [_rand_vec(rng, dim) for _ in range(rng.randint(0, 2))])
    p = _rand_vec(rng, dim)
    res = membership(p, base.vertices, rec.generators)
    if isinstance(res, Member):
        recon = [
            sum(a * v[i] for a, v in zip(res.alpha, base.vertices))
            + sum(m * g[i] for m, g in zip(res.mu, rec.generators))
            for i in range(dim)
        ]
        assert recon == list(map(Q, p)) and sum(res.alpha) == 1
    else:
        h = res.separator
        sup = max(qdot(h, v) for v in base.vertices)
        assert qdot(h, p) > sup
        assert all(qdot(h, g) <= 0 for g in rec.generators)


@given(st.integers(0, 10**6))
@settings(max_examples=30, deadline=None)
def test_contains_witness_verifies(seed: int) -> None:
    rng = random.Random(seed)
    dim = rng.randint(1, 3)
    a = HCone(dim, [_rand_vec(rng, dim) for _ in range(rng.randint(0, 3))])
    b = HCone(dim, [_rand_vec(rng, dim) for _ in range(rng.randint(0, 3))])
    res = contains(a, b)
    assert res.holds == reference_hcone_contains(a, b).holds
    if res.holds:
        # spot-check with the generator picture
        for g in dd_convert(a.dim, a.normals).generators:
            assert b.member(g)
    else:
        w = res.witness
        assert a.member(w) and not b.member(w)


@pytest.mark.parametrize("dim", [1, 2, 3, 4])
def test_normal_escape_over_raw_rows_matches_contains(dim: int, monkeypatch) -> None:
    # raw rows, redundant ones included, decide what their canonical HCone
    # decides, and an escape lies under the rows and over its normal
    rng = random.Random(SEED + 110 + dim)
    for _ in range(15):
        rows = _family(rng, dim)
        b = HCone(dim, [_rand_vec(rng, dim) for _ in range(rng.randint(1, 3))])
        escape = normal_escape(rows, b.normals)
        assert (escape is None) == contains(HCone(dim, rows), b).holds
        if escape is not None:
            t, d = escape
            assert t in b.normals and qdot(t, d) > 0
            assert all(qdot(r, d) <= 0 for r in rows)
    # a normal that is a positive multiple of a row asks no LP
    solves = []
    real = lp.solve
    monkeypatch.setattr(lp, "solve", lambda prog: solves.append(prog) or real(prog))
    rows = _family(rng, dim)
    assert normal_escape(rows, [[Q(3) * c for c in r] for r in rows if any(r)]) is None
    assert solves == []


@pytest.mark.parametrize(
    "call",
    [
        # p is outside, and the stub's zero Farkas vector separates nothing
        lambda: membership((Q(5), Q(0)), [(Q(1), Q(0))], []),
        # the cube's vertices sum to 0, so only the radius LPs run; they are
        # built when the test is collected, before lp.solve is stubbed
        lambda cube=Polytope(4, list(itertools.product([-1, 1], repeat=4))).vertices: (
            zero_interior(4, cube, ())
        ),
    ],
    ids=["strict_direction", "axis_radius"],
)
def test_unexpected_lp_outcome_is_an_internal_inconsistency(monkeypatch, call) -> None:
    # an LP comes back with an outcome its caller rules out, a Farkas vector
    # that separates nothing or no optimum where one must exist: exit 4 from
    # the CLI, and no `assert` that `python -O` would strip
    from mosipcert.errors import InternalInconsistencyError

    monkeypatch.setattr(lp, "solve", lambda prog: lp.Infeasible([Q(0)] * len(prog.rows)))
    with pytest.raises(InternalInconsistencyError):
        call()


def test_strict_direction_rejects_a_farkas_vector_that_does_not_separate() -> None:
    # d is minus the first dim Farkas entries, the simplex entry dropped:
    # (3, 0) is strictly negative on (-1, 0) and (-2, 1) and scales to
    # (1, 0); (0, 1) is only weakly negative on (-1, 0), and 0 on neither
    points = [(Q(-1), Q(0)), (Q(-2), Q(1))]
    assert strict_direction(points, lp.Infeasible([Q(-3), Q(0), Q(-1)]), 2) == (
        Q(-1),
        (Q(1), Q(0)),
    )
    for farkas in ([Q(0), Q(-1), Q(-1)], [Q(0), Q(0), Q(-1)]):
        with pytest.raises(InternalInconsistencyError):
            strict_direction(points, lp.Infeasible(farkas), 2)
