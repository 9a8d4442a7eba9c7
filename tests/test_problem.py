"""Model layer: envelope functions, active sets, derived sets at a candidate
point, the reference sublevel polyhedra of EADQ, and problem-file round
trips."""

from __future__ import annotations

import json
import random
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mosipcert.cones import (
    FGCone,
    HCone,
    HPoly,
    Polytope,
    decompose,
    subspace_escape,
    zero_interior,
)
from helpers_cones import contains_point, tangent_cone
from helpers_instances import random_polyhedral_problem
from helpers_sublevel import sublevel_Q
from mosipcert.errors import (
    ModelError,
    ParseError,
    UnsupportedOperationError,
)
from mosipcert.funcs import Affine, MaxAffine, NegSqrtParabola1D, evaluate, subdiff, subdiff_set
from mosipcert.instances import (
    FIXTURE_BUILDERS,
    fixture_path,
    linear_tail_problem,
    load_fixture,
    octagon_problem,
    semicircle_problem,
)
from mosipcert.problem import (
    EXACT,
    TRUNCATED,
    CandidatePoint,
    FiniteFamily,
    IndexedFamily,
    MosipProblem,
    constraint_values,
    dump_problem,
    g_data_provenance,
    octagon_vertices,
    problem_from_json,
    problem_to_json,
)
from mosipcert.rationals import POS_INF, Q, qdot


def f_sets(p, x):
    """F and F* at x, read off a built candidate point."""
    return CandidatePoint.build(p, x)


def g_sets(p, x):
    """G, its emptiness and G* at x, read off a built candidate point."""
    cp = CandidatePoint.build(p, x)
    return SimpleNamespace(G=cp.G, is_empty=cp.G_is_empty, G_star=cp.G_star)


def psi(p, x):
    """Upper envelope sup_t g_t(x) with its provenance: the exact override
    when present, else the max over the truncated family."""
    if p.psi_override is not None:
        return SimpleNamespace(value=evaluate(p.psi_override, x), provenance=EXACT)
    value = max(evaluate(p.constraint(k), x) for k in p.indices())
    return SimpleNamespace(value=value, provenance=TRUNCATED if p.truncated else EXACT)


def psi_subdiff(p, x):
    """The envelope's subdifferential at x from a candidate point of its own."""
    return CandidatePoint.build(p, x).psi_subdiff()


def active_set(p, x, eps=0):
    """epsilon-active indices {k : g_k(x) >= -eps}, from the feasibility pass."""
    return [k for k, value in enumerate(constraint_values(p, x)) if value >= -Q(eps)]


def test_active_set_linear_fixture():
    p = linear_tail_problem()
    assert active_set(p, [0], 0) == [0]
    # epsilon = 1/2 picks up the odd tail from 1/(k+1) <= 1/2 and the even
    # tail from 1/k <= 1/2
    got = active_set(p, [0], Q(1, 2))
    assert got[0] == 0 and 1 not in got and 2 not in got
    assert all(k in got for k in range(3, 50))


def test_active_set_monotone_in_eps_on_fixtures():
    p = linear_tail_problem()
    prev: set = set()
    for eps in (0, Q(1, 100), Q(1, 10), Q(1, 2), 1, 2):
        cur = set(active_set(p, [0], eps))
        assert prev <= cur
        prev = cur


def test_active_set_octagon_fixture_all_active():
    p = octagon_problem()
    for eps in (0, Q(1, 3)):
        assert active_set(p, [0, 0], eps) == list(range(6))


def test_active_set_infeasible_names_index():
    p = linear_tail_problem()
    with pytest.raises(ModelError, match="constraint index 0"):
        active_set(p, [1], 0)


def test_feasible_set_row_violation_named():
    p = semicircle_problem()
    # x = 5/2 satisfies no constraint domain, so the family complains first;
    # use a problem whose constraints allow it but S does not
    q = MosipProblem(
        1,
        [Affine([1], 0)],
        FiniteFamily([Affine([0], -1)]),
        feasible_set=HPoly(1, [((Q(1),), Q(0))]),
    )
    with pytest.raises(ModelError, match="feasible_set row 0"):
        active_set(q, [1], 0)


def test_psi_uses_override_exactly():
    p = linear_tail_problem()
    out = psi(p, [-1])
    assert out.value == Q(-1) and out.provenance == EXACT
    assert psi(p, [2]).value == Q(6)


def test_psi_truncation_flag_without_override():
    p = MosipProblem(
        1, [Affine([1], 0)], IndexedFamily("alternating_affine", {}, 5)
    )
    out = psi(p, [-1])
    assert out.provenance == TRUNCATED
    assert out.value == Q(-3, 2)  # max(2x, x-1, 3x-1, x-1/2, 3x-1/2) at -1


def test_psi_octagon_is_plus_infinity_off_the_orthant():
    p = octagon_problem()
    assert psi(p, [1, 0]).value is POS_INF
    assert psi(p, [-1, -2]).value == Q(0)
    # without the override the truncated sup is finite and grows with t
    q = MosipProblem(2, p.objectives, p.constraints)
    out = psi(q, [0, 1])
    assert out.provenance == TRUNCATED
    assert out.value == Q(12)  # top vertex of the largest octagon: 2(1+5)


def test_psi_iota_singleton_family():
    p = MosipProblem(1, [Affine([1], 0)], FiniteFamily([Affine([2], -3)]))
    assert psi(p, [5]).value == Q(7)
    assert psi(p, [5]).provenance == EXACT


def test_psi_dominates_members_on_grid():
    for build in FIXTURE_BUILDERS.values():
        p = build()
        pts = (
            [[x] for x in (-2, -1, Q(-1, 2), 0, Q(1, 2), 1, 2)]
            if p.dimension == 1
            else [[x, y] for x in (-2, -1, 0) for y in (-2, -1, 0)]
        )
        for x in pts:
            bound = psi(p, x).value
            for k in p.indices():
                assert evaluate(p.constraint(k), x) <= bound


def test_f_sets_fixtures():
    p = linear_tail_problem()
    fs = f_sets(p, [0])
    assert set(fs.F) == {(Q(-2),), (Q(-1),)}
    assert fs.F_star.vertices == ((Q(-2),), (Q(-1),))
    assert contains_point(fs.F_star, [Q(-3, 2)])

    p = octagon_problem()
    fs = f_sets(p, [0, 0])
    assert fs.F == ((Q(-1), Q(0)),)  # identical objectives collapse

    q = MosipProblem(2, [Affine([3, 4], 7)], FiniteFamily([Affine([0, 0], -1)]))
    assert f_sets(q, [5, 6]).F_star.vertices == ((Q(3), Q(4)),)


def test_g_sets_fixtures():
    p = linear_tail_problem()
    gs = g_sets(p, [0])
    assert gs.G == ((Q(2),),) and not gs.is_empty
    assert gs.G_star.generators == ((Q(1),),)  # primitive scaling of ray(2)

    p = semicircle_problem()
    gs = g_sets(p, [0])
    assert gs.is_empty and gs.G == () and not gs.G_star.generators

    p = octagon_problem()
    gs = g_sets(p, [0, 0])
    assert gs.G_star.generators == ((Q(0), Q(1)), (Q(4), Q(1)))
    # every union vertex lies in the true cone {x1 >= 0, x2 > 0} plus origin
    for v in gs.G:
        assert v == (Q(0), Q(0)) or (v[0] >= 0 and v[1] > 0)


def test_octagon_vertices_lie_on_the_half_disk_boundary():
    for t in range(6):
        r = Q(1 + t)
        for v in octagon_vertices(t):
            assert v[0] >= 0 and v[1] >= 0
            assert v[0] ** 2 + (v[1] - r) ** 2 == r * r


def test_octagon_family_is_monotone():
    p = octagon_problem()
    for x in ([1, 1], [2, -1], [-1, 3], [Q(1, 2), Q(5, 3)]):
        vals = [evaluate(p.constraint(k), x) for k in p.indices()]
        assert vals == sorted(vals)


def test_sublevel_Q_linear_fixture():
    p = linear_tail_problem()
    q0 = sublevel_Q(p, [0], 0)
    # S rows plus the linearized f_2 level row: {x <= 0} and {-x <= 0}
    assert q0.rows == (((Q(1),), Q(0)), ((Q(-1),), Q(0)))
    assert q0.contains_point([0]) and not q0.contains_point([-1])


def test_sublevel_Q_octagon_fixture():
    p = octagon_problem()
    q0 = sublevel_Q(p, [0, 0], 0)
    assert q0.contains_point([0, -5]) and not q0.contains_point([-1, 0])


def test_sublevel_Q_single_objective_is_S():
    p = semicircle_problem()
    assert sublevel_Q(p, [0], 0) is p.feasible_set


def test_sublevel_Q_max_affine_pieces():
    dom = HPoly(1, [((Q(1),), Q(5)), ((Q(-1),), Q(5))])
    p = MosipProblem(
        1,
        [Affine([1], 0), MaxAffine([([1], 0), ([-1], 0)])],
        FiniteFamily([Affine([0], -1)]),
        feasible_set=dom,
    )
    q0 = sublevel_Q(p, [2], 0)  # |x| <= 2 within the box
    assert q0.contains_point([-2]) and not q0.contains_point([Q(5, 2)])


def test_tangent_normal_fixtures():
    p = linear_tail_problem()
    cp = CandidatePoint.build(p, [0])
    assert cp.C.normals == ((1,),) and cp.N.generators == ((1,),)
    assert cp.C.member([-3]) and not cp.C.member([1])

    p = octagon_problem()
    cp = CandidatePoint.build(p, [0, 0])
    assert set(cp.N.generators) == {(Q(1), Q(0)), (Q(0), Q(1))}

    cp = CandidatePoint.build(p, [-1, -1])  # interior point
    assert cp.C.normals == () and not cp.N.generators


def test_tangent_normal_requires_feasible_set():
    p = MosipProblem(1, [Affine([1], 0)], FiniteFamily([Affine([1], 0)]))
    cp = CandidatePoint.build(p, [0])
    assert cp.C is None and cp.N is None


def test_candidate_point_builds_on_fixtures():
    for build in FIXTURE_BUILDERS.values():
        p = build()
        x = [0] * p.dimension
        cp = CandidatePoint.build(p, x)
        assert cp.T == tuple(active_set(p, x, 0))
        assert cp.N is not None and cp.C is not None
        # inclusion of the active-gradient cone in the normal cone held
        for g in cp.G_star.generators:
            assert cp.N.generators or g is None  # cone containment verified in build


def test_problem_json_round_trip_is_bit_exact():
    for name, build in FIXTURE_BUILDERS.items():
        text = fixture_path(name).read_text(encoding="utf-8")
        p = problem_from_json(json.loads(text))
        assert p == build()
        assert dump_problem(p) == text


def test_problem_json_rejects_unknown_annotation():
    doc = problem_to_json(linear_tail_problem())
    doc["annotations"]["mystery"] = 1
    with pytest.raises(ModelError, match="mystery"):
        problem_from_json(doc)


@pytest.mark.parametrize(
    "edit, error",
    [
        (lambda doc: doc.update(feasible_sett=doc.pop("feasible_set")),
         "unknown problem keys: ['feasible_sett']"),
        (lambda doc: doc["constraints"].update(finite=[]), "unknown constraints keys: ['indexed']"),
        (lambda doc: doc["objectives"][0].update(domian=None),
         "unknown affine function keys: ['domian']"),
        (lambda doc: doc["feasible_set"].update(row=[]), "unknown H-polyhedron keys: ['row']"),
        (lambda doc: doc.update(psi_override={"kind": "max_affine", "pieces": [
            {"a": [[1, 1]], "b": [0, 1], "c": [0, 1]}]}), "unknown piece keys: ['c']"),
        (lambda doc: doc.update(psi_override={"kind": "neg_sqrt_parabola_1d", "t": [1, 1],
                                              "domain": None}),
         "unknown neg_sqrt_parabola_1d function keys: ['domain']"),
    ],
    ids=["problem", "constraints", "function", "hpoly", "piece", "curved-domain"],
)
def test_problem_json_refuses_keys_it_does_not_read(edit, error):
    doc = problem_to_json(linear_tail_problem())
    assert problem_from_json(doc) == linear_tail_problem()
    edit(doc)
    with pytest.raises(ModelError) as info:
        problem_from_json(doc)
    assert str(info.value) == error


@pytest.mark.parametrize("annotations", [[["name", "sneaky"]], [], "sneaky", 0])
def test_problem_json_refuses_non_object_annotations(annotations):
    # a list of pairs is not read as an object, nor an empty list as none
    doc = problem_to_json(MosipProblem(1, [Affine([1], 0)], FiniteFamily([Affine([1], 0)])))
    assert "annotations" not in doc and problem_from_json(doc).annotations == {}
    doc["annotations"] = annotations
    with pytest.raises(ParseError) as info:
        problem_from_json(doc)
    assert str(info.value) == f"annotation must be an object, not {type(annotations).__name__}"


def test_generated_problems_round_trip_through_the_loader():
    # the loader reads every key the serialiser writes
    rng = random.Random(2207)
    for _ in range(20):
        p, _ = random_polyhedral_problem(rng)
        assert problem_from_json(json.loads(json.dumps(problem_to_json(p)))) == p


def test_problem_json_rejects_family_params():
    # no builtin family reads params, so a given one would be silently ignored
    doc = problem_to_json(linear_tail_problem())
    assert doc["constraints"]["indexed"]["params"] == {}
    assert problem_from_json(doc) == linear_tail_problem()
    doc["constraints"]["indexed"]["params"] = {"slope": [7, 1]}
    with pytest.raises(ModelError, match="takes no params"):
        problem_from_json(doc)


def test_problem_json_rejects_malformed():
    with pytest.raises(ParseError):
        problem_from_json({"dimension": 1, "objectives": []})
    with pytest.raises(ParseError):
        problem_from_json(
            {
                "dimension": 1,
                "objectives": [{"kind": "affine", "a": [[1, 1]], "b": [0, 1]}],
                "constraints": {"neither": []},
            }
        )


def test_indexed_family_validation():
    with pytest.raises(ModelError, match="unknown constraint family"):
        IndexedFamily("no_such_family", {}, 3)
    with pytest.raises(ModelError, match="truncation"):
        IndexedFamily("alternating_affine", {}, 0)


def test_load_fixture_matches_builder():
    for name, build in FIXTURE_BUILDERS.items():
        assert load_fixture(name) == build()


@settings(max_examples=40, deadline=None)
@given(
    eps1=st.fractions(min_value=0, max_value=2, max_denominator=8),
    eps2=st.fractions(min_value=0, max_value=2, max_denominator=8),
)
def test_eps_monotonicity_property(eps1, eps2):
    p = linear_tail_problem()
    lo, hi = sorted((Q(eps1), Q(eps2)))
    assert set(active_set(p, [0], lo)) <= set(active_set(p, [0], hi))


# ---------------------------------------------------------------------------
# the per-point subdifferentials


def _assert_store_matches_fresh(p, x) -> None:
    cp = CandidatePoint.build(p, x)
    for i, f in enumerate(p.objectives):
        assert cp.objective_subdiff(i) == subdiff(f, x)
    assert cp.g_values == tuple(evaluate(p.constraint(k), x) for k in p.indices())
    for k in p.indices():
        try:
            fresh = subdiff_set(p.constraint(k), x)
        except UnsupportedOperationError:
            with pytest.raises(UnsupportedOperationError):
                cp.constraint_subdiff(k)
            continue
        assert cp.constraint_subdiff(k) == fresh
        assert cp.constraint_subdiff(k) is cp.constraint_subdiff(k)  # computed once
    assert cp.psi_subdiff() == psi_subdiff(p, x)
    for eps in (0, Q(1, 4), Q(1, 2), 1, 3):
        assert cp.active(eps) == active_set(p, x, eps)


def test_subdiff_table_matches_fresh_computation_on_fixtures():
    for build in FIXTURE_BUILDERS.values():
        p = build()
        _assert_store_matches_fresh(p, [Q(0)] * p.dimension)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10**9))
def test_subdiff_table_matches_fresh_computation_on_random_instances(seed):
    p, x = random_polyhedral_problem(random.Random(seed))
    _assert_store_matches_fresh(p, x)


def test_verifier_recomputes_instead_of_reading_the_table():
    from mosipcert.kkt import KktCertificate, certificate_issues, weak_kkt

    p = linear_tail_problem()
    cert = weak_kkt(p, CandidatePoint.build(p, [0]))
    assert isinstance(cert, KktCertificate)
    assert certificate_issues(p, CandidatePoint.build(p, [0]), cert) == []

    cp = CandidatePoint.build(p, [0])
    (vertex,) = cp.objective_subdiff(0)
    # objective 0 is -2x: a store claiming -4 still admits a decomposition
    cp.derived[("objective", 0)] = ((2 * vertex[0],),)
    drifted = weak_kkt(p, cp)
    assert isinstance(drifted, KktCertificate)
    assert drifted.objective_terms[0].vertices == ((Q(-4),),)
    assert "objective 0: vertex table drifted" in certificate_issues(p, cp, drifted)


# ---------------------------------------------------------------------------
# the cones derived at a candidate point


def _fresh_g_polar(p, cp) -> tuple:
    doc = p.annotations.get("documented_g_polar")
    if doc:
        normals = [tuple(Q(c[0], c[1]) for c in row) for row in doc["normals"]]
        return HCone(p.dimension, normals), EXACT, "documented closed-form polar"
    prov = g_data_provenance(p, cp.x)
    source = (
        "polar of the truncated active-gradient cone"
        if prov != EXACT
        else "polar of the active-gradient cone"
    )
    return HCone(p.dimension, cp.G_star.generators), prov, source


def _assert_derived_match_fresh(p, x) -> None:
    cp = CandidatePoint.build(p, x)
    g_polar = _fresh_g_polar(p, cp)
    assert cp.g_polar() == g_polar
    verts, gens = cp.F_star.vertices, cp.G_star.generators
    zero = (Q(0),) * p.dimension
    assert cp.zero_decomposition(verts, gens) == decompose(zero, [verts], [gens])
    # the kept rays are those the public constructors find
    G, rec = cp.subgradient_union(0)
    assert cp.G_star == FGCone(p.dimension, G + rec)
    if p.feasible_set is not None:
        assert cp.C == tangent_cone(p.feasible_set, cp.x)
    envelope = cp.psi_subdiff()
    if envelope is not None and envelope[0]:
        normals = envelope[0] + envelope[1]
        assert cp.cone(HCone, normals) == HCone(p.dimension, normals)
    assert cp.support_escape() == subspace_escape(verts + gens)
    assert cp.zero_interior() == zero_interior(p.dimension, verts, gens)
    for entry in (
        cp.g_polar,
        lambda: cp.zero_decomposition(verts, gens),
        cp.support_escape,
        cp.zero_interior,
    ):
        assert entry() is entry()  # computed once


def test_each_subgradient_union_is_computed_once_per_point(monkeypatch):
    # build keeps G's union over T; subgradient_union(0) and the max rule of
    # psi_subdiff, whose argmax set is T when max g = 0, read that entry
    from mosipcert import problem

    unions = []
    real = problem._union
    monkeypatch.setattr(problem, "_union", lambda pairs: unions.append(1) or real(pairs))
    members = [Affine([1, 0], 0), Affine([-1, 1], 0), Affine([0, 1], -1)]
    p = MosipProblem(2, [Affine([1, 1], 0)], FiniteFamily(members))
    cp = CandidatePoint.build(p, [0, 0])
    assert cp.T == (0, 1) and len(unions) == 1
    assert cp.subgradient_union(0) == (cp.G, ())
    assert cp.psi_subdiff() == (Polytope(2, cp.G).vertices, ())
    assert len(unions) == 1
    assert cp.subgradient_union(1) == ((*cp.G, (0, 1)), ()) and len(unions) == 2


def test_derived_cones_match_fresh_computation_on_fixtures():
    for build in FIXTURE_BUILDERS.values():
        p = build()
        _assert_derived_match_fresh(p, [Q(0)] * p.dimension)


def _draw(seed: int):
    """Seeds below 20 draw in dimensions 1-3; the others redraw until they
    get dimension 5, with at most 2 objectives and 3 constraints."""
    rng = random.Random(seed)
    if seed < 20:
        return random_polyhedral_problem(rng)
    while True:
        p, x = random_polyhedral_problem(rng, max_dim=5, max_objectives=2, max_constraints=3)
        if p.dimension == 5:
            return p, x


@pytest.mark.parametrize("seed", range(25))
def test_derived_cones_match_fresh_computation_on_random_instances(seed):
    _assert_derived_match_fresh(*_draw(seed))


def test_one_canonical_form_per_primitive_set(monkeypatch):
    # S is the constraint pieces here, so G*, C and KTCQ's envelope cone are
    # often one primitive set: each set is pruned once per point
    from mosipcert import problem, quals

    pruned = []
    real = problem._pruned_rays
    monkeypatch.setattr(problem, "_pruned_rays", lambda v: pruned.append(tuple(v)) or real(v))
    rng = random.Random(8513)
    shared = 0
    for _ in range(30):
        p, x = random_polyhedral_problem(rng)
        pruned.clear()
        cp = CandidatePoint.build(p, x)
        quals.check("KTCQ", p, cp)
        assert len(pruned) == len(set(pruned))
        envelope = cp.psi_subdiff()
        asked = {cp.G_star.generators, cp.C.normals}
        if envelope[0]:
            asked.add(cp.cone(HCone, envelope[0] + envelope[1]).normals)
        shared += len(asked) == 1 and len(pruned) == 1
    assert shared >= 10


def test_refused_derived_cone_is_refused_on_every_request():
    # at x = 1/2 the arc of t = 1 has slope -1/sqrt(3), which has no rational
    # form; the arc of t = 1/2 has its apex there, is the envelope's argmax
    # member, and its subdifferential {0} gives the envelope's
    arcs = [NegSqrtParabola1D(1), NegSqrtParabola1D(Q(1, 2))]
    p = MosipProblem(1, [Affine([1], 0)], FiniteFamily(arcs))
    cp = CandidatePoint.build(p, [Q(1, 2)])
    for _ in range(2):
        with pytest.raises(UnsupportedOperationError):
            cp.constraint_subdiff(0)
    assert ("constraint", 0) not in cp.derived
    assert cp.psi_subdiff() is cp.psi_subdiff()
