from __future__ import annotations

import dataclasses
import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mosipcert import instances, kkt, problem, quals
from mosipcert.cones import (
    FGCone,
    Member,
    NotMember,
    Polytope,
    _radius_by_axis_points,
    membership,
    strict_direction,
    subspace_escape,
)
from mosipcert.errors import InternalInconsistencyError, ParseError
from mosipcert.funcs import Affine, HPoly, MaxAffine
from mosipcert.problem import CandidatePoint, FiniteFamily, MosipProblem
from mosipcert.rationals import ONE, ZERO, Q, qdot

from helpers_cones import boxed_max, reference_min_max
from helpers_instances import random_polyhedral_problem
from helpers_kkt import reference_perturbed_kkt


@pytest.fixture(scope="module")
def ex1():
    p = instances.linear_tail_problem()
    return p, CandidatePoint.build(p, [0])


@pytest.fixture(scope="module")
def ex2():
    p = instances.octagon_problem()
    return p, CandidatePoint.build(p, [0, 0])


@pytest.fixture(scope="module")
def ex3():
    p = instances.semicircle_problem()
    return p, CandidatePoint.build(p, [0])


def relative_interior_zero(points, gens) -> bool:
    """0 in ri(conv(points) + cone(gens)), exactly: 0 is a member and the
    support cone {d : sigma(d) <= 0} is a linear subspace."""
    zero = tuple(ZERO for _ in points[0])
    if isinstance(membership(zero, points, gens), NotMember):
        return False
    return _support_escape(points, gens) is None


def _support_escape(points, gens):
    """`subspace_escape` of the support normals: None exactly when the
    support cone {d : sigma(d) <= 0} is a subspace."""
    return subspace_escape(list(points) + list(gens))


def support_cone_is_subspace_by_boxed_lps(points, gens) -> bool:
    """The support-cone test `kkt` replaced, one boxed LP per support normal
    a: no a has a'd < 0 somewhere on {d : sigma(d) <= 0}."""
    normals = list(points) + list(gens)
    return all(boxed_max(normals, [-c for c in a]).value <= 0 for a in normals)


def _random_support_sets(rng: random.Random, count: int) -> list:
    """(points, generators) pairs whose members lie in the span of
    the first few coordinates, so the support cone is all of space, a proper
    subspace or no subspace at all."""
    out = []
    for _ in range(count):
        dim = rng.randint(1, 4)
        span = rng.randint(1, dim)

        def vec():
            return tuple(Q(rng.randint(-2, 2)) if j < span else ZERO for j in range(dim))

        base = Polytope(dim, [vec() for _ in range(rng.randint(1, 4))])
        out.append((base.vertices, FGCone(dim, [vec() for _ in range(rng.randint(0, 2))]).generators))
    return out


def _qual_map(p, cp):
    return {r.qual: r for r in quals.check_all(p, cp)}


def _unconstrained_abs() -> tuple:
    p = MosipProblem(
        dimension=1,
        objectives=[MaxAffine([([1], 0), ([-1], 0)])],
        constraints=FiniteFamily([Affine([1], -1)]),
        feasible_set=HPoly(1, [((Q(1),), Q(1))]),
        annotations={"name": "interior-abs-min"},
    )
    return p, CandidatePoint.build(p, [0])


def _descent_line() -> tuple:
    """minimize -x over [0, inf): the origin maximizes, so no KKT condition
    can hold, while the constraint data is exact and very regular."""
    p = MosipProblem(
        dimension=1,
        objectives=[Affine([-1], 0)],
        constraints=FiniteFamily([Affine([-1], 0)]),
        feasible_set=HPoly(1, [((Q(-1),), Q(0))]),
        annotations={
            "name": "descent-line",
            "flags": {"continuous": True, "differentiable": True},
        },
    )
    return p, CandidatePoint.build(p, [0])


# ---------------------------------------------------------------------------
# weak


class TestWeak:
    def test_certificate_on_linear_tail(self, ex1):
        # weak reads the maximised-margin LP that strong asks, so its weights
        # are strong's: -2/2 - 1/2 + (3/4) 2 = 0
        p, cp = ex1
        cert = kkt.weak_kkt(p, cp)
        assert isinstance(cert, kkt.KktCertificate)
        assert cert.kind == kkt.WEAK
        assert cert.alpha == (Q(1, 2), Q(1, 2))
        assert cert.beta == ((0, Q(3, 4)),)
        assert [t.xi for t in cert.objective_terms] == [(Q(-2),), (Q(-1),)]
        assert cert.constraint_terms[0].zeta == (Q(2),)
        assert cert.residual() == (ZERO,)
        assert kkt.certificate_issues(p, cp, cert) == []

    def test_zero_weight_selection_pins_first_vertex(self):
        # f1 = max(x, 2x) has subgradients 1 and 2 at 0 and f2 = 0, so every
        # weak certificate gives f1 weight 0 (the margin is 0)
        p = MosipProblem(
            dimension=1,
            objectives=[MaxAffine([([1], 0), ([2], 0)]), Affine([0], 0)],
            constraints=FiniteFamily([Affine([1], -1)]),
            feasible_set=HPoly(1, [((Q(1),), Q(1))]),
        )
        cp = CandidatePoint.build(p, [0])
        cert = kkt.weak_kkt(p, cp)
        idle = cert.objective_terms[0]
        assert len(idle.vertices) == 2
        assert idle.alpha == ZERO
        assert idle.xi == idle.vertices[0]
        assert idle.coeffs[0] == ONE
        assert kkt.certificate_issues(p, cp, cert) == []

    def test_separator_on_octagon(self, ex2):
        p, cp = ex2
        out = kkt.weak_kkt(p, cp)
        assert isinstance(out, kkt.KktSeparator)
        assert out.gap > 0
        # the functional is maximized over F* + G*: nonpositive on the cone
        # generators and at most -gap on every objective-side vertex
        for g in cp.G_star.generators:
            assert qdot(out.direction, g) <= 0
        assert max(qdot(out.direction, v) for v in cp.F_star.vertices) == -out.gap

    def test_separator_on_semicircle(self, ex3):
        p, cp = ex3
        out = kkt.weak_kkt(p, cp)
        assert isinstance(out, kkt.KktSeparator)
        assert out.gap == ONE
        assert out.direction == (Q(-1),)

    def test_unconstrained_interior_minimum(self):
        p, cp = _unconstrained_abs()
        cert = kkt.weak_kkt(p, cp)
        assert isinstance(cert, kkt.KktCertificate)
        assert cert.constraint_terms == ()
        assert cert.objective_terms[0].xi == (ZERO,)
        assert kkt.certificate_issues(p, cp, cert) == []


def test_certificates_with_a_redundant_domain_row_verify_with_no_lp(monkeypatch):
    # the constraint's domain x1 <= 0, x2 <= 0, x1 + x2 <= 0 lists all three
    # normals as rays, the implied (1, 1) included; recomputing the tables
    # for the verifier asks the calculus, which runs no LP
    from mosipcert import lp

    domain = HPoly(2, [([1, 0], 0), ([0, 1], 0), ([1, 1], 0)])
    p = MosipProblem(
        2, [Affine([-1, -1], 0)], FiniteFamily([Affine([1, 1], 0, domain)]),
        feasible_set=HPoly(2, [([1, 0], 0), ([0, 1], 0)]),
    )
    cp = CandidatePoint.build(p, [0, 0])
    certs = [kkt.weak_kkt(p, cp), kkt.strong_kkt(p, cp).certificate]
    assert [c.constraint_terms[0].rays for c in certs] == [((0, 1), (1, 0), (1, 1))] * 2
    solves = []
    monkeypatch.setattr(lp, "solve", lambda prog: solves.append(prog))
    assert [kkt.certificate_issues(p, cp, c) for c in certs] == [[], []]
    assert solves == []


# ---------------------------------------------------------------------------
# strong


class TestStrong:
    def test_certificate_on_linear_tail(self, ex1):
        p, cp = ex1
        out = kkt.strong_kkt(p, cp)
        assert out.tau == Q(1, 2)
        assert out.ri_zero is True
        cert = out.certificate
        assert cert is not None and cert.kind == kkt.STRONG
        assert cert.alpha == (Q(1, 2), Q(1, 2))
        assert cert.beta == ((0, Q(3, 4)),)
        assert kkt.certificate_issues(p, cp, cert) == []

    def test_strong_certificate_passes_weak_verification(self, ex1):
        p, cp = ex1
        cert = kkt.strong_kkt(p, cp).certificate
        as_weak = dataclasses.replace(cert, kind=kkt.WEAK)
        assert kkt.certificate_issues(p, cp, as_weak) == []

    def test_single_objective_strong_equals_weak(self):
        p, cp = _unconstrained_abs()
        out = kkt.strong_kkt(p, cp)
        assert out.tau == ONE
        assert out.certificate.alpha == (ONE,)

    def test_refusal_on_octagon(self, ex2):
        p, cp = ex2
        out = kkt.strong_kkt(p, cp)
        assert out.certificate is None
        assert out.separator is not None
        assert out.ri_zero is False
        assert "weak" in out.refusal


class TestRelativeInteriorZero:
    def test_segment_through_origin(self):
        seg = Polytope(2, [(Q(-1), ZERO), (ONE, ZERO)])
        assert relative_interior_zero(seg.vertices, ()) is True

    def test_segment_with_origin_as_endpoint(self):
        seg = Polytope(2, [(ZERO, ZERO), (ONE, ZERO)])
        assert relative_interior_zero(seg.vertices, ()) is False

    def test_origin_outside(self):
        seg = Polytope(2, [(ONE, ZERO), (Q(2), ZERO)])
        assert relative_interior_zero(seg.vertices, ()) is False

    def test_support_cone_matches_the_boxed_lp_reference(self):
        outcomes = set()
        for points, gens in _random_support_sets(random.Random(4241), 60):
            d = _support_escape(points, gens)
            assert (d is None) == support_cone_is_subspace_by_boxed_lps(points, gens)
            if d is not None:
                # d lies in the support cone but off its lineality space
                dots = [qdot(a, d) for a in points + gens]
                assert max(dots) <= 0 and min(dots) < 0
            outcomes.add(d is None)
        assert outcomes == {True, False}

    def test_support_cone_makes_at_most_one_lp(self, monkeypatch):
        from mosipcert import lp

        sets = _random_support_sets(random.Random(4241), 60)
        solves = []
        solve = lp.solve
        monkeypatch.setattr(lp, "solve", lambda prog: solves.append(prog) or solve(prog))
        for points, gens in sets:
            solves.clear()
            _support_escape(points, gens)
            assert len(solves) <= 1
        # normals summing to 0 span a subspace with no LP
        seg = Polytope(2, [(Q(-1), ZERO), (ONE, ZERO)])
        solves.clear()
        assert _support_escape(seg.vertices, ()) is None
        assert solves == []

    def test_strong_and_perturbed_share_one_support_escape(self, monkeypatch):
        # ri(F* + G*) in strong KKT and the rank-n step of zero_interior ask
        # one question; the point keeps its answer, whichever asks first
        calls = []
        real = problem.subspace_escape
        monkeypatch.setattr(
            problem, "subspace_escape", lambda normals: calls.append(1) or real(normals)
        )
        rng = random.Random(7919)
        shared = 0
        for k in range(40):
            p, x = random_polyhedral_problem(rng)
            cp = CandidatePoint.build(p, x)
            calls.clear()
            first, second = (kkt.strong_kkt, kkt.perturbed_kkt)[:: 1 if k % 2 else -1]
            strong = (first(p, cp), second(p, cp))[k % 2 == 0]
            assert len(calls) <= 1
            if strong.separator is None:  # strong KKT asked it
                assert len(calls) == 1
                shared += 1
            assert cp.support_escape() == real(cp.F_star.vertices + cp.G_star.generators)
        assert shared >= 10


class TestOneMembershipDecision:
    """weak_kkt and strong_kkt share one decision of 0 in F* + G*, the
    candidate point's `zero_decomposition` over the canonical F* vertices and
    G* generators, asked once per point: it answers the min-max question, and
    the direction read off its Farkas vector is the separator when 0 is
    outside; the grouped LP runs only when 0 is inside."""

    @staticmethod
    def _count_solves(monkeypatch):
        from mosipcert import cones, lp

        counts = {"solve": 0, "membership": 0, "columns": []}
        solve, membership = lp.solve, cones.membership

        def counted_solve(prog):
            counts["solve"] += 1
            counts["columns"].append(prog.num_vars)
            return solve(prog)

        def counted_membership(*args):
            counts["membership"] += 1
            return membership(*args)

        monkeypatch.setattr(lp, "solve", counted_solve)
        monkeypatch.setattr(cones, "membership", counted_membership)
        return counts

    @staticmethod
    def _fresh(fixture):
        """A newly built point: the module fixtures' points keep the decision
        of whichever test ran first."""
        p, cp = fixture
        return p, CandidatePoint.build(p, cp.x)

    def test_weak_certificate_is_decision_plus_grouped_lp(self, ex1, monkeypatch):
        p, cp = self._fresh(ex1)
        counts = self._count_solves(monkeypatch)
        assert isinstance(kkt.weak_kkt(p, cp), kkt.KktCertificate)
        assert counts["solve"] == 2 and counts["membership"] == 0

    def test_weak_separator_is_one_min_max_lp(self, ex2, monkeypatch):
        p, cp = self._fresh(ex2)
        counts = self._count_solves(monkeypatch)
        assert isinstance(kkt.weak_kkt(p, cp), kkt.KktSeparator)
        assert counts["solve"] == 1 and counts["membership"] == 0

    def test_strong_refusal_is_one_min_max_lp(self, ex2, monkeypatch):
        p, cp = self._fresh(ex2)
        counts = self._count_solves(monkeypatch)
        out = kkt.strong_kkt(p, cp)
        assert out.separator is not None and out.ri_zero is False
        assert counts["solve"] == 1 and counts["membership"] == 0

    def test_strong_certificate_adds_only_support_cone_lps(self, ex1, monkeypatch):
        p, cp = self._fresh(ex1)
        counts = self._count_solves(monkeypatch)
        out = kkt.strong_kkt(p, cp)
        assert out.certificate is not None
        # the decision, the tau-LP and the one support-cone LP
        assert counts["membership"] == 0
        assert counts["solve"] == 3

    def test_octagon_weak_and_strong_never_build_the_grouped_lp(self, ex2, monkeypatch):
        # the decision LP has one column per canonical F* vertex and G*
        # generator, while the grouped tables have 50 columns
        p, cp = self._fresh(ex2)
        counts = self._count_solves(monkeypatch)
        weak = kkt.weak_kkt(p, cp)
        assert counts["solve"] == 1
        strong = kkt.strong_kkt(p, cp)
        assert counts["solve"] == 1  # the decision is not asked again
        verts, gens = cp.F_star.vertices, cp.G_star.generators
        obj_tables, _, cones = kkt._tables(p, cp)
        grouped = sum(map(len, obj_tables)) + sum(map(len, cones))
        assert counts["columns"] == [len(verts) + len(gens)] and grouped == 50
        assert strong.separator == weak
        key = ("zero_decomposition", verts, gens)
        assert cp.derived[key] is cp.zero_decomposition(verts, gens)

    @pytest.mark.parametrize("weak_first", [True, False])
    def test_weak_and_strong_share_the_separator(self, ex2, monkeypatch, weak_first):
        # whichever asks first runs the decision LP; the other reads it off
        # the point
        p, cp = self._fresh(ex2)
        counts = self._count_solves(monkeypatch)
        calls = [kkt.weak_kkt, lambda p, cp: kkt.strong_kkt(p, cp).separator]
        first, second = calls if weak_first else calls[::-1]
        separator = first(p, cp)
        assert counts["solve"] == 1
        assert second(p, cp) == separator
        assert counts["solve"] == 1
        verts = cp.F_star.vertices
        res = cp.zero_decomposition(verts, cp.G_star.generators)
        value, d = strict_direction(verts, res, p.dimension)
        assert separator == kkt.KktSeparator(direction=d, gap=-value)

    def test_weak_and_strong_share_the_decision(self, ex1, monkeypatch):
        p, cp = self._fresh(ex1)
        kkt.weak_kkt(p, cp)
        counts = self._count_solves(monkeypatch)
        out = kkt.strong_kkt(p, cp)
        assert out.certificate is not None
        assert counts["solve"] == 1  # the support-cone LP: weak kept the tau-LP

    def test_strong_kkt_leaves_the_lp_results_whole(self, ex1, monkeypatch):
        # the tau-LP's weights end with tau; reading it must not shorten the
        # primal of the LP result that `decompose` hands back
        from mosipcert import lp

        p, cp = self._fresh(ex1)
        solved = []
        solve = lp.solve

        def capturing_solve(prog):
            res = solve(prog)
            solved.append((prog, res))
            return res

        monkeypatch.setattr(lp, "solve", capturing_solve)
        out = kkt.strong_kkt(p, cp)
        assert out.certificate is not None and out.tau is not None
        optimal = [(prog, res) for prog, res in solved if isinstance(res, lp.Optimal)]
        assert any(res.primal[-1] == out.tau for _, res in optimal)
        assert all(len(res.primal) == prog.num_vars for prog, res in optimal)

    def test_grouped_decomposition_decides_membership(self):
        rng = random.Random(7919)
        outcomes = set()
        for _ in range(40):
            p, x = random_polyhedral_problem(rng)
            cp = CandidatePoint.build(p, x)
            zero = tuple(ZERO for _ in range(p.dimension))
            verts, gens = cp.F_star.vertices, cp.G_star.generators
            member = isinstance(membership(zero, verts, gens), Member)
            outcomes.add(member)
            assert isinstance(kkt._decompose(p, cp, zero), tuple) == member
            obj_tables, _, cones = kkt._tables(p, cp)
            assert isinstance(cp.margin_zero(obj_tables, cones), list) == member
            assert isinstance(cp.zero_decomposition(verts, gens), list) == member
            value, _ = reference_min_max(verts, gens, p.dimension)
            assert (value < 0) != member
            ri = member and support_cone_is_subspace_by_boxed_lps(verts, gens)
            assert kkt.strong_kkt(p, cp).ri_zero == ri
        assert outcomes == {True, False}


# ---------------------------------------------------------------------------
# perturbed


class TestPerturbed:
    def test_linear_tail_radius_two(self, ex1):
        p, cp = ex1
        report = kkt.perturbed_kkt(p, cp)
        assert report.holds and report.exact
        assert report.nu_lb == Q(2)
        targets = {c.target for c in report.axis_certificates}
        assert targets == {(Q(2),), (Q(-2),)}
        for cert in report.axis_certificates:
            assert cert.kind == kkt.PERTURBED
            assert kkt.certificate_issues(p, cp, cert) == []

    @pytest.mark.parametrize("name", ["ex2", "ex3"])
    def test_failure_carries_escape_direction(self, name, request):
        p, cp = request.getfixturevalue(name)
        report = kkt.perturbed_kkt(p, cp)
        assert not report.holds
        assert report.nu_lb == ZERO
        assert report.axis_certificates == ()
        d = report.witness_direction
        assert d is not None and any(c != 0 for c in d)
        for v in cp.F_star.vertices:
            assert qdot(d, v) <= 0
        for g in cp.G_star.generators:
            assert qdot(d, g) <= 0

    def test_witness_from_a_redundant_support_cone_is_pinned(self):
        # the random-pipeline benchmark instance n3-obj3-con6-act4+3 at seed 3
        # (the thirteenth draw of its slot's stream): its seven support
        # normals have rank 3 and some are redundant; the witness is the
        # Farkas direction of the one decomposition of minus their sum, over
        # all seven, with no pruning first
        rng = random.Random("3:107")
        for _ in range(13):
            p, x = random_polyhedral_problem(rng, 3, 3, 6)
        cp = CandidatePoint.build(p, x)
        report = kkt.perturbed_kkt(p, cp)
        assert not report.holds
        assert report.witness_direction == (Q(1), Q(-1), Q(1))
        normals = cp.F_star.vertices + cp.G_star.generators
        assert max(qdot(a, report.witness_direction) for a in normals) <= 0

    def test_simplex_interior_radius_is_nearest_facet_distance(self):
        # triangle bounded by 3x + 4y <= 5, -4x + 3y <= 10 and y >= -2: the
        # facet normals have length 5, 5, 1, so the origin's facet distances
        # are 1, 2 and 2, and the certified ball radius must be exactly 1
        p = MosipProblem(
            dimension=2,
            objectives=[
                MaxAffine([([-1, 2], 0), ([Q(13, 3), -2], 0), ([-4, -2], 0)])
            ],
            constraints=FiniteFamily([Affine([0, 0], -1)]),
            feasible_set=HPoly(2, []),
            annotations={"name": "triangle-subdifferential"},
        )
        cp = CandidatePoint.build(p, [0, 0])
        assert cp.F_star.vertices == (
            (Q(-4), Q(-2)),
            (Q(-1), Q(2)),
            (Q(13, 3), Q(-2)),
        )
        report = kkt.perturbed_kkt(p, cp)
        assert report.holds and report.exact
        assert report.nu_lb == ONE
        assert len(report.axis_certificates) == 4
        for cert in report.axis_certificates:
            assert kkt.certificate_issues(p, cp, cert) == []

    def test_facet_certificates_match_the_per_axis_lps(self):
        # in dimension <= 3 each axis certificate is read off the facets of
        # F* + G*: a decomposition over the columns tight where the axis
        # leaves the set, mixed with the zero weights, or the zero weights
        # plus a recession direction; the verdict, radius, exactness and
        # targets are those of one grouped LP per axis point
        rng = random.Random("perturbed-axes")
        kinds = {"bounded": 0, "along": 0, "recession": 0}
        for _ in range(90):
            p, x = random_polyhedral_problem(rng)
            cp = CandidatePoint.build(p, x)
            report, ref = kkt.perturbed_kkt(p, cp), reference_perturbed_kkt(p, cp)
            assert (report.holds, report.nu_lb, report.exact) == (ref.holds, ref.nu_lb, ref.exact)
            assert [c.target for c in report.axis_certificates] == [
                c.target for c in ref.axis_certificates
            ]
            for cert in report.axis_certificates:
                assert kkt.certificate_issues(p, cp, cert) == []
            if not report.holds:
                continue
            facets = cp.zero_interior().facets
            gens = [c for block in kkt._tables(p, cp)[2] for c in block]
            for cert in report.axis_certificates:
                u = tuple(c / report.nu_lb for c in cert.target)
                if any(qdot(a, u) > 0 for a, _ in facets):
                    kinds["bounded"] += 1
                elif any(qdot(g, u) > 0 and g == tuple(qdot(g, u) * c for c in u) for g in gens):
                    kinds["along"] += 1
                else:
                    kinds["recession"] += 1
        assert min(kinds.values()) >= 10, kinds

    def test_axis_certificates_after_strong_kkt_run_no_lp(self, monkeypatch):
        # alternating-affine: zero_interior, the zero weights and the one
        # bounded axis point are all settled before or without an LP
        from mosipcert import lp

        p = instances.load_fixture("alternating-affine")
        cp = CandidatePoint.build(p, [0])
        assert kkt.strong_kkt(p, cp).certificate is not None
        monkeypatch.setattr(lp, "solve", lambda prog: pytest.fail("perturbed KKT ran an LP"))
        report = kkt.perturbed_kkt(p, cp)
        assert report.holds and len(report.axis_certificates) == 2
        for cert in report.axis_certificates:
            assert kkt.certificate_issues(p, cp, cert) == []

    def test_axis_points_above_dimension_three_take_one_decomposition_each(
        self, monkeypatch
    ):
        # the cross-polytope conv(+-e_j) in 4-space: no facets are computed,
        # so each of the 8 axis points is one grouped decomposition, and the
        # radius is the least axis step 1 scaled by 1/sqrt(4)
        calls = []
        real = kkt._decompose
        monkeypatch.setattr(kkt, "_decompose", lambda *args: calls.append(1) or real(*args))
        n = 4
        units = [tuple(Q(s) if k == j else ZERO for k in range(n)) for j in range(n) for s in (1, -1)]
        p = MosipProblem(
            dimension=n,
            objectives=[MaxAffine([(u, 0) for u in units])],
            constraints=FiniteFamily([Affine([0] * n, -1)]),
            feasible_set=HPoly(n, []),
            annotations={"name": "cross-polytope"},
        )
        cp = CandidatePoint.build(p, [0] * n)
        zi = cp.zero_interior()
        assert zi.inside and zi.facets is None
        report = kkt.perturbed_kkt(p, cp)
        axis = _radius_by_axis_points(n, cp.F_star.vertices, cp.G_star.generators)
        assert report.holds and report.nu_lb == axis.radius_lower_bound == Q(1, 2)
        assert len(report.axis_certificates) == len(calls) == 2 * n
        for cert in report.axis_certificates:
            assert kkt.certificate_issues(p, cp, cert) == []


class TestIsolationInclusionReport:
    def test_linear_tail_grid_is_fully_included(self, ex1):
        p, cp = ex1
        report = kkt.isolation_inclusion_report(p, cp, 2)
        assert report is not None
        assert len(report["rows"]) == len(quals.DEFAULT_EPS_GRID)
        assert all(row["included"] for row in report["rows"])
        assert all(row["exact"] for row in report["rows"])

    def test_one_zero_interior_per_distinct_cone(self, ex1, monkeypatch):
        # every eps-active set is asked through the point's store, which
        # keeps one answer per cone, and perturbed KKT then reads the answer
        # at T without asking again; a fresh point starts with an empty store
        p, cp = ex1
        cp = CandidatePoint.build(p, cp.x)
        calls = []
        real = problem.zero_interior

        def counted(dim, points, gens, escape=None):
            calls.append(1)
            return real(dim, points, gens, escape)

        monkeypatch.setattr(problem, "zero_interior", counted)
        report = kkt.isolation_inclusion_report(p, cp, 2)
        grid = quals.DEFAULT_EPS_GRID
        cones = {cp.cone(FGCone, sum(cp.subgradient_union(eps), ())) for eps in grid}
        active_sets = {tuple(cp.active(eps)) for eps in grid}
        assert len(calls) == len(cones) == 1 < len(active_sets) < len(grid)
        assert [row["eps"] for row in report["rows"]] == list(grid)
        kkt.perturbed_kkt(p, cp)
        assert len(calls) == len(cones)

    def test_suppressed_without_differentiability_flag(self, ex2):
        p, cp = ex2
        assert kkt.isolation_inclusion_report(p, cp, 1) is None

    def test_suppressed_on_kinked_constraint(self):
        p = MosipProblem(
            dimension=1,
            objectives=[Affine([1], 0)],
            constraints=FiniteFamily([MaxAffine([([1], 0), ([-1], 0)])]),
            feasible_set=HPoly(1, [((Q(1),), Q(0)), ((Q(-1),), Q(0))]),
            annotations={
                "name": "kinked",
                "flags": {"continuous": True, "differentiable": True},
            },
        )
        cp = CandidatePoint.build(p, [0])
        assert kkt.isolation_inclusion_report(p, cp, 1) is None


# ---------------------------------------------------------------------------
# serialization


class TestSerialization:
    def test_certificate_round_trip(self, ex1):
        p, cp = ex1
        for cert in (kkt.weak_kkt(p, cp), kkt.strong_kkt(p, cp).certificate):
            text = json.dumps(kkt.certificate_to_json(cert), sort_keys=True, indent=2)
            back = kkt.certificate_from_json(json.loads(text))
            assert back == cert
            assert kkt.certificate_issues(p, cp, back) == []

    def test_perturbed_report_round_trip(self, ex1):
        p, cp = ex1
        report = kkt.perturbed_kkt(p, cp)
        text = json.dumps(kkt.perturbed_to_json(report), sort_keys=True)
        back = kkt.perturbed_from_json(json.loads(text))
        assert back == report

    def test_malformed_documents_are_rejected(self, ex1):
        p, cp = ex1
        doc = kkt.certificate_to_json(kkt.weak_kkt(p, cp))
        with pytest.raises(ParseError):
            kkt.certificate_from_json({**doc, "kind": "Weakest"})
        broken = json.loads(json.dumps(doc))
        del broken["objectives"]
        with pytest.raises(ParseError):
            kkt.certificate_from_json(broken)
        broken = json.loads(json.dumps(doc))
        broken["target"] = [[1, 0, 0]]
        with pytest.raises(ParseError):
            kkt.certificate_from_json(broken)

    def test_verifier_flags_tampered_multiplier(self, ex1):
        p, cp = ex1
        doc = json.loads(json.dumps(kkt.certificate_to_json(kkt.weak_kkt(p, cp))))
        doc["objectives"][0]["alpha"] = [2, 3]
        tampered = kkt.certificate_from_json(doc)
        issues = kkt.certificate_issues(p, cp, tampered)
        assert any("sum" in msg for msg in issues)

    @pytest.mark.parametrize("indices", [(7, 1), (-1, 1), (0, 0), (1, 0)])
    def test_verifier_reports_bad_objective_indices(self, ex1, indices):
        # out of range, negative, repeated and swapped: listed, never raised
        p, cp = ex1
        cert = kkt.weak_kkt(p, cp)
        terms = tuple(
            dataclasses.replace(t, index=i) for t, i in zip(cert.objective_terms, indices)
        )
        issues = kkt.certificate_issues(p, cp, dataclasses.replace(cert, objective_terms=terms))
        expected = [
            f"objective term {k} has index {i}, not {k}"
            for k, i in enumerate(indices) if i != k
        ]
        assert issues == expected

    def test_verifier_rejects_negative_recession_weights(self):
        # max -x subject to a constraint whose domain x >= 0 gives the ray -1:
        # weak KKT fails, and a negative ray weight would forge a zero residual
        g = Affine([0], 0, HPoly(1, [((Q(-1),), ZERO)]))
        p = MosipProblem(dimension=1, objectives=[Affine([-1], 0)], constraints=FiniteFamily([g]))
        cp = CandidatePoint.build(p, [0])
        assert isinstance(kkt.weak_kkt(p, cp), kkt.KktSeparator)
        forged = kkt.KktCertificate(
            kkt.WEAK,
            (ZERO,),
            (kkt.ObjectiveTerm(0, ONE, (-ONE,), (ONE,), ((-ONE,),)),),
            (kkt.ConstraintTerm(0, ZERO, None, (), ((ZERO,),), (-ONE,), ((-ONE,),)),),
        )
        assert forged.residual() == (ZERO,)
        assert kkt.certificate_issues(p, cp, forged) == ["constraint 0: negative coefficients"]

    def test_verifier_reports_wrong_lengths(self, ex1):
        p, cp = ex1
        cert = kkt.weak_kkt(p, cp)
        first, *rest = cert.objective_terms
        short_xi = dataclasses.replace(first, xi=first.xi[:-1])
        issues = kkt.certificate_issues(
            p, cp, dataclasses.replace(cert, objective_terms=(short_xi, *rest))
        )
        assert issues == ["objective 0: xi does not match its coefficients"]
        (term,) = cert.constraint_terms
        for bad in (
            dataclasses.replace(term, zeta=term.zeta[:-1]),
            dataclasses.replace(term, coeffs=term.coeffs + (ZERO,)),
        ):
            issues = kkt.certificate_issues(
                p, cp, dataclasses.replace(cert, constraint_terms=(bad,))
            )
            assert issues == ["constraint 0: coefficient or zeta lengths are wrong"]


# ---------------------------------------------------------------------------
# claims


class TestSeparatorVerification:
    """`separator_issues` re-checks a weak or strong `KktSeparator` by
    substitution alone, against tables recomputed from the problem."""

    @staticmethod
    def _separated(count):
        """(p, cp, separator) of seeded random draws whose weak KKT fails."""
        rng = random.Random("separator-verification")
        out = []
        while len(out) < count:
            p, x = random_polyhedral_problem(rng, max_dim=rng.choice((2, 3, 5)))
            cp = CandidatePoint.build(p, x)
            separator = kkt.weak_kkt(p, cp)
            if isinstance(separator, kkt.KktSeparator):
                out.append((p, cp, separator))
        return out

    def test_emitted_separators_pass_with_no_lp(self, monkeypatch):
        from mosipcert import lp

        draws = self._separated(30)
        monkeypatch.setattr(lp, "solve", lambda prog: pytest.fail("the check ran an LP"))
        for p, cp, separator in draws:
            assert kkt.separator_issues(p, cp, separator) == []
            assert kkt.strong_kkt(p, cp).separator == separator

    def test_corrupted_gap_or_direction_entry_is_rejected(self):
        mutated = 0
        for p, cp, sep in self._separated(30):
            # the gap is tight at some F* vertex: a larger gap, and a gap that
            # is not positive, are rejected
            for gap in (sep.gap + Q(1, 1000), 2 * sep.gap, ZERO, -sep.gap):
                assert kkt.separator_issues(p, cp, dataclasses.replace(sep, gap=gap))
            # an entry moved toward the sign of a tight vertex's coordinate
            # lifts h'v above -gap there
            for v in cp.F_star.vertices:
                if qdot(sep.direction, v) != -sep.gap:
                    continue
                for j, c in enumerate(v):
                    if c != 0:
                        d = list(sep.direction)
                        d[j] += Q(1, 1000) if c > 0 else Q(-1, 1000)
                        bad = dataclasses.replace(sep, direction=tuple(d))
                        assert kkt.separator_issues(p, cp, bad)
                        mutated += 1
        assert mutated >= 30

    def test_tables_are_recomputed_not_read_from_the_store(self, ex2):
        # doubled objective tables in the store would vouch for twice the
        # gap; the problem's own tables do not
        p, cp = ex2
        sep = kkt.weak_kkt(p, cp)
        drifted = CandidatePoint.build(p, cp.x)
        for i in range(p.num_objectives):
            table = tuple(tuple(2 * c for c in v) for v in drifted.objective_subdiff(i))
            drifted.derived[("objective", i)] = table
            assert all(qdot(sep.direction, v) <= -2 * sep.gap for v in table)
        assert kkt.separator_issues(p, drifted, dataclasses.replace(sep, gap=2 * sep.gap))
        assert kkt.separator_issues(p, drifted, sep) == []

    def test_a_ray_above_zero_is_rejected(self):
        # g = x1 + x2 on the domain x1 - x2 <= 0 has the vertex (1, 1) and the
        # ray (1, -1) at 0, and f = x2 keeps 0 outside F* + G*; the direction
        # (-1, -3/2) meets every objective vertex and the constraint vertex
        # but rises along the ray
        domain = HPoly(2, [([1, -1], 0)])
        p = MosipProblem(2, [Affine([0, 1], 0)], FiniteFamily([Affine([1, 1], 0, domain)]))
        cp = CandidatePoint.build(p, [0, 0])
        sep = kkt.weak_kkt(p, cp)
        assert isinstance(sep, kkt.KktSeparator) and kkt.separator_issues(p, cp, sep) == []
        bad = kkt.KktSeparator((Q(-1), Q(-3, 2)), ONE)
        assert kkt.separator_issues(p, cp, bad) == ["constraint 0: a vertex or ray has h'w > 0"]

    def test_wrong_length_is_rejected(self, ex2):
        p, cp = ex2
        sep = kkt.weak_kkt(p, cp)
        bad = dataclasses.replace(sep, direction=sep.direction[:1])
        assert kkt.separator_issues(p, cp, bad) == ["separator has 1 coordinates, problem has 2"]

    @pytest.mark.parametrize("mode", ["weak", "strong"])
    @pytest.mark.parametrize("subcommand", ["certify", "report"])
    def test_verify_rejects_a_corrupted_separator(self, monkeypatch, capsys, mode, subcommand):
        from mosipcert import cli

        argv = [subcommand, "octagon-support", "--point=0,0", "--format", "json", "--verify"]
        real = {"weak": kkt.weak_kkt, "strong": kkt.strong_kkt}[mode]

        def corrupted(p, cp):
            out = real(p, cp)
            if mode == "weak":
                return dataclasses.replace(out, gap=out.gap + 1)
            bad = dataclasses.replace(out.separator, gap=out.separator.gap + 1)
            return dataclasses.replace(out, separator=bad)

        assert cli.main(argv) == 0
        capsys.readouterr()
        monkeypatch.setattr(kkt, f"{mode}_kkt", corrupted)
        assert cli.main(argv) == 4
        err = capsys.readouterr().err
        assert "re-verification failed" in err and f"{mode} separator: objective 0" in err

    @pytest.mark.parametrize("subcommand", ["certify", "report"])
    def test_verify_checks_a_shared_separator_once(self, monkeypatch, capsys, subcommand):
        # weak KKT fails on the octagon, so strong prints the weak separator
        from mosipcert import cli

        parse, verify, serialise = cli._SEPARATOR
        calls = []
        monkeypatch.setattr(
            cli, "_SEPARATOR", (parse, lambda *args: calls.append(1) or verify(*args), serialise)
        )
        argv = [subcommand, "octagon-support", "--point=0,0", "--format", "json", "--verify"]
        assert cli.main(argv) == 0
        doc = json.loads(capsys.readouterr().out)
        kkt_doc = doc.get("kkt", doc)
        assert kkt_doc["strong"]["separator"] == kkt_doc["weak"]
        assert len(calls) == 1


class TestClaims:
    def test_linear_tail_all_three_levels(self, ex1):
        p, cp = ex1
        reports = _qual_map(p, cp)
        certs = {
            "weak": kkt.weak_kkt(p, cp),
            "strong": kkt.strong_kkt(p, cp),
            "perturbed": kkt.perturbed_kkt(p, cp),
        }
        claims = kkt.assemble_claims(p, cp, certs, reports)
        assert [(c.level, c.asserted) for c in claims] == [
            (kkt.WEAK_EFFICIENT, True),
            (kkt.EFFICIENT, True),
            (kkt.ISOLATED_EFFICIENT, True),
        ]
        assert all(c.direction == kkt.SUFFICIENT for c in claims)
        assert all(c.provenance == "exact" for c in claims)
        assert {c.theorem for c in claims} == {
            "weak KKT sufficient condition",
            "strong KKT sufficient condition",
            "perturbed KKT sufficient condition",
        }

    def test_octagon_positive_only_through_gap(self, ex2):
        from mosipcert import gap

        p, cp = ex2
        reports = _qual_map(p, cp)
        certs = {
            "weak": kkt.weak_kkt(p, cp),
            "strong": kkt.strong_kkt(p, cp),
            "perturbed": kkt.perturbed_kkt(p, cp),
            "gap_weak": gap.gap_zero_search(p, cp, "weak"),
        }
        claims = kkt.assemble_claims(p, cp, certs, reports)
        assert [(c.level, c.asserted, c.certificate) for c in claims] == [
            (kkt.WEAK_EFFICIENT, True, "gap_weak")
        ]
        assert claims[0].provenance == "approximated-subdifferentials"
        # the candidate is documented isolated-efficient; the dubious-case rule
        # must keep every negative claim out
        assert not any(not c.asserted for c in claims)

    def test_semicircle_failed_searches_claim_nothing(self, ex3):
        p, cp = ex3
        reports = _qual_map(p, cp)
        certs = {
            "weak": kkt.weak_kkt(p, cp),
            "strong": kkt.strong_kkt(p, cp),
            "perturbed": kkt.perturbed_kkt(p, cp),
        }
        # LFMCQ fails here, so the failed weak search licenses no negation
        # even though the constraint data is exact
        assert kkt.assemble_claims(p, cp, certs, reports) == ()

    def test_empty_inputs_empty_claims(self, ex1):
        p, cp = ex1
        assert kkt.assemble_claims(p, cp, {}, {}) == ()

    def test_negative_claims_on_regular_exact_instance(self):
        p, cp = _descent_line()
        reports = _qual_map(p, cp)
        assert reports["LFMCQ"].status == quals.HOLDS
        assert reports["MFCQ"].status == quals.HOLDS
        certs = {
            "weak": kkt.weak_kkt(p, cp),
            "strong": kkt.strong_kkt(p, cp),
            "perturbed": kkt.perturbed_kkt(p, cp),
        }
        assert isinstance(certs["weak"], kkt.KktSeparator)
        claims = kkt.assemble_claims(p, cp, certs, reports)
        negatives = {(c.level, c.relies_on) for c in claims if not c.asserted}
        assert negatives == {
            (kkt.WEAK_EFFICIENT, ("LFMCQ",)),
            (kkt.EFFICIENT, ("EADQ", "MOQ")),
            (kkt.ISOLATED_EFFICIENT, ("MFCQ",)),
        }
        assert all(c.direction == kkt.NECESSARY_GIVEN for c in claims)

    def test_truncated_data_blocks_negative_claims(self):
        p, cp = _descent_line()
        reports = _qual_map(p, cp)
        certs = {"weak": kkt.weak_kkt(p, cp)}
        # simulate non-exact data by downgrading the qualification provenance
        downgraded = {
            k: dataclasses.replace(r, provenance="truncated")
            for k, r in reports.items()
        }
        claims = kkt.assemble_claims(p, cp, certs, downgraded)
        assert not any(not c.asserted for c in claims)

    def test_oracle_contradiction_raises(self, ex1):
        class FakeOracle:
            weak_refuted = (Q(-1),)
            eff_refuted = None

        p, cp = ex1
        certs = {"weak": kkt.weak_kkt(p, cp)}
        with pytest.raises(InternalInconsistencyError):
            kkt.assemble_claims(p, cp, certs, {}, oracle_report=FakeOracle())

    def test_oracle_agreement_passes(self, ex1):
        class QuietOracle:
            weak_refuted = None
            eff_refuted = None

        p, cp = ex1
        certs = {"weak": kkt.weak_kkt(p, cp)}
        claims = kkt.assemble_claims(p, cp, certs, {}, oracle_report=QuietOracle())
        assert len(claims) == 1


# ---------------------------------------------------------------------------
# randomized structural soundness


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=10**6))
def test_certificates_verify_on_random_instances(seed):
    p, x = random_polyhedral_problem(random.Random(seed))
    cp = CandidatePoint.build(p, x)
    weak = kkt.weak_kkt(p, cp)
    if isinstance(weak, kkt.KktCertificate):
        assert kkt.certificate_issues(p, cp, weak) == []
        assert all(a >= 0 for a in weak.alpha)
    else:
        assert weak.gap > 0
        for g in cp.G_star.generators:
            assert qdot(weak.direction, g) <= 0
        assert max(qdot(weak.direction, v) for v in cp.F_star.vertices) < 0
    strong = kkt.strong_kkt(p, cp)
    if strong.certificate is not None:
        assert strong.tau > 0
        assert all(a > 0 for a in strong.certificate.alpha)
        assert kkt.certificate_issues(p, cp, strong.certificate) == []
        as_weak = dataclasses.replace(strong.certificate, kind=kkt.WEAK)
        assert kkt.certificate_issues(p, cp, as_weak) == []
        # the geometric relative-interior test is sufficient, never necessary:
        # whenever it fires, the LP margin must be positive too
    if strong.ri_zero:
        assert strong.certificate is not None
    perturbed = kkt.perturbed_kkt(p, cp)
    if perturbed.holds:
        assert perturbed.nu_lb > 0
        assert len(perturbed.axis_certificates) == 2 * p.dimension
        for cert in perturbed.axis_certificates:
            assert kkt.certificate_issues(p, cp, cert) == []
        # perturbed implies weak and strong as theorems
        assert isinstance(weak, kkt.KktCertificate)
        assert strong.certificate is not None
