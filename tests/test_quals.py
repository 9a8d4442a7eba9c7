"""Qualification checkers: fixture truth tables, witness re-verification,
implication-diagram sweeps, and the span-rank/definitional divergence."""

from __future__ import annotations

import json
import random
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers_cones import cone_contains, primitive, reference_min_max
from helpers_instances import random_polyhedral_problem
from helpers_sublevel import polar_intersection_generators, reference_eadq, reference_wadq
from mosipcert import cones
from mosipcert.cones import FGCone, HCone, HPoly, dd_convert, span_rank, strict_direction
from mosipcert.funcs import Affine, MaxAffine, evaluate, subdiff_set
from mosipcert.instances import FIXTURE_BUILDERS, load_fixture
from mosipcert.problem import CandidatePoint, FiniteFamily, MosipProblem, load_problem
from mosipcert.quals import (
    ARROWS,
    DEFAULT_EPS_GRID,
    FAILS,
    HOLDS,
    QUAL_IDS,
    UNDECIDABLE,
    QualReport,
    check,
    check_all,
    diagram_validate,
    report_to_json,
    reports_to_json,
    truth_table_text,
)
from mosipcert.rationals import Q, lincomb, qdot


def _candidate(p):
    return CandidatePoint.build(p, [0] * p.dimension)


def _expected_status(entry):
    return entry["status"] if isinstance(entry, dict) else entry


def test_fixture_tables_match_reference_verdicts():
    for name, build in FIXTURE_BUILDERS.items():
        p = build()
        cp = _candidate(p)
        reports = check_all(p, cp)
        table = p.annotations["reference_verdicts"]
        for r in reports:
            assert r.status == _expected_status(table[r.qual]), (name, r.qual, r.notes)


def test_fixture_diagrams_have_no_violations():
    for build in FIXTURE_BUILDERS.values():
        p = build()
        cp = _candidate(p)
        assert diagram_validate(p, cp, check_all(p, cp)) == []


def test_linear_fixture_specifics():
    p = load_fixture("alternating-affine")
    cp = _candidate(p)
    by = {r.qual: r for r in check_all(p, cp)}
    # pinned-exact constraint data at the origin
    assert by["CCCQ"].provenance == "exact"
    assert by["MFCQ"].provenance == "exact"
    # the documented-discrepancy entry: definition-literal containment holds
    assert by["PLVCQ"].status == HOLDS
    assert p.annotations["reference_verdicts"]["PLVCQ"]["documented_status"] == FAILS
    slater = by["SCQ"].witness
    assert slater["kind"] == "slater_point" and slater["slack"] > 0


def test_octagon_fixture_specifics():
    p = load_fixture("octagon-support")
    cp = _candidate(p)
    by = {r.qual: r for r in check_all(p, cp)}
    assert by["CCCQ"].status == UNDECIDABLE
    assert by["CCCQ"].provenance == "approximated-subdifferentials"
    assert by["PMFCQ"].status == UNDECIDABLE
    # grid values are recorded and non-increasing as eps decreases
    values = [Q(v[1][0]) / Q(v[1][1]) if isinstance(v[1], list) else v[1] for v in by["PMFCQ"].witness["values"]]
    assert all(b <= a for a, b in zip(values, values[1:]))
    # Slater refutation survives any family extension: member 0 never negative
    assert by["SCQ"].witness == {"kind": "nonnegative_member", "index": 0}
    assert by["KTCQ"].status == HOLDS and by["KTCQ"].provenance == "exact"


def test_semicircle_fixture_specifics():
    p = load_fixture("neg-semicircle")
    cp = _candidate(p)
    by = {r.qual: r for r in check_all(p, cp)}
    assert cp.G_is_empty
    assert by["MFCQ"].status == FAILS and by["ACQ"].status == FAILS
    assert by["PMFCQ"].witness["kind"] == "empty_subgradient_union"
    assert by["PLVCQ"].witness == {"kind": "empty_subdifferential"}
    assert by["COCQ"].witness["direction"] == (1,)
    # empty active data is pinned exact by annotation
    assert by["CCCQ"].status == HOLDS


def test_missing_feasible_set_degrades_to_undecidable():
    p = MosipProblem(1, [Affine([1], 0)], FiniteFamily([MaxAffine([([1], 0), ([2], 0)])]))
    cp = CandidatePoint.build(p, [0])
    for qual in ("LFMCQ", "KTCQ", "ACQ", "WADQ", "EADQ"):
        assert check(qual, p, cp).status == UNDECIDABLE
    assert check("MFCQ", p, cp).status == HOLDS  # needs no S representation


def test_pmfcq_grid_values_monotone_on_linear_fixture():
    # the replaced min-max LP's values fall along the grid; at each eps the
    # point's one zero question gives its verdict, and its Farkas direction
    # is strictly negative on the union
    p = load_fixture("alternating-affine")
    cp = _candidate(p)
    values = []
    for eps in DEFAULT_EPS_GRID:
        base, rec = cp.subgradient_union(eps)
        value, _ = reference_min_max(base, rec, 1)
        values.append(value)
        res = cp.union_zero(eps)
        assert not isinstance(res, list)  # the verdict: 0 is outside
        strict, d = strict_direction(base, res, 1)
        assert max(qdot(v, d) for v in base) == strict < 0
        assert all(qdot(g, d) <= 0 for g in rec)
    assert all(b <= a for a, b in zip(values, values[1:]))
    assert values[0] == -1 and values[-1] == -2


def test_active_set_eps_pattern_matches_subgradients():
    p = load_fixture("alternating-affine")
    cp = _candidate(p)
    base, _ = cp.subgradient_union(Q(1, 2))
    assert set(base) == {(Q(1),), (Q(2),), (Q(3),)}
    assert cp.active(Q(1, 2))[:2] == [0, 3]


def test_pmfcq_solves_one_min_max_lp_per_distinct_active_set(monkeypatch):
    # the min-max question, 0 outside the union's hull plus cone, is one
    # `decompose` per distinct eps-active set
    from mosipcert import problem

    p = load_fixture("octagon-support")
    grid = DEFAULT_EPS_GRID
    calls, unions = [], []
    real, union = problem.decompose, problem._union

    def counted(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(problem, "decompose", counted)
    # each grid entry reads its union off the point, built once per active
    # set, that of T when the point is built
    monkeypatch.setattr(problem, "_union", lambda sets: unions.append(1) or union(sets))
    cp = _candidate(p)
    report = check("PMFCQ", p, cp)
    assert report.status == UNDECIDABLE
    distinct = len({tuple(cp.active(eps)) for eps in grid})
    assert len(calls) == len(unions) == distinct
    assert [row[0] for row in report.witness["values"]] == list(grid)


class _TruncatedFamily(FiniteFamily):
    """Finite members standing for a truncated family, so that PMFCQ walks
    its whole eps grid; a finite family asks eps = 0 only."""

    @property
    def truncated(self) -> bool:
        return True


def test_pmfcq_solves_one_min_max_lp_per_active_set_across_several(monkeypatch):
    # +-x1 are active at 0 and +-k x2 - 1/2^k join as eps grows, so the grid
    # crosses four eps-active sets with four different subgradient unions,
    # while +-x1 keep 0 in each, so every min-max value is 0: one
    # `decompose` per set
    from mosipcert import problem

    members = [Affine([1, 0], 0), Affine([-1, 0], 0)]
    for k in (1, 2, 3):
        members += [Affine([0, k], -Q(1, 2**k)), Affine([0, -k], -Q(1, 2**k))]
    p = MosipProblem(2, [Affine([1, 1], 0)], _TruncatedFamily(members))
    calls, unions = [], []
    real, union = problem.decompose, problem._union
    monkeypatch.setattr(problem, "decompose", lambda *args: calls.append(1) or real(*args))
    monkeypatch.setattr(problem, "_union", lambda subdiffs: unions.append(1) or union(subdiffs))
    cp = _candidate(p)
    sets = {tuple(cp.active(eps)) for eps in DEFAULT_EPS_GRID}
    assert len(sets) == 4 and cp.T in sets
    report = check("PMFCQ", p, cp)
    assert (report.status, report.provenance) == (UNDECIDABLE, "truncated")
    assert [row[1] for row in report.witness["values"]] == [0] * len(DEFAULT_EPS_GRID)
    assert len(calls) == len(unions) == len(sets)


def test_pmfcq_long_grid_asks_once_per_distinct_active_set(monkeypatch, capsys):
    # each grid entry looks its zero decomposition up by the eps-active index
    # set, so the point's store, keyed by rational points, is asked once per
    # set, not once per entry; the output is what a fresh LP per entry gives
    from mosipcert import cli, problem

    grid = [Q(1, k) for k in range(1, 1501)] + [Q(3, 2**k) for k in range(12)]
    argv = ["quals", "octagon-support", "--point=0,0", "--format", "json",
            "--eps-grid=" + ",".join(str(eps) for eps in grid)]
    asked, solved = [], []
    real_ask, real_solve = CandidatePoint.zero_decomposition, problem.decompose
    monkeypatch.setattr(
        CandidatePoint,
        "zero_decomposition",
        lambda self, *args: asked.append(1) or real_ask(self, *args),
    )
    monkeypatch.setattr(
        problem, "decompose", lambda *args: solved.append(1) or real_solve(*args)
    )
    assert cli.main(argv) == 0
    kept = capsys.readouterr().out
    cp = _candidate(load_fixture("octagon-support"))
    grid_sets = {tuple(cp.active(eps)) for eps in grid}
    assert len(asked) == len(grid_sets) + 2  # MFCQ and COCQ ask once each
    # MFCQ's union, at eps = 0, is solved once with PMFCQ's when they agree
    assert len(solved) == len(grid_sets | {tuple(cp.active(0))}) + 1
    def fresh(self, eps):
        base, rec = self.subgradient_union(eps)
        return real_solve((Q(0),) * self.problem.dimension, [base], [rec])

    monkeypatch.setattr(CandidatePoint, "union_zero", fresh)
    assert cli.main(argv) == 0
    assert capsys.readouterr().out == kept
    assert len(json.loads(kept)["quals"][3]["witness"]["values"]) == len(grid)


def test_octagon_quals_lp_count_guard(monkeypatch, capsys):
    from mosipcert import cli, lp

    calls = []
    real = lp.solve

    def counted(prog):
        calls.append(1)
        return real(prog)

    monkeypatch.setattr(lp, "solve", counted)
    assert cli.main(["quals", "octagon-support", "--point=0,0", "--format", "json"]) == 0
    capsys.readouterr()
    assert len(calls) <= 160


def test_octagon_union_lps_run_against_the_extreme_points_found(monkeypatch):
    # the canonical polytope of the octagon's 43-point active subgradient
    # union: each LP of Clarkson's algorithm has a row per coordinate, the
    # simplex row and a row per extreme point found so far, never a row per
    # other point
    from mosipcert import lp
    from mosipcert.cones import Polytope

    p = load_fixture("octagon-support")
    union, _ = _candidate(p).subgradient_union(0)
    assert len(set(union)) == 43
    rows = []
    solve = lp.solve
    monkeypatch.setattr(lp, "solve", lambda prog: rows.append(len(prog.rows)) or solve(prog))
    vertices = Polytope(2, union).vertices
    assert len(vertices) == 8 and rows
    assert max(rows) <= 2 + 1 + len(vertices)


def test_refused_subdifferential_is_refused_on_every_request():
    from mosipcert.errors import UnsupportedOperationError
    from mosipcert.funcs import NegSqrtParabola1D

    # at x = 1/2 the arc's slope is -1/sqrt(3): inactive, but the envelope's
    # argmax member, so the envelope checkers ask for it
    p = MosipProblem(1, [Affine([1], 0)], FiniteFamily([NegSqrtParabola1D(1)]))
    cp = CandidatePoint.build(p, [Q(1, 2)])
    assert cp.T == ()
    for _ in range(2):
        with pytest.raises(UnsupportedOperationError):
            cp.constraint_subdiff(0)
        with pytest.raises(UnsupportedOperationError):
            cp.psi_subdiff()
    first = [check(q, p, cp) for q in ("COCQ", "PLVCQ")]
    again = [check(q, p, cp) for q in ("COCQ", "PLVCQ")]
    assert first == again
    assert all(r.status == UNDECIDABLE for r in first)
    assert all(r.notes.startswith("prerequisite unavailable") for r in first)


def test_one_double_description_per_check_all(monkeypatch):
    # WADQ and EADQ decide by one containment and no generators, so no
    # checker runs a double description at all
    calls = []
    real = cones.dd_convert

    def counted(n, normals):
        calls.append(normals)
        return real(n, normals)

    monkeypatch.setattr(cones, "dd_convert", counted)
    for name in ("alternating-affine", "octagon-support"):
        p = load_fixture(name)
        cp = _candidate(p)
        calls.clear()
        by = {r.qual: r for r in check_all(p, cp)}
        assert by["WADQ"].status != UNDECIDABLE and by["EADQ"].status != UNDECIDABLE
        assert len(calls) == 0


def _tightened(rng):
    """A random instance whose S may carry up to two more rows through the
    origin.  S stays inside the constraints' feasible set, and its normal
    cone can outgrow G*, so generators of F0 n G0 can leave C."""
    p, x = random_polyhedral_problem(rng)
    extra = [
        (tuple(Q(rng.randint(-2, 2)) for _ in range(p.dimension)), Q(0))
        for _ in range(rng.randint(0, 2))
    ]
    rows = list(p.feasible_set.rows) + extra
    return MosipProblem(p.dimension, p.objectives, p.constraints, HPoly(p.dimension, rows)), x


def _reference_cases(seed: str, draws: int) -> list:
    """The fixtures, lineality-plane and seeded draws, at the origin."""
    problems = [build() for build in FIXTURE_BUILDERS.values()]
    problems.append(load_problem(Path(__file__).parent / "problems" / "lineality-plane.json"))
    rng = random.Random(seed)
    return [(p, [0] * p.dimension) for p in problems] + [_tightened(rng) for _ in range(draws)]


def _eadq_cases() -> list:
    return _reference_cases("eadq-reference", 30)


def test_eadq_matches_the_sublevel_definition():
    # the one containment in C gives the verdict the generators of F0 n G0
    # give against the sublevel cones, and its witness checks by substitution
    seen = set()
    for p, x in _eadq_cases():
        cp = CandidatePoint.build(p, x)
        report = check("EADQ", p, cp)
        status, _ = reference_eadq(p, cp)
        assert report.status == status
        _verify_witness(p, cp, report)
        seen.add((status, report.witness["kind"], p.num_objectives > 1))
    for several in (False, True):
        assert (HOLDS, "containment", several) in seen
        assert (FAILS, "escaping_direction", several) in seen


def _generator_wadq(p, cp) -> str:
    """The generator test WADQ once ran: only generators of F0 n G0 with
    max v'g < 0 over F were tested against C."""
    strict = [
        g for g in polar_intersection_generators(p, cp)
        if max(qdot(v, g) for v in cp.F) < 0
    ]
    return FAILS if any(not cp.C.member(g) for g in strict) else HOLDS


def test_wadq_matches_the_set_definition():
    # the containment, then Motzkin's test of the strict set, give the
    # verdict of the set definition; the old generator test, which skipped
    # generators with max v'g = 0, printed Holds on some draws that fail
    seen, skipped = set(), 0
    for p, x in _reference_cases("wadq-probe", 60):
        cp = CandidatePoint.build(p, x)
        report = check("WADQ", p, cp)
        status, _ = reference_wadq(p, cp)
        assert report.status == status
        _verify_witness(p, cp, report)
        seen.add(status)
        skipped += status == FAILS and not cp.G_is_empty and _generator_wadq(p, cp) == HOLDS
    assert {HOLDS, FAILS} <= seen
    assert skipped >= 1


def test_wadq_fails_on_a_strict_direction_that_no_generator_shows():
    # f = -x2, g = -x1, S = {-x1 <= 0, x1 - x2 <= 0}: F0 n G0 has the
    # generators (0, 1), strict and in C, and (1, 0), not strict and not in
    # C, so the generator test printed Holds; yet (1, 1/2) is strict and
    # leaves C
    S = HPoly(2, [((Q(-1), Q(0)), Q(0)), ((Q(1), Q(-1)), Q(0))])
    p = MosipProblem(2, [Affine([0, -1], 0)], FiniteFamily([Affine([-1, 0], 0)]), S)
    cp = _candidate(p)
    assert _generator_wadq(p, cp) == HOLDS
    by = {r.qual: r for r in check_all(p, cp)}
    wadq = by["WADQ"]
    assert wadq.status == FAILS and wadq.witness["kind"] == "escaping_direction"
    d = wadq.witness["direction"]
    assert qdot((0, -1), d) < 0 and qdot((-1, 0), d) <= 0  # strict, in G0
    assert not all(qdot(a, d) <= b for a, b in S.rows)  # outside C at 0
    _verify_witness(p, cp, wadq)
    for qual in ("EADQ", "ACQ", "KTCQ", "LFMCQ"):
        assert by[qual].status == FAILS, qual
    assert reference_wadq(p, cp)[0] == FAILS


def test_wadq_holds_vacuously_when_no_direction_is_strict():
    # f = x1, g = -x1, S adds -x2 <= 0: F0 n G0 is the x2-axis, which leaves
    # C, but no direction of G0 has d1 < 0, so WADQ holds by Motzkin's
    # weights and EADQ fails
    S = HPoly(2, [((Q(-1), Q(0)), Q(0)), ((Q(0), Q(-1)), Q(0))])
    p = MosipProblem(2, [Affine([1, 0], 0)], FiniteFamily([Affine([-1, 0], 0)]), S)
    cp = _candidate(p)
    wadq, eadq = check("WADQ", p, cp), check("EADQ", p, cp)
    assert wadq.status == HOLDS and wadq.witness["kind"] == "zero_decomposition"
    assert eadq.status == FAILS and eadq.witness["kind"] == "escaping_direction"
    for r in (wadq, eadq):
        _verify_witness(p, cp, r)
    assert reference_wadq(p, cp) == (HOLDS, {"kind": "empty_strict_set"})
    assert reference_eadq(p, cp)[0] == FAILS


def test_eadq_needs_sublevel_rows_for_every_objective():
    # x = 0 is inside the second objective's domain, so the point builds, but
    # that objective gives Q^1(x) no polyhedral rows; alone, it leaves
    # Q^1(x) = S, and EADQ is decided
    dom = HPoly(1, [((Q(1),), Q(1)), ((Q(-1),), Q(1))])
    objectives = [Affine([1], 0), Affine([-1], 0, domain=dom)]
    constraints = FiniteFamily([Affine([1], 0)])
    S = HPoly(1, [((Q(1),), Q(0))])
    p = MosipProblem(1, objectives, constraints, S)
    cp = CandidatePoint.build(p, [0])
    note = "needs sublevel-set H-representations for every objective"
    assert check("EADQ", p, cp) == QualReport("EADQ", UNDECIDABLE, "exact", None, note)
    assert reference_eadq(p, cp) == (UNDECIDABLE, None)
    p = MosipProblem(1, objectives[1:], constraints, S)
    cp = CandidatePoint.build(p, [0])
    report = check("EADQ", p, cp)
    assert report.status == HOLDS == reference_eadq(p, cp)[0]
    _verify_witness(p, cp, report)


def test_eadq_asks_one_lp_per_normal_of_c_off_the_rows(monkeypatch):
    # a normal of C that is a multiple of an objective subgradient or of a
    # G-polar normal lies in their cone with no LP; each other normal asks
    # one `decompose` at most, and none when the elimination forces it
    from mosipcert import lp

    points = [(p, CandidatePoint.build(p, x)) for p, x in _eadq_cases()]
    solves = []
    solve = lp.solve
    monkeypatch.setattr(lp, "solve", lambda prog: solves.append(prog) or solve(prog))
    off_rows = 0
    for p, cp in points:
        solves.clear()
        check("EADQ", p, cp)
        if cp.C is None or cp.G_is_empty:
            assert solves == []
            continue
        rays = {primitive(r) for r in cp.F + cp.g_polar()[0].normals if any(r)}
        off = [t for t in cp.C.normals if primitive(t) not in rays]
        assert len(solves) <= len(off)
        off_rows += len(off)
    assert off_rows > 0


def test_eadq_after_wadq_asks_no_lp(monkeypatch):
    # WADQ and EADQ ask one containment, F0 n G0 in C, which the point keeps:
    # EADQ after WADQ reads it and runs no LP, while the containment and
    # WADQ's Motzkin test do run LPs on these draws
    from mosipcert import lp

    rng = random.Random("wadq-probe")
    points = [(p, CandidatePoint.build(p, x)) for p, x in (_tightened(rng) for _ in range(400))]
    solves = []
    solve = lp.solve
    monkeypatch.setattr(lp, "solve", lambda prog: solves.append(prog) or solve(prog))
    wadq_lps = 0
    for p, cp in points:
        solves.clear()
        check("WADQ", p, cp)
        wadq_lps += len(solves)
        solves.clear()
        check("EADQ", p, cp)
        assert solves == []
    assert wadq_lps > 0


def _count_decompose(monkeypatch) -> list:
    from mosipcert import cones

    calls = []
    real = cones.decompose

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(cones, "decompose", counted)
    return calls


def test_lfmcq_makes_no_forward_containment_lps(monkeypatch):
    # G* in N is checked once, when the candidate point is built; N in G*
    # takes at most one LP per generator of N, and none when N equals G*
    p = load_fixture("alternating-affine")
    cp = _candidate(p)
    calls = _count_decompose(monkeypatch)
    report = check("LFMCQ", p, cp)
    assert report.status == HOLDS
    assert cp.N == cp.G_star and len(calls) == 0


def test_lfmcq_decides_n_in_g_star_by_lps_when_the_cones_differ(monkeypatch):
    # S = {x1 = 0, x2 <= 0}: both cones are the half-plane x2 >= 0, a cone
    # with lineality, and one cone has one canonical form, so N in G* holds
    # with no LP
    p = MosipProblem(
        2,
        [Affine([0, -1], 0)],
        FiniteFamily([Affine([-1, 0], 0), Affine([1, 0], 0), Affine([0, 1], 0)]),
        feasible_set=HPoly(2, [((-1, 0), 0), ((1, 0), 0), ((1, 1), 0)]),
    )
    cp = _candidate(p)
    assert cp.N == cp.G_star
    calls = _count_decompose(monkeypatch)
    assert check("LFMCQ", p, cp).status == HOLDS
    assert len(calls) == 0
    # the octagon's N is the quadrant, G* a narrower cone: N in G* takes at
    # most one LP per generator of N, and fails
    p = load_fixture("octagon-support")
    cp = _candidate(p)
    assert cp.N != cp.G_star
    calls.clear()
    report = check("LFMCQ", p, cp)
    assert report.status == FAILS
    assert 0 < len(calls) <= len(cp.N.generators)


# ---------------------------------------------------------------------------
# witness re-verification


def _verify_witness(p, cp, r) -> None:
    w = r.witness
    if w is None:
        return
    kind = w["kind"]
    if kind == "slater_point":
        worst = max(evaluate(p.constraint(k), w["point"]) for k in p.indices())
        assert worst <= -w["slack"] < 0
    elif kind == "nonnegative_member":
        f = p.constraint(w["index"])
        for probe in ([Q(0)] * p.dimension, [Q(1)] * p.dimension, [Q(-5)] * p.dimension):
            assert evaluate(f, probe) >= 0
    elif kind == "direction":
        base, rec = cp.subgradient_union(0)
        if r.qual == "MFCQ":
            assert all(qdot(v, w["direction"]) < 0 for v in base)
            assert all(qdot(g, w["direction"]) <= 0 for g in rec)
    elif kind == "zero_decomposition":
        pts, alpha = w["points"], w["alpha"]
        gens, mu = w["generators"], w["mu"]
        assert sum(alpha) == 1 and all(a >= 0 for a in alpha) and all(m >= 0 for m in mu)
        for i in range(p.dimension):
            total = sum(a * v[i] for a, v in zip(alpha, pts))
            total += sum(m * g[i] for m, g in zip(mu, gens))
            assert total == 0
        if r.qual == "WADQ":
            # 0 in conv(F) + cone(G0's normals): no direction of G0 is strict
            assert set(pts) <= set(cp.F_star.vertices)
            assert set(gens) <= set(cp.g_polar()[0].normals)
    elif kind == "containment":
        lhs, rhs = w["lhs_normals"], w["rhs_normals"]
        if r.qual in ("WADQ", "EADQ"):
            assert lhs == cp.F + cp.g_polar()[0].normals and rhs == cp.C.normals
        # the generator picture: every generator of the first cone is in the second
        for g in dd_convert(p.dimension, lhs).generators:
            assert all(qdot(t, g) <= 0 for t in rhs)
    elif kind == "grid_certificate":
        base, rec = cp.subgradient_union(w["eps"])
        assert max(qdot(v, w["direction"]) for v in base) == w["value"] < 0
        assert all(qdot(g, w["direction"]) <= 0 for g in rec)
    elif kind == "memberships":
        for entry in w["entries"]:
            target, coeffs = entry["vertex"], entry["coefficients"]
            gens = cp.G_star.generators
            assert all(c >= 0 for c in coeffs)
            for i in range(p.dimension):
                assert sum(c * g[i] for c, g in zip(coeffs, gens)) == target[i]
    elif kind == "non_member_vertex":
        from mosipcert.cones import cone_member

        assert cone_member(w["vertex"], cp.G_star) is None
    elif kind == "span_rank":
        assert span_rank(w["points"]) == w["rank"]
        assert (w["rank"] == w["needed"]) == (r.status == HOLDS)
    elif kind == "escaping_direction":
        d = w["direction"]
        assert cp.C is not None and not cp.C.member(d)
        if r.qual in ("WADQ", "EADQ"):
            # d lies in F0 n G0, strictly decreasing every objective for WADQ
            assert all(qdot(a, d) <= 0 for a in cp.g_polar()[0].normals)
            values = [qdot(v, d) for v in cp.F]
            assert all(v < 0 for v in values) if r.qual == "WADQ" else all(v <= 0 for v in values)
    elif kind == "escaping_generator" and r.qual == "LFMCQ":
        d = w["direction"]
        if w["escapes"] == "active-gradient cone":
            assert cone_contains(cp.N, d)  # direction came from N
            from mosipcert.cones import cone_member

            assert cone_member(d, cp.G_star) is None


def test_zero_decompositions_are_supported_on_the_decided_input(monkeypatch):
    # MFCQ's and COCQ's Fails witness is the support of one basic solution
    # over the very points and generators of the point's one zero question,
    # in their input order
    decided = []
    real = CandidatePoint.zero_decomposition
    monkeypatch.setattr(
        CandidatePoint,
        "zero_decomposition",
        lambda self, points, gens: decided.append((tuple(points), tuple(gens)))
        or real(self, points, gens),
    )
    rng = random.Random("zero-decomposition")
    problems = [build() for build in FIXTURE_BUILDERS.values()]
    problems += [random_polyhedral_problem(rng)[0] for _ in range(40)]
    problems += [random_polyhedral_problem(rng, max_dim=5)[0] for _ in range(40)]
    seen = {"MFCQ": 0, "COCQ": 0}
    for p in problems:
        cp = _candidate(p)
        for qual in seen:
            decided.clear()
            r = check(qual, p, cp)
            if r.status != FAILS or r.witness["kind"] != "zero_decomposition":
                continue
            (points, gens), = decided
            w = r.witness
            assert len(w["alpha"]) == len(w["points"]) and len(w["mu"]) == len(w["generators"])
            assert all(c > 0 for c in w["alpha"] + w["mu"]) and sum(w["alpha"]) == 1
            combination = lincomb(w["alpha"] + w["mu"], w["points"] + w["generators"], p.dimension)
            assert combination == (0,) * p.dimension
            assert list(w["points"]) == [v for v in points if v in w["points"]]
            assert list(w["generators"]) == [g for g in gens if g in w["generators"]]
            assert len(w["points"]) + len(w["generators"]) <= p.dimension + 1
            seen[qual] += 1
    assert seen["MFCQ"] >= 10 and seen["COCQ"] >= 10, seen


def test_cocq_reads_mfcqs_answer_when_psi_is_the_max_over_t(monkeypatch):
    # with no override and T nonempty, psi's argmax set is T, so the max
    # rule's set is MFCQ's union: COCQ asks MFCQ's zero decomposition over
    # MFCQ's own input and runs no LP of its own
    from mosipcert import lp

    rng = random.Random("cocq-reads-mfcq")
    points = [_candidate(random_polyhedral_problem(rng)[0]) for _ in range(60)]
    solves = []
    real = lp.solve
    monkeypatch.setattr(lp, "solve", lambda prog: solves.append(prog) or real(prog))
    seen = set()
    for cp in points:
        p = cp.problem
        if not cp.T:
            continue
        cp.psi_subdiff()  # the canonical set, which PLVCQ and KTCQ read
        mfcq = check("MFCQ", p, cp)
        solves.clear()
        cocq = check("COCQ", p, cp)
        assert solves == []
        assert cocq.status == mfcq.status
        if cocq.status == FAILS:
            assert cocq.witness == mfcq.witness
        else:
            assert cocq.witness["direction"] == mfcq.witness["direction"]
            assert cocq.witness["derivative_bound"] == mfcq.witness["max_inner"]
        seen.add(cocq.status)
    assert seen == {HOLDS, FAILS}


def _strict(points, gens, d, value=None) -> None:
    """d is strictly negative on the points, with max value when given, and
    nonpositive on the generators: substitution alone."""
    top = max(qdot(v, d) for v in points)
    assert top < 0 and all(qdot(g, d) <= 0 for g in gens)
    assert value is None or top == value


def test_farkas_directions_are_strict_and_decide_as_the_min_max_lp():
    # every direction read off a Farkas vector is strict by substitution, and
    # each zero question's verdict is the replaced min-max LP's
    from mosipcert import kkt
    from mosipcert.cones import NotMember, membership

    rng = random.Random("farkas-directions")
    seen = {}

    def decided(name, points, gens, outside, d=None, value=None):
        assert (reference_min_max(points, gens, len(points[0]))[0] < 0) == outside, name
        if outside:
            _strict(points, gens, d, value)
        seen[name, outside] = seen.get((name, outside), 0) + 1

    for k in range(80):
        p, x = random_polyhedral_problem(rng, max_dim=5 if k % 4 == 0 else 3)
        cp = _candidate(p)
        n = p.dimension
        by = {r.qual: r for r in check_all(p, cp)}
        if not cp.G_is_empty:
            base, rec = cp.subgradient_union(0)
            for qual, key in (("MFCQ", "max_inner"), ("PMFCQ", "value")):
                w = by[qual].witness
                decided(qual, base, rec, by[qual].status == HOLDS, w.get("direction"), w.get(key))
        points, rays = cp.psi_subdiff()
        if cp.T:
            points, rays = cp.subgradient_union(0)  # COCQ asks MFCQ's union
        w = by["COCQ"].witness
        decided("COCQ", points, rays, by["COCQ"].status == HOLDS, w.get("direction"), w.get("derivative_bound"))
        verts, gens = cp.F_star.vertices, cp.G_star.generators
        weak = kkt.weak_kkt(p, cp)
        outside = isinstance(weak, kkt.KktSeparator)
        decided("KKT", verts, gens, outside, *((weak.direction, -weak.gap) if outside else ()))
        if outside:
            assert kkt.separator_issues(p, cp, weak) == []
        if not cp.G_is_empty and cp.C is not None:
            normals = cp.g_polar()[0].normals
            res = cp.zero_decomposition(verts, normals)
            outside = not isinstance(res, list)
            decided("WADQ", verts, normals, outside, *(strict_direction(verts, res, n)[::-1] if outside else ()))
            if by["WADQ"].witness["kind"] == "escaping_direction":
                _strict(verts, normals, by["WADQ"].witness["direction"])
        target = tuple(Q(rng.randint(-2, 2)) for _ in range(n))
        shifted = [tuple(a - b for a, b in zip(v, target)) for v in verts]
        res = membership(target, verts, gens)
        outside = isinstance(res, NotMember)
        decided("NotMember", shifted, gens, outside, *((res.separator, -res.gap) if outside else ()))
    names = ("MFCQ", "PMFCQ", "COCQ", "KKT", "WADQ", "NotMember")
    assert all(seen.get((name, side), 0) >= 10 for name in names for side in (True, False)), seen


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10**9))
def test_generated_instances_witnesses_verify(seed):
    p, x = random_polyhedral_problem(random.Random(seed))
    cp = CandidatePoint.build(p, x)
    for r in check_all(p, cp):
        assert r.status in (HOLDS, FAILS)  # finite exact data decides everything
        assert r.provenance == "exact"
        _verify_witness(p, cp, r)


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10**9))
def test_generated_instances_diagram_clean(seed):
    p, x = random_polyhedral_problem(random.Random(seed))
    cp = CandidatePoint.build(p, x)
    reports = check_all(p, cp)
    violations = diagram_validate(p, cp, reports)
    assert violations == [], [v.detail for v in violations]


# ---------------------------------------------------------------------------
# the span-rank shortcut vs the definitional generator test


def _definitional_moq(p, cp) -> bool:
    """F^0 inside {0} union the strict-descent sets of the objectives,
    evaluated on double-description generators of F^0."""
    f0 = dd_convert(p.dimension, cp.F)
    for g in f0.generators:
        decreasing = False
        for f in p.objectives:
            points, rays = subdiff_set(f, cp.x)
            if max(qdot(v, g) for v in points) < 0 and all(qdot(r, g) <= 0 for r in rays):
                decreasing = True
                break
        if not decreasing:
            return False
    return True


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10**9))
def test_moq_matches_definitional_test_for_singleton_subdifferentials(seed):
    rng = random.Random(seed)
    n = rng.randint(1, 3)
    objectives = [
        Affine([Q(rng.randint(-3, 3)) for _ in range(n)], 0)
        for _ in range(rng.randint(1, 3))
    ]
    if all(all(c == 0 for c in f.a) for f in objectives):
        objectives[0] = Affine([Q(1)] + [Q(0)] * (n - 1), 0)
    p = MosipProblem(
        n,
        objectives,
        FiniteFamily([Affine([Q(0)] * n, Q(-1))]),
        feasible_set=HPoly(n, []),
    )
    cp = CandidatePoint.build(p, [0] * n)
    rank_test = span_rank(cp.F) == n
    assert rank_test == _definitional_moq(p, cp)


def test_span_rank_diverges_from_definitional_test_on_multi_vertex_subdifferentials():
    # conv{(1,0),(0,-1)} and {(-1,0)} together span the plane, yet the
    # direction (0,1) lies in F^0 with no objective strictly decreasing along
    # it: the span-rank shortcut is only equivalent to the definitional test
    # when every objective subdifferential is a singleton.
    p = MosipProblem(
        2,
        [MaxAffine([([1, 0], 0), ([0, -1], 0)]), Affine([-1, 0], 0)],
        FiniteFamily([Affine([0, 0], -1)]),
        feasible_set=HPoly(2, []),
    )
    cp = CandidatePoint.build(p, [0, 0])
    assert span_rank(cp.F) == 2  # the rank test reports Holds
    assert not _definitional_moq(p, cp)  # the definitional test disagrees
    assert check("MOQ", p, cp).status == HOLDS  # the checker follows the rank test


# ---------------------------------------------------------------------------
# serialization and table rendering


def test_reports_serialize_to_plain_json():
    import json

    p = load_fixture("alternating-affine")
    cp = _candidate(p)
    doc = reports_to_json(check_all(p, cp))
    text = json.dumps(doc, sort_keys=True)
    assert json.loads(text) == doc  # only plain JSON types survive the dump
    kinds = {r["witness"]["kind"] for r in doc if r["witness"]}
    assert {"slater_point", "span_rank", "mutual_containment"} <= kinds
    scq = next(r for r in doc if r["qual"] == "SCQ")
    num, den = scq["witness"]["slack"]
    assert isinstance(num, int) and isinstance(den, int) and num > 0


def test_truth_table_text_shape():
    p = load_fixture("neg-semicircle")
    cp = _candidate(p)
    text = truth_table_text(check_all(p, cp))
    lines = text.strip().splitlines()
    assert len(lines) == 2 + len(QUAL_IDS)
    assert lines[0].startswith("QUAL")
    assert lines[2].startswith("SCQ    Holds")


def test_arrow_labels_and_count():
    assert len(ARROWS) == 16
    labels = [a.label() for a in ARROWS]
    assert "SSCQ => SCQ" in labels
    assert "ACQ => EADQ [single_objective]" in labels
