from __future__ import annotations

import dataclasses
import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mosipcert import gap, instances
from mosipcert.errors import ModelError, ParseError, UnsupportedOperationError
from mosipcert.funcs import Affine, HPoly, MaxAffine, subdiff
from mosipcert.rationals import ONE, POS_INF, ZERO, Q, qdot
from mosipcert.problem import CandidatePoint, FiniteFamily, MosipProblem

from helpers_cones import decompose_rows
from helpers_instances import random_polyhedral_problem
from helpers_lp import verify_farkas


@pytest.fixture(scope="module")
def ex1():
    p = instances.linear_tail_problem()
    return p, CandidatePoint.build(p, [0])


@pytest.fixture(scope="module")
def ex2():
    p = instances.octagon_problem()
    return p, CandidatePoint.build(p, [0, 0])


def _unit_interval() -> tuple:
    """minimize x over [0, 1], evaluated at the wrong endpoint x = 1."""
    p = MosipProblem(
        dimension=1,
        objectives=[Affine([1], 0)],
        constraints=FiniteFamily([Affine([1], -1), Affine([-1], 0)]),
        feasible_set=HPoly(1, [((Q(1),), Q(1)), ((Q(-1),), Q(0))]),
        annotations={"name": "unit-interval"},
    )
    return p, CandidatePoint.build(p, [1])


def _halfline_descent() -> tuple:
    """minimize -x over [0, inf): the gap value is +inf at the origin."""
    p = MosipProblem(
        dimension=1,
        objectives=[Affine([-1], 0)],
        constraints=FiniteFamily([Affine([-1], 0)]),
        feasible_set=HPoly(1, [((Q(-1),), Q(0))]),
        annotations={"name": "halfline"},
    )
    return p, CandidatePoint.build(p, [0])


SIMPLEX_2 = [
    (ONE, ZERO),
    (ZERO, ONE),
    (Q(1, 2), Q(1, 2)),
    (Q(1, 3), Q(2, 3)),
    (Q(2, 3), Q(1, 3)),
    (Q(1, 4), Q(3, 4)),
    (Q(3, 4), Q(1, 4)),
    (Q(1, 5), Q(4, 5)),
    (Q(4, 5), Q(1, 5)),
    (Q(9, 10), Q(1, 10)),
    (Q(1, 10), Q(9, 10)),
]


# ---------------------------------------------------------------------------
# evaluation


class TestEval:
    def test_zero_at_the_documented_solution(self, ex1):
        p, cp = ex1
        for lam in SIMPLEX_2:
            assert gap.gap_eval(p, cp.x, [(Q(-2),), (Q(-1),)], lam) == ZERO

    def test_closed_form_away_from_the_solution(self, ex1):
        # sup_{y <= 0} c(x - y) with c = -(2 lam1 + lam2) equals -c * (-x)
        p, _ = ex1
        for lam in SIMPLEX_2:
            expected = (2 * lam[0] + lam[1]) * ONE
            assert gap.gap_eval(p, (Q(-1),), [(Q(-2),), (Q(-1),)], lam) == expected

    def test_closed_form_on_octagon(self, ex2):
        p, _ = ex2
        xi = [(Q(-1), ZERO), (Q(-1), ZERO)]
        assert gap.gap_eval(p, (Q(-1), Q(-1)), xi, (Q(1, 2), Q(1, 2))) == ONE
        assert gap.gap_eval(p, (ZERO, ZERO), xi, (Q(1, 2), Q(1, 2))) == ZERO

    def test_positive_at_refuted_candidate(self):
        p, cp = _unit_interval()
        for lam in ((ONE,), (Q(2),), (Q(1, 3),)):
            assert gap.gap_eval(p, cp.x, [(ONE,)], lam) == lam[0]

    def test_unbounded_value_is_positive_infinity(self):
        p, cp = _halfline_descent()
        assert gap.gap_eval(p, cp.x, [(Q(-1),)], (ONE,)) is POS_INF

    def test_rejects_selection_outside_subdifferential(self, ex1):
        p, cp = ex1
        with pytest.raises(gap.SubgradientPreconditionError) as exc:
            gap.gap_eval(p, cp.x, [(Q(5),), (Q(-1),)], (Q(1, 2), Q(1, 2)))
        assert exc.value.index == 0
        assert exc.value.separator is not None

    def test_rejects_negative_weights(self, ex1):
        p, cp = ex1
        with pytest.raises(ModelError):
            gap.gap_eval(p, cp.x, [(Q(-2),), (Q(-1),)], (Q(2), Q(-1)))

    def test_rejects_length_mismatch(self, ex1):
        p, cp = ex1
        with pytest.raises(ModelError):
            gap.gap_eval(p, cp.x, [(Q(-2),)], (ONE,))

    def test_zero_subgradient_gives_zero_everywhere(self):
        p = MosipProblem(
            dimension=1,
            objectives=[MaxAffine([([1], 0), ([-1], 0)])],
            constraints=FiniteFamily([Affine([1], -1)]),
            feasible_set=HPoly(1, [((Q(1),), Q(1))]),
            annotations={"name": "abs"},
        )
        assert gap.gap_eval(p, (ZERO,), [(ZERO,)], (ONE,)) == ZERO

    @settings(max_examples=40, deadline=None)
    @given(
        lam1=st.fractions(min_value=0, max_value=3),
        lam2=st.fractions(min_value=0, max_value=3),
        scale=st.fractions(min_value=0, max_value=5),
    )
    def test_positive_homogeneity_in_the_weights(self, ex1, lam1, lam2, scale):
        p, _ = ex1
        lam = (Q(lam1), Q(lam2))
        scaled = tuple(Q(scale) * l for l in lam)
        base = gap.gap_eval(p, (Q(-1),), [(Q(-2),), (Q(-1),)], lam)
        assert gap.gap_eval(p, (Q(-1),), [(Q(-2),), (Q(-1),)], scaled) == Q(scale) * base


# ---------------------------------------------------------------------------
# zero search


class TestZeroSearch:
    def test_weak_witness_on_linear_tail(self, ex1):
        p, cp = ex1
        w = gap.gap_zero_search(p, cp)
        assert isinstance(w, gap.GapWitness)
        assert w.mode == gap.WEAK_MODE
        assert w.value == ZERO
        # weak reads the maximised-margin LP that the strong search asks
        assert w.lam == (Q(1, 2), Q(1, 2))
        assert w == dataclasses.replace(gap.gap_zero_search(p, cp, gap.STRONG_MODE), mode=w.mode)
        assert gap.witness_issues(p, cp, w) == []

    def test_strong_witness_on_linear_tail_is_balanced(self, ex1):
        # the maximal margin is 1/2, which pins lam = (1/2, 1/2) uniquely
        p, cp = ex1
        w = gap.gap_zero_search(p, cp, gap.STRONG_MODE)
        assert isinstance(w, gap.GapWitness)
        assert w.lam == (Q(1, 2), Q(1, 2))
        assert all(l > 0 for l in w.lam)
        assert gap.witness_issues(p, cp, w) == []

    def test_weak_and_strong_share_one_margin_lp(self, monkeypatch):
        # both modes read the point's one maximised-margin LP: the second
        # search runs no LP, and the weak witness is the strong one
        from mosipcert import lp

        p = instances.linear_tail_problem()
        cp = CandidatePoint.build(p, [0])
        solves = []
        real = lp.solve
        monkeypatch.setattr(lp, "solve", lambda prog: solves.append(prog) or real(prog))
        weak = gap.gap_zero_search(p, cp, gap.WEAK_MODE)
        assert len(solves) == 1
        strong = gap.gap_zero_search(p, cp, gap.STRONG_MODE)
        assert len(solves) == 1
        assert weak.lam == strong.lam and weak.xi == strong.xi

    def test_octagon_witnesses_match_documented_selection(self, ex2):
        p, cp = ex2
        for mode in (gap.WEAK_MODE, gap.STRONG_MODE):
            w = gap.gap_zero_search(p, cp, mode)
            assert isinstance(w, gap.GapWitness)
            assert w.xi == ((Q(-1), ZERO), (Q(-1), ZERO))
            assert gap.witness_issues(p, cp, w) == []

    def test_refusal_at_wrong_endpoint(self):
        p, cp = _unit_interval()
        for mode in (gap.WEAK_MODE, gap.STRONG_MODE):
            out = gap.gap_zero_search(p, cp, mode)
            assert isinstance(out, gap.GapRefusal)
            assert out.mode == mode
            assert out.reason

    def test_zero_tilt_matches_plain_search(self, ex1):
        p, cp = ex1
        plain = gap.gap_zero_search(p, cp)
        tilted = gap._zero_search(p, cp, gap.WEAK_MODE, tilt=(ZERO,))
        assert tilted.lam == plain.lam
        assert tilted.xi == plain.xi

    def test_search_requires_feasible_set_data(self):
        p = MosipProblem(
            dimension=1,
            objectives=[Affine([1], 0)],
            constraints=FiniteFamily([Affine([-1], 0)]),
            feasible_set=None,
            annotations={"name": "no-set"},
        )
        cp = CandidatePoint.build(p, [0])
        with pytest.raises(UnsupportedOperationError):
            gap.gap_zero_search(p, cp)
        with pytest.raises(UnsupportedOperationError):
            gap.gap_eval(p, cp.x, [(ONE,)], (ONE,))


class TestWitnessChecks:
    def test_round_trip_preserves_validity(self, ex1):
        p, cp = ex1
        w = gap.gap_zero_search(p, cp, gap.STRONG_MODE)
        text = json.dumps(gap.witness_to_json(w), sort_keys=True, indent=2)
        back = gap.witness_from_json(json.loads(text))
        assert back == w
        assert gap.witness_issues(p, cp, back) == []

    def test_malformed_documents_are_rejected(self, ex1):
        p, cp = ex1
        doc = gap.witness_to_json(gap.gap_zero_search(p, cp))
        with pytest.raises(ParseError):
            gap.witness_from_json({**doc, "mode": "weakest"})
        broken = json.loads(json.dumps(doc))
        del broken["lambda"]
        with pytest.raises(ParseError):
            gap.witness_from_json(broken)

    def test_issues_flag_tampered_weights(self, ex1):
        p, cp = ex1
        w = gap.gap_zero_search(p, cp)
        doc = json.loads(json.dumps(gap.witness_to_json(w)))
        doc["lambda"] = [[1, 1], [1, 1]]
        tampered = gap.witness_from_json(doc)
        assert gap.witness_issues(p, cp, tampered) != []

    def test_issues_flag_strongness_violation(self, ex1):
        # a valid weak witness with lam = (1, 0): -(1 * -2) lies in
        # N = cone{1}, the normal cone of S = {x <= 0} at 0
        p, cp = ex1
        w = gap.GapWitness(
            mode=gap.WEAK_MODE,
            lam=(ONE, ZERO),
            xi=((Q(-2),), (Q(-1),)),
            xi_coeffs=((ONE,), (ONE,)),
            xi_vertices=tuple(tuple(cp.objective_subdiff(i)) for i in range(2)),
            value=ZERO,
        )
        assert gap.witness_issues(p, cp, w) == []
        doc = json.loads(json.dumps(gap.witness_to_json(w)))
        doc["mode"] = gap.STRONG_MODE
        relabeled = gap.witness_from_json(doc)
        assert any("positive" in m for m in gap.witness_issues(p, cp, relabeled))

    @pytest.mark.parametrize("field", ["xi_vertices", "xi_coeffs", "xi", "lam"])
    def test_issues_flag_short_fields(self, ex1, field):
        # a witness cut short is listed as a defect, never indexed past its end
        p, cp = ex1
        w = gap.gap_zero_search(p, cp)
        short = dataclasses.replace(w, **{field: getattr(w, field)[:1]})
        name = "lambda" if field == "lam" else field
        assert gap.witness_issues(p, cp, short) == [f"1 {name} entries for 2 objectives"]

    def test_a_valid_witness_costs_no_lp(self, monkeypatch):
        # min (x, -x) over [0, 1] at 0: the selections are matched exactly
        # against the recomputed vertex tables, and the weight over N that
        # the elimination forces proves the zero by active-row multipliers,
        # so no LP runs; lam = (0, 1) passes the simplex checks, forces a
        # negative weight, and only the sup LP over S finds its gap
        from mosipcert import lp

        p = MosipProblem(
            dimension=1,
            objectives=[Affine([1], 0), Affine([-1], 0)],
            constraints=FiniteFamily([Affine([1], -1), Affine([-1], 0)]),
            feasible_set=HPoly(1, [([1], 1), ([-1], 0)]),
        )
        cp = CandidatePoint.build(p, [0])
        w = gap.gap_zero_search(p, cp)
        assert w.lam == (Q(1, 2), Q(1, 2))
        solves = []
        solve = lp.solve
        monkeypatch.setattr(lp, "solve", lambda prog: solves.append(prog) or solve(prog))
        assert gap.witness_issues(p, cp, w) == [] and len(solves) == 0
        corrupted = {
            "xi": dataclasses.replace(w, xi=((Q(2),), w.xi[1])),
            "xi_coeffs": dataclasses.replace(w, xi_coeffs=((Q(2),), w.xi_coeffs[1])),
            "lam": dataclasses.replace(w, lam=(ZERO, ONE)),
        }
        assert {name: gap.witness_issues(p, cp, bad) for name, bad in corrupted.items()} == {
            "xi": ["objective 0: xi does not match its coefficients"],
            "xi_coeffs": [
                "objective 0: coefficients do not sum to 1",
                "objective 0: xi does not match its coefficients",
            ],
            "lam": ["recorded value 0 but recomputed 1", "gap value is 1, not zero"],
        }
        assert len(solves) == 1  # the sup LP of lam = (0, 1)


# ---------------------------------------------------------------------------
# the zero proved by active-row multipliers


def _row_proof_cases():
    """Every fixture and 40 fixed-seed random instances, each with the
    origin as its candidate (the fixtures' documented one)."""
    problems = [build() for build in instances.FIXTURE_BUILDERS.values()]
    problems += [random_polyhedral_problem(random.Random(f"row-proof:{k}"))[0] for k in range(40)]
    return [(p, [Q(0)] * p.dimension) for p in problems]


def _parallel_rows(S, g) -> set:
    """The rows of S whose normal is a positive multiple of g."""
    j = next(j for j, gj in enumerate(g) if gj)
    return {
        m for m, (a, _) in enumerate(S.rows)
        if a[j] * g[j] > 0 and all(ak * g[j] == a[j] * gk for ak, gk in zip(a, g))
    }


class TestRowMultipliers:
    @pytest.fixture(scope="class")
    def recorded(self):
        # the weak, strong and tilted searches and the witness checks, on the
        # fixtures and random instances: every call of the row proof, with
        # its problem
        out, calls = [], []
        real = gap._row_multipliers

        def recording(S, x, c, gens, weights):
            eta = real(S, x, c, gens, weights)
            calls.append((S, x, c, tuple(gens), tuple(weights), eta))
            return eta

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(gap, "_row_multipliers", recording)
            for p, x in _row_proof_cases():
                cp = CandidatePoint.build(p, x)
                start = len(calls)
                for mode in (gap.WEAK_MODE, gap.STRONG_MODE):
                    w = gap.gap_zero_search(p, cp, mode)
                    if isinstance(w, gap.GapWitness):
                        assert gap.witness_issues(p, cp, w) == []
                gap.perturbed_gap_check(p, cp, Q(1, 2), sample_count=4)
                out += [(p, call) for call in calls[start:]]
        return out

    def test_every_accepted_proof_has_sup_exactly_zero(self, recorded):
        accepted = [(p, call) for p, call in recorded if call[-1] is not None]
        for p, (S, x, c, gens, weights, eta) in accepted:
            assert gap._sup_lp(p, x, c) == 0
            assert all(e >= 0 for e in eta)
            assert all(e == 0 or qdot(a, x) == b for e, (a, b) in zip(eta, S.rows))
        # both outcomes are reached, and the proof settles most calls
        assert len(accepted) > 3 * (len(recorded) - len(accepted)) > 0

    def test_a_scaled_weight_or_a_removed_row_is_refused(self, recorded):
        mutated = 0
        for _, (S, x, c, gens, weights, eta) in recorded:
            if eta is None:
                continue
            for k, (g, w) in enumerate(zip(gens, weights)):
                if w <= 0:
                    continue
                scaled = [*weights[:k], 2 * w, *weights[k + 1 :]]
                assert gap._row_multipliers(S, x, c, gens, scaled) is None
                drop = _parallel_rows(S, g)
                stripped = HPoly(S.dim, [row for m, row in enumerate(S.rows) if m not in drop])
                assert gap._row_multipliers(stripped, x, c, gens, weights) is None
                mutated += 1
        assert mutated > 20

    def test_a_forged_objective_is_refused(self):
        # -c = (1, 2) over the rows x1 <= 0 and x2 <= 0, both active at 0
        S = HPoly(2, [([1, 0], 0), ([0, 2], 0), ([1, 1], 1)])
        gens, weights, x = [(ONE, ZERO), (ZERO, ONE)], [ONE, Q(2)], (ZERO, ZERO)
        assert gap._row_multipliers(S, x, (-ONE, Q(-2)), gens, weights) == (ONE, ONE, ZERO)
        assert gap._row_multipliers(S, x, (-ONE, Q(-3)), gens, weights) is None
        assert gap._row_multipliers(S, x, (-ONE, Q(-2)), gens, [ONE, -ONE]) is None
        # the third row is inactive at 0, so it never takes a multiplier
        assert gap._row_multipliers(S, x, (-ONE, -ONE), [(ONE, ONE)], [ONE]) is None

    @pytest.mark.parametrize(
        "rows, objective, sup_lps",
        [
            # N is the line x2 = 0; its +-e1 generators are the rows themselves
            ([([1, 0], 0), ([-1, 0], 0)], [1, 0], 0),
            # S = {0} and N is the plane: -e2 matches no row, so the sup LP
            # confirms the zero
            ([([1, 1], 0), ([1, -1], 0), ([-1, 0], 0)], [0, 1], 1),
        ],
    )
    def test_lineality_falls_back_to_one_sup_lp(self, monkeypatch, rows, objective, sup_lps):
        p = MosipProblem(
            dimension=2,
            objectives=[Affine(objective, 0)],
            constraints=FiniteFamily([Affine(a, b) for a, b in rows]),
            feasible_set=HPoly(2, rows),
        )
        cp = CandidatePoint.build(p, [0, 0])
        assert len(cp.N.generators) == 2 * len(rows) - 2
        calls = []
        sup = gap._sup_lp
        monkeypatch.setattr(gap, "_sup_lp", lambda *args: calls.append(1) or sup(*args))
        w = gap.gap_zero_search(p, cp)
        assert isinstance(w, gap.GapWitness) and w.value == 0
        assert len(calls) == sup_lps


# ---------------------------------------------------------------------------
# perturbed sweep


class TestPerturbedSweep:
    def test_linear_tail_inside_certified_radius(self, ex1):
        p, cp = ex1
        report = gap.perturbed_gap_check(p, cp, Q(2))
        assert report.all_sampled_succeed
        assert report.exact_equivalence is True
        assert report.exact_certified is True
        assert report.hypotheses_met is True
        assert report.note == ""
        # dimension one: only the two axis tilts are sampled
        assert sorted(o.w[0] for o in report.per_w) == [Q(-2), Q(2)]

    def test_linear_tail_beyond_certified_radius(self, ex1):
        p, cp = ex1
        report = gap.perturbed_gap_check(p, cp, Q(2) + Q(1, 100))
        assert report.exact_equivalence is False
        axis = [o for o in report.per_w if o.w[0] == -(Q(2) + Q(1, 100))]
        assert len(axis) == 1 and not axis[0].success
        assert not report.all_sampled_succeed

    def test_linear_tail_smaller_radius_still_succeeds(self, ex1):
        p, cp = ex1
        report = gap.perturbed_gap_check(p, cp, ONE)
        assert report.all_sampled_succeed
        assert report.exact_equivalence is True

    def test_octagon_flagged_outside_hypotheses(self, ex2):
        p, cp = ex2
        report = gap.perturbed_gap_check(p, cp, Q(1, 2))
        assert report.hypotheses_met is False
        assert "outside theorem hypotheses" in report.note
        assert len(report.per_w) > 4  # axis tilts plus sphere samples

    def test_requires_positive_radius(self, ex1):
        p, cp = ex1
        with pytest.raises(ModelError):
            gap.perturbed_gap_check(p, cp, ZERO)

    def test_every_sampled_tilt_has_norm_at_most_nu(self, ex2):
        p, cp = ex2
        nu = Q(3, 4)
        report = gap.perturbed_gap_check(p, cp, nu, sample_count=12)
        for outcome in report.per_w:
            assert sum(c * c for c in outcome.w) <= nu * nu

    @pytest.mark.parametrize("count", [0, 1, 12, 200, gap.MAX_SAMPLE_COUNT])
    def test_tilts_match_the_list_scan(self, ex2, monkeypatch, count):
        # repeated tilts are dropped by a set now: the tilts, and their
        # order, are those of the former scan over the list
        p, cp = ex2
        nu = Q(2)
        reference = [(nu, ZERO), (-nu, ZERO), (ZERO, nu), (ZERO, -nu)]
        for direction in gap._sphere_directions(2, count):
            w = gap._rational_ball_point(direction, nu)
            if w is not None and w not in reference:
                reference.append(w)
        refused = gap.GapRefusal(gap.WEAK_MODE, "not searched")
        monkeypatch.setattr(gap, "_zero_search", lambda *args, **kwargs: refused)
        report = gap.perturbed_gap_check(p, cp, nu, sample_count=count)
        assert [t.w for t in report.per_w] == reference
        assert count == 0 or len(reference) < 4 + count  # repeats were dropped

    def test_report_serialization(self, ex1):
        p, cp = ex1
        report = gap.perturbed_gap_check(p, cp, Q(2))
        doc = gap.report_to_json(report)
        text = json.dumps(doc, sort_keys=True)
        assert json.loads(text) == doc
        assert doc["mode"] == "perturbed"
        assert doc["exact_certified"] is True

    def test_refusal_serialization(self):
        p, cp = _unit_interval()
        out = gap.gap_zero_search(p, cp)
        doc = gap.report_to_json(out)
        assert doc["witness"] is None
        assert doc["reason"]


# ---------------------------------------------------------------------------
# randomized structural soundness


@settings(max_examples=50, deadline=None)
@given(st.integers(min_value=0, max_value=10**6))
def test_nonnegativity_and_witness_validity_on_random_instances(seed):
    rng = random.Random(seed)
    p, x = random_polyhedral_problem(rng)
    cp = CandidatePoint.build(p, x)
    # gap_eval is nonnegative at feasible points (y = x is always admissible)
    lam = tuple(Q(1, len(p.objectives)) for _ in p.objectives)
    sel = [subdiff(f, x)[0] for f in p.objectives]
    value = gap.gap_eval(p, x, sel, lam)
    assert value is POS_INF or value >= 0

    out = gap.gap_zero_search(p, cp)
    if isinstance(out, gap.GapWitness):
        assert gap.witness_issues(p, cp, out) == []
    else:
        assert out.reason


def test_refusals_carry_the_weak_lps_farkas_vector():
    # weak and strong ask one margin LP; when it is infeasible, both print
    # its Farkas vector over the plain rows, which certifies the weak LP's
    # rows, rebuilt here from vertex tables recomputed by the calculus
    rng = random.Random("gap-farkas")
    cases = [random_polyhedral_problem(rng) for _ in range(80)]
    cases += [random_polyhedral_problem(rng, 5, 2, 3) for _ in range(20)]
    refused = 0
    for p, x in cases:
        cp = CandidatePoint.build(p, x)
        weak = gap.gap_zero_search(p, cp, gap.WEAK_MODE)
        strong = gap.gap_zero_search(p, cp, gap.STRONG_MODE)
        if isinstance(weak, gap.GapWitness):
            # strong may refuse only for a margin of 0, with no Farkas vector
            assert isinstance(strong, gap.GapWitness) or strong.farkas is None
            continue
        assert isinstance(strong, gap.GapRefusal)
        assert strong.farkas == weak.farkas
        tables = [subdiff(f, cp.x) for f in p.objectives]
        _, rows = decompose_rows((ZERO,) * p.dimension, tables, [cp.N.generators])
        assert verify_farkas(rows, weak.farkas)
        refused += 1
    assert refused > 20
