"""Thirteen data-qualification checkers plus the implication-diagram
validator.

Every checker returns a three-valued status — Holds, Fails, Undecidable —
together with a provenance tag and a machine-verifiable witness (or
counter-witness) whenever the underlying decision is a linear program.  The
third value is not a cop-out: with an infinite index family sliced at a
truncation, or constraint subdifferentials that are polygonal stand-ins for
curved sets, some verdicts are honestly unreachable from the data, and the
checkers say so instead of guessing.

A few checkers are decision procedures over the *given* data rather than the
underlying infinite family; the provenance tag records how far the data can
be trusted:

* ``exact`` — finite family, or an annotation pins the truncated computation
  to the full one at this point, or a closed-form envelope override is used;
* ``truncated`` — an infinite tail was cut off;
* ``approximated-subdifferentials`` — the data itself stands in for curved
  originals.

Refutations that survive any extension of the family (a zero decomposition
over a *subset* of the true subgradient union, say) carry a note saying so.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from . import lp
from .cones import HCone, cone_member, contains, span_rank, strict_direction
from .errors import (
    InternalInconsistencyError,
    ModelError,
    UnsupportedOperationError,
)
from .funcs import (
    NegSqrtParabola1D,
    affine_pieces,
    dir_derivative,
    evaluate,
)
from .problem import (
    EXACT,
    TRUNCATED,
    CandidatePoint,
    MosipProblem,
    g_data_provenance,
    psi_data_provenance,
    worst_provenance,
)
from .rationals import (
    NEG_INF,
    NegSqrt,
    ONE,
    Q,
    ZERO,
    as_q,
    jsonify,
    qdot,
    sqrt_lower_bound,
)

QUAL_IDS = (
    "SCQ",
    "SSCQ",
    "MFCQ",
    "PMFCQ",
    "LFMCQ",
    "COCQ",
    "KTCQ",
    "PLVCQ",
    "CCCQ",
    "ACQ",
    "WADQ",
    "EADQ",
    "MOQ",
)

HOLDS = "Holds"
FAILS = "Fails"
UNDECIDABLE = "Undecidable"

DEFAULT_EPS_GRID = tuple(Q(1, 2**k) for k in range(11))

# members tried, in index order, when refuting the Slater condition by one
# member that is nonnegative everywhere
REFUTATION_MEMBER_CAP = 8

@dataclass(frozen=True)
class QualReport:
    qual: str
    status: str
    provenance: str
    witness: Optional[dict] = None
    notes: str = ""


# ---------------------------------------------------------------------------
# shared machinery


def _zero_decomposition(points, gens, weights) -> dict:
    """0 as a convex combination of the points plus a conic one of the
    generators: the support of the point's `zero_decomposition` weights, at
    most n + 1 entries in input order.  It persists under any extension of
    the point set."""
    alpha, mu = weights[: len(points)], weights[len(points) :]
    return {
        "kind": "zero_decomposition",
        "points": tuple(v for v, w in zip(points, alpha) if w > 0),
        "alpha": tuple(w for w in alpha if w > 0),
        "generators": tuple(g for g, w in zip(gens, mu) if w > 0),
        "mu": tuple(w for w in mu if w > 0),
    }


def _rational_slack(value) -> Q:
    """A positive rational epsilon with value <= -epsilon, for a negative
    extended-real value."""
    if isinstance(value, NegSqrt):
        return sqrt_lower_bound(value.radicand)
    if value is NEG_INF:
        return ONE
    return -as_q(value)


# ---------------------------------------------------------------------------
# Slater-type conditions


def _slater_lp(members, n: int):
    """Global LP minimizing the pointwise max of piecewise-linear members
    (with their domain rows).  Returns ("optimal", tau*, x), ("none", ...)
    when some member is not piecewise linear, or a strictly negative witness
    found by walking an unbounded ray."""
    rows = []
    for f in members:
        pieces = affine_pieces(f)
        if pieces is None:
            return ("none", None, None)
        for a, b in pieces:
            rows.append((list(a) + [-ONE], lp.LE, -as_q(b)))
        for a, c in f.domain.rows if f.domain is not None else ():
            rows.append((list(a) + [ZERO], lp.LE, c))
    obj = [ZERO] * n + [-ONE]
    res = lp.solve(lp.LinearProgram(n + 1, obj, rows))
    if isinstance(res, lp.Infeasible):
        return ("infeasible", None, None)
    if isinstance(res, lp.Unbounded):
        point, ray = list(res.feasible_point), list(res.ray)
        scale = ONE
        for _ in range(80):
            x = [point[i] + scale * ray[i] for i in range(n)]
            tau = point[n] + scale * ray[n]
            if tau < 0:
                return ("optimal", tau, tuple(x))
            scale *= 2
        raise InternalInconsistencyError("unbounded ray never went negative")
    return ("optimal", -res.value, tuple(res.primal[:n]))


def _verify_negative(p: MosipProblem, x) -> Optional[Q]:
    """Evaluate every truncated member at x exactly; a positive rational
    slack when all are strictly negative, else None."""
    worst = max(evaluate(p.constraint(k), x) for k in p.indices())
    if p.psi_override is not None:
        worst = max(worst, evaluate(p.psi_override, x))
    if not (worst < 0):
        return None
    return _rational_slack(worst)


def _member_nonnegative_everywhere(p: MosipProblem) -> Optional[int]:
    """Index of a constraint whose global minimum is >= 0 (so no point makes
    it strictly negative), or None.  Such a member refutes the Slater
    condition for any extension of the family."""
    n = p.dimension
    for k in p.indices():
        if k >= REFUTATION_MEMBER_CAP:
            break
        if affine_pieces(p.constraint(k)) is None:
            continue  # built-in curved members all dip below zero
        state, tau, _ = _slater_lp([p.constraint(k)], n)
        if state == "optimal" and tau >= 0:
            return k
    return None


def _slater_pair(p: MosipProblem, cp: CandidatePoint) -> tuple:
    """SCQ and SSCQ together: both reduce to making the envelope strictly
    negative somewhere, and every certificate is re-verified by exact
    evaluation over the truncated family."""
    n = p.dimension
    finite = not p.truncated

    def reports(status, prov, witness, notes, scq_status=None, scq_witness=None, scq_notes=None):
        return (
            QualReport("SCQ", scq_status or status, prov, scq_witness or witness, scq_notes or notes),
            QualReport("SSCQ", status, prov, witness, notes),
        )

    # 1. hunt for a strictly-negative point of the envelope
    if isinstance(p.psi_override, NegSqrtParabola1D):
        apex = (as_q(p.psi_override.t),)
        slack = _verify_negative(p, apex)
        if slack is None:
            raise InternalInconsistencyError("the parabola apex is not strictly negative")
        witness = {"kind": "slater_point", "point": apex, "slack": slack}
        return reports(HOLDS, EXACT, witness, "envelope minimum at the apex; verified by evaluation")

    search = [p.psi_override] if p.psi_override is not None else [
        p.constraint(k) for k in p.indices()
    ]
    state, tau, x0 = _slater_lp(search, n)
    if state == "optimal" and tau < 0:
        slack = _verify_negative(p, x0)
        if slack is not None:
            prov = EXACT if (p.psi_override is not None or finite) else TRUNCATED
            witness = {"kind": "slater_point", "point": tuple(x0), "slack": slack}
            note = (
                "strictly negative envelope point; verified by evaluating every member"
                if prov == EXACT
                else "strictly negative over the truncated family only; the tail is unseen"
            )
            return reports(HOLDS, prov, witness, note)

    if state == "infeasible":
        witness = {"kind": "empty_domain_intersection"}
        return reports(FAILS, EXACT, witness, "the member domains have empty intersection")

    # 2. no Slater point; decide Fails where the data allows
    if state == "optimal" and tau is not None and tau >= 0:
        if p.psi_override is not None:
            # the envelope's global minimum is >= 0: SSCQ fails outright
            k = _member_nonnegative_everywhere(p)
            sscq_w = {"kind": "envelope_minimum", "value": tau}
            if k is not None:
                scq_w = {"kind": "nonnegative_member", "index": k}
                return reports(
                    FAILS,
                    EXACT,
                    sscq_w,
                    "the envelope never goes strictly negative",
                    scq_status=FAILS,
                    scq_witness=scq_w,
                    scq_notes=f"constraint {k} is nonnegative everywhere; refutation survives any family extension",
                )
            return reports(
                FAILS,
                EXACT,
                sscq_w,
                "the envelope never goes strictly negative",
                scq_status=UNDECIDABLE,
                scq_witness=None,
                scq_notes="envelope infimum is 0 but members could each dip strictly negative",
            )
        if finite:
            witness = {"kind": "envelope_minimum", "value": tau}
            return reports(FAILS, EXACT, witness, "finite family: the pointwise max has nonnegative global minimum")
        k = _member_nonnegative_everywhere(p)
        if k is not None:
            witness = {"kind": "nonnegative_member", "index": k}
            return reports(FAILS, EXACT, witness, f"constraint {k} is nonnegative everywhere; refutation survives any family extension")
        return reports(UNDECIDABLE, TRUNCATED, None, "no Slater point among the truncated members; the tail is unseen")

    return reports(
        UNDECIDABLE,
        psi_data_provenance(p),
        None,
        "family mixes non-polyhedral members without an envelope override",
    )


def _check_scq(p, cp):
    return _slater_pair(p, cp)[0]


def _check_sscq(p, cp):
    return _slater_pair(p, cp)[1]


# ---------------------------------------------------------------------------
# active-gradient conditions


def _check_mfcq(p, cp):
    prov = g_data_provenance(p, cp.x)
    if cp.G_is_empty:
        return QualReport(
            "MFCQ",
            FAILS,
            prov,
            {"kind": "empty_active_union"},
            "the active subgradient union is empty; the definition's fallback clause applies",
        )
    base, rec = cp.subgradient_union(ZERO)
    res = cp.zero_decomposition(base, rec)
    if not isinstance(res, list):
        value, d = strict_direction(base, res, p.dimension)
        witness = {"kind": "direction", "direction": d, "max_inner": value}
        note = "strictly negative direction against every active subgradient"
        if prov != EXACT:
            note += "; union taken over the truncated data"
        return QualReport("MFCQ", HOLDS, prov, witness, note)
    witness = _zero_decomposition(base, rec, res)
    return QualReport(
        "MFCQ",
        FAILS,
        prov,
        witness,
        "0 is a convex combination of active subgradients; the refutation survives any family extension",
    )


def _check_pmfcq(p, cp, eps_grid):
    prov = g_data_provenance(p, cp.x)
    finite = not p.truncated
    grid = (ZERO,) if finite else tuple(eps_grid)
    asked = []
    for eps in grid:
        base, rec = cp.subgradient_union(eps)
        if not base and not rec:
            witness = {"kind": "empty_subgradient_union", "eps": eps}
            return QualReport(
                "PMFCQ",
                HOLDS,
                prov,
                witness,
                "the eps-active subgradient union is empty, so its supremum is -infinity",
            )
        res = cp.union_zero(eps)
        if not isinstance(res, list):
            value, d = strict_direction(base, res, p.dimension)
            witness = {"kind": "grid_certificate", "eps": eps, "direction": d, "value": value}
            note = "supremum over the eps-active subgradient union is strictly negative"
            if prov != EXACT:
                note += " (truncated union)"
            return QualReport("PMFCQ", HOLDS, prov, witness, note)
        asked.append(eps)
    # 0 decomposed at every eps asked, so each min-max value is exactly 0
    if finite:
        witness = {"kind": "stabilized_value", "value": ZERO}
        return QualReport(
            "PMFCQ",
            FAILS,
            prov,
            witness,
            "finite family: the active set is stable for small eps and the min-max value is nonnegative",
        )
    return QualReport(
        "PMFCQ",
        UNDECIDABLE,
        prov,
        {"kind": "grid_values", "values": [[eps, ZERO] for eps in asked]},
        "every grid epsilon gave a nonnegative value; the infimum over eps cannot be exhausted",
    )


def _check_lfmcq(p, cp):
    if cp.N is None:
        return QualReport("LFMCQ", UNDECIDABLE, g_data_provenance(p, cp.x), None, "needs an H-representation of S for the normal cone")
    prov = g_data_provenance(p, cp.x)
    # G* lies in N: CandidatePoint.build checks it whenever N exists
    back = contains(cp.N, cp.G_star)
    if not back.holds:
        witness = {"kind": "escaping_generator", "direction": back.witness, "escapes": "active-gradient cone"}
        return QualReport("LFMCQ", FAILS, prov, witness, "a normal direction is not conically generated by active subgradients")
    witness = {"kind": "mutual_containment", "normal_generators": cp.N.generators, "active_generators": cp.G_star.generators}
    return QualReport("LFMCQ", HOLDS, prov, witness, "normal cone and active-gradient cone coincide")


# ---------------------------------------------------------------------------
# envelope-derivative conditions


def _envelope_halfspace_set(p, cp) -> Optional[HCone]:
    """{d : psi'(x; d) <= 0} as an H-cone when the envelope subdifferential is
    available and nonempty: the negative polar of its points plus its rays,
    its normals kept at the point (often G*'s own rays)."""
    ss = cp.psi_subdiff()
    if ss is None or not ss[0]:
        return None
    points, rays = ss
    return cp.cone(HCone, points + rays)


def _check_cocq(p, cp):
    prov = psi_data_provenance(p)
    ss = cp.psi_subdiff()
    if ss is None:
        return QualReport("COCQ", UNDECIDABLE, prov, None, "envelope subdifferential unavailable under truncation")
    points, rays = ss
    if points:
        if p.psi_override is None and cp.T:
            # the argmax set is T, so the max rule's set is MFCQ's union:
            # ask MFCQ's question over its own input
            points, rays = cp.subgradient_union(ZERO)
        res = cp.zero_decomposition(points, rays)
        if not isinstance(res, list):
            value, d = strict_direction(points, res, p.dimension)
            witness = {"kind": "direction", "direction": d, "derivative_bound": value}
            return QualReport("COCQ", HOLDS, prov, witness, "direction with strictly negative envelope derivative")
        witness = _zero_decomposition(points, rays, res)
        return QualReport("COCQ", FAILS, prov, witness, "0 lies in the envelope subdifferential, so no descent direction exists")
    # empty subdifferential: only the one-variable NegSqrtParabola1D override
    # has one (at its domain boundary), so probe its closed-form directional
    # derivative along both axis directions
    for d in ((ONE,), (-ONE,)):
        if dir_derivative(p.psi_override, cp.x, d) < 0:
            witness = {"kind": "direction", "direction": d, "note": "closed-form derivative"}
            return QualReport("COCQ", HOLDS, prov, witness, "closed-form envelope derivative is strictly negative along the witness")
    return QualReport("COCQ", UNDECIDABLE, prov, None, "no probe direction certified descent; the derivative has no finite representation")


def _check_ktcq(p, cp):
    prov = psi_data_provenance(p)
    if cp.C is None:
        return QualReport("KTCQ", UNDECIDABLE, prov, None, "needs an H-representation of S for the contingent cone")
    hs = _envelope_halfspace_set(p, cp)
    if hs is not None:
        res = contains(hs, cp.C)
        if res.holds:
            witness = {"kind": "containment", "lhs_normals": hs.normals, "rhs_normals": cp.C.normals}
            return QualReport("KTCQ", HOLDS, prov, witness, "every envelope-descent direction is a feasible direction")
        witness = {"kind": "escaping_direction", "direction": res.witness}
        return QualReport("KTCQ", FAILS, prov, witness, "an envelope-descent direction leaves the contingent cone")
    if cp.psi_subdiff() is None:
        return QualReport("KTCQ", UNDECIDABLE, prov, None, "envelope subdifferential unavailable; no closed-form fallback applies")
    # empty subdifferential: only the one-variable NegSqrtParabola1D override
    # has one, and its descent set is a cone in one variable; classify it by
    # probing both axis directions (the excluded ones become halfspace normals)
    normals = []
    for d in ((ONE,), (-ONE,)):
        if dir_derivative(p.psi_override, cp.x, d) > 0:
            normals.append(d)
    hs = HCone(1, normals)
    res = contains(hs, cp.C)
    if res.holds:
        witness = {"kind": "containment", "lhs_normals": hs.normals, "rhs_normals": cp.C.normals}
        return QualReport("KTCQ", HOLDS, prov, witness, "descent set classified by the closed-form derivative; contained in the contingent cone")
    witness = {"kind": "escaping_direction", "direction": res.witness}
    return QualReport("KTCQ", FAILS, prov, witness, "a closed-form descent direction leaves the contingent cone")


def _check_plvcq(p, cp):
    prov = worst_provenance(psi_data_provenance(p), g_data_provenance(p, cp.x))
    ss = cp.psi_subdiff()
    if ss is None:
        return QualReport("PLVCQ", UNDECIDABLE, prov, None, "envelope subdifferential unavailable under truncation")
    points, rays = ss
    if not points:
        return QualReport(
            "PLVCQ",
            HOLDS,
            prov,
            {"kind": "empty_subdifferential"},
            "the envelope subdifferential is empty, so the containment is vacuous",
        )
    memberships = []
    for v in points:
        coeffs = cone_member(v, cp.G_star)
        if coeffs is None:
            witness = {"kind": "non_member_vertex", "vertex": v, "cone_generators": cp.G_star.generators}
            return QualReport("PLVCQ", FAILS, prov, witness, "an envelope subgradient is not conically generated by active subgradients")
        memberships.append({"vertex": v, "coefficients": tuple(coeffs)})
    for g in rays:
        coeffs = cone_member(g, cp.G_star)
        if coeffs is None:
            witness = {"kind": "non_member_direction", "direction": g, "cone_generators": cp.G_star.generators}
            return QualReport("PLVCQ", FAILS, prov, witness, "an envelope recession direction is not conically generated by active subgradients")
        memberships.append({"vertex": g, "coefficients": tuple(coeffs)})
    witness = {"kind": "memberships", "entries": memberships}
    return QualReport("PLVCQ", HOLDS, prov, witness, "every envelope subgradient decomposes over the active-gradient cone")


# ---------------------------------------------------------------------------
# closedness, polar and directional conditions


def _check_cccq(p, cp):
    prov = g_data_provenance(p, cp.x)
    if prov == EXACT:
        witness = {"kind": "finitely_generated", "generators": cp.G_star.generators}
        return QualReport("CCCQ", HOLDS, prov, witness, "a finitely generated cone is closed")
    return QualReport(
        "CCCQ",
        UNDECIDABLE,
        prov,
        None,
        "closedness of the true conical hull is beyond finitely generated data",
    )


def _check_acq(p, cp):
    if cp.G_is_empty:
        return QualReport("ACQ", FAILS, g_data_provenance(p, cp.x), {"kind": "empty_active_union"}, "the active subgradient union is empty; the definition's fallback clause applies")
    if cp.C is None:
        return QualReport("ACQ", UNDECIDABLE, g_data_provenance(p, cp.x), None, "needs an H-representation of S for the contingent cone")
    g0, prov, source = cp.g_polar()
    res = contains(g0, cp.C)
    if res.holds:
        witness = {"kind": "containment", "lhs_normals": g0.normals, "rhs_normals": cp.C.normals}
        return QualReport("ACQ", HOLDS, prov, witness, f"{source} lies inside the contingent cone")
    witness = {"kind": "escaping_direction", "direction": res.witness}
    return QualReport("ACQ", FAILS, prov, witness, f"a direction of the {source} leaves the contingent cone")


def _check_wadq(p, cp):
    if cp.G_is_empty:
        return QualReport("WADQ", FAILS, g_data_provenance(p, cp.x), {"kind": "empty_active_union"}, "the active subgradient union is empty; the definition's fallback clause applies")
    if cp.C is None:
        return QualReport("WADQ", UNDECIDABLE, g_data_provenance(p, cp.x), None, "needs an H-representation of S for the contingent cone")
    # the strict set {d in G0 : v'd < 0 on F} lies in C when K = F0 n G0 does
    # (K, cut out by the rows F and G0's normals, is its closure when it is
    # not empty, and C is closed), or when it is empty: by Motzkin, when 0 is
    # in conv(F) + cone(G0's normals)
    g0, prov, source = cp.g_polar()
    rows = cp.F + g0.normals
    escape = cp.normal_escape(rows, cp.C.normals)
    if escape is None:
        witness = {"kind": "containment", "lhs_normals": rows, "rhs_normals": cp.C.normals}
        return QualReport("WADQ", HOLDS, prov, witness, f"every direction of the polar intersection is a feasible direction ({source})")
    res = cp.zero_decomposition(cp.F_star.vertices, g0.normals)
    if isinstance(res, list):
        witness = _zero_decomposition(cp.F_star.vertices, g0.normals, res)
        return QualReport("WADQ", HOLDS, prov, witness, f"no direction of the G-polar strictly decreases every objective; the containment is vacuous ({source})")
    _, strict = strict_direction(cp.F_star.vertices, res, p.dimension)
    # strict + lam * d stays strict and in G0, and t'(strict + lam * d) >= t'd > 0
    t, d = escape
    lam = ONE + max(ZERO, -qdot(t, strict)) / qdot(t, d)
    witness = {"kind": "escaping_direction", "direction": tuple(a + lam * b for a, b in zip(strict, d))}
    return QualReport("WADQ", FAILS, prov, witness, "a strictly objective-decreasing direction of the G-polar leaves the contingent cone")


def _check_eadq(p, cp):
    if cp.G_is_empty:
        return QualReport("EADQ", FAILS, g_data_provenance(p, cp.x), {"kind": "empty_active_union"}, "the active subgradient union is empty; the definition's fallback clause applies")
    if cp.C is None or (
        p.num_objectives > 1
        and any(f.domain is not None or affine_pieces(f) is None for f in p.objectives)
    ):
        return QualReport("EADQ", UNDECIDABLE, g_data_provenance(p, cp.x), None, "needs sublevel-set H-representations for every objective")
    # the contingent cone of Q^i(x) is C cut by xi'd <= 0 over the other
    # objectives' active pieces xi, all in conv(F), where F0 n G0 is <= 0
    # already: so F0 n G0 lies in every one of them exactly when it lies in C
    g0, prov, source = cp.g_polar()
    rows = cp.F + g0.normals
    escape = cp.normal_escape(rows, cp.C.normals)
    if escape is None:
        witness = {"kind": "containment", "lhs_normals": rows, "rhs_normals": cp.C.normals}
        return QualReport("EADQ", HOLDS, prov, witness, f"every direction of the polar intersection is tangent to every sublevel set ({source})")
    witness = {"kind": "escaping_direction", "direction": escape[1]}
    return QualReport("EADQ", FAILS, prov, witness, "a direction of the polar intersection leaves every sublevel contingent cone")


def _check_moq(p, cp):
    rank = span_rank(cp.F)
    n = p.dimension
    witness = {"kind": "span_rank", "rank": rank, "needed": n, "points": cp.F}
    if rank == n:
        return QualReport("MOQ", HOLDS, EXACT, witness, "objective subgradients span the whole space")
    return QualReport("MOQ", FAILS, EXACT, witness, "objective subgradients span a proper subspace")


_CHECKERS = {
    "SCQ": _check_scq,
    "SSCQ": _check_sscq,
    "MFCQ": _check_mfcq,
    "PMFCQ": _check_pmfcq,
    "LFMCQ": _check_lfmcq,
    "COCQ": _check_cocq,
    "KTCQ": _check_ktcq,
    "PLVCQ": _check_plvcq,
    "CCCQ": _check_cccq,
    "ACQ": _check_acq,
    "WADQ": _check_wadq,
    "EADQ": _check_eadq,
    "MOQ": _check_moq,
}


def check(qual: str, p: MosipProblem, cp: CandidatePoint, eps_grid=DEFAULT_EPS_GRID) -> QualReport:
    """Run one checker; missing prerequisites surface as Undecidable, never a
    crash.  Only PMFCQ reads `eps_grid`."""
    if qual not in _CHECKERS:
        raise ModelError(f"unknown qualification {qual!r}")
    try:
        if qual == "PMFCQ":
            return _check_pmfcq(p, cp, eps_grid)
        return _CHECKERS[qual](p, cp)
    except UnsupportedOperationError as exc:
        return QualReport(qual, UNDECIDABLE, g_data_provenance(p, cp.x), None, f"prerequisite unavailable: {exc}")


def check_all(p: MosipProblem, cp: CandidatePoint, eps_grid=DEFAULT_EPS_GRID) -> list:
    """All thirteen reports, in canonical order.  SCQ and SSCQ share one
    analysis, so the pair is computed once."""
    scq, sscq = _slater_pair(p, cp)
    out = [scq, sscq]
    for qual in QUAL_IDS[2:]:
        out.append(check(qual, p, cp, eps_grid))
    return out


# ---------------------------------------------------------------------------
# implication diagram


@dataclass(frozen=True)
class Arrow:
    antecedents: tuple
    consequents: tuple
    side: tuple  # of {"continuous", "nonempty_active", "single_objective"}

    def label(self) -> str:
        pre = " and ".join(self.antecedents)
        post = " and ".join(self.consequents)
        side = f" [{', '.join(self.side)}]" if self.side else ""
        return f"{pre} => {post}{side}"


ARROWS = (
    Arrow(("SSCQ",), ("SCQ",), ()),
    Arrow(("SCQ",), ("SSCQ",), ("continuous",)),
    Arrow(("SCQ",), ("MFCQ",), ("nonempty_active",)),
    Arrow(("SCQ",), ("MFCQ", "PLVCQ"), ("continuous", "nonempty_active")),
    Arrow(("PMFCQ",), ("MFCQ",), ("nonempty_active",)),
    Arrow(("MFCQ",), ("LFMCQ",), ("continuous",)),
    Arrow(("MFCQ", "PLVCQ"), ("COCQ",), ("continuous",)),
    Arrow(("COCQ",), ("KTCQ",), ("continuous",)),
    Arrow(("KTCQ", "PLVCQ"), ("ACQ",), ("nonempty_active",)),
    Arrow(("MFCQ", "PLVCQ"), ("ACQ",), ("continuous",)),
    Arrow(("LFMCQ",), ("ACQ",), ("nonempty_active",)),
    Arrow(("LFMCQ",), ("CCCQ",), ()),
    Arrow(("ACQ", "CCCQ"), ("LFMCQ",), ()),
    Arrow(("ACQ",), ("EADQ",), ("single_objective",)),
    Arrow(("ACQ",), ("WADQ",), ()),
    Arrow(("EADQ",), ("WADQ",), ()),
)


@dataclass(frozen=True)
class DiagramViolation:
    arrow: Arrow
    detail: str


def _side_met(p: MosipProblem, cp: CandidatePoint, side) -> bool:
    for s in side:
        if s == "continuous" and not p.flag("continuous"):
            return False
        if s == "nonempty_active" and cp.G_is_empty:
            return False
        if s == "single_objective" and p.num_objectives != 1:
            return False
    return True


def diagram_validate(p: MosipProblem, cp: CandidatePoint, reports) -> list:
    """Check every implication arrow whose side conditions the instance
    meets; arrows touching an Undecidable report are skipped (no verdict to
    propagate).  A non-empty result indicates a checker bug, not a property
    of the instance."""
    by = {r.qual: r for r in reports}
    violations = []
    for arrow in ARROWS:
        if not _side_met(p, cp, arrow.side):
            continue
        involved = arrow.antecedents + arrow.consequents
        if any(by[q].status == UNDECIDABLE for q in involved):
            continue
        if all(by[q].status == HOLDS for q in arrow.antecedents):
            bad = [q for q in arrow.consequents if by[q].status != HOLDS]
            if bad:
                violations.append(
                    DiagramViolation(arrow, f"{' and '.join(arrow.antecedents)} hold but {', '.join(bad)} do not")
                )
    return violations


# ---------------------------------------------------------------------------
# serialization


def report_to_json(r: QualReport) -> dict:
    return {
        "qual": r.qual,
        "status": r.status,
        "provenance": r.provenance,
        "witness": jsonify(r.witness),
        "notes": r.notes,
    }


def reports_to_json(reports) -> list:
    return [report_to_json(r) for r in reports]


def truth_table_text(reports) -> str:
    """Fixed-width summary table, one row per qualification."""
    header = f"{'QUAL':<7}{'STATUS':<13}{'PROVENANCE':<32}NOTES"
    lines = [header, "-" * len(header)]
    for r in reports:
        lines.append(f"{r.qual:<7}{r.status:<13}{r.provenance:<32}{r.notes}")
    return "\n".join(lines) + "\n"
