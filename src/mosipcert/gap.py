"""The gap function sup_{y in S} sum_i lambda_i xi_i'(x - y) and its zero set.

A zero of the gap at a feasible candidate certifies weak efficiency for
lambda >= 0 and efficiency for lambda > 0.  The search does not scan lambda:
it solves one exact LP placing -sum_i lambda_i xi_i inside the normal cone
N(S, x), which is equivalent to a zero value.  For the polyhedron S that cone
is generated by the rows a_m'x = b_m active at x, so the LP is
`cones.decompose`, the engine the KKT searches use: one hull block per
objective vertex table (the block weights are lambda) and the active rows as
they are written as one cone block, maximising the smallest lambda_i, tau.
Any weights give a weak zero, and weights with tau > 0 a strong one, so both
modes read one LP, kept at the point (`CandidatePoint.margin_zero`); when it
is infeasible, both print its Farkas vector over the plain rows.  The
perturbed check runs the same search on tilted objective subdifferentials
(each shifted by -w), asking `decompose` with margin directly, for w ranging
over axis points and deterministic near-sphere samples of a nu-ball.

The cone weights are the witness's eta, one per row of S: eta >= 0, positive
only on active rows, with sum_m eta_m a_m = -c for c = sum_i lambda_i xi_i.
Then c'(x - y) = sum_m eta_m (a_m'y - b_m) <= 0 on S, with equality at x, so
the gap is exactly zero.  `witness_issues` re-checks this by substitution
alone, with no LP; the sup LP over S (`_sup_lp`) serves `gap_eval` only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from . import lp
from .cones import HPoly, NotMember, decompose, hull_terms, membership
from .errors import (
    InternalInconsistencyError,
    ModelError,
    ParseError,
    UnsupportedOperationError,
)
from .funcs import subdiff_set
from .kkt import selection_issues
from .problem import CandidatePoint, MosipProblem
from .rationals import (
    NEG_INF,
    ONE,
    POS_INF,
    Q,
    ZERO,
    as_q,
    float_to_q,
    jsonify,
    lincomb,
    q_from_pair,
    qdot,
    sqrt_lower_bound,
    vec_q,
)

WEAK_MODE = "weak"
STRONG_MODE = "strong"

#: most near-sphere tilts one perturbed sweep runs: each is one zero search,
#: and 1,000 take about a second on octagon-support
MAX_SAMPLE_COUNT = 1_000


class SubgradientPreconditionError(ModelError):
    """A proposed xi_i lies outside the i-th objective subdifferential."""

    def __init__(self, index: int, separator):
        self.index = index
        self.separator = tuple(separator)
        super().__init__(
            f"xi[{index}] is not a subgradient of objective {index} at the "
            f"evaluation point; separating functional {tuple(separator)}"
        )


# ---------------------------------------------------------------------------
# Evaluation


def _needs_rows(p: MosipProblem) -> HPoly:
    """The halfspace rows of S, or UnsupportedOperationError without them."""
    if p.feasible_set is None:
        raise UnsupportedOperationError(
            "the gap function needs a halfspace representation of the "
            "feasible set"
        )
    return p.feasible_set


def _sup_lp(p: MosipProblem, x, c):
    """sup_{y in S} c'(x - y), exactly, over the halfspace rows of S."""
    S = _needs_rows(p)
    res = lp.solve(lp.LinearProgram(p.dimension, [-ck for ck in c], S.lp_rows()))
    if isinstance(res, lp.Unbounded):
        return POS_INF
    if isinstance(res, lp.Infeasible):
        return NEG_INF  # sup over an empty set
    return qdot(c, x) + res.value


def gap_eval(p: MosipProblem, x, xi, lam):
    """Gap value at x for verified subgradient selections and lambda >= 0.

    lambda is not forced onto the simplex here: the value is positively
    homogeneous in lambda and the scaling property is worth keeping testable.
    """
    x = vec_q(x)
    lam = tuple(as_q(l) for l in lam)
    if len(lam) != p.num_objectives or len(xi) != p.num_objectives:
        raise ModelError(
            f"expected {p.num_objectives} lambda entries and selections"
        )
    if any(l < 0 for l in lam):
        raise ModelError("lambda must be componentwise nonnegative")
    selections = [vec_q(s) for s in xi]
    for i, sel in enumerate(selections):
        out = membership(sel, *subdiff_set(p.objectives[i], x))
        if isinstance(out, NotMember):
            raise SubgradientPreconditionError(i, out.separator)
    return _sup_lp(p, x, lincomb(lam, selections, p.dimension))


def _eta_issues(S: HPoly, x, c, eta) -> list:
    """Defects of eta as a proof that sup_{y in S} c'(x - y) = 0, found by
    substitution alone: eta >= 0, positive only on rows of S active at x, and
    sum_m eta_m a_m = -c exactly."""
    issues = []
    if any(e < 0 for e in eta):
        issues.append("negative eta component")
    inactive = [m for m, (e, (a, b)) in enumerate(zip(eta, S.rows)) if e > 0 and qdot(a, x) != b]
    if inactive:
        issues.append(f"eta is positive on rows {inactive}, inactive at x")
    if lincomb(eta, [a for a, _ in S.rows], len(c)) != tuple(-ck for ck in c):
        issues.append("eta does not write -sum_i lambda_i xi_i over the rows of S")
    return issues


# ---------------------------------------------------------------------------
# Zero search


@dataclass(frozen=True)
class GapWitness:
    mode: str  # weak (lambda >= 0) or strong (lambda > 0)
    lam: tuple
    xi: tuple  # per-objective subgradient selections
    xi_coeffs: tuple  # per-objective convex coefficients over the vertex tables
    xi_vertices: tuple  # per-objective subdifferential vertex tables
    eta: tuple  # per row of S, in row order: the multipliers proving the zero
    value: object  # gap value, ZERO on every emitted witness


@dataclass(frozen=True)
class GapRefusal:
    mode: str
    reason: str
    farkas: Optional[tuple] = None


def _zero_search(p: MosipProblem, cp: CandidatePoint, mode: str, tilt=None):
    """Joint LP over per-objective coefficients mu_ij and weights eta_m on the
    rows of S active at cp.x: sum_ij mu_ij (v_ij - tilt) + sum_m eta_m a_m = 0
    with sum mu = 1, maximising the least lambda_i = sum_j mu_ij; the strong
    mode needs it positive.

    The reduction: the gap vanishes at cp.x iff -sum_i lambda_i xi_i lies in
    N(S, cp.x), the cone of the active rows, and the weights eta prove the
    zero (`_eta_issues`, no LP)."""
    if mode not in (WEAK_MODE, STRONG_MODE):
        raise ModelError(f"unknown gap search mode {mode!r}")
    S = _needs_rows(p)
    n = p.dimension
    tables = [cp.objective_subdiff(i) for i in range(p.num_objectives)]
    normals = [S.rows[m][0] for m in cp.active_rows]
    zero = (ZERO,) * n
    if tilt is None:
        res = cp.margin_zero(tables, [normals])
    else:
        shifted = [[tuple(a - b for a, b in zip(v, tilt)) for v in verts] for verts in tables]
        res = decompose(zero, shifted, [normals], margin=True)
    if not isinstance(res, list):
        return GapRefusal(
            mode,
            "no multiplier vector places the weighted subgradient sum "
            "inside the polar of the feasible directions",
            farkas=res.farkas,
        )
    if mode == STRONG_MODE and res[-1] <= 0:
        return GapRefusal(
            mode,
            "every zero of the gap drives some lambda component to zero",
        )
    lam, coeff_rows, selections = zip(*hull_terms(res, tables))
    eta = [ZERO] * len(S.rows)
    for m, weight in zip(cp.active_rows, res[sum(map(len, tables)) :]):
        eta[m] = weight
    tilt_vec = zero if tilt is None else tuple(tilt)
    tilted = [tuple(s - t for s, t in zip(sel, tilt_vec)) for sel in selections]
    if _eta_issues(S, cp.x, lincomb(lam, tilted, n), eta):
        raise InternalInconsistencyError(
            "the weights on the active rows do not prove the gap zero"
        )
    return GapWitness(
        mode=mode,
        lam=lam,
        xi=selections,
        xi_coeffs=coeff_rows,
        xi_vertices=tuple(tuple(t) for t in tables),
        eta=tuple(eta),
        value=ZERO,
    )


def gap_zero_search(p: MosipProblem, cp: CandidatePoint, mode: str = WEAK_MODE):
    """GapWitness whose eta proves the zero, or a GapRefusal."""
    return _zero_search(p, cp, mode, tilt=None)


def witness_issues(p: MosipProblem, cp: CandidatePoint, w: GapWitness) -> list:
    """Exactness defects of a (possibly deserialized) witness, found by
    substitution alone, with no LP: the selections against vertex tables
    recomputed from the problem's objectives (not read from the point's
    store), then eta against the rows of S (`_eta_issues`)."""
    S = _needs_rows(p)
    m = p.num_objectives
    issues = [
        f"{len(entries)} {name} entries for {m} objectives"
        for name, entries in (
            ("lambda", w.lam), ("xi", w.xi), ("xi_coeffs", w.xi_coeffs),
            ("xi_vertices", w.xi_vertices),
        )
        if len(entries) != m
    ]
    if len(w.eta) != len(S.rows):
        issues.append(f"{len(w.eta)} eta entries for {len(S.rows)} rows of S")
    if issues:
        return issues
    if any(l < 0 for l in w.lam):
        issues.append("negative lambda component")
    if sum(w.lam, ZERO) != 1:
        issues.append("lambda is not on the simplex")
    if w.mode == STRONG_MODE and any(l <= 0 for l in w.lam):
        issues.append("strong witness needs every lambda component positive")
    for i in range(p.num_objectives):
        issues += selection_issues(
            p, cp.x, i, w.xi_vertices[i], w.xi_coeffs[i], w.xi[i]
        )
    if not issues:
        if w.value != 0:
            issues.append(f"recorded value {w.value}, not zero")
        issues += _eta_issues(S, cp.x, lincomb(w.lam, w.xi, p.dimension), w.eta)
    return issues


# ---------------------------------------------------------------------------
# Perturbed (tilted) check


@dataclass(frozen=True)
class TiltOutcome:
    w: tuple
    success: bool
    witness: Optional[GapWitness]
    reason: str = ""


@dataclass(frozen=True)
class PerturbedGapReport:
    nu: Q
    per_w: tuple  # TiltOutcome per probed tilt (axis points first)
    exact_equivalence: bool  # interior test: nu-ball inside F* + G*
    exact_certified: bool  # the interior radius was computed exactly
    hypotheses_met: bool  # continuity + differentiability flags
    note: str = ""

    @property
    def all_sampled_succeed(self) -> bool:
        return all(t.success for t in self.per_w)


_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29)


def _van_der_corput(k: int, base: int) -> float:
    value, denom = 0.0, 1.0
    while k:
        denom *= base
        k, rem = divmod(k, base)
        value += rem / denom
    return value


def _sphere_directions(n: int, count: int) -> list:
    """Deterministic low-discrepancy unit directions (floats)."""
    out = []
    k = 1
    while len(out) < count:
        u = [2.0 * _van_der_corput(k, _PRIMES[j % len(_PRIMES)]) - 1.0 for j in range(n)]
        k += 1
        norm = math.sqrt(sum(c * c for c in u))
        if norm < 1e-6:
            continue
        out.append(tuple(c / norm for c in u))
    return out


def _rational_ball_point(direction, nu: Q) -> Optional[tuple]:
    """A rational point of norm <= nu along (approximately) `direction`."""
    v = [float_to_q(c) for c in direction]
    length_sq = sum((c * c for c in v), ZERO)
    if length_sq == 0:
        return None
    rho = nu * sqrt_lower_bound(1 / length_sq)
    return tuple(rho * c for c in v)


def check_sample_count(sample_count: int) -> None:
    """Refuse a sample count outside 0..MAX_SAMPLE_COUNT with a ModelError."""
    if sample_count < 0:
        raise ModelError("the sample count must be nonnegative")
    if sample_count > MAX_SAMPLE_COUNT:
        raise ModelError(f"sample count {sample_count} exceeds {MAX_SAMPLE_COUNT}")


def perturbed_gap_check(
    p: MosipProblem, cp: CandidatePoint, nu, sample_count: int = 8
) -> PerturbedGapReport:
    """Two tracks.  Exact: is the closed nu-ball inside F*(x) + G*(x) (the
    interior condition the tilted family is equivalent to for continuous
    problems with continuously differentiable constraints).  Sampled: run the
    tilted zero search at the 2n axis points of radius nu and `sample_count`
    deterministic near-sphere rational tilts."""
    nu = as_q(nu)
    if nu <= 0:
        raise ModelError("the tilt radius must be positive")
    check_sample_count(sample_count)
    n = p.dimension
    zi = cp.zero_interior()
    exact_equiv = bool(zi.inside and zi.radius_lower_bound >= nu)
    tilts = []
    for j in range(n):
        for sign in (ONE, -ONE):
            w = [ZERO] * n
            w[j] = sign * nu
            tilts.append(tuple(w))
    if n > 1:
        seen = set(tilts)
        for direction in _sphere_directions(n, sample_count):
            w = _rational_ball_point(direction, nu)
            if w is not None and w not in seen:
                seen.add(w)
                tilts.append(w)
    outcomes = []
    for w in tilts:
        result = _zero_search(p, cp, WEAK_MODE, tilt=w)
        if isinstance(result, GapWitness):
            outcomes.append(TiltOutcome(w=w, success=True, witness=result))
        else:
            outcomes.append(
                TiltOutcome(w=w, success=False, witness=None, reason=result.reason)
            )
    hypotheses = bool(p.flag("continuous") and p.flag("differentiable"))
    note = "" if hypotheses else "outside theorem hypotheses"
    if not zi.exact and not exact_equiv:
        note = (note + "; " if note else "") + (
            "interior radius is a lower bound only; the exact track may "
            "under-report"
        )
    return PerturbedGapReport(
        nu=nu,
        per_w=tuple(outcomes),
        exact_equivalence=exact_equiv,
        exact_certified=zi.exact,
        hypotheses_met=hypotheses,
        note=note,
    )


# ---------------------------------------------------------------------------
# Serialization


def witness_to_json(w: GapWitness) -> dict:
    return jsonify(
        {
            "mode": w.mode,
            "lambda": list(w.lam),
            "xi": [list(s) for s in w.xi],
            "xi_coeffs": [list(c) for c in w.xi_coeffs],
            "xi_vertices": [[list(v) for v in t] for t in w.xi_vertices],
            "eta": list(w.eta),
            "value": w.value,
        }
    )


def witness_from_json(doc: dict) -> GapWitness:
    try:
        mode = doc["mode"]
        if mode not in (WEAK_MODE, STRONG_MODE):
            raise ParseError(f"unknown gap witness mode {mode!r}")
        eta = doc["eta"]
        if not isinstance(eta, list):
            raise ParseError(f"eta must be a list of [num, den] pairs, got {eta!r}")
        return GapWitness(
            mode=mode,
            lam=tuple(q_from_pair(l) for l in doc["lambda"]),
            xi=tuple(tuple(q_from_pair(c) for c in s) for s in doc["xi"]),
            xi_coeffs=tuple(tuple(q_from_pair(c) for c in s) for s in doc["xi_coeffs"]),
            xi_vertices=tuple(
                tuple(tuple(q_from_pair(c) for c in v) for v in t) for t in doc["xi_vertices"]
            ),
            eta=tuple(q_from_pair(e) for e in eta),
            value=q_from_pair(doc["value"]),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"malformed gap witness document: {exc}") from exc


def report_to_json(obj) -> dict:
    """The shared report shape: {mode, witness?, per_w?, exact_equivalence_verdict?}."""
    if isinstance(obj, GapWitness):
        return {"mode": obj.mode, "witness": witness_to_json(obj)}
    if isinstance(obj, GapRefusal):
        return jsonify(
            {
                "mode": obj.mode,
                "witness": None,
                "reason": obj.reason,
                "farkas": None if obj.farkas is None else list(obj.farkas),
            }
        )
    if isinstance(obj, PerturbedGapReport):
        return jsonify(
            {
                "mode": "perturbed",
                "nu": obj.nu,
                "per_w": [{"w": list(t.w), "success": t.success} for t in obj.per_w],
                "exact_equivalence_verdict": obj.exact_equivalence,
                "exact_certified": obj.exact_certified,
                "hypotheses_met": obj.hypotheses_met,
                "note": obj.note,
            }
        )
    raise ModelError(f"no report form for {type(obj).__name__}")
