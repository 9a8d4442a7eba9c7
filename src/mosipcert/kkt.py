"""Weak, strong, and perturbed KKT certificates and the claims they license.

The three certificate searches share one exact decomposition engine,
`cones.decompose`: a target vector w is written as
sum_i alpha_i xi_i + sum_t beta_t zeta_t with xi_i in the i-th objective
subdifferential and zeta_t in the subdifferential of the t-th active
constraint.  Weak and strong take w = 0, perturbed decomposes the scaled
axis points of a certified ball inside F*(x) + G*(x).  Weak and strong share
one decision of 0 in F* + G*, the point's `decompose` of 0 over the
canonical F* vertices and G* generators (`CandidatePoint.zero_decomposition`,
which WADQ shares): with no weights, its Farkas direction is the separator.
Only when 0 is inside do both read one grouped decomposition of 0 that
maximises the least alpha_i, tau (`CandidatePoint.margin_zero`): its
weights are a weak certificate, and a strong one when tau > 0.  Weak drops
tau, so its certificate is strong's whenever one exists, and `weak_kkt`
alone still asks one grouped LP.

Perturbed reads its 2n axis certificates off two decompositions in
dimension <= 3, where `zero_interior` keeps the facets {x : a'x <= b} of
F* + G*.  Along u = +-e_j the set ends at t*u on the facets with the least
b/(a'u) > 0, and a decomposition of t*u may use only the columns tight on
them (Davis 1954, the face argument): one `decompose` over those columns,
mostly forced with no LP, mixed with the zero weights by nu_lb/t.  Where no
facet bounds u, it is a recession direction, and nu_lb times conic weights
writing u are added to the zero weights.  Above dimension 3 no facets are
computed, and each axis point is one grouped `decompose`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Optional, Sequence

from .cones import decompose, hull_terms, strict_direction
from .errors import InternalInconsistencyError, ParseError
from .funcs import subdiff, subdiff_set
from .problem import (
    EXACT,
    CandidatePoint,
    MosipProblem,
    g_data_provenance,
)
from .quals import DEFAULT_EPS_GRID, HOLDS, QualReport
from .rationals import ONE, ZERO, Q, as_q, json_int, jsonify, lincomb, q_from_pair, qdot

WEAK = "Weak"
STRONG = "Strong"
PERTURBED = "Perturbed"

WEAK_EFFICIENT = "WeakEfficient"
EFFICIENT = "Efficient"
ISOLATED_EFFICIENT = "IsolatedEfficient"

SUFFICIENT = "sufficient"
NECESSARY_GIVEN = "necessary-given"


# ---------------------------------------------------------------------------
# Certificate records


@dataclass(frozen=True)
class ObjectiveTerm:
    """alpha_i together with the selection xi_i = sum_j coeffs_j * vertices_j."""

    index: int
    alpha: Q
    xi: tuple
    coeffs: tuple
    vertices: tuple


@dataclass(frozen=True)
class ConstraintTerm:
    """beta_t and zeta_t = sum_j coeffs_j * vertices_j + sum_k ray_coeffs_k * rays_k.

    zeta is None only for a pure recession contribution (beta_t = 0 with
    nonzero ray weights); then `ray_coeffs` hold the raw conic weights and the
    term contributes sum_k ray_coeffs_k * rays_k directly.
    """

    index: int
    beta: Q
    zeta: Optional[tuple]
    coeffs: tuple
    vertices: tuple
    ray_coeffs: tuple = ()
    rays: tuple = ()

    def contribution(self) -> tuple:
        if self.zeta is not None:  # ray parts are already folded into zeta
            return tuple(self.beta * z for z in self.zeta)
        return lincomb(self.ray_coeffs, self.rays, len(self.rays[0]))


@dataclass(frozen=True)
class KktCertificate:
    kind: str
    target: tuple
    objective_terms: tuple
    constraint_terms: tuple

    @property
    def alpha(self) -> tuple:
        return tuple(t.alpha for t in self.objective_terms)

    @property
    def beta(self) -> tuple:
        return tuple((t.index, t.beta) for t in self.constraint_terms)

    def residual(self) -> tuple:
        n = len(self.target)
        out = [-v for v in self.target]
        for term in self.objective_terms:
            for k in range(n):
                out[k] += term.alpha * term.xi[k]
        for term in self.constraint_terms:
            c = term.contribution()
            for k in range(n):
                out[k] += c[k]
        return tuple(out)


@dataclass(frozen=True)
class KktSeparator:
    """h with h'0 > sup over F* + G* of h (weak KKT refuted)."""

    direction: tuple
    gap: Q


# ---------------------------------------------------------------------------
# Shared decomposition engine


def _tables(p: MosipProblem, cp: CandidatePoint) -> tuple:
    """The grouped tables (objective tables, active tables, cone blocks): one
    hull block per objective vertex table, and (t, vertices, rays) per active
    constraint with a nonempty subdifferential, whose cone block is its
    vertices, then its rays."""
    obj_tables = [cp.objective_subdiff(i) for i in range(p.num_objectives)]
    active_tables = []
    for t in cp.T:
        points, rays = cp.constraint_subdiff(t)
        if points:
            active_tables.append((t, points, rays))
    return obj_tables, active_tables, [verts + rays for _, verts, rays in active_tables]


def _decompose(p: MosipProblem, cp: CandidatePoint, target):
    """`decompose` over the grouped tables.  Returns (objective terms,
    constraint terms), or the `lp.Infeasible` refuting target in F* + G*."""
    obj_tables, active_tables, cones = _tables(p, cp)
    res = decompose(target, obj_tables, cones)
    if not isinstance(res, list):
        return res
    return _group_terms(res, obj_tables, active_tables, p.dimension)


def _group_terms(values, obj_tables, active_tables, n):
    oterms = tuple(
        ObjectiveTerm(i, alpha, xi, coeffs, tuple(verts))
        for i, ((alpha, coeffs, xi), verts) in enumerate(
            zip(hull_terms(values, obj_tables), obj_tables)
        )
    )
    pos = sum(len(verts) for verts in obj_tables)
    cterms = []
    for t, verts, rays in active_tables:
        nus = values[pos : pos + len(verts)]
        pos += len(verts)
        sigmas = values[pos : pos + len(rays)]
        pos += len(rays)
        beta = sum(nus, ZERO)
        if beta == 0 and all(s == 0 for s in sigmas):
            continue
        if beta > 0:
            coeffs = tuple(m / beta for m in nus)
            ray_coeffs = tuple(s / beta for s in sigmas)
            zeta = _conic_point(coeffs, verts, ray_coeffs, rays, n)
            cterms.append(
                ConstraintTerm(t, beta, zeta, coeffs, tuple(verts), ray_coeffs, tuple(rays))
            )
        else:
            cterms.append(
                ConstraintTerm(t, ZERO, None, (), tuple(verts), tuple(sigmas), tuple(rays))
            )
    return oterms, tuple(cterms)


def _axis_weights(facets, u, nu, zero, hulls, cones) -> list:
    """Weights over the grouped columns, hull blocks then cone blocks,
    writing nu*u, read off the facets {x : a'x <= b} of F* + G* and the
    weights `zero` writing 0.  Where some facet has a'u > 0, the set ends at
    t*u, t the least b/(a'u), and a decomposition of t*u may use only the
    columns tight on the facets attaining it (a'v = b on a hull column,
    a'c = 0 on a cone column): one `decompose` over those, mixed with `zero`
    by lambda = nu/t <= 1.  Else u is a recession direction, and nu times
    conic weights writing u are added to `zero`: 1/s on the first cone
    column s*u with s > 0, or one `decompose` of u over the cone columns
    tight on every facet with a'u = 0."""
    hull_cols = [v for block in hulls for v in block]
    cone_cols = [c for block in cones for c in block]
    steps = [(b / qdot(a, u), a, b) for a, b in facets if qdot(a, u) > 0]
    if steps:
        t = min(s for s, _, _ in steps)
        tight = [(a, b) for s, a, b in steps if s == t]
        hull_ix = [i for i, v in enumerate(hull_cols) if all(qdot(a, v) == b for a, b in tight)]
        cone_ix = [i for i, c in enumerate(cone_cols) if all(qdot(a, c) == 0 for a, _ in tight)]
        res = decompose(
            tuple(t * c for c in u),
            [[hull_cols[i] for i in hull_ix]],
            [[cone_cols[i] for i in cone_ix]],
        )
        scale, weights = nu / t, [(ONE - nu / t) * w for w in zero]
    else:
        hull_ix, scale, weights = [], nu, list(zero)
        along = [(i, qdot(c, u)) for i, c in enumerate(cone_cols)]
        along = [(i, s) for i, s in along if s > 0 and cone_cols[i] == tuple(s * x for x in u)]
        if along:
            cone_ix, res = [along[0][0]], [ONE / along[0][1]]
        else:
            flat = [a for a, _ in facets if qdot(a, u) == 0]
            cone_ix = [i for i, c in enumerate(cone_cols) if all(qdot(a, c) == 0 for a in flat)]
            res = decompose(u, (), [[cone_cols[i] for i in cone_ix]])
    if not isinstance(res, list):
        raise InternalInconsistencyError("the facets of F* + G* miss an axis point")
    for i, w in zip(hull_ix + [len(hull_cols) + i for i in cone_ix], res):
        weights[i] += scale * w
    return weights


def _conic_point(coeffs, vertices, ray_coeffs, rays, n) -> tuple:
    """sum_j coeffs_j * vertices_j + sum_k ray_coeffs_k * rays_k."""
    return tuple(
        a + b
        for a, b in zip(lincomb(coeffs, vertices, n), lincomb(ray_coeffs, rays, n))
    )


def _separator(cp: CandidatePoint) -> Optional[KktSeparator]:
    """The separator of 0 from F* + G*, or None when 0 is in it: the
    direction of the point's `zero_decomposition` over the canonical F*
    vertices and G* generators, which weak and strong KKT share."""
    verts = cp.F_star.vertices
    res = cp.zero_decomposition(verts, cp.G_star.generators)
    if isinstance(res, list):
        return None
    value, d = strict_direction(verts, res, cp.problem.dimension)
    return KktSeparator(direction=d, gap=-value)


def _margin_zero(cp: CandidatePoint, obj_tables, cones) -> list:
    """The point's `margin_zero` over the grouped tables, tau last, which
    weak, strong and perturbed KKT share, asked once 0 is known to lie in
    F* + G*: the grouped tables span the same set, so the weights exist."""
    res = cp.margin_zero(obj_tables, cones)
    if not isinstance(res, list):
        raise InternalInconsistencyError("the grouped tables miss a 0 that F* + G* holds")
    return res


def _zero_terms(p: MosipProblem, cp: CandidatePoint) -> tuple:
    """(objective terms, constraint terms, tau) of `_margin_zero`."""
    obj_tables, active_tables, cones = _tables(p, cp)
    res = _margin_zero(cp, obj_tables, cones)
    # read tau without mutating `res`, which the point keeps
    return (*_group_terms(res[:-1], obj_tables, active_tables, p.dimension), res[-1])


# ---------------------------------------------------------------------------
# Weak KKT


def weak_kkt(p: MosipProblem, cp: CandidatePoint):
    """KktCertificate with target 0, or the separating functional."""
    separator = _separator(cp)
    if separator is not None:
        return separator
    oterms, cterms, _ = _zero_terms(p, cp)
    return KktCertificate(WEAK, (ZERO,) * p.dimension, oterms, cterms)


# ---------------------------------------------------------------------------
# Strong KKT


@dataclass(frozen=True)
class StrongKktResult:
    certificate: Optional[KktCertificate]
    tau: Optional[Q]  # maximized lower margin on the alpha_i (None if weak fails)
    separator: Optional[KktSeparator]
    ri_zero: Optional[bool]  # the separate geometric test 0 in ri(F* + G*)
    refusal: str = ""


def strong_kkt(p: MosipProblem, cp: CandidatePoint) -> StrongKktResult:
    """Maximize the smallest objective weight subject to exact stationarity;
    a Strong certificate needs optimum > 0.  The relative-interior
    sufficient test 0 in ri(F* + G*) is reported alongside: 0 is in the set
    by the shared decision, so only the support cone is left to test: it is
    a subspace exactly when the point's `support_escape`, which
    `zero_interior` shares, finds no escaping direction."""
    separator = _separator(cp)
    if separator is not None:
        return StrongKktResult(
            certificate=None,
            tau=None,
            separator=separator,
            ri_zero=False,
            refusal="the weak KKT condition already fails",
        )
    oterms, cterms, tau = _zero_terms(p, cp)
    ri = cp.support_escape() is None
    if tau <= 0:
        return StrongKktResult(
            certificate=None,
            tau=tau,
            separator=None,
            ri_zero=ri,
            refusal="every exact multiplier vector drives some objective "
            "weight to zero",
        )
    return StrongKktResult(
        certificate=KktCertificate(STRONG, (ZERO,) * p.dimension, oterms, cterms),
        tau=tau,
        separator=None,
        ri_zero=ri,
    )


# ---------------------------------------------------------------------------
# Perturbed KKT


@dataclass(frozen=True)
class PerturbedKktReport:
    holds: bool
    nu_lb: Q
    exact: bool  # is nu_lb the exact interior radius
    # decompositions of the 2n points nu_lb * (+-e_j): read off the facets of
    # F* + G* in dimension <= 3 (`_axis_weights`), one grouped LP each above
    axis_certificates: tuple
    witness_direction: Optional[tuple] = None  # support direction <= 0 when it fails
    note: str = ""


def perturbed_kkt(p: MosipProblem, cp: CandidatePoint) -> PerturbedKktReport:
    """0 in int(F*(x) + G*(x)) with a certified ball radius nu_lb, and one
    exact multiplier decomposition of each scaled axis point +-nu_lb * e_j.
    In dimension <= 3 each is read off the facets that `zero_interior`
    keeps and the zero weights weak and strong KKT share (`_axis_weights`),
    with one `decompose` over the columns tight where the axis leaves the
    set, none when the weights are forced or the axis is a recession
    direction along a column; above that, each is one grouped `decompose`."""
    zi = cp.zero_interior()
    if not zi.inside:
        return PerturbedKktReport(
            holds=False,
            nu_lb=ZERO,
            exact=zi.exact,
            axis_certificates=(),
            witness_direction=zi.witness_direction,
            note=zi.note,
        )
    nu, n = zi.radius_lower_bound, p.dimension
    obj_tables, active_tables, cones = _tables(p, cp)
    if zi.facets is not None:
        zero = _margin_zero(cp, obj_tables, cones)[:-1]
    axes = []
    for j in range(n):
        for sign in (ONE, -ONE):
            u = tuple(sign if k == j else ZERO for k in range(n))
            target = tuple(nu * c for c in u)
            if zi.facets is not None:
                weights = _axis_weights(zi.facets, u, nu, zero, obj_tables, cones)
                out = _group_terms(weights, obj_tables, active_tables, n)
            else:
                out = _decompose(p, cp, target)
                if not isinstance(out, tuple):
                    raise InternalInconsistencyError(
                        "zero_interior certified the ball but the grouped decomposition "
                        "of an axis point has no solution"
                    )
            axes.append(KktCertificate(PERTURBED, target, *out))
    return PerturbedKktReport(
        holds=True,
        nu_lb=nu,
        exact=zi.exact,
        axis_certificates=tuple(axes),
        note=zi.note,
    )


def isolation_inclusion_report(
    p: MosipProblem, cp: CandidatePoint, nu, eps_grid=DEFAULT_EPS_GRID
) -> Optional[dict]:
    """Finite-grid report on nu*B being covered by F* plus the cone of
    eps-active constraint gradients.

    Report only: the eps -> 0 limit is not finitely computable.  Requires the
    differentiability flag and singleton constraint subdifferentials at the
    candidate; suppressed (None) otherwise.
    """
    if not p.flag("differentiable"):
        return None
    nu = as_q(nu)
    rows = []
    for eps in eps_grid:
        for t in cp.active(eps):
            points, rays = cp.constraint_subdiff(t)
            if len(points) != 1 or rays:
                return None
        zi = cp.zero_interior(eps)
        rows.append(
            {
                "eps": eps,
                "included": bool(zi.inside and zi.radius_lower_bound >= nu),
                "radius_lower_bound": zi.radius_lower_bound,
                "exact": zi.exact,
            }
        )
    return {
        "nu": nu,
        "rows": rows,
        "note": "finite eps grid; the intersection over all eps > 0 is reported, "
        "not decided",
    }


# ---------------------------------------------------------------------------
# Certificate verification (used by tests and the --verify CLI path)


def selection_issues(p: MosipProblem, x, i: int, vertices, coeffs, xi) -> list:
    """Defects of the selection xi = sum_j coeffs_j * vertices_j in the i-th
    objective subdifferential at x, against its vertex table recomputed from
    the problem's objective (shared by the KKT and gap verifiers)."""
    ref = subdiff(p.objectives[i], x)
    if tuple(vertices) != tuple(ref):
        return [f"objective {i}: vertex table drifted"]
    if len(coeffs) != len(ref) or any(c < 0 for c in coeffs):
        return [f"objective {i}: bad convex coefficients"]
    issues = []
    if sum(coeffs, ZERO) != 1:
        issues.append(f"objective {i}: coefficients do not sum to 1")
    if lincomb(coeffs, ref, p.dimension) != tuple(xi):
        issues.append(f"objective {i}: xi does not match its coefficients")
    return issues


def certificate_issues(p: MosipProblem, cp: CandidatePoint, cert: KktCertificate) -> list:
    """Every exactness defect of `cert` against freshly recomputed data.

    The vertex tables are recomputed from the problem's functions at cp.x,
    not read from the point's store, so a certificate built from a corrupted
    entry is caught here as a drifted table."""
    issues = []
    n = p.dimension
    if len(cert.target) != n:
        return [f"target has {len(cert.target)} coordinates, problem has {n}"]
    if cert.kind in (WEAK, STRONG) and any(c != 0 for c in cert.target):
        issues.append(f"{cert.kind} certificate must decompose the origin")
    if len(cert.objective_terms) != p.num_objectives:
        issues.append(
            f"{len(cert.objective_terms)} objective terms for "
            f"{p.num_objectives} objectives"
        )
        return issues
    total = sum((t.alpha for t in cert.objective_terms), ZERO)
    if total != 1:
        issues.append(f"objective weights sum to {total}, not 1")
    # the residual is summed only over terms of n coordinates each
    shaped = True
    for i, term in enumerate(cert.objective_terms):
        if term.index != i:
            issues.append(f"objective term {i} has index {term.index}, not {i}")
            shaped = False
            continue
        if term.alpha < 0:
            issues.append(f"objective {i}: negative weight {term.alpha}")
        if cert.kind == STRONG and term.alpha <= 0:
            issues.append(f"objective {i}: strong certificate needs alpha > 0")
        shaped &= len(term.xi) == n
        issues += selection_issues(p, cp.x, i, term.vertices, term.coeffs, term.xi)
    active = set(cp.T)
    for term in cert.constraint_terms:
        if term.index not in active:
            issues.append(f"constraint {term.index}: not active at the candidate")
            shaped = False
            continue
        table = (tuple(term.vertices), tuple(term.rays))
        if table != subdiff_set(p.constraint(term.index), cp.x):
            issues.append(f"constraint {term.index}: subdifferential table drifted")
            shaped = False
            continue
        if term.beta < 0:
            issues.append(f"constraint {term.index}: negative multiplier {term.beta}")
        if term.zeta is None:
            if term.beta != 0 or not term.ray_coeffs or len(term.ray_coeffs) != len(term.rays):
                issues.append(f"constraint {term.index}: malformed recession-only term")
                shaped = False
            elif any(w < 0 for w in term.ray_coeffs):
                issues.append(f"constraint {term.index}: negative coefficients")
            continue
        if (len(term.coeffs), len(term.ray_coeffs), len(term.zeta)) != (
            len(term.vertices), len(term.rays), n
        ):
            issues.append(f"constraint {term.index}: coefficient or zeta lengths are wrong")
            shaped = False
            continue
        if any(c < 0 for c in term.coeffs) or any(w < 0 for w in term.ray_coeffs):
            issues.append(f"constraint {term.index}: negative coefficients")
            continue
        if sum(term.coeffs, ZERO) != 1:
            issues.append(f"constraint {term.index}: coefficients do not sum to 1")
        rebuilt = _conic_point(term.coeffs, term.vertices, term.ray_coeffs, term.rays, n)
        if rebuilt != tuple(term.zeta):
            issues.append(f"constraint {term.index}: zeta does not match its coefficients")
    if shaped and any(r != 0 for r in cert.residual()):
        issues.append("stationarity residual is nonzero")
    return issues


def separator_issues(p: MosipProblem, cp: CandidatePoint, sep: KktSeparator) -> list:
    """Every defect of `sep` as a witness that 0 is outside F* + G*, by
    substitution into tables recomputed from the problem at cp.x, not read
    from the store: gap > 0, h'v <= -gap on every objective vertex, and
    h'w <= 0 on every active constraint's vertices and rays."""
    h, n = sep.direction, p.dimension
    if len(h) != n:
        return [f"separator has {len(h)} coordinates, problem has {n}"]
    issues = []
    if not sep.gap > 0:
        issues.append(f"separator gap {sep.gap} is not positive")
    for i, f in enumerate(p.objectives):
        if any(qdot(h, v) > -sep.gap for v in subdiff(f, cp.x)):
            issues.append(f"objective {i}: a vertex has h'v > -gap")
    for t in cp.T:
        points, rays = subdiff_set(p.constraint(t), cp.x)
        if any(qdot(h, w) > 0 for w in points + rays):
            issues.append(f"constraint {t}: a vertex or ray has h'w > 0")
    return issues


# ---------------------------------------------------------------------------
# Serialization ([num, den] rationals throughout)


def certificate_to_json(cert: KktCertificate) -> dict:
    return jsonify(
        {
            "kind": cert.kind,
            "target": list(cert.target),
            "objectives": [
                {
                    "index": t.index,
                    "alpha": t.alpha,
                    "xi": list(t.xi),
                    "coeffs": list(t.coeffs),
                    "vertices": [list(v) for v in t.vertices],
                }
                for t in cert.objective_terms
            ],
            "constraints": [
                {
                    "index": t.index,
                    "beta": t.beta,
                    "zeta": None if t.zeta is None else list(t.zeta),
                    "coeffs": list(t.coeffs),
                    "vertices": [list(v) for v in t.vertices],
                    "ray_coeffs": list(t.ray_coeffs),
                    "rays": [list(r) for r in t.rays],
                }
                for t in cert.constraint_terms
            ],
        }
    )


def certificate_from_json(doc: dict) -> KktCertificate:
    try:
        kind = doc["kind"]
        if kind not in (WEAK, STRONG, PERTURBED):
            raise ParseError(f"unknown certificate kind {kind!r}")
        oterms = tuple(
            ObjectiveTerm(
                index=json_int(t["index"], "index"),
                alpha=q_from_pair(t["alpha"]),
                xi=tuple(map(q_from_pair, t["xi"])),
                coeffs=tuple(map(q_from_pair, t["coeffs"])),
                vertices=tuple(tuple(map(q_from_pair, v)) for v in t["vertices"]),
            )
            for t in doc["objectives"]
        )
        cterms = tuple(
            ConstraintTerm(
                index=json_int(t["index"], "index"),
                beta=q_from_pair(t["beta"]),
                zeta=None if t["zeta"] is None else tuple(map(q_from_pair, t["zeta"])),
                coeffs=tuple(map(q_from_pair, t["coeffs"])),
                vertices=tuple(tuple(map(q_from_pair, v)) for v in t["vertices"]),
                ray_coeffs=tuple(map(q_from_pair, t["ray_coeffs"])),
                rays=tuple(tuple(map(q_from_pair, r)) for r in t["rays"]),
            )
            for t in doc["constraints"]
        )
        return KktCertificate(kind, tuple(map(q_from_pair, doc["target"])), oterms, cterms)
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"malformed certificate document: {exc}") from exc


def separator_to_json(sep: KktSeparator) -> dict:
    return jsonify({"kind": "separator", "direction": list(sep.direction), "gap": sep.gap})


def separator_from_json(doc: dict) -> KktSeparator:
    try:
        return KktSeparator(tuple(map(q_from_pair, doc["direction"])), q_from_pair(doc["gap"]))
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"malformed separator document: {exc}") from exc


def perturbed_to_json(report: PerturbedKktReport) -> dict:
    return jsonify(
        {
            "holds": report.holds,
            "nu_lb": report.nu_lb,
            "exact": report.exact,
            "axis_certificates": [
                certificate_to_json(c) for c in report.axis_certificates
            ],
            "witness_direction": None
            if report.witness_direction is None
            else list(report.witness_direction),
            "note": report.note,
        }
    )


def perturbed_from_json(doc: dict) -> PerturbedKktReport:
    try:
        return PerturbedKktReport(
            holds=bool(doc["holds"]),
            nu_lb=q_from_pair(doc["nu_lb"]),
            exact=bool(doc["exact"]),
            axis_certificates=tuple(
                certificate_from_json(c) for c in doc["axis_certificates"]
            ),
            witness_direction=None
            if doc["witness_direction"] is None
            else tuple(map(q_from_pair, doc["witness_direction"])),
            note=doc.get("note", ""),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"malformed perturbed report: {exc}") from exc


# ---------------------------------------------------------------------------
# Efficiency claims


@dataclass(frozen=True)
class EfficiencyClaim:
    level: str  # WeakEfficient | Efficient | IsolatedEfficient
    asserted: bool  # False: the claim is the negation of `level`
    direction: str  # sufficient | necessary-given
    theorem: str
    certificate: str  # key of the certificate bundle entry the claim rests on
    relies_on: tuple  # qualification ids backing a necessary-direction claim
    provenance: str
    note: str = ""


def _qual_holds_exact(quals: Mapping[str, QualReport], qual: str) -> bool:
    report = quals.get(qual)
    return report is not None and report.status == HOLDS and report.provenance == EXACT


def assemble_claims(
    p: MosipProblem,
    cp: CandidatePoint,
    certs: Mapping,
    quals: Mapping[str, QualReport],
    oracle_report=None,
) -> tuple:
    """Only theorem-licensed claims, in a fixed order.

    Sufficient directions fire on a certificate alone.  Necessary directions
    (the negations) additionally need their qualifications to hold with exact
    provenance and the constraint data itself to be exact: a truncated or
    approximated family can hide active constraints, so a failed search over
    it refutes nothing.
    """
    tag = g_data_provenance(p, cp.x)
    claims = []
    weak = certs.get("weak")
    if isinstance(weak, KktCertificate):
        claims.append(
            EfficiencyClaim(
                WEAK_EFFICIENT,
                True,
                SUFFICIENT,
                "weak KKT sufficient condition",
                "weak",
                (),
                tag,
            )
        )
    gap_weak = certs.get("gap_weak")
    if getattr(gap_weak, "lam", None) is not None:
        claims.append(
            EfficiencyClaim(
                WEAK_EFFICIENT,
                True,
                SUFFICIENT,
                "characterization of weak efficiency via the gap function "
                "(sufficiency part)",
                "gap_weak",
                (),
                tag,
            )
        )
    strong = certs.get("strong")
    strong_cert = strong.certificate if isinstance(strong, StrongKktResult) else None
    if strong_cert is not None:
        claims.append(
            EfficiencyClaim(
                EFFICIENT,
                True,
                SUFFICIENT,
                "strong KKT sufficient condition",
                "strong",
                (),
                tag,
            )
        )
    gap_strong = certs.get("gap_strong")
    lam = getattr(gap_strong, "lam", None)
    if lam is not None and all(l > 0 for l in lam):
        claims.append(
            EfficiencyClaim(
                EFFICIENT,
                True,
                SUFFICIENT,
                "characterization of efficiency via the gap function "
                "(sufficiency part)",
                "gap_strong",
                (),
                tag,
            )
        )
    perturbed = certs.get("perturbed")
    if isinstance(perturbed, PerturbedKktReport) and perturbed.holds:
        claims.append(
            EfficiencyClaim(
                ISOLATED_EFFICIENT,
                True,
                SUFFICIENT,
                "perturbed KKT sufficient condition",
                "perturbed",
                (),
                tag,
            )
        )
    if tag == EXACT:
        if isinstance(weak, KktSeparator) and _qual_holds_exact(quals, "LFMCQ"):
            claims.append(
                EfficiencyClaim(
                    WEAK_EFFICIENT,
                    False,
                    NECESSARY_GIVEN,
                    "characterization of weak efficiency via the weak KKT "
                    "condition under LFMCQ",
                    "weak",
                    ("LFMCQ",),
                    tag,
                )
            )
        if (
            isinstance(strong, StrongKktResult)
            and strong.certificate is None
            and _qual_holds_exact(quals, "EADQ")
            and _qual_holds_exact(quals, "MOQ")
        ):
            claims.append(
                EfficiencyClaim(
                    EFFICIENT,
                    False,
                    NECESSARY_GIVEN,
                    "strong KKT necessary condition under EADQ and MOQ",
                    "strong",
                    ("EADQ", "MOQ"),
                    tag,
                )
            )
        if (
            isinstance(perturbed, PerturbedKktReport)
            and not perturbed.holds
            and p.flag("continuous")
            and p.flag("differentiable")
            and _qual_holds_exact(quals, "MFCQ")
        ):
            claims.append(
                EfficiencyClaim(
                    ISOLATED_EFFICIENT,
                    False,
                    NECESSARY_GIVEN,
                    "perturbed KKT necessary condition under MFCQ for "
                    "continuously differentiable constraints",
                    "perturbed",
                    ("MFCQ",),
                    tag,
                )
            )
    if oracle_report is not None:
        _check_against_oracle(claims, oracle_report)
    return tuple(claims)


def _check_against_oracle(claims: Sequence[EfficiencyClaim], oracle_report) -> None:
    weak_refuted = getattr(oracle_report, "weak_refuted", None)
    eff_refuted = getattr(oracle_report, "eff_refuted", None)
    for claim in claims:
        if not claim.asserted:
            continue
        if weak_refuted is not None:
            raise InternalInconsistencyError(
                f"claim {claim.level} contradicts a strict dominator found by "
                "the grid oracle"
            )
        if claim.level in (EFFICIENT, ISOLATED_EFFICIENT) and eff_refuted is not None:
            raise InternalInconsistencyError(
                f"claim {claim.level} contradicts a dominator found by the "
                "grid oracle"
            )


def claims_to_json(claims: Sequence[EfficiencyClaim]) -> list:
    return [
        {
            "level": c.level,
            "asserted": c.asserted,
            "direction": c.direction,
            "theorem": c.theorem,
            "certificate": c.certificate,
            "relies_on": list(c.relies_on),
            "provenance": c.provenance,
            "note": c.note,
        }
        for c in claims
    ]
