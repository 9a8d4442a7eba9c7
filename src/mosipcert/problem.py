"""The MOSIP model: vector objectives, a constraint family over an index set
(finite, or an infinite builtin family materialized up to an explicit
truncation), the feasible set S, the envelope function psi, active index
sets, and the derived sets F, F*, G, G*, C(S, x), N(S, x) at a candidate point.

Everything derived at one candidate point lives in that point's one store,
`CandidatePoint.derived`: the constraint values, the subdifferentials of the
objectives, of any constraint and of psi, the cones built from them, and the
answers to its zero questions, one `decompose` each, whose weights or Farkas
direction answer both sides.  Each entry is computed at most once; a refused
computation is not stored.

Truncation is a first-class, user-visible parameter: every value that depends
on a truncated family carries a "truncated" provenance marker, because no
finite slice of an infinite family can silently stand in for the whole.  For
the same reason S may be supplied directly as an H-polyhedron — for infinite
families the exact feasible set is typically known in closed form while no
truncation reproduces it — and an optional psi_override supplies the exact
upper envelope where a closed form exists.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Optional, Union

from . import funcs
from .cones import (
    FGCone,
    HCone,
    HPoly,
    Polytope,
    ZeroInterior,
    _canonical,
    _primitive_int_set,
    _pruned_rays,
    contains,
    decompose,
    normal_escape,
    polar,
    subspace_escape,
    zero_interior,
)
from .errors import (
    InfeasiblePointError,
    ModelError,
    ParseError,
)
from .funcs import (
    Affine,
    ConvexFunc,
    NegSqrtParabola1D,
    SupportPolygon,
    evaluate,
    is_finite,
    subdiff,
    subdiff_set,
)
from .rationals import ZERO, Q, as_q, json_int, json_object, q_from_pair, qdot, vec_q

EXACT = "exact"
TRUNCATED = "truncated"
APPROXIMATED = "approximated-subdifferentials"

_SEVERITY = {EXACT: 0, TRUNCATED: 1, APPROXIMATED: 2}


def worst_provenance(*tags: str) -> str:
    return max(tags, key=_SEVERITY.__getitem__)

#: annotation keys the loader accepts; anything else is rejected so problem
#: files stay honest about what the toolkit actually consumes.
ANNOTATION_KEYS = frozenset(
    {
        "name",
        "notes",
        "flags",
        "documented_g_polar",
        "reference_verdicts",
        "g_sets_exact",
        "subdifferentials_approximated",
        "isolation",
    }
)
FLAG_KEYS = frozenset({"continuous", "differentiable"})


# ---------------------------------------------------------------------------
# constraint families


@dataclass(frozen=True)
class FiniteFamily:
    functions: tuple

    def __init__(self, functions):
        fns = tuple(functions)
        if not fns:
            raise ModelError("a constraint family needs at least one function")
        object.__setattr__(self, "functions", fns)

    @property
    def size(self) -> int:
        return len(self.functions)

    @property
    def truncated(self) -> bool:
        return False

    def member(self, k: int) -> ConvexFunc:
        return self.functions[k]


def _alternating_affine(params: dict, truncation: int) -> tuple:
    """One-variable family: 2x, then the interleaved tails x - 1/(j+1) at odd
    indices and 3x - 1/j at even indices; sup envelope max(x, 3x)."""
    out = []
    for k in range(truncation):
        if k == 0:
            out.append(Affine([2], 0))
        elif k % 2 == 1:
            j = (k - 1) // 2
            out.append(Affine([1], Q(-1, j + 1)))
        else:
            j = k // 2
            out.append(Affine([3], Q(-1, j)))
    return tuple(out)


#: rational slopes marking points on the circle of radius r centred at (0, r):
#: u -> (2ru, 2ru^2)/(1 + u^2), with None standing for the top point (0, 2r).
_OCTAGON_SLOPES = (
    Q(0),
    Q(1, 4),
    Q(1, 2),
    Q(2, 3),
    Q(3, 2),
    Q(2),
    Q(4),
    None,
)


def octagon_vertices(t) -> list:
    r = 1 + as_q(t)
    verts = []
    for u in _OCTAGON_SLOPES:
        if u is None:
            verts.append([Q(0), 2 * r])
        else:
            d = 1 + u * u
            verts.append([2 * r * u / d, 2 * r * u * u / d])
    return verts


def _octagon_support(params: dict, truncation: int) -> tuple:
    """Support functions of an expanding sequence of octagons inscribed in the
    circles through the origin of radius 1 + t centred on the vertical axis."""
    return tuple(SupportPolygon(octagon_vertices(t)) for t in range(truncation))


def _neg_semicircle(params: dict, truncation: int) -> tuple:
    """Lower semicircular arcs -sqrt(2tx - x^2) for a rational grid of t in
    [1, 2] (the grid has `truncation` points, endpoints included)."""
    if truncation == 1:
        return (NegSqrtParabola1D(1),)
    step = Q(1, truncation - 1)
    return tuple(NegSqrtParabola1D(1 + k * step) for k in range(truncation))


BUILTIN_FAMILIES = {
    "alternating_affine": _alternating_affine,
    "octagon_support": _octagon_support,
    "neg_semicircle": _neg_semicircle,
}


#: largest truncation an indexed family materializes; every member is built
#: and evaluated, and 100,000 members already take seconds and 120 MB
MAX_TRUNCATION = 100_000


@dataclass(frozen=True)
class IndexedFamily:
    """A builtin infinite family materialized on indices 0 .. truncation-1
    (at most MAX_TRUNCATION members); no builtin family reads `params`."""

    family: str
    params: dict
    truncation: int
    functions: tuple = field(compare=False)

    def __init__(self, family: str, params: Optional[dict] = None, truncation: int = 1):
        if family not in BUILTIN_FAMILIES:
            raise ModelError(f"unknown constraint family {family!r}")
        if truncation < 1:
            raise ModelError("truncation must be at least 1")
        if truncation > MAX_TRUNCATION:
            raise ModelError(f"truncation {truncation} exceeds {MAX_TRUNCATION}")
        if params:
            raise ModelError(f"constraint family {family!r} takes no params")
        fns = BUILTIN_FAMILIES[family]({}, truncation)
        object.__setattr__(self, "family", family)
        object.__setattr__(self, "params", {})
        object.__setattr__(self, "truncation", truncation)
        object.__setattr__(self, "functions", fns)

    @property
    def size(self) -> int:
        return self.truncation

    @property
    def truncated(self) -> bool:
        return True

    def member(self, k: int) -> ConvexFunc:
        return self.functions[k]


ConstraintFamily = Union[FiniteFamily, IndexedFamily]


# ---------------------------------------------------------------------------
# problem


def _rational_vectors(rows, dimension: int, what: str) -> tuple:
    """Vectors of [num, den] pairs, each with `dimension` entries."""
    out = []
    for row in rows:
        vec = tuple(q_from_pair(c) for c in row)
        if len(vec) != dimension:
            raise ParseError(f"{what} has {len(vec)} entries, not {dimension}")
        out.append(vec)
    return tuple(out)


@dataclass(frozen=True)
class MosipProblem:
    """The problem data.  The annotation rationals the toolkit reads are
    parsed once, here, into attributes outside the dataclass fields (so ==
    and repr see the fields only): `g_polar_normals`, the documented
    G-polar's normals or None; `pinned_points`, the points where
    ``g_sets_exact`` pins the truncated data; `documented_nu`, the documented
    isolation constant or None."""

    dimension: int
    objectives: tuple
    constraints: ConstraintFamily
    feasible_set: Optional[HPoly] = None
    psi_override: Optional[ConvexFunc] = None
    annotations: dict = field(default_factory=dict)

    def __init__(
        self,
        dimension: int,
        objectives,
        constraints: ConstraintFamily,
        feasible_set: Optional[HPoly] = None,
        psi_override: Optional[ConvexFunc] = None,
        annotations: Optional[dict] = None,
    ):
        objectives = tuple(objectives)
        if not objectives:
            raise ModelError("at least one objective is required")
        for f in objectives:
            if f.dim != dimension:
                raise ModelError("objective dimension mismatch")
        for k in range(constraints.size):
            if constraints.member(k).dim != dimension:
                raise ModelError(f"constraint {k} dimension mismatch")
        if feasible_set is not None and feasible_set.dim != dimension:
            raise ModelError("feasible_set dimension mismatch")
        if psi_override is not None and psi_override.dim != dimension:
            raise ModelError("psi_override dimension mismatch")
        annotations = dict(
            json_object({} if annotations is None else annotations, ANNOTATION_KEYS, "annotation")
        )
        flags = annotations.get("flags", {})
        if not isinstance(flags, dict) or not all(type(v) is bool for v in flags.values()):
            raise ParseError(f"flags must map names to true or false, got {flags!r}")
        bad_flags = set(flags) - FLAG_KEYS
        if bad_flags:
            raise ModelError(f"unknown flags: {sorted(bad_flags)}")
        try:
            g_polar = annotations.get("documented_g_polar")
            pinned = annotations.get("g_sets_exact")
            nu = annotations.get("isolation", {}).get("documented_nu")
            g_polar_normals = (
                _rational_vectors(g_polar["normals"], dimension, "a documented_g_polar normal")
                if g_polar
                else None
            )
            pinned_points = (
                _rational_vectors(pinned.get("points", []), dimension, "a g_sets_exact point")
                if pinned
                else ()
            )
            documented_nu = None if nu is None else q_from_pair(nu)
        except (AttributeError, KeyError, TypeError, ValueError) as exc:
            raise ParseError(f"malformed annotation: {exc}") from exc
        object.__setattr__(self, "dimension", dimension)
        object.__setattr__(self, "objectives", objectives)
        object.__setattr__(self, "constraints", constraints)
        object.__setattr__(self, "feasible_set", feasible_set)
        object.__setattr__(self, "psi_override", psi_override)
        object.__setattr__(self, "annotations", annotations)
        object.__setattr__(self, "g_polar_normals", g_polar_normals)
        object.__setattr__(self, "pinned_points", pinned_points)
        object.__setattr__(self, "documented_nu", documented_nu)

    @property
    def num_objectives(self) -> int:
        return len(self.objectives)

    @property
    def truncated(self) -> bool:
        return self.constraints.truncated

    def constraint(self, k: int) -> ConvexFunc:
        return self.constraints.member(k)

    def indices(self) -> range:
        return range(self.constraints.size)

    def flag(self, name: str) -> bool:
        return bool(self.annotations.get("flags", {}).get(name, False))


# ---------------------------------------------------------------------------
# envelope functions and active sets


def constraint_values(p: MosipProblem, x) -> tuple:
    """Every g_k(x) over the truncated family, after the exact feasibility
    check of x against the family and, when supplied, the closed-form S;
    raises naming the first violated index or row."""
    x = vec_q(x)
    if len(x) != p.dimension:
        raise ModelError("candidate point dimension mismatch")
    values = []
    for k in p.indices():
        value = evaluate(p.constraint(k), x)
        if value > 0:
            raise InfeasiblePointError(
                f"infeasible point: constraint index {k} is violated"
            )
        values.append(value)
    if p.feasible_set is not None:
        for j, (a, b) in enumerate(p.feasible_set.rows):
            if qdot(a, x) > b:
                raise InfeasiblePointError(
                    f"infeasible point: feasible_set row {j} is violated"
                )
    return tuple(values)


def _eps_active(values, eps) -> list:
    """The indices k with g_k(x) >= -eps, given every g_k(x)."""
    eps = as_q(eps)
    if eps < 0:
        raise ModelError("epsilon must be nonnegative")
    floor = -eps
    return [k for k, value in enumerate(values) if value >= floor]


def _union(pairs) -> tuple:
    """Union of (points, rays) subdifferentials, split into a tuple of points
    and a tuple of rays without repeats, each in order of first appearance;
    empty subdifferentials contribute nothing."""
    base: dict = {}
    rec: dict = {}
    for points, rays in pairs:
        base.update(dict.fromkeys(points))
        rec.update(dict.fromkeys(rays))
    return tuple(base), tuple(rec)


#: marks a key `derived` does not hold; a kept value may be None
_ABSENT = object()


def _kept(derived: dict, key, compute):
    """The value in `derived` under `key`, computed by `compute()` on the
    first request; a refusal it raises is not stored."""
    value = derived.get(key, _ABSENT)
    if value is _ABSENT:
        value = derived[key] = compute()
    return value


def _kept_union(derived: dict, indices: tuple, subdiff_of) -> tuple:
    """`_union` of the subdifferentials subdiff_of(k) over the index set,
    kept in `derived` per index set."""
    return _kept(
        derived, ("subgradient_union", indices), lambda: _union(map(subdiff_of, indices))
    )


def _kept_cone(derived: dict, cls, dim: int, vectors):
    """cls(dim, vectors), an FGCone or an HCone, its rays kept in `derived`
    under the sorted primitive integer set: the canonical form depends on
    that set alone, so a set asked again, as generators or as normals, runs
    no LP."""
    prims = tuple(_primitive_int_set(dim, vectors, "generator" if cls is FGCone else "normal"))
    return _canonical(cls, dim, _kept(derived, ("rays", prims), lambda: _pruned_rays(prims)))


# ---------------------------------------------------------------------------
# data provenance


def pinned_exact(p: MosipProblem, x) -> bool:
    """Does an annotation certify that the truncated constraint data at x
    (active set, subdifferential union) already equals the full family's?"""
    return vec_q(x) in p.pinned_points


def g_data_provenance(p: MosipProblem, x) -> str:
    """Trust level of constraint-derived data (G, G*, active sets) at x."""
    if p.annotations.get("subdifferentials_approximated"):
        return APPROXIMATED
    if not p.truncated or pinned_exact(p, x):
        return EXACT
    return TRUNCATED


def psi_data_provenance(p: MosipProblem) -> str:
    """Trust level of envelope-derived data (psi values, its subdifferential)."""
    if p.psi_override is not None:
        return EXACT
    if p.annotations.get("subdifferentials_approximated"):
        return APPROXIMATED
    return TRUNCATED if p.truncated else EXACT


# ---------------------------------------------------------------------------
# derived sets at a candidate point


@dataclass(frozen=True)
class CandidatePoint:
    """A feasible point with its derived sets, computed when it is built.

    Every other quantity at x lives in the one store `derived`, each entry
    computed at most once, on first request, and then kept:

    * ``objective_subdiff(i)``, subdiff(f_i, x), the points of the active
      pieces; building the point computes all of them, since F needs them;
    * ``constraint_subdiff(k)``, subdiff_set(g_k, x), a (points, rays) pair,
      for any index k; building the point computes those of the active
      constraints;
    * ``psi_subdiff()``, the envelope's subdifferential as a (points, rays)
      pair, both canonical (extreme points and pruned rays);
    * ``g_values``, every g_k(x), from the feasibility pass of `build`;
    * ``g_polar()``, the negative polar G^0(x) with its provenance and source
      (ACQ, WADQ, EADQ);
    * ``cone(cls, vectors)``, the FGCone or HCone of the vectors, whose rays
      are kept per sorted primitive integer set: G*, C and N in `build`,
      KTCQ's envelope cone and the isolation report's cones take them from
      one entry, since random and bundled instances often ask one set as
      generators and as normals;
    * ``support_escape()``, `subspace_escape` of the F* vertices and G*
      generators: None exactly when the support cone of F* + G* is a
      subspace (strong KKT's ri test, and `zero_interior` at rank n);
    * ``zero_interior(eps)``, whether 0 is interior to F* plus the cone of
      the eps-active set's subgradients, with a certified radius (G* at
      eps = 0: perturbed KKT and gap check; the isolation report's grid);
      kept per cone, under the integer tuples of its canonical rays, so
      eps-active sets with one cone ask once, and G* reuses
      ``support_escape()``;
    * ``subgradient_union(eps)``, per eps-active set (MFCQ, PMFCQ); one
      entry per index set, which `build` reads for G (over T) and
      ``psi_subdiff()`` for the max rule (over the argmax set, T when
      max g = 0);
    * ``zero_decomposition(points, gens)``, keyed by its input: `decompose`
      of 0 over conv(points) + cone(gens), the one LP that decides and
      separates: the weights (the Fails witness of MFCQ and COCQ, WADQ's
      vacuous Holds witness), or the `lp.Infeasible` whose direction
      (`cones.strict_direction`) separates (the Holds direction of MFCQ,
      PMFCQ and COCQ, WADQ's strict direction, the KKT separator).  It is
      asked over MFCQ's and PMFCQ's subgradient unions, which COCQ reads
      when psi has no override and T is not empty (psi's argmax set is then
      T), and over the canonical F* vertices and G* generators, which weak
      and strong KKT share, and WADQ unless the G-polar has a closed form;
    * ``union_zero(eps)``, `zero_decomposition` over `subgradient_union(eps)`,
      kept per eps-active set too, so a long eps grid hashes index tuples,
      not rational points (PMFCQ);
    * ``margin_zero(hulls, cones)``, keyed by its input too: the
      maximised-margin `decompose` of 0 over hull and cone blocks, the one
      answer to a weak and a strong zero question (weak and strong KKT over
      the grouped tables; the untilted weak and strong gap searches over the
      objective tables and N);
    * ``normal_escape(rows, normals)``, keyed by its input: whether
      {d : a'd <= 0 over the rows} lies in the H-cone of the normals (WADQ
      and EADQ over F plus the G-polar's normals against C).

    No other module keeps a memo or knows a key of the store.

    A refused computation (UnsupportedOperationError for an irrational
    subdifferential, say) is not stored, so every request raises it again.
    The store lives and dies with the point.  The certificate verifiers do
    not read it: they recompute from the problem data.
    """

    problem: MosipProblem
    x: tuple
    T: tuple
    F: tuple
    F_star: Polytope
    G: tuple
    G_is_empty: bool
    G_star: FGCone
    C: Optional[HCone]
    N: Optional[FGCone]
    derived: dict = field(default_factory=dict, compare=False, repr=False)

    @staticmethod
    def build(p: MosipProblem, x) -> "CandidatePoint":
        x = vec_q(x)
        derived: dict = {"g_values": constraint_values(p, x)}
        T = tuple(_eps_active(derived["g_values"], 0))
        F: list = []
        for i, f in enumerate(p.objectives):
            sd = derived[("objective", i)] = subdiff(f, x)
            if not sd:
                raise ModelError(
                    f"objective {i} has empty subdifferential at {list(x)}; "
                    "objectives must be finite-valued convex functions"
                )
            F.extend(v for v in sd if v not in F)
        F_star = Polytope(p.dimension, F)
        for k in T:
            derived[("constraint", k)] = subdiff_set(p.constraint(k), x)
        G, rec = _kept_union(derived, T, lambda k: derived[("constraint", k)])
        G_star = _kept_cone(derived, FGCone, p.dimension, G + rec)
        C = N = None
        if p.feasible_set is not None:
            # x satisfies every row of S: the feasibility pass checked it;
            # C is cut out by the active rows
            S = p.feasible_set
            C = _kept_cone(derived, HCone, p.dimension, S.normal_rays(x))
            N = polar(C)
            if not contains(G_star, N).holds:
                # an active subgradient g has g'(y - x) <= g_t(y) <= 0 on the
                # true feasible set, so the declared S is larger than it
                raise ModelError(
                    "active-gradient cone escapes the normal cone to S: "
                    "feasible_set is larger than the constraints allow"
                )
        return CandidatePoint(
            problem=p,
            x=x,
            T=T,
            F=tuple(F),
            F_star=F_star,
            G=G,
            G_is_empty=not G and not rec,
            G_star=G_star,
            C=C,
            N=N,
            derived=derived,
        )

    def _kept(self, key, compute):
        """The stored value under `key`, computed by `compute()` on the first
        request; a refusal it raises is not stored."""
        return _kept(self.derived, key, compute)

    def cone(self, cls, vectors):
        """cls(dimension, vectors), an FGCone or an HCone, with its rays kept
        per sorted primitive integer set."""
        return _kept_cone(self.derived, cls, self.problem.dimension, vectors)

    @property
    def g_values(self) -> tuple:
        """Every g_k(x) over the truncated family."""
        return self.derived["g_values"]

    def objective_subdiff(self, i: int) -> tuple:
        return self._kept(
            ("objective", i), lambda: subdiff(self.problem.objectives[i], self.x)
        )

    def constraint_subdiff(self, k: int) -> tuple:
        return self._kept(
            ("constraint", k), lambda: subdiff_set(self.problem.constraint(k), self.x)
        )

    def psi_subdiff(self) -> Optional[tuple]:
        """Subdifferential of the upper envelope at x as (points, rays), when
        representable.

        The override's subdifferential is exact by the model contract.
        Without an override, a finite family admits the max rule (convex
        hull of the argmax members' subdifferentials); a truncated family
        does not pin down the envelope near x, so the result is None
        (undecidable downstream).
        """

        def compute():
            p = self.problem
            if p.psi_override is not None:
                return subdiff_set(p.psi_override, self.x)
            if p.truncated:
                return None
            top = max(self.g_values)
            if not is_finite(top):
                return None
            argmax = [k for k, value in enumerate(self.g_values) if value == top]
            # the max rule needs every argmax subdifferential
            if any(not self.constraint_subdiff(k)[0] for k in argmax):
                return None
            base, rec = _kept_union(self.derived, tuple(argmax), self.constraint_subdiff)
            return Polytope(p.dimension, base).vertices, FGCone(p.dimension, rec).generators

        return self._kept("psi", compute)

    def g_polar(self) -> tuple:
        """(HCone, provenance, source): the negative polar of the
        active-subgradient union, preferring a documented closed form over
        the polar of the truncated cone."""

        def compute():
            p = self.problem
            if p.g_polar_normals is not None:
                return HCone(p.dimension, p.g_polar_normals), EXACT, "documented closed-form polar"
            prov = g_data_provenance(p, self.x)
            return polar(self.G_star), prov, "polar of the truncated active-gradient cone" if prov != EXACT else "polar of the active-gradient cone"

        return self._kept("g_polar", compute)

    def support_escape(self) -> Optional[tuple]:
        """`subspace_escape` of the F* vertices and G* generators: None when
        the support cone of F* + G* is a subspace, else a direction escaping
        it (strong KKT's ri test; `zero_interior` at rank n)."""
        return self._kept(
            "support_escape",
            lambda: subspace_escape(self.F_star.vertices + self.G_star.generators),
        )

    def zero_interior(self, eps=ZERO) -> ZeroInterior:
        """`zero_interior` of F* plus the cone of `subgradient_union(eps)`,
        kept per cone, under the integer tuples of its canonical rays:
        eps-active sets that give one cone share one answer.  Over T that
        cone is G*; wherever the cone is G*, the answer reuses
        `support_escape()`."""
        if tuple(self.active(eps)) == self.T:
            gens = self.G_star.generators
        else:
            gens = self.cone(FGCone, sum(self.subgradient_union(eps), ())).generators
        escape = self.support_escape if gens == self.G_star.generators else None
        return self._kept(
            ("zero_interior", tuple(tuple(map(int, g)) for g in gens)),
            lambda: zero_interior(self.problem.dimension, self.F_star.vertices, gens, escape),
        )

    def zero_decomposition(self, points, gens):
        """`decompose` of 0 over conv(points) + cone(gens), kept under its
        input: a basic solution, so at most n + 1 weights are positive
        (Caratheodory), or the LP's `lp.Infeasible`, whose Farkas vector
        gives the direction of `cones.strict_direction`."""
        return self._kept(
            ("zero_decomposition", tuple(points), tuple(gens)),
            lambda: decompose((ZERO,) * self.problem.dimension, [points], [gens]),
        )

    def margin_zero(self, hulls, cones):
        """`decompose` of 0 over the hull and cone blocks with margin, kept
        under its input: the weights with the maximised least hull-block sum
        tau last, or the `lp.Infeasible` over the plain rows.  Weights with
        tau > 0 answer the strong question, and any weights the weak one."""
        return self._kept(
            ("margin_zero", tuple(map(tuple, hulls)), tuple(map(tuple, cones))),
            lambda: decompose((ZERO,) * self.problem.dimension, hulls, cones, margin=True),
        )

    def normal_escape(self, rows, normals) -> Optional[tuple]:
        """`cones.normal_escape` of the rows against the normals, kept under
        its input: None when {d : a'd <= 0 over the rows} lies in the H-cone
        of the normals, else (normal, escaping direction)."""
        return self._kept(
            ("normal_escape", tuple(rows), tuple(normals)),
            lambda: normal_escape(rows, normals),
        )

    def active(self, eps) -> list:
        """epsilon-active indices, read off the stored constraint values."""
        return _eps_active(self.g_values, eps)

    def subgradient_union(self, eps) -> tuple:
        """Union of the eps-active constraint subdifferentials, split into
        base vertices and recession generators, kept per eps-active set;
        empty subdifferentials contribute nothing (their members impose no
        subgradient inequality here)."""
        return _kept_union(self.derived, tuple(self.active(eps)), self.constraint_subdiff)

    def union_zero(self, eps):
        """`zero_decomposition` over `subgradient_union(eps)`, kept per
        eps-active set."""
        return self._kept(
            ("union_zero", tuple(self.active(eps))),
            lambda: self.zero_decomposition(*self.subgradient_union(eps)),
        )


# ---------------------------------------------------------------------------
# problem files (JSON, [num, den] rationals, bit-exact for canonical docs)


def problem_to_json(p: MosipProblem) -> dict:
    if isinstance(p.constraints, FiniteFamily):
        constraints = {"finite": [funcs.func_to_json(f) for f in p.constraints.functions]}
    else:
        constraints = {
            "indexed": {
                "family": p.constraints.family,
                "params": p.constraints.params,
                "truncation": p.constraints.truncation,
            }
        }
    out = {
        "dimension": p.dimension,
        "objectives": [funcs.func_to_json(f) for f in p.objectives],
        "constraints": constraints,
    }
    if p.feasible_set is not None:
        out["feasible_set"] = funcs.hpoly_to_json(p.feasible_set)
    if p.psi_override is not None:
        out["psi_override"] = funcs.func_to_json(p.psi_override)
    if p.annotations:
        out["annotations"] = p.annotations
    return out


#: the keys a problem document may hold
PROBLEM_KEYS = frozenset(
    {"dimension", "objectives", "constraints", "feasible_set", "psi_override", "annotations"}
)


def problem_from_json(doc: dict) -> MosipProblem:
    try:
        json_object(doc, PROBLEM_KEYS, "problem")
        dim = json_int(doc["dimension"], "dimension")
        objectives = [funcs.func_from_json(o) for o in doc["objectives"]]
        cdoc = doc["constraints"]
        if "finite" in cdoc:
            json_object(cdoc, {"finite"}, "constraints")
            constraints: ConstraintFamily = FiniteFamily(
                funcs.func_from_json(f) for f in cdoc["finite"]
            )
        elif "indexed" in cdoc:
            json_object(cdoc, {"indexed"}, "constraints")
            idoc = json_object(
                cdoc["indexed"], {"family", "params", "truncation"}, "indexed family"
            )
            constraints = IndexedFamily(
                idoc["family"], idoc.get("params"), json_int(idoc["truncation"], "truncation")
            )
        else:
            raise ParseError("constraints must be 'finite' or 'indexed'")
        feasible = (
            funcs.hpoly_from_json(doc["feasible_set"], dim) if "feasible_set" in doc else None
        )
        override = (
            funcs.func_from_json(doc["psi_override"])
            if "psi_override" in doc
            else None
        )
        annotations = doc.get("annotations", {})
        return MosipProblem(dim, objectives, constraints, feasible, override, annotations)
    except (AttributeError, IndexError, KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
        raise ParseError(f"malformed problem document: {exc}") from exc


def load_problem(path) -> MosipProblem:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ParseError(f"invalid JSON: {exc}") from exc
    return problem_from_json(doc)


def dump_problem(p: MosipProblem) -> str:
    return json.dumps(problem_to_json(p), sort_keys=True, indent=2) + "\n"
