"""Convex function calculus: exact evaluation (extended-real), subdifferentials
as (points, rays) pairs, conv(points) + cone(rays), the rays the active
normals of the domain when a domain boundary makes them unbounded, and
directional derivatives.  The calculus runs no LP.

The function classes are a closed enumeration so that every class carries an
exact subdifferential rule — certification must not depend on a user oracle.
An optional polyhedral `domain` turns f into f + indicator(domain): evaluation
is +inf outside, the subdifferential gains the domain's normal cone at active
boundary points, and directional derivatives become +inf outside the feasible
direction cone.

The kinds are the piecewise-linear Affine, MaxAffine and SupportPolygon,
whose calculus is one rule over their pieces (`affine_pieces`: the value is
the largest piece, the subgradients are the active pieces, sorted and
distinct but not pruned), and the curved
NegSqrtParabola1D(t), g(x) = -sqrt(2tx - x^2) on [0, 2t], +inf outside.  At
the curved kind's domain boundary the subdifferential is exactly empty and
the directional derivative is the closed-form +-inf; interior subgradients
are returned when rational, refused otherwise.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import mul
from typing import Optional, Sequence, Union

from .cones import HPoly
from .errors import ModelError, ParseError, UnsupportedOperationError
from .rationals import (
    NEG_INF,
    ONE,
    POS_INF,
    NegSqrt,
    Q,
    ZERO,
    as_q,
    is_finite,
    json_object,
    q_pair,
    qdot,
    scaled_ints,
    sqrt_exact,
    vec_q,
)


@dataclass(frozen=True)
class Affine:
    a: tuple
    b: Q
    domain: Optional[HPoly] = None

    def __init__(self, a, b, domain: Optional[HPoly] = None):
        object.__setattr__(self, "a", vec_q(a))
        object.__setattr__(self, "b", as_q(b))
        object.__setattr__(self, "domain", domain)

    @property
    def dim(self) -> int:
        return len(self.a)


@dataclass(frozen=True)
class MaxAffine:
    pieces: tuple  # ((a: tuple, b: Q), ...)
    domain: Optional[HPoly] = None

    def __init__(self, pieces, domain: Optional[HPoly] = None):
        cleaned = tuple((vec_q(a), as_q(b)) for a, b in pieces)
        if not cleaned:
            raise ValueError("MaxAffine needs at least one piece")
        if len({len(a) for a, _ in cleaned}) != 1:
            raise ValueError("MaxAffine pieces differ in dimension")
        object.__setattr__(self, "pieces", cleaned)
        object.__setattr__(self, "domain", domain)

    @property
    def dim(self) -> int:
        return len(self.pieces[0][0])


@dataclass(frozen=True)
class SupportPolygon:
    """Support function of conv(vertices): f(x) = max_v v'x."""

    vertices: tuple
    domain: Optional[HPoly] = None

    def __init__(self, vertices, domain: Optional[HPoly] = None):
        cleaned = tuple(vec_q(v) for v in vertices)
        if not cleaned:
            raise ValueError("SupportPolygon needs at least one vertex")
        if len({len(v) for v in cleaned}) != 1:
            raise ValueError("SupportPolygon vertices differ in dimension")
        object.__setattr__(self, "vertices", cleaned)
        object.__setattr__(self, "domain", domain)

    @property
    def dim(self) -> int:
        return len(self.vertices[0])


@dataclass(frozen=True)
class NegSqrtParabola1D:
    """g(x) = -sqrt(2tx - x^2) on [0, 2t], +inf outside (t > 0)."""

    t: Q

    def __init__(self, t):
        t = as_q(t)
        if t <= 0:
            raise ValueError("t must be positive")
        object.__setattr__(self, "t", t)

    @property
    def dim(self) -> int:
        return 1

    @property
    def domain(self) -> None:  # intrinsic: [0, 2t] is part of the formula
        return None


ConvexFunc = Union[Affine, MaxAffine, SupportPolygon, NegSqrtParabola1D]


def affine_pieces(f: ConvexFunc) -> Optional[Sequence]:
    """(a, b) per piece of a piecewise-linear f = max_pieces a'x + b (on its
    domain), or None for the curved kind.  Apart from the serialiser, the
    only code that tells the piecewise-linear kinds apart."""
    if isinstance(f, Affine):
        return [(f.a, f.b)]
    if isinstance(f, MaxAffine):
        return f.pieces
    if isinstance(f, SupportPolygon):
        return [(v, ZERO) for v in f.vertices]
    return None


def active_pieces(f: ConvexFunc, x) -> Optional[list]:
    """The gradients of the pieces of a piecewise-linear f that attain its
    value at x, in piece order, or None for the curved kind."""
    pieces = affine_pieces(f)
    if pieces is None:
        return None
    vals, _ = _piece_values(pieces, x)
    top = max(vals)
    return [a for (a, _), v in zip(pieces, vals) if v == top]


def _piece_values(pieces, x) -> tuple:
    """(values, den): the value a'x + b of piece i is values[i] / den, the
    dot product of (a, b) with (x, 1).  The point and the pieces are each
    scaled to integers once (`scaled_ints`), so each value is one integer
    dot product."""
    for a, _ in pieces:
        if len(a) != len(x):
            raise ValueError(f"dot of length {len(a)} vs {len(x)}")
    xs, kx = scaled_ints([*x, ONE])
    flat, k = scaled_ints([c for a, b in pieces for c in (*a, b)])
    w = len(xs)
    return [sum(map(mul, flat[i : i + w], xs)) for i in range(0, len(flat), w)], k * kx


# ---------------------------------------------------------------------------
# evaluation


def evaluate(f: ConvexFunc, x):
    """Exact extended-real value of f (with its domain) at x."""
    x = vec_q(x)
    if len(x) != f.dim:
        raise ModelError("evaluation dimension mismatch")
    if f.domain is not None and not f.domain.contains_point(x):
        return POS_INF
    pieces = affine_pieces(f)
    if pieces is not None:
        vals, den = _piece_values(pieces, x)
        return Q(max(vals), den)
    if isinstance(f, NegSqrtParabola1D):
        v = x[0]
        if v < 0 or v > 2 * f.t:
            return POS_INF
        return NegSqrt(v * (2 * f.t - v))
    raise TypeError(f"unknown function kind {type(f).__name__}")


# ---------------------------------------------------------------------------
# subdifferentials


def subdiff_set(f: ConvexFunc, x) -> tuple:
    """Exact subdifferential of f (+ its domain indicator) at x as (points,
    rays): conv(points) + cone(rays), the rays the normals of the domain rows
    active at x (`HPoly.normal_rays`), which generate its normal cone.  No
    points means the empty set.  Nothing is pruned, so no LP runs."""
    x = vec_q(x)
    val = evaluate(f, x)
    if not is_finite(val):
        raise ModelError("subdifferential requested outside the domain")
    active = active_pieces(f, x)
    if active is not None:
        rays = f.domain.normal_rays(x) if f.domain is not None else ()
        return tuple(sorted(set(active))), rays
    # NegSqrtParabola1D
    v = x[0]
    if v == 0 or v == 2 * f.t:
        return (), ()
    # interior: g'(x) = (x - t)/sqrt(x(2t - x)), rational only sometimes
    rad = v * (2 * f.t - v)
    slope_sq = (v - f.t) * (v - f.t) / rad
    root = sqrt_exact(slope_sq)
    if root is None:
        raise UnsupportedOperationError(
            "irrational interior subgradient has no rational representation"
        )
    slope = root if v > f.t else -root
    return ((slope,),), ()


def subdiff(f: ConvexFunc, x) -> tuple:
    """The subdifferential's points; raises when a domain boundary makes it
    unbounded (use subdiff_set there)."""
    points, rays = subdiff_set(f, x)
    if rays:
        raise UnsupportedOperationError(
            "subdifferential is unbounded here; use subdiff_set for points + rays"
        )
    return points


# ---------------------------------------------------------------------------
# directional derivatives


def dir_derivative(f: ConvexFunc, x, d):
    """f'(x; d) for f + indicator(domain), exact extended-real."""
    x, d = vec_q(x), vec_q(d)
    val = evaluate(f, x)
    if not is_finite(val):
        raise ModelError("directional derivative requested outside the domain")
    if f.domain is not None:
        for i in f.domain.active_rows(x):
            if qdot(f.domain.rows[i][0], d) > 0:
                return POS_INF
    active = active_pieces(f, x)
    if active is not None:
        return max(qdot(a, d) for a in active)
    # NegSqrtParabola1D
    v, dd = x[0], d[0]
    if dd == 0:
        return ZERO
    if v == 0:
        return NEG_INF if dd > 0 else POS_INF
    if v == 2 * f.t:
        return NEG_INF if dd < 0 else POS_INF
    (gradient,), _ = subdiff_set(f, x)  # rational-slope interior or a refusal
    return qdot(gradient, d)


# ---------------------------------------------------------------------------
# serialization ([num, den] rationals throughout)


def _vec_out(v) -> list:
    return [q_pair(c) for c in v]


def hpoly_to_json(poly: HPoly) -> dict:
    return {"rows": [_vec_out(list(a) + [b]) for a, b in poly.rows]}


def hpoly_from_json(obj, dim: int) -> Optional[HPoly]:
    """The H-polyhedron of rows [a_1, ..., a_dim, b], each a'x <= b; None
    for None (no domain)."""
    if obj is None:
        return None
    rows = []
    for row in json_object(obj, {"rows"}, "H-polyhedron")["rows"]:
        vals = [as_q(c) for c in row]
        if len(vals) != dim + 1:
            raise ParseError(f"H-polyhedron row has {len(vals)} entries, expected {dim + 1}")
        rows.append((vals[:dim], vals[dim]))
    return HPoly(dim, rows)


def func_to_json(f: ConvexFunc) -> dict:
    if isinstance(f, Affine):
        out = {"kind": "affine", "a": _vec_out(f.a), "b": q_pair(f.b)}
    elif isinstance(f, MaxAffine):
        out = {
            "kind": "max_affine",
            "pieces": [{"a": _vec_out(a), "b": q_pair(b)} for a, b in f.pieces],
        }
    elif isinstance(f, SupportPolygon):
        out = {"kind": "support_polygon", "vertices": [_vec_out(v) for v in f.vertices]}
    elif isinstance(f, NegSqrtParabola1D):
        out = {"kind": "neg_sqrt_parabola_1d", "t": q_pair(f.t)}
    else:
        raise UnsupportedOperationError(f"{type(f).__name__} does not serialize")
    if f.domain is not None:
        out["domain"] = hpoly_to_json(f.domain)
    return out


def func_from_json(obj: dict) -> ConvexFunc:
    kind = obj.get("kind")
    if kind == "affine":
        json_object(obj, {"kind", "a", "b", "domain"}, "affine function")
        a = [as_q(c) for c in obj["a"]]
        domain = hpoly_from_json(obj.get("domain"), len(a))
        return Affine(a, as_q(obj["b"]), domain)
    if kind == "max_affine":
        json_object(obj, {"kind", "pieces", "domain"}, "max_affine function")
        docs = [json_object(p, {"a", "b"}, "piece") for p in obj["pieces"]]
        pieces = [([as_q(c) for c in p["a"]], as_q(p["b"])) for p in docs]
        domain = hpoly_from_json(obj.get("domain"), len(pieces[0][0]))
        return MaxAffine(pieces, domain)
    if kind == "support_polygon":
        json_object(obj, {"kind", "vertices", "domain"}, "support_polygon function")
        verts = [[as_q(c) for c in v] for v in obj["vertices"]]
        domain = hpoly_from_json(obj.get("domain"), len(verts[0]))
        return SupportPolygon(verts, domain)
    if kind == "neg_sqrt_parabola_1d":
        json_object(obj, {"kind", "t"}, "neg_sqrt_parabola_1d function")
        return NegSqrtParabola1D(as_q(obj["t"]))
    raise ModelError(f"unknown function kind {kind!r}")
