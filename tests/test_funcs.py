"""Convex-function calculus: frozen values, subgradient inequality, the
max-formula for directional derivatives, and serialization round trips; and
the rational helpers it computes with (`as_q`, `qdot`, `lincomb`)."""

from __future__ import annotations

import random
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mosipcert.cones import FGCone, HPoly, Polytope
from mosipcert.errors import ModelError, ParseError, UnsupportedOperationError
from mosipcert.funcs import (
    Affine,
    MaxAffine,
    NegSqrtParabola1D,
    SupportPolygon,
    active_pieces,
    affine_pieces,
    dir_derivative,
    evaluate,
    func_from_json,
    func_to_json,
    subdiff,
    subdiff_set,
)
from mosipcert.oracle import _vector_eval
from mosipcert.rationals import NEG_INF, POS_INF, NegSqrt, Q, as_q, lincomb, qdot


def float_at(f, x) -> float:
    """f at one point, by the oracle's vectorised float path."""
    return float(_vector_eval(f, np.array([[float(c) for c in x]]))[0])


def test_affine_basics():
    f = Affine([2, -1], Q(3))
    assert evaluate(f, [1, 1]) == Q(4)
    assert subdiff(f, [1, 1]) == ((Q(2), Q(-1)),)
    assert dir_derivative(f, [1, 1], [1, 0]) == Q(2)


def test_max_affine_kink_recovers_interval():
    f = MaxAffine([([1], Q(0)), ([3], Q(0))])
    sd = subdiff(f, [0])
    assert sd == ((Q(1),), (Q(3),))
    assert dir_derivative(f, [0], [1]) == Q(3)
    assert dir_derivative(f, [0], [-1]) == Q(-1)
    # off the kink only one piece is active
    assert subdiff(f, [1]) == ((Q(3),),)
    assert subdiff(f, [-1]) == ((Q(1),),)


def test_support_polygon_at_origin_is_whole_polygon():
    verts = [[1, 0], [0, 1], [-1, -1]]
    f = SupportPolygon(verts)
    assert evaluate(f, [0, 0]) == Q(0)
    sd = subdiff(f, [0, 0])
    assert set(sd) == {(Q(1), Q(0)), (Q(0), Q(1)), (Q(-1), Q(-1))}
    # away from the origin the maximizing vertex is unique
    assert subdiff(f, [1, 0]) == ((Q(1), Q(0)),)


def test_subdiff_set_lists_every_active_piece_sorted_with_no_lp(monkeypatch):
    # the max rule: the gradients of the active pieces, sorted and distinct;
    # (1/2, 1/2) lies between the other two and stays listed
    from mosipcert import lp

    f = MaxAffine([([1, 0], 0), ([0, 1], 0), ([Q(1, 2), Q(1, 2)], 0), ([1, 0], 0)])
    solves = []
    monkeypatch.setattr(lp, "solve", lambda prog: solves.append(prog))
    points, rays = subdiff_set(f, [0, 0])
    assert points == ((Q(0), Q(1)), (Q(1, 2), Q(1, 2)), (Q(1), Q(0)))
    assert rays == () and solves == []
    assert subdiff(f, [0, 0]) == points


# x1 <= 0, x2 <= 0 and x1 + x2 <= 0: the third row is implied by the other two
REDUNDANT_QUADRANT = HPoly(2, [([1, 0], 0), ([0, 1], 0), ([1, 1], 0)])


def test_subdiff_set_lists_every_active_domain_normal():
    # the domain's rays are the sorted distinct primitive normals of its
    # active rows; (1, 1) lies in the cone of the other two and stays listed
    f = Affine([1, 1], 0, REDUNDANT_QUADRANT)
    assert subdiff_set(f, [0, 0]) == (((Q(1), Q(1)),), ((0, 1), (1, 0), (1, 1)))
    assert subdiff_set(f, [-1, 0]) == (((Q(1), Q(1)),), ((0, 1),))
    assert subdiff_set(f, [-1, -1]) == (((Q(1), Q(1)),), ())


def test_the_calculus_runs_no_lp(monkeypatch):
    # every kind, with and without a domain, at boundary and interior points
    from mosipcert import lp

    kinds = [
        lambda domain: Affine([1, 1], 0, domain),
        lambda domain: MaxAffine([([1, 0], 0), ([0, 1], 0), ([Q(1, 2), Q(1, 2)], 0)], domain),
        lambda domain: SupportPolygon([[1, 0], [0, 1], [-1, -1]], domain),
    ]
    solves = []
    monkeypatch.setattr(lp, "solve", lambda prog: solves.append(prog))
    for kind in kinds:
        for domain in (None, REDUNDANT_QUADRANT):
            for x in ([0, 0], [-1, 0], [-1, -2]):
                points, rays = subdiff_set(kind(domain), x)
                assert points and len(rays) <= (3 if domain else 0)
    g = NegSqrtParabola1D(1)
    assert [subdiff_set(g, [x]) for x in (0, 1, 2)] == [((), ()), (((Q(0),),), ()), ((), ())]
    assert solves == []


def test_support_polygon_value_is_support_function():
    f = SupportPolygon([[2, 1], [-1, 3]])
    assert evaluate(f, [1, 1]) == Q(3)
    assert evaluate(f, [-1, 0]) == Q(1)


def test_neg_sqrt_parabola_values_and_domain():
    g = NegSqrtParabola1D(Q(1))
    assert evaluate(g, [1]) == Q(-1)  # bottom of the arc
    assert evaluate(g, [0]) == Q(0)
    assert evaluate(g, [2]) == Q(0)
    assert evaluate(g, [-1]) is POS_INF
    assert evaluate(g, [3]) is POS_INF
    val = evaluate(g, [Q(1, 2)])
    assert isinstance(val, NegSqrt) and val.radicand == Q(3, 4)
    assert val < 0 and val > Q(-1)


def test_neg_sqrt_parabola_boundary_subdifferential_is_empty():
    g = NegSqrtParabola1D(Q(1))
    for point in ([0], [2]):
        points, rays = subdiff_set(g, point)
        assert points == ()
    with pytest.raises(ModelError):
        subdiff_set(g, [-1])


def test_neg_sqrt_parabola_boundary_directional_derivatives():
    g = NegSqrtParabola1D(Q(1))
    assert dir_derivative(g, [0], [1]) is NEG_INF
    assert dir_derivative(g, [0], [-1]) is POS_INF
    assert dir_derivative(g, [0], [0]) == Q(0)
    assert dir_derivative(g, [2], [-1]) is NEG_INF
    assert dir_derivative(g, [2], [1]) is POS_INF


def test_neg_sqrt_parabola_interior_slopes():
    g = NegSqrtParabola1D(Q(1))
    # (x - t)^2 / (x (2t - x)) = 16/9 at x = 1/5, so the slope is -4/3
    sd = subdiff(g, [Q(1, 5)])
    assert sd == ((Q(-4, 3),),)
    assert dir_derivative(g, [Q(1, 5)], [1]) == Q(-4, 3)
    # mirrored point: slope +4/3
    assert subdiff(g, [Q(9, 5)]) == ((Q(4, 3),),)
    with pytest.raises(UnsupportedOperationError):
        subdiff(g, [Q(1, 2)])  # slope -1/sqrt(3) is irrational


def test_neg_sqrt_parabola_subgradient_inequality_exact():
    g = NegSqrtParabola1D(Q(1))
    x, slope = Q(1, 5), Q(-4, 3)
    fx = evaluate(g, [x])
    for y in (Q(0), Q(1, 10), Q(1, 2), Q(1), Q(3, 2), Q(2)):
        fy = evaluate(g, [y])
        assert fy >= fx + slope * (y - x)


def test_domain_indicator_changes_the_calculus():
    # f = 0 restricted to the nonpositive orthant: at the origin the
    # subdifferential is the normal cone spanned by the axes.
    dom = HPoly(2, [((Q(1), Q(0)), Q(0)), ((Q(0), Q(1)), Q(0))])
    f = Affine([0, 0], Q(0), domain=dom)
    assert evaluate(f, [1, 1]) is POS_INF
    points, rays = subdiff_set(f, [0, 0])
    assert points == ((Q(0), Q(0)),)
    assert set(rays) == {(Q(1), Q(0)), (Q(0), Q(1))}
    with pytest.raises(UnsupportedOperationError):
        subdiff(f, [0, 0])
    assert dir_derivative(f, [0, 0], [1, 0]) is POS_INF
    assert dir_derivative(f, [0, 0], [-1, -2]) == Q(0)
    # interior of the domain: plain calculus again
    assert subdiff(f, [-1, -1]) == ((Q(0), Q(0)),)


rational = st.fractions(min_value=-4, max_value=4, max_denominator=6)
vec2 = st.lists(rational, min_size=2, max_size=2)


@st.composite
def max_affines(draw):
    k = draw(st.integers(min_value=1, max_value=4))
    pieces = [
        (draw(vec2), Q(draw(rational))) for _ in range(k)
    ]
    return MaxAffine([([Q(c) for c in a], b) for a, b in pieces])


@settings(max_examples=80, deadline=None)
@given(f=max_affines(), x=vec2, y=vec2)
def test_subgradient_inequality_exact(f, x, y):
    x = [Q(c) for c in x]
    y = [Q(c) for c in y]
    fx, fy = evaluate(f, x), evaluate(f, y)
    step = [b - a for a, b in zip(x, y)]
    for g in subdiff(f, x):
        assert fy >= fx + qdot(g, step)


@settings(max_examples=80, deadline=None)
@given(f=max_affines(), x=vec2, d=vec2)
def test_max_formula_for_directional_derivative(f, x, d):
    x = [Q(c) for c in x]
    d = [Q(c) for c in d]
    want = max(qdot(g, d) for g in subdiff(f, x))
    assert dir_derivative(f, x, d) == want


@settings(max_examples=60, deadline=None)
@given(f=max_affines(), x=vec2)
def test_float_path_tracks_exact_path(f, x):
    x = [Q(c) for c in x]
    assert float_at(f, x) == pytest.approx(float(evaluate(f, x)), abs=1e-9)


def test_one_piecewise_rule_for_every_piecewise_kind():
    # value = largest piece, subgradients = active pieces, on the exact and
    # the float path alike
    dom = HPoly(2, [((Q(1), Q(1)), Q(1))])
    cases = [
        (Affine([2, -1], Q(3)), [1, 1], [(Q(2), Q(-1))]),
        (Affine([2, -1], Q(3), domain=dom), [0, 0], [(Q(2), Q(-1))]),
        (MaxAffine([([1, 0], Q(0)), ([0, 1], Q(0)), ([-1, -1], Q(-1))]), [1, 1],
         [(Q(1), Q(0)), (Q(0), Q(1))]),
        (SupportPolygon([[2, 1], [-1, 3], [2, 1]]), [1, 0], [(Q(2), Q(1)), (Q(2), Q(1))]),
    ]
    for f, x, active in cases:
        assert active_pieces(f, x) == active
        assert evaluate(f, x) == max(qdot(a, x) + b for a, b in affine_pieces(f))
        assert float_at(f, x) == float(evaluate(f, x))
        assert dir_derivative(f, x, [1, -2]) == max(qdot(a, [1, -2]) for a in active)
    assert affine_pieces(NegSqrtParabola1D(Q(1))) is None
    assert active_pieces(NegSqrtParabola1D(Q(1)), [1]) is None
    assert float_at(cases[1][0], [1, 1]) == float("inf")


def test_neg_sqrt_parabola_float_convexity_spot_check():
    g = NegSqrtParabola1D(Q(2))
    xs = [0.1 + 0.15 * k for k in range(25) if 0.1 + 0.15 * k < 4.0]
    for a in xs:
        for b in xs:
            mid = float_at(g, [(a + b) / 2])
            assert mid <= (float_at(g, [a]) + float_at(g, [b])) / 2 + 1e-9


def test_parabola_family_is_pointwise_monotone_in_t():
    # deeper arcs for larger t on the shared domain
    g1, g2 = NegSqrtParabola1D(Q(1)), NegSqrtParabola1D(Q(3, 2))
    for x in (Q(1, 5), Q(1, 2), Q(1), Q(3, 2)):
        assert evaluate(g2, [x]) <= evaluate(g1, [x])


def test_serialization_round_trip():
    dom = HPoly(1, [((Q(1),), Q(0))])
    funcs = [
        Affine([2, -1], Q(3, 2)),
        Affine([1], Q(0), domain=dom),
        MaxAffine([([1, 0], Q(0)), ([0, 1], Q(-1, 3))]),
        SupportPolygon([[1, 2], [-1, 0]]),
        NegSqrtParabola1D(Q(5, 4)),
    ]
    for f in funcs:
        assert func_from_json(func_to_json(f)) == f


@pytest.mark.parametrize(
    "doc",
    [
        {"kind": "mystery"},
        {"kind": "scaled_norm_inf", "center": [[1, 1], [-1, 1]], "weight": [3, 2]},
        {"kind": "scaled_2norm", "center": [[0, 1], [1, 1]], "weight": [2, 1]},
    ],
    ids=["mystery", "scaled_norm_inf", "scaled_2norm"],
)
def test_unknown_kind_rejected(doc):
    with pytest.raises(ModelError, match="unknown function kind"):
        func_from_json(doc)


def test_as_q_returns_a_q_unchanged_and_still_refuses_floats():
    q = Q(-7, 3)
    assert as_q(q) is q
    assert as_q(3) == Q(3) and type(as_q(3)) is Q
    assert as_q([6, -4]) == Q(-3, 2)
    with pytest.raises(TypeError):
        as_q(0.5)
    with pytest.raises(TypeError):
        as_q([1.0, 2])
    with pytest.raises(TypeError):
        as_q([1, 2.0])
    with pytest.raises(ParseError):
        as_q([1, 0])


def _fraction_fold_dot(a, b):
    return sum((Fraction(x) * Fraction(y) for x, y in zip(a, b)), Fraction(0))


def _fraction_fold_lincomb(coeffs, vectors, n):
    return tuple(
        sum((Fraction(c) * Fraction(v[k]) for c, v in zip(coeffs, vectors)), Fraction(0))
        for k in range(n)
    )


def _random_entry(rng: random.Random, kind: str):
    """An int, a Q, or either; denominators up to 10**9 + 7 and numerators
    up to 10**12."""
    if kind == "mixed":
        kind = rng.choice(["int", "q"])
    num = rng.choice([rng.randint(-5, 5), rng.randint(-10**12, 10**12)])
    if kind == "int":
        return num
    return Q(num, rng.choice([1, 2, 3, 7, 10**9 + 7, 10**18 + 9]))


@pytest.mark.parametrize("kind", ["int", "q", "mixed"])
def test_qdot_and_lincomb_match_the_fraction_fold(kind):
    # one integer dot product (or combination) over common denominators gives
    # the value of the Fraction fold, as a Q
    rng = random.Random(f"qdot:{kind}")
    for _ in range(200):
        n = rng.randint(0, 6)
        a = [_random_entry(rng, kind) for _ in range(n)]
        b = [_random_entry(rng, kind) for _ in range(n)]
        value = qdot(a, b)
        assert type(value) is Q and value == _fraction_fold_dot(a, b)
        terms = rng.randint(0, 4)
        coeffs = [_random_entry(rng, kind) for _ in range(terms)]
        vectors = [tuple(_random_entry(rng, kind) for _ in range(n)) for _ in range(terms)]
        combo = lincomb(coeffs, vectors, n)
        assert type(combo) is tuple and len(combo) == n
        assert all(type(c) is Q for c in combo)
        assert combo == _fraction_fold_lincomb(coeffs, vectors, n)


def test_qdot_and_lincomb_edge_cases():
    assert qdot([], []) == 0 and type(qdot([], [])) is Q
    assert lincomb([], [], 3) == (0, 0, 0) and all(type(c) is Q for c in lincomb([], [], 3))
    big = Q(1, 10**40 + 1)
    assert qdot([big, Q(1, 3)], [big, 3]) == big * big + 1
    assert lincomb([big, -big], [(1, Q(1, 10**30)), (1, 0)], 2) == (0, big / 10**30)
    with pytest.raises(ValueError, match="dot of length"):
        qdot([1, 2], [1])
    with pytest.raises(ValueError, match="dot of length"):
        qdot([], [Q(1)])


def test_as_q_refuses_an_exponent_beyond_the_int_digit_limit():
    # the bound Python puts on the digits of an int literal (4300 by default),
    # which str() of an int, and so the output, keeps as well
    limit = sys.int_info.default_max_str_digits
    assert as_q("1e-3") == Q(1, 1000)
    assert as_q(f"-9.5e{limit - 1}") == Q(-95 * 10 ** (limit - 2))
    assert as_q(f"1e-{limit - 1}") == Q(1, 10 ** (limit - 1))
    for text in (f"1e{limit}", f"-1e{limit}", f"1e-{limit}", f"12e{limit - 1}",
                 f"1e{limit + 1}", f"2.5E-{limit + 1}", "1e99999999", "1e" + "9" * 10000):
        with pytest.raises(ParseError):
            as_q(text)
