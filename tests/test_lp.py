"""Exact simplex: frozen cases, certificate verification, brute-force agreement."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers_lp import brute_force_max, random_lp, satisfies
from mosipcert.lp import (
    EQ,
    GE,
    LE,
    Infeasible,
    LinearProgram,
    Optimal,
    Unbounded,
    feasible_point,
    solve,
    verify_farkas,
)
from mosipcert.rationals import Q, qdot

N_RANDOM_LPS = 250
SEED = 20240517


def test_single_bound() -> None:
    res = solve(LinearProgram(1, [1], [([1], LE, 1)]))
    assert isinstance(res, Optimal)
    assert res.value == 1 and res.primal == [1]


def test_failed_certificate_check_is_an_internal_inconsistency(monkeypatch) -> None:
    # the substitution checks raise an exception that `python -O` keeps
    from mosipcert import lp
    from mosipcert.errors import InternalInconsistencyError

    monkeypatch.setattr(lp, "point_satisfies", lambda rows, point: False)
    with pytest.raises(InternalInconsistencyError):
        solve(LinearProgram(1, [1], [([1], LE, 1)]))
    monkeypatch.setattr(lp, "verify_farkas", lambda rows, farkas: False)
    with pytest.raises(InternalInconsistencyError):
        solve(LinearProgram(1, [1], [([1], LE, 0), ([1], GE, 1)]))


def test_contradictory_bounds_farkas() -> None:
    rows = [([1], LE, 0), ([1], GE, 1)]
    res = solve(LinearProgram(1, [1], rows))
    assert isinstance(res, Infeasible)
    assert res.farkas == [1, 1]
    assert verify_farkas(rows, res.farkas)


def test_box_corner_with_duals() -> None:
    rows = [([1, 0], LE, 1), ([0, 1], LE, 1), ([1, 0], GE, 0), ([0, 1], GE, 0)]
    res = solve(LinearProgram(2, [1, 1], rows))
    assert isinstance(res, Optimal)
    assert res.value == 2 and res.primal == [1, 1]
    assert res.dual == [1, 1, 0, 0]


def test_unbounded_gives_ray() -> None:
    res = solve(LinearProgram(2, [1, 0], [([0, 1], EQ, 0)]))
    assert isinstance(res, Unbounded)
    assert res.ray[0] > 0 and res.ray[1] == 0


def test_per_variable_bounds() -> None:
    lp = LinearProgram(2, [2, 3], [], lower=[Q(-2), Q(0)], upper=[Q(-1), Q(1)])
    res = solve(lp)
    assert isinstance(res, Optimal)
    assert res.value == 1 and res.primal == [-1, 1]


def test_inconsistent_bounds_rejected() -> None:
    with pytest.raises(ValueError):
        LinearProgram(1, [1], [], lower=[Q(1)], upper=[Q(0)])


def test_dimension_mismatch_rejected() -> None:
    with pytest.raises(ValueError):
        LinearProgram(2, [1], [])
    with pytest.raises(ValueError):
        LinearProgram(2, [1, 1], [([1], LE, 0)])


def test_feasible_point_boundary() -> None:
    assert feasible_point(1, [([1], GE, 0), ([1], LE, 0)]) == [0]


def test_feasible_point_infeasible() -> None:
    res = feasible_point(1, [([1], GE, 1), ([1], LE, 0)])
    assert isinstance(res, Infeasible)


def test_feasible_point_weak_kkt_style_system() -> None:
    # xi in [-2,-1], beta >= 0, xi + 2*beta = 0
    rows = [([1, 0], GE, -2), ([1, 0], LE, -1), ([0, 1], GE, 0), ([1, 2], EQ, 0)]
    point = feasible_point(2, rows)
    assert isinstance(point, list)
    assert satisfies(rows, point)
    assert point[0] + 2 * point[1] == 0


def test_degenerate_equalities() -> None:
    res = solve(LinearProgram(2, [0, 0], [([1, 1], EQ, 0), ([1, -1], EQ, 0)]))
    assert isinstance(res, Optimal)
    assert res.primal == [0, 0]


def test_redundant_equality_rows_dropped() -> None:
    rows = [([1, 1], EQ, 2), ([2, 2], EQ, 4), ([1, 0], GE, 0), ([0, 1], GE, 0)]
    res = solve(LinearProgram(2, [1, 0], rows))
    assert isinstance(res, Optimal)
    assert res.value == 2


def _verify_outcome(lp: LinearProgram, res) -> None:
    rows = lp.all_rows()
    if isinstance(res, Optimal):
        assert satisfies(rows, res.primal)
        assert qdot(lp.objective, res.primal) == res.value
        combo = [Q(0)] * lp.num_vars
        dual_value = Q(0)
        for lam, (coeffs, rel, b) in zip(res.dual, rows):
            if rel == GE:
                coeffs, b = [-c for c in coeffs], -b
            if rel != EQ:
                assert lam >= 0
            for j in range(lp.num_vars):
                combo[j] += lam * coeffs[j]
            dual_value += lam * b
        assert combo == lp.objective
        assert dual_value == res.value
    elif isinstance(res, Infeasible):
        assert verify_farkas(rows, res.farkas)
    else:
        assert satisfies(rows, res.feasible_point)
        assert qdot(lp.objective, res.ray) > 0
        for coeffs, rel, _ in rows:
            d = qdot(coeffs, res.ray)
            assert (rel == LE and d <= 0) or (rel == GE and d >= 0) or (rel == EQ and d == 0)


def test_brute_force_agreement_random_sweep() -> None:
    rng = random.Random(SEED)
    n_optimal = n_infeasible = 0
    for _ in range(N_RANDOM_LPS):
        lp = random_lp(rng)
        res = solve(lp)
        _verify_outcome(lp, res)
        assert not isinstance(res, Unbounded)  # the box forbids it
        best, _ = brute_force_max(lp.num_vars, lp.objective, lp.all_rows())
        if isinstance(res, Optimal):
            assert best == res.value
            n_optimal += 1
        else:
            assert best is None
            n_infeasible += 1
    # the sweep must exercise both outcomes to mean anything
    assert n_optimal >= 50 and n_infeasible >= 20


def test_wider_instances_agree() -> None:
    rng = random.Random(SEED + 1)
    for _ in range(40):
        lp = random_lp(rng, max_vars=4, max_rows=8)
        res = solve(lp)
        _verify_outcome(lp, res)
        best, _ = brute_force_max(lp.num_vars, lp.objective, lp.all_rows())
        if isinstance(res, Optimal):
            assert best == res.value
        else:
            assert best is None


@given(st.integers(-8, 8), st.integers(-8, 8), st.integers(1, 9))
@settings(max_examples=60, deadline=None)
def test_interval_lp_closed_form(c: int, lo: int, width: int) -> None:
    # max c*x over [lo, lo+width]: value sits at an endpoint
    hi = lo + width
    lp = LinearProgram(1, [c], [([1], GE, lo), ([1], LE, hi)])
    res = solve(lp)
    assert isinstance(res, Optimal)
    assert res.value == max(c * lo, c * hi)


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=25, deadline=None)
def test_determinism(seed: int) -> None:
    lp1 = random_lp(random.Random(seed))
    lp2 = random_lp(random.Random(seed))
    r1, r2 = solve(lp1), solve(lp2)
    assert type(r1) is type(r2)
    if isinstance(r1, Optimal):
        assert (r1.value, r1.primal, r1.dual) == (r2.value, r2.primal, r2.dual)
    elif isinstance(r1, Infeasible):
        assert r1.farkas == r2.farkas
