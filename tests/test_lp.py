"""Exact simplex: frozen cases, certificate verification, brute-force agreement,
agreement with the rational reference tableau, rejection of corrupted results."""

from __future__ import annotations

import dataclasses
import math
import os
import random
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers_lp import brute_force_max, random_lp, reference_solve, satisfies, verify_farkas
from mosipcert import cli, lp
from mosipcert.errors import InternalInconsistencyError
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
)
from mosipcert.rationals import Q, ZERO, qdot

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

    # solve checks its integer rows, converted once, through these two names
    calls = []
    monkeypatch.setattr(lp, "_satisfies", lambda rows, xs, d: calls.append("point") or False)
    with pytest.raises(InternalInconsistencyError):
        solve(LinearProgram(1, [1], [([1], LE, 1)]))
    with pytest.raises(InternalInconsistencyError):  # a zero objective ends after phase 1
        solve(LinearProgram(1, [0], [([1], LE, 1)]))
    monkeypatch.setattr(lp, "_farkas_holds", lambda rows, farkas: calls.append("farkas") or False)
    with pytest.raises(InternalInconsistencyError):
        solve(LinearProgram(1, [1], [([1], LE, 0), ([1], GE, 1)]))
    assert calls == ["point", "point", "farkas"]


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


# ---------------------------------------------------------------------------
# differential: the integer tableau against the rational reference tableau

AWKWARD = [Q(1, 7), Q(10**12, 3), Q(-5, 11), Q(-22, 7), Q(3, 10**9 + 7), Q(2)]


def _equality_heavy(rng: random.Random) -> LinearProgram:
    """Equality rows, some repeated as multiples (dependent rows that phase 1
    drops), a zero rhs now and then (degenerate), a few sign bounds."""
    n = rng.randint(2, 4)
    rows = []
    for _ in range(rng.randint(1, 3)):
        coeffs = [Q(rng.randint(-2, 2)) for _ in range(n)]
        rhs = Q(rng.randint(-2, 2)) if rng.random() < 0.5 else ZERO
        rows.append((coeffs, EQ, rhs))
        if rng.random() < 0.6:
            f = Q(rng.choice([-3, -1, 2]), rng.choice([1, 2]))
            rows.append(([f * c for c in coeffs], EQ, f * rhs))
    for j in range(n):
        if rng.random() < 0.6:
            rows.append(([Q(int(i == j)) for i in range(n)], GE, ZERO))
    objective = [Q(rng.randint(-2, 2)) for _ in range(n)]
    return LinearProgram(n, objective, rows)


def _unboxed(rng: random.Random) -> LinearProgram:
    """Mixed rows without a box: often unbounded, sometimes infeasible."""
    n = rng.randint(1, 3)
    rows = []
    for _ in range(rng.randint(0, 4)):
        coeffs = [Q(rng.randint(-3, 3)) for _ in range(n)]
        rows.append((coeffs, rng.choice([LE, GE, EQ]), Q(rng.randint(-3, 3))))
    objective = [Q(rng.randint(-3, 3)) for _ in range(n)]
    return LinearProgram(n, objective, rows)


def _contradictory(rng: random.Random) -> LinearProgram:
    """A random LP plus a pair of rows that no point satisfies."""
    base = random_lp(rng)
    n = base.num_vars
    a = [Q(rng.randint(-3, 3)) for _ in range(n)]
    a[rng.randrange(n)] = Q(rng.choice([-2, 1, 3]))
    b = Q(rng.randint(-3, 3))
    rows = base.rows + [(a, GE, b + Q(1, rng.randint(1, 5))), (a, LE, b)]
    return LinearProgram(n, base.objective, rows)


def _awkward(rng: random.Random) -> LinearProgram:
    """Denominators 7, 11, 3 and 10**9 + 7 with numerators up to 10**12."""
    n = rng.randint(1, 3)
    rows = []
    for _ in range(rng.randint(1, 5)):
        coeffs = [rng.choice(AWKWARD) * rng.randint(-2, 2) for _ in range(n)]
        rows.append((coeffs, rng.choice([LE, LE, GE, EQ]), rng.choice(AWKWARD) * rng.randint(-2, 2)))
    box = rng.choice(AWKWARD[:2])
    lower = [-box] * n if rng.random() < 0.8 else None
    objective = [rng.choice(AWKWARD) * rng.randint(-2, 2) for _ in range(n)]
    return LinearProgram(n, objective, rows, lower=lower, upper=[box] * n)


def _decomposition(rng: random.Random) -> LinearProgram:
    """The rows `cones.decompose` builds, objective 0: one equality per
    coordinate writing the target over the columns, hull columns first; the
    simplex row over the hull columns when there are any; x_j >= 0 for every
    column."""
    dim, num_hull, num_cone = rng.randint(1, 3), rng.randint(0, 3), rng.randint(0, 2)
    k = max(num_hull + num_cone, 1)
    columns = [[Q(rng.randint(-2, 2)) for _ in range(dim)] for _ in range(k)]
    target = [Q(rng.randint(-2, 2), rng.choice([1, 1, 2, 3])) for _ in range(dim)]
    rows = [([c[i] for c in columns], EQ, target[i]) for i in range(dim)]
    if num_hull:
        rows.append(([Q(int(j < num_hull)) for j in range(k)], EQ, Q(1)))
    rows.extend(([Q(int(i == j)) for i in range(k)], GE, ZERO) for j in range(k))
    return LinearProgram(k, [ZERO] * k, rows)


OPTIMAL_OR_NOT = {"Optimal", "Infeasible"}
ALL_OUTCOMES = {"Optimal", "Infeasible", "Unbounded"}
FAMILIES = {  # generator, the outcome kinds its sweep must produce
    "random": (random_lp, OPTIMAL_OR_NOT),
    "wide": (lambda rng: random_lp(rng, max_vars=4, max_rows=8), OPTIMAL_OR_NOT),
    "equality_heavy": (_equality_heavy, ALL_OUTCOMES),
    "unboxed": (_unboxed, ALL_OUTCOMES),
    "contradictory": (_contradictory, {"Infeasible"}),
    "awkward": (_awkward, ALL_OUTCOMES),
    "decomposition": (_decomposition, OPTIMAL_OR_NOT),
}


def _count_pivots(monkeypatch) -> list:
    pivots = []
    real_pivot = lp._Tableau._pivot

    def counted_pivot(self, *args):
        pivots.append(1)
        return real_pivot(self, *args)

    monkeypatch.setattr(lp._Tableau, "_pivot", counted_pivot)
    return pivots


@pytest.mark.parametrize(
    "argv",
    [
        [
            ["report", "alternating-affine", "--point", "0", "--verify"],
            ["gap", "alternating-affine", "--point", "0", "--nu", "2"],
            ["certify", "alternating-affine", "--point", "0", "--verify"],
            ["quals", "alternating-affine", "--point", "0"],
            ["report", "alternating-affine", "--point", "-1", "--verify"],
        ],
        [
            ["quals", "octagon-support", "--point", "0,0"],
            ["gap", "octagon-support", "--point", "0,0", "--nu", "2"],
        ],
    ],
)
def test_call_site_lps_match_rational_reference(argv, monkeypatch, capsys) -> None:
    # every LP the library builds on real runs, not only generated families;
    # compared as solved, since callers may consume the result lists.  Each
    # case joins fixture calls until they build 20 LPs at least, since the
    # decompositions the elimination settles build none
    pivots, mismatches, solves = _count_pivots(monkeypatch), [], []
    real_solve = lp.solve

    def capturing(prog):
        pivots.clear()
        res = real_solve(prog)
        ref, ref_pivots = reference_solve(prog)
        solves.append(1)
        if type(res) is not type(ref) or res != ref or len(pivots) != ref_pivots:
            mismatches.append((prog, res, ref))
        return res

    monkeypatch.setattr(lp, "solve", capturing)
    for args in argv:
        assert cli.main([*args, "--format", "json"]) == 0
    capsys.readouterr()
    assert len(solves) >= 20
    assert mismatches == []


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_integer_tableau_matches_rational_reference(family, monkeypatch) -> None:
    pivots, dropped = [], []
    real_pivot, real_phase1 = lp._Tableau._pivot, lp._Tableau.phase1

    def counted_pivot(self, *args):
        pivots.append(1)
        return real_pivot(self, *args)

    def phase1(self):
        out = real_phase1(self)
        dropped.append(len(self.rows) < self.m)
        return out

    monkeypatch.setattr(lp._Tableau, "_pivot", counted_pivot)
    monkeypatch.setattr(lp._Tableau, "phase1", phase1)
    generate, expected = FAMILIES[family]
    rng = random.Random(f"{SEED}:{family}")
    kinds = set()
    for _ in range(120):
        prog = generate(rng)
        pivots.clear()
        res = solve(prog)
        ref, ref_pivots = reference_solve(prog)
        assert type(res) is type(ref) and res == ref
        assert len(pivots) == ref_pivots
        for f in dataclasses.fields(res):
            value = getattr(res, f.name)
            assert all(type(v) is Q for v in (value if isinstance(value, list) else [value]))
        kinds.add(type(res).__name__)
    assert kinds == expected
    if family == "equality_heavy":
        assert any(dropped)  # dependent equality rows went through the row drop


def test_eliminate_matches_the_rational_update() -> None:
    # row / den - (row[col] / den) / (prow[col] / pden) * prow / pden, with
    # the pivot entry prow[col] = +-pden; a == 1 when pden divides row[col]
    rng = random.Random(f"{SEED}:eliminate")
    branches = Counter()
    for _ in range(400):
        width = rng.randint(2, 7)
        col = rng.randrange(width)
        pden = rng.choice([1, 2, 3, 6, 7, 12, 10**9 + 7])
        sign = rng.choice([1, -1])
        prow = [rng.randint(-9, 9) if rng.random() < 0.5 else 0 for _ in range(width)]
        prow[col] = sign * pden
        den = rng.randint(1, 30)
        row = [rng.randint(-50, 50) for _ in range(width)]
        if rng.random() < 0.5:
            row[col] = pden * rng.randint(-3, 3)
        before = list(row)
        nonzero = [j for j, y in enumerate(prow) if y]
        out, d = lp._eliminate(row, den, col, prow, pden, nonzero)
        f = Q(row[col], den) / Q(prow[col], pden)
        assert [Q(x, d) for x in out] == [Q(x, den) - f * Q(y, pden) for x, y in zip(row, prow)]
        assert d > 0 and math.gcd(d, *out) == 1  # reduced over a positive denominator
        assert out[col] == 0 and row == before
        branches[(row[col] % pden == 0, sign)] += 1
    assert set(branches) == {(a_is_1, s) for a_is_1 in (True, False) for s in (1, -1)}


@pytest.mark.parametrize("rhs", [Q(-3, 4), Q(5, 3)], ids=["negative", "nonnegative"])
@pytest.mark.parametrize("rel", [LE, GE, EQ])
def test_each_row_case_matches_the_rational_reference(rel, rhs, monkeypatch) -> None:
    # the tableau tells six row cases apart: the relation, and the sign of
    # the rhs oriented as "<=", which decides sigma and whether the row
    # starts on its slack or on an artificial; the objective makes the row
    # bind, so its multiplier is nonzero
    objective = [-1, 1] if rel == GE else [1, -1]
    prog = LinearProgram(2, objective, [([Q(1, 2), -2], rel, rhs)], lower=[-4, -4], upper=[4, 4])
    tab = lp._Tableau(2, lp.scaled_ints(prog.objective), lp._int_rows(prog.all_rows()))
    oriented = -rhs if rel == GE else rhs
    assert tab.sigma[0] == (-1 if oriented < 0 else 1)
    assert (tab.art_col[0] >= 0) == (rel == EQ or oriented < 0)
    pivots = _count_pivots(monkeypatch)
    res = solve(prog)
    ref, ref_pivots = reference_solve(prog)
    assert isinstance(res, Optimal) and res == ref and res.dual[0] != 0
    assert len(pivots) == ref_pivots


# ---------------------------------------------------------------------------
# the substitution checks reject a corrupted result


BOX = LinearProgram(2, [1, 1], [([1, 0], LE, 1), ([0, 1], LE, 1), ([1, 0], GE, 0), ([0, 1], GE, 0)])
CONTRADICTION = LinearProgram(1, [1], [([1], LE, 0), ([1], GE, 1)])
RAY = LinearProgram(2, [1, 0], [([0, 1], EQ, 0)])
SIMPLEX = LinearProgram(2, [0, 0], [([1, 1], EQ, 1), ([1, 0], GE, 0), ([0, 1], GE, 0)])


def _bump(result: tuple) -> tuple:
    """An integer result (ints, den) with its first entry raised by 1."""
    ints, den = result
    return [ints[0] + den, *ints[1:]], den


# The tableau hands each result to `solve` as integers over a denominator;
# solve checks them there, so each is corrupted there.
CORRUPTIONS = {
    "dual": (BOX, "phase2", lambda r: dataclasses.replace(r, dual=_bump(r.dual))),
    "primal": (BOX, "phase2", lambda r: dataclasses.replace(r, primal=_bump(r.primal))),
    "value": (BOX, "phase2", lambda r: dataclasses.replace(r, value=(sum(r.value), r.value[1]))),
    "farkas": (CONTRADICTION, "phase1", _bump),
    "ray": (RAY, "phase2", lambda r: dataclasses.replace(r, ray=([r.ray[0][0], 1], r.ray[1]))),
    "feasible_point": (RAY, "phase2", lambda r: dataclasses.replace(r, feasible_point=([0, 1], 1))),
    "zero_objective_primal": (SIMPLEX, "primal", _bump),
}


@pytest.mark.parametrize(
    "prog",
    [
        BOX,
        CONTRADICTION,
        RAY,
        LinearProgram(2, [2, 3], [([1, 1], EQ, 1)], lower=[Q(-2), Q(0)]),
        SIMPLEX,
    ],
)
def test_each_row_is_converted_to_integers_once(prog, monkeypatch) -> None:
    seen = []
    real = lp.scaled_ints

    def counted(values):
        seen.append(tuple(values))
        return real(values)

    monkeypatch.setattr(lp, "scaled_ints", counted)
    solve(prog)
    # each row and the objective, and nothing else: no result is re-scaled
    expected = Counter(tuple([*coeffs, b]) for coeffs, _, b in prog.all_rows())
    expected[tuple(prog.objective)] += 1
    assert Counter(seen) == expected


@pytest.mark.parametrize("corrupted", sorted(CORRUPTIONS))
def test_corrupted_result_is_an_internal_inconsistency(corrupted, monkeypatch) -> None:
    prog, phase, corrupt = CORRUPTIONS[corrupted]
    real = getattr(lp._Tableau, phase)
    monkeypatch.setattr(lp._Tableau, phase, lambda self: corrupt(real(self)))
    with pytest.raises(InternalInconsistencyError):
        solve(prog)


def test_corrupted_dual_is_caught_under_python_O() -> None:
    # the checks raise, so they survive `python -O`, which strips asserts
    code = """
import dataclasses
import math
from mosipcert import lp
from mosipcert.errors import InternalInconsistencyError
assert False, "asserts are live"  # stripped under -O
real = lp._Tableau.phase2
def corrupt(self):
    r = real(self)
    (first, *rest), den = r.dual
    return dataclasses.replace(r, dual=([first + den, *rest], den))
lp._Tableau.phase2 = corrupt
try:
    lp.solve(lp.LinearProgram(2, [1, 1], [([1, 0], "<=", 1), ([0, 1], "<=", 1)]))
except InternalInconsistencyError:
    print("rejected")
"""
    src = Path(lp.__file__).resolve().parents[1]
    out = subprocess.run(
        [sys.executable, "-O", "-c", code],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(src)},
        timeout=120,
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "rejected"
