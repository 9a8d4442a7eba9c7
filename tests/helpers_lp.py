"""LP test oracles.

* Brute force: enumerate vertices as row-subset intersections.  Sound for
  bounded feasible regions (the random generator always includes a box, so
  every nonempty region is a polytope and the max sits at a vertex).
* Reference tableau: the rational two-phase simplex that `mosipcert.lp`
  replaced by its integer tableau; `reference_solve` runs it with a pivot count.
* `verify_farkas`: an infeasibility certificate checked by substitution in
  rational arithmetic, apart from the solver's own integer check.
"""

from __future__ import annotations

import random
from itertools import combinations
from typing import Optional

from mosipcert.errors import InternalInconsistencyError
from mosipcert.lp import EQ, GE, LE, Infeasible, LinearProgram, Optimal, Unbounded
from mosipcert.rationals import Q, ZERO, qdot


def solve_square(mat: list, rhs: list):
    """Exact Gaussian elimination; None when the matrix is singular."""
    n = len(mat)
    a = [list(row) + [rhs[i]] for i, row in enumerate(mat)]
    for col in range(n):
        piv = next((r for r in range(col, n) if a[r][col] != 0), -1)
        if piv < 0:
            return None
        a[col], a[piv] = a[piv], a[col]
        inv = 1 / a[col][col]
        a[col] = [v * inv for v in a[col]]
        for r in range(n):
            if r != col and a[r][col] != 0:
                f = a[r][col]
                a[r] = [v - f * w for v, w in zip(a[r], a[col])]
    return [a[i][n] for i in range(n)]


def satisfies(rows, x) -> bool:
    for coeffs, rel, b in rows:
        lhs = qdot(coeffs, x)
        if (rel == LE and lhs > b) or (rel == GE and lhs < b) or (rel == EQ and lhs != b):
            return False
    return True


def verify_farkas(rows, farkas) -> bool:
    """Rational substitution check of an infeasibility certificate: over the
    rows oriented as "<=", every inequality multiplier is nonnegative,
    sum lam_i a~_i = 0 and sum lam_i b~_i < 0."""
    if len(farkas) != len(rows):
        return False
    oriented = [_oriented(r) for r in rows]
    if any(rel != EQ and lam < 0 for lam, (_, rel, _) in zip(farkas, oriented)):
        return False
    n = len(rows[0][0]) if rows else 0
    total = [sum((lam * Q(a[j]) for lam, (a, _, _) in zip(farkas, oriented)), ZERO)
             for j in range(n)]
    rhs = sum((lam * Q(b) for lam, (_, _, b) in zip(farkas, oriented)), ZERO)
    return all(t == 0 for t in total) and rhs < 0


def brute_force_max(num_vars: int, objective, rows):
    """(best value, argmax vertex) over all feasible intersections of num_vars rows,
    or (None, None) when no feasible vertex exists."""
    best, arg = None, None
    for subset in combinations(range(len(rows)), num_vars):
        mat = [rows[i][0] for i in subset]
        rhs = [rows[i][2] for i in subset]
        x = solve_square(mat, rhs)
        if x is None or not satisfies(rows, x):
            continue
        val = qdot(objective, x)
        if best is None or val > best:
            best, arg = val, x
    return best, arg


def random_lp(rng: random.Random, max_vars: int = 3, max_rows: int = 5) -> LinearProgram:
    """A random LP over a box (always bounded), mixed relations, small integers."""
    n = rng.randint(1, max_vars)
    m = rng.randint(0, max_rows)
    box = rng.randint(1, 3)
    rows = []
    for _ in range(m):
        coeffs = [Q(rng.randint(-3, 3)) for _ in range(n)]
        if all(c == 0 for c in coeffs):
            coeffs[rng.randrange(n)] = Q(1)
        rel = rng.choice([LE, LE, GE, EQ])
        rows.append((coeffs, rel, Q(rng.randint(-4, 4))))
    for j in range(n):
        e = [ZERO] * n
        e[j] = Q(1)
        rows.append((list(e), LE, Q(box)))
        rows.append((list(e), GE, Q(-box)))
    objective = [Q(rng.randint(-4, 4)) for _ in range(n)]
    return LinearProgram(n, objective, rows)


def reference_solve(lp: LinearProgram):
    """(outcome, pivots) from the rational reference tableau, without the
    substitution checks."""
    tab = _CountingTableau(lp.num_vars, lp.objective, lp.all_rows())
    farkas = tab.phase1()
    outcome = Infeasible(farkas) if farkas is not None else tab.phase2()
    return outcome, tab.pivots


# The rational tableau that `mosipcert.lp` used before its integer rewrite,
# kept verbatim as the reference of the differential tests.
def _oriented(row):
    """The row as a "<=" (or "==") row: coeffs, rel, rhs with ">=" negated."""
    coeffs, rel, rhs = row
    if rel == GE:
        return [-c for c in coeffs], LE, -rhs
    return list(coeffs), rel, rhs


class _Tableau:
    """Equality-form tableau with an audit block recovering row multipliers."""

    def __init__(self, num_vars: int, objective, rows):
        self.objective = objective
        n = self.n = num_vars
        m = self.m = len(rows)

        oriented = [_oriented(r) for r in rows]

        # Equality form with slack columns for "<=" rows, then rhs-sign fix.
        # sigma[i] is the factor applied after slacks were added.
        self.slack_col = [-1] * m
        ncols = 2 * n  # u, v split of the free variables
        for i, (_, rel, _) in enumerate(oriented):
            if rel == LE:
                self.slack_col[i] = ncols
                ncols += 1
        self.sigma = [1] * m
        self.art_col = [-1] * m
        body_cols = ncols

        eq_rows = []
        for i, (coeffs, rel, rhs) in enumerate(oriented):
            row = [ZERO] * body_cols
            for j, c in enumerate(coeffs):
                row[j] = c
                row[n + j] = -c
            if self.slack_col[i] >= 0:
                row[self.slack_col[i]] = Q(1)
            if rhs < 0:
                self.sigma[i] = -1
                row = [-c for c in row]
                rhs = -rhs
            eq_rows.append((row, rhs))

        # Basic column per row: the slack if it survived the sign fix, else artificial.
        self.basis = [-1] * m
        for i in range(m):
            sc = self.slack_col[i]
            if sc >= 0 and self.sigma[i] == 1:
                self.basis[i] = sc
            else:
                self.art_col[i] = ncols
                self.basis[i] = ncols
                ncols += 1
        self.first_art = body_cols
        self.ncols = ncols

        # Row layout: [columns..., rhs, audit block (m entries)]
        self.rows = []
        for i, (row, rhs) in enumerate(eq_rows):
            full = row + [ZERO] * (ncols - body_cols) + [rhs] + [ZERO] * m
            if self.art_col[i] >= 0:
                full[self.art_col[i]] = Q(1)
            full[ncols + 1 + i] = Q(1)
            self.rows.append(full)
        self.rhs_idx = ncols

    def _price_out(self, obj):
        for i, col in enumerate(self.basis):
            f = obj[col]
            if f != 0:
                row = self.rows[i]
                for j in range(len(obj)):
                    if row[j] != 0:
                        obj[j] -= f * row[j]
        return obj

    def _pivot(self, obj, i, col):
        row = self.rows[i]
        inv = 1 / row[col]
        self.rows[i] = row = [c * inv for c in row]
        for k, other in enumerate(self.rows):
            if k != i and other[col] != 0:
                f = other[col]
                self.rows[k] = [a - f * b for a, b in zip(other, row)]
        f = obj[col]
        if f != 0:
            for j in range(len(obj)):
                if row[j] != 0:
                    obj[j] -= f * row[j]
        self.basis[i] = col

    def _iterate(self, obj, allowed_cols):
        """Bland's-rule loop.  Returns None at optimum, or the entering column
        of an unbounded improving direction."""
        while True:
            enter = -1
            for j in allowed_cols:
                if obj[j] > 0:
                    enter = j
                    break
            if enter < 0:
                return None
            leave, best, best_basic = -1, None, None
            for i, row in enumerate(self.rows):
                a = row[enter]
                if a > 0:
                    ratio = row[self.rhs_idx] / a
                    if best is None or ratio < best or (ratio == best and self.basis[i] < best_basic):
                        leave, best, best_basic = i, ratio, self.basis[i]
            if leave < 0:
                return enter
            self._pivot(obj, leave, enter)

    def _audit_multipliers(self, obj):
        """Oriented-row multipliers lam_i = y_i * sigma_i with y from the audit block."""
        return [-obj[self.rhs_idx + 1 + i] * self.sigma[i] for i in range(self.m)]

    def phase1(self) -> Optional[list]:
        if all(c < 0 for c in self.art_col):
            return None
        obj = [ZERO] * (self.ncols + 1 + self.m)
        for c in self.art_col:
            if c >= 0:
                obj[c] = Q(-1)
        self._price_out(obj)
        enter = self._iterate(obj, range(self.ncols))
        if enter is not None:  # pragma: no cover - phase 1 is bounded above by 0
            raise InternalInconsistencyError("phase 1 cannot be unbounded")
        if obj[self.rhs_idx] != 0:
            # Optimal phase-1 value y'b is negative; the audit multipliers,
            # re-signed for the oriented rows, are the Farkas vector.
            return self._audit_multipliers(obj)
        # Drive degenerate artificials out of the basis; drop dependent rows.
        drop = []
        for i in range(len(self.rows)):
            if self.basis[i] >= self.first_art:
                row = self.rows[i]
                piv = next((j for j in range(self.first_art) if row[j] != 0), -1)
                if piv >= 0:
                    self._pivot(obj, i, piv)
                else:
                    drop.append(i)
        for i in reversed(drop):
            del self.rows[i]
            del self.basis[i]
        return None

    def phase2(self):
        n = self.n
        obj = [ZERO] * (self.ncols + 1 + self.m)
        for j, c in enumerate(self.objective):
            obj[j] = c
            obj[n + j] = -c
        self._price_out(obj)
        enter = self._iterate(obj, range(self.first_art))  # artificials stay out
        if enter is not None:
            ray_z = {enter: Q(1)}
            for i, row in enumerate(self.rows):
                if row[enter] != 0:
                    ray_z[self.basis[i]] = -row[enter]
            ray = [ray_z.get(j, ZERO) - ray_z.get(n + j, ZERO) for j in range(n)]
            return Unbounded(ray=ray, feasible_point=self._primal())
        # The priced-out objective row holds c - y'A with rhs entry -y'b, and
        # the optimal value is y'b.
        return Optimal(value=-obj[self.rhs_idx], primal=self._primal(), dual=self._audit_multipliers(obj))

    def _primal(self):
        n = self.n
        z = {col: self.rows[i][self.rhs_idx] for i, col in enumerate(self.basis)}
        return [z.get(j, ZERO) - z.get(n + j, ZERO) for j in range(n)]


class _CountingTableau(_Tableau):
    pivots = 0

    def _pivot(self, obj, i, col):
        self.pivots += 1
        super()._pivot(obj, i, col)
