"""Exact rational linear programming via two-phase tableau simplex.

Conventions
-----------
* Variables are free (unrestricted) unless bounds are given; internally each
  variable is split into a difference of two nonnegative variables and bounds
  become rows.
* Rows are (coeffs, rel, rhs) with rel in {"<=", ">=", "=="}; the objective is
  always maximized.
* Bland's rule (lowest eligible index enters, lowest basic index leaves), so
  the solver never cycles and is deterministic for a fixed input ordering.
* Multiplier convention (duals and Farkas): entry i multiplies row i *oriented
  as "<="* (">=" rows are negated first; "==" rows keep their sign and carry a
  free multiplier).  Inequality multipliers are nonnegative.  For Optimal:
  sum_i lam_i * a~_i = c exactly and sum_i lam_i * b~_i = value.  For
  Infeasible: sum lam_i a~_i = 0 and sum lam_i b~_i < 0 — a nonnegative
  combination of the constraints reading "0 <= negative".

Multipliers are read off an identity audit block carried on the tableau, then
re-verified by substitution before being returned.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

from .errors import InternalInconsistencyError
from .rationals import Q, ZERO, as_q, qdot

LE, GE, EQ = "<=", ">=", "=="
_RELS = (LE, GE, EQ)


def _oriented(row):
    """The row as a "<=" (or "==") row: coeffs, rel, rhs with ">=" negated."""
    coeffs, rel, rhs = row
    if rel == GE:
        return [-c for c in coeffs], LE, -rhs
    return list(coeffs), rel, rhs


@dataclass
class LinearProgram:
    num_vars: int
    objective: list  # maximize
    rows: list = field(default_factory=list)  # (coeffs, rel, rhs)
    lower: Optional[list] = None  # per-variable optional bounds
    upper: Optional[list] = None

    def __post_init__(self):
        self.objective = [as_q(c) for c in self.objective]
        if len(self.objective) != self.num_vars:
            raise ValueError("objective length mismatch")
        cleaned = []
        for coeffs, rel, rhs in self.rows:
            if rel not in _RELS:
                raise ValueError(f"unknown relation {rel!r}")
            if len(coeffs) != self.num_vars:
                raise ValueError("row length mismatch")
            cleaned.append(([as_q(c) for c in coeffs], rel, as_q(rhs)))
        self.rows = cleaned
        for name in ("lower", "upper"):
            bnds = getattr(self, name)
            if bnds is not None:
                if len(bnds) != self.num_vars:
                    raise ValueError(f"{name} bound length mismatch")
                setattr(self, name, [None if b is None else as_q(b) for b in bnds])
        if self.lower is not None and self.upper is not None:
            for lo, hi in zip(self.lower, self.upper):
                if lo is not None and hi is not None and lo > hi:
                    raise ValueError("inconsistent bounds: lower > upper")

    def all_rows(self) -> list:
        """Constraint rows plus bounds expanded to rows (in that order)."""
        rows = list(self.rows)
        n = self.num_vars
        for j in range(n):
            lo = self.lower[j] if self.lower is not None else None
            hi = self.upper[j] if self.upper is not None else None
            if lo is not None:
                rows.append(([ZERO] * j + [Q(1)] + [ZERO] * (n - j - 1), GE, lo))
            if hi is not None:
                rows.append(([ZERO] * j + [Q(1)] + [ZERO] * (n - j - 1), LE, hi))
        return rows


@dataclass
class Optimal:
    value: Q
    primal: list
    dual: list


@dataclass
class Infeasible:
    farkas: list


@dataclass
class Unbounded:
    ray: list
    feasible_point: list


LpOutcome = object  # Optimal | Infeasible | Unbounded


def solve(lp: LinearProgram) -> LpOutcome:
    rows = lp.all_rows()
    tab = _Tableau(lp.num_vars, lp.objective, rows)
    farkas = tab.phase1()
    if farkas is not None:
        if not verify_farkas(rows, farkas):
            raise InternalInconsistencyError("Farkas certificate failed substitution")
        return Infeasible(farkas)
    res = tab.phase2()
    if isinstance(res, Unbounded):
        _check_ray(lp.objective, rows, res)
    else:
        _check_optimal(lp.objective, rows, res)
    return res


def feasible_point(num_vars: int, rows: Sequence):
    """A point satisfying the rows exactly (list), or Infeasible with a Farkas vector."""
    res = solve(LinearProgram(num_vars, [ZERO] * num_vars, list(rows)))
    if isinstance(res, Infeasible):
        return res
    return res.primal if isinstance(res, Optimal) else res.feasible_point


def verify_farkas(rows: Sequence, farkas: Sequence) -> bool:
    """Substitution check: nonnegative on inequalities, sum lam*a~ = 0, sum lam*b~ < 0."""
    if len(farkas) != len(rows):
        return False
    n = len(rows[0][0]) if rows else 0
    combo = [ZERO] * n
    rhs = ZERO
    for lam, row in zip(farkas, rows):
        coeffs, rel, b = _oriented(row)
        if rel == LE and lam < 0:
            return False
        for j in range(n):
            combo[j] += lam * coeffs[j]
        rhs += lam * b
    return all(c == 0 for c in combo) and rhs < 0


def point_satisfies(rows: Sequence, point: Sequence) -> bool:
    for coeffs, rel, b in rows:
        lhs = qdot(coeffs, point)
        if rel == LE and lhs > b:
            return False
        if rel == GE and lhs < b:
            return False
        if rel == EQ and lhs != b:
            return False
    return True


def _check_ray(objective, rows, res: Unbounded):
    ok = point_satisfies(rows, res.feasible_point)
    if ok:
        for coeffs, rel, _ in rows:
            d = qdot(coeffs, res.ray)
            ok &= (rel == LE and d <= 0) or (rel == GE and d >= 0) or (rel == EQ and d == 0)
        ok &= qdot(objective, res.ray) > 0
    if not ok:
        raise InternalInconsistencyError("unboundedness ray failed substitution")


def _check_optimal(objective, rows, res: Optimal):
    ok = point_satisfies(rows, res.primal)
    ok &= qdot(objective, res.primal) == res.value
    # Dual feasibility (equality rows because variables are free) and strong duality.
    n = len(objective)
    combo = [ZERO] * n
    dual_rhs = ZERO
    for lam, row in zip(res.dual, rows):
        coeffs, rel, b = _oriented(row)
        if rel == LE and lam < 0:
            ok = False
        for j in range(n):
            combo[j] += lam * coeffs[j]
        dual_rhs += lam * b
    ok &= combo == objective and dual_rhs == res.value
    if not ok:
        raise InternalInconsistencyError("optimality certificates failed substitution")


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
