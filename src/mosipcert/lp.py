"""Exact linear programming via a two-phase tableau simplex over integers.

Conventions
-----------
* Variables are free (unrestricted) unless bounds are given; internally each
  variable is split into a difference x_j = u_j - v_j of two nonnegative
  variables and bounds become rows.  The tableau stores one column per free
  variable, u_j's: v_j's column is minus u_j's in every row and in the
  objective row, so it is implied.  Bland's rule reads the logical indices
  (u_j = j, v_j = n + j, then the slacks and artificials).
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

Arithmetic
----------
`solve` converts each LP row, coefficients and rhs, to integers once with
`rationals.scaled_ints`: the row times k, the lcm of its denominators.  The
tableau and every substitution check read those same integer rows.

The simplex loop computes with Python ints only.  Each tableau row, and the
objective row, is a list of integers over one positive row denominator: the
rational row is ints / den.  A row is built in one pass from its integer
row: the coefficients and the rhs times the orientation (-1 for ">=") and
the sign fix, the slack entry the sign fix times k, the artificial entry k,
so that ints / k is exactly the rational row.  An update subtracts a
multiple of the pivot row, whose pivot entry is its denominator pden (the
rational +-1); when pden divides the row's entry, the row keeps its
denominator and only the pivot row's nonzero positions, listed once per
pivot, change.  After every update the row is divided by the gcd of its
entries and its denominator.  Denominators are positive, so sign tests read
the ints and the ratio test cross-multiplies.  Each rational row equals the
one a rational tableau would hold, so the pivot sequence, and every result
read off the final basis, is the same.

Results leave the tableau as integers: the primal (and an unbounded LP's
feasible point and ray) as ints over one common denominator, the
multipliers and the Farkas vector as ints over the objective row's
denominator, the value as a numerator and a denominator.  `solve` checks
them there and only then builds one Q per returned entry.  When the
objective is zero, phase 2 would price out nothing and make no pivot, so
`solve` returns right after phase 1: the phase-1 point, value 0 and zero
multipliers, the point checked by substitution.

Multipliers are read off each row's initial basic column: its artificial if
it has one, else its slack.  After the sign fix that column is k e_i, the
rational unit vector e_i, and every pivot and price-out applies the same row
operations to it, so the objective row holds (the column's cost) - y_i
there.  A slack costs 0 in both phases and an artificial costs 0 in phase 2,
so the entry is -y_i; in phase 1 an artificial costs -1, so its entry is
lower by exactly obj_den.  The multipliers are re-verified by substitution
before being returned.  The substitution checks compare integers, with
every denominator cleared; they are exact.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from typing import Optional, Sequence

from .errors import InternalInconsistencyError
from .rationals import Q, ZERO, as_q, scaled_ints

LE, GE, EQ = "<=", ">=", "=="
_RELS = (LE, GE, EQ)


@dataclass
class LinearProgram:
    num_vars: int
    objective: list  # maximize
    rows: list = field(default_factory=list)  # (coeffs, rel, rhs)
    lower: Optional[list] = None  # per-variable optional bounds
    upper: Optional[list] = None

    def __post_init__(self):
        self.objective = _q_list(self.objective)
        if len(self.objective) != self.num_vars:
            raise ValueError("objective length mismatch")
        cleaned = []
        for coeffs, rel, rhs in self.rows:
            if rel not in _RELS:
                raise ValueError(f"unknown relation {rel!r}")
            if len(coeffs) != self.num_vars:
                raise ValueError("row length mismatch")
            cleaned.append((_q_list(coeffs), rel, rhs if type(rhs) is Q else as_q(rhs)))
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
    rows = _int_rows(lp.all_rows())
    objective = scaled_ints(lp.objective)
    tab = _Tableau(lp.num_vars, objective, rows)
    farkas = tab.phase1()
    if farkas is not None:
        if not _farkas_holds(rows, farkas):
            raise InternalInconsistencyError("Farkas certificate failed substitution")
        return Infeasible(_qs(*farkas))
    if not any(objective[0]):
        # Phase 2 would price out nothing and make no pivot: the phase-1
        # point is optimal with value 0 and zero multipliers.
        primal = tab.primal()
        if not _satisfies(rows, *primal):
            raise InternalInconsistencyError("feasible point failed substitution")
        return Optimal(ZERO, _qs(*primal), [ZERO] * len(rows))
    res = tab.phase2()
    if isinstance(res, Unbounded):
        _check_ray(objective, rows, res)
        return Unbounded(_qs(*res.ray), _qs(*res.feasible_point))
    _check_optimal(objective, rows, res)
    return Optimal(Q(*res.value), _qs(*res.primal), _qs(*res.dual))


def feasible_point(num_vars: int, rows: Sequence):
    """A point satisfying the rows exactly (list), or Infeasible with a Farkas
    vector.  The objective is zero, so the outcome is never Unbounded."""
    res = solve(LinearProgram(num_vars, [ZERO] * num_vars, list(rows)))
    return res if isinstance(res, Infeasible) else res.primal


def _q_list(values) -> list:
    """The values as a new list of Q; an entry that already is a Q is kept."""
    return [v if type(v) is Q else as_q(v) for v in values]


def _qs(ints, den) -> list:
    """The rationals ints / den, one Q each."""
    return [Q(v, den) if v else ZERO for v in ints]


def _int_rows(rows):
    """Each row (coeffs, rel, rhs) as (a, b, k, rel): coeffs and rhs times k,
    the lcm of the row's denominators, so that (a, b) / k is the row."""
    out = []
    for coeffs, rel, rhs in rows:
        (*a, b), k = scaled_ints([*coeffs, rhs])
        out.append((a, b, k, rel))
    return out


def _dot(a, b) -> int:
    if len(a) != len(b):
        raise ValueError(f"dot of length {len(a)} vs {len(b)}")
    return sum(map(operator.mul, a, b))


def _satisfies(rows, xs, d) -> bool:
    """The integer rows hold at the point xs / d (d > 0)."""
    if d <= 0:
        return False
    for a, b, _, rel in rows:
        # a.x <= b  iff  (k a).(d x) <= (k b) d for k, d > 0, and d x = xs
        lhs, rhs = _dot(a, xs), b * d
        if rel == LE and lhs > rhs:
            return False
        if rel == GE and lhs < rhs:
            return False
        if rel == EQ and lhs != rhs:
            return False
    return True


def _farkas_holds(rows, farkas) -> bool:
    combo = _combination(rows, farkas, len(rows[0][0]) if rows else 0)
    if combo is None:
        return False
    total, rhs, _ = combo
    return all(c == 0 for c in total) and rhs < 0


def _combination(rows, lams, n):
    """(total, rhs, e) with sum_i lam_i * (a~_i, b~_i) = (total, rhs) / e over
    the oriented integer rows, for the multipliers lam_i = ys_i / den given
    as lams = (ys, den), or None when their number is not the number of rows,
    den is not positive or an inequality row has a negative multiplier.  Row
    i is its rational row times k_i, so its multiplier is ys_i / (den k_i); a
    ">=" row is oriented by negating it.  Zero multipliers are skipped."""
    ys, den = lams
    if len(ys) != len(rows) or den <= 0:
        return None
    parts = []
    for y, (a, b, k, rel) in zip(ys, rows):
        if y:
            if rel != EQ and y < 0:
                return None
            parts.append((a, b, -y if rel == GE else y, k))
    e = math.lcm(*[k for *_, k in parts])
    total, rhs = [0] * n, 0
    for a, b, y, k in parts:
        f = y * (e // k)
        total = [t + f * v for t, v in zip(total, a, strict=True)]
        rhs += f * b
    return total, rhs, e * den


def _check_ray(objective, rows, res: Unbounded):
    """The integer Unbounded result: the feasible point satisfies the rows,
    and the ray keeps every row and raises the objective."""
    ok = _satisfies(rows, *res.feasible_point)
    if ok:
        ray, d = res.ray  # ints, a positive multiple of the ray when d > 0
        ok &= d > 0
        for a, _, _, rel in rows:
            t = _dot(a, ray)
            ok &= (rel == LE and t <= 0) or (rel == GE and t >= 0) or (rel == EQ and t == 0)
        ok &= _dot(objective[0], ray) > 0
    if not ok:
        raise InternalInconsistencyError("unboundedness ray failed substitution")


def _check_optimal(objective, rows, res: Optimal):
    """The integer Optimal result: the primal satisfies the rows and attains
    the value, and the multipliers combine the rows into the objective and
    the value."""
    c, kc = objective
    xs, d = res.primal
    ok = _satisfies(rows, xs, d)
    vn, vd = res.value
    ok &= vd > 0 and _dot(c, xs) * vd == vn * kc * d
    # Dual feasibility (equality rows because variables are free) and strong duality.
    combo = _combination(rows, res.dual, len(c))
    if combo is None:
        ok = False
    else:
        lhs, rhs, e = combo
        ok &= all(a * kc == e * cj for a, cj in zip(lhs, c))
        ok &= rhs * vd == e * vn
    if not ok:
        raise InternalInconsistencyError("optimality certificates failed substitution")


def _eliminate(row, den, col, prow, pden, nonzero):
    """row - (row[col] / prow[col]) * prow over a positive denominator, for a
    pivot row whose entry prow[col] is +-pden (the rational +-1): the sign is
    the pivot entry's, -1 when the pivot column is a free variable's v_j.
    `nonzero` lists the positions of prow's nonzero entries.  When pden
    divides row[col], the row keeps its denominator and only those
    positions change."""
    g = math.gcd(row[col], pden)
    a, b = pden // g, row[col] // g
    if prow[col] < 0:
        b = -b
    if a == 1:
        out = row.copy()
        for j in nonzero:
            out[j] -= b * prow[j]
        return _reduced(out, den)
    return _reduced([x * a - b * y for x, y in zip(row, prow)], den * a)


def _nonzero(ints) -> list:
    """The positions of the nonzero entries."""
    return [j for j, v in enumerate(ints) if v]


def _reduced(ints, den):
    g = math.gcd(den, *ints)
    if g == 1:
        return ints, den
    return [x // g for x in ints], den // g


class _Tableau:
    """Equality-form tableau built from the integer rows (a, b, k, rel) that
    `solve` converted once, and the objective as (ints, k).

    Columns have logical indices, which Bland's rule and the ratio test's
    tie-break read: u_j = j and v_j = n + j for the free variables x_j =
    u_j - v_j, then the slacks and the artificials from 2n on.  Row
    operations keep v_j's column minus u_j's in every row, so only u_j's is
    stored: logical column c < n is stored at c, c >= 2n at c - n, and v_j
    is read as minus the entry stored at j.

    Row i is the integer list self.rows[i] over the positive denominator
    self.dens[i], built in one pass from the integer row; the objective row
    of the current phase is likewise self.obj over self.obj_den.  Rows are
    updated by `_eliminate`, which touches only the pivot row's nonzero
    positions when the row's denominator stays.  Row i's multiplier is read
    off the column that was basic in it at the start (self.start[i]): after
    the sign fix that column is k_i e_i, the rational unit vector e_i, so
    its objective entry is its cost minus y_i throughout.  That is -y_i,
    except for an artificial in phase 1 (cost -1), whose entry is lower by
    obj_den.  No audit block is carried.

    `phase1` returns None or the Farkas vector as (ints, obj_den); `phase2`
    returns an `Optimal` or `Unbounded` whose fields hold integers: every
    vector as (ints, den) and the value as (numerator, denominator).
    `primal` reads the basic solution as (ints, den).
    """

    def __init__(self, num_vars: int, objective, rows):
        self.objective = objective  # (ints, k) as from scaled_ints
        n = self.n = num_vars
        m = self.m = len(rows)

        # Column numbering (logical): the u, v split of the free variables,
        # a slack per inequality row, then an artificial per row that does
        # not start on its slack.  sigma[i] = -1 when the rhs of row i,
        # oriented as "<=" (a ">=" row negated), is negative: the row is
        # negated again after its slack is added, so the rhs is nonnegative.
        self.slack_col = [-1] * m
        ncols = 2 * n
        for i, (*_, rel) in enumerate(rows):
            if rel != EQ:
                self.slack_col[i] = ncols
                ncols += 1
        self.first_art = ncols
        self.sigma = [1] * m
        self.art_col = [-1] * m
        self.basis = list(self.slack_col)
        for i, (_, b, _, rel) in enumerate(rows):
            if (b > 0) if rel == GE else (b < 0):
                self.sigma[i] = -1
            if rel == EQ or self.sigma[i] < 0:
                self.art_col[i] = self.basis[i] = ncols
                ncols += 1
        self.start = list(self.basis)
        self.ncols = ncols

        # Row layout: [stored columns..., rhs], the stored columns being u,
        # then the slacks and the artificials.  Each row is built in one
        # pass: the integer row times its orientation and sigma, the slack
        # entry sigma * k, the artificial entry k, so that ints / k is the
        # rational row.
        pad = [0] * (ncols - 2 * n)
        self.rows = []
        for i, (a, b, k, rel) in enumerate(rows):
            s = -self.sigma[i] if rel == GE else self.sigma[i]
            row = (a if s > 0 else [-v for v in a]) + pad
            row.append(b * s)
            if self.slack_col[i] >= 0:
                row[self.slack_col[i] - n] = self.sigma[i] * k
            if self.art_col[i] >= 0:
                row[self.art_col[i] - n] = k
            self.rows.append(row)
        self.dens = [k for *_, k, _ in rows]
        self.rhs_idx = ncols - n

    def _stored(self, col) -> tuple:
        """(stored index, sign) of a logical column: v_j is minus u_j."""
        n = self.n
        if col < n:
            return col, 1
        return col - n, -1 if col < 2 * n else 1

    def _price_out(self):
        for i, col in enumerate(self.basis):
            p, _ = self._stored(col)
            if self.obj[p] != 0:
                row = self.rows[i]
                self.obj, self.obj_den = _eliminate(
                    self.obj, self.obj_den, p, row, self.dens[i], _nonzero(row)
                )

    def _pivot(self, i, col):
        """Pivot on row i and logical column col: the row is scaled so that
        col's entry is the rational 1 (u_j's entry -1 for a v_j pivot)."""
        p, sign = self._stored(col)
        row = self.rows[i]
        if row[p] * sign < 0:
            row = [-c for c in row]
        row, den = _reduced(row, row[p] * sign)
        self.rows[i], self.dens[i] = row, den
        nonzero = _nonzero(row)
        for k, other in enumerate(self.rows):
            if k != i and other[p] != 0:
                self.rows[k], self.dens[k] = _eliminate(other, self.dens[k], p, row, den, nonzero)
        if self.obj[p] != 0:
            self.obj, self.obj_den = _eliminate(self.obj, self.obj_den, p, row, den, nonzero)
        self.basis[i] = col

    def _entering(self, end):
        """Bland's rule: the lowest logical column below `end` whose
        objective entry is positive, or -1.  v_j's entry is minus u_j's."""
        obj, n = self.obj, self.n
        enter = next((j for j in range(n) if obj[j] > 0), -1)
        if enter < 0:
            enter = next((n + j for j in range(n) if obj[j] < 0), -1)
        if enter < 0:
            enter = next((p + n for p in range(n, end - n) if obj[p] > 0), -1)
        return enter

    def _iterate(self, end):
        """Bland's-rule loop over the logical columns below `end`.  Returns
        None at optimum, or the entering column of an unbounded improving
        direction.  Denominators are positive, so signs are read off the ints
        and the ratio test cross-multiplies."""
        rhs = self.rhs_idx
        while True:
            enter = self._entering(end)
            if enter < 0:
                return None
            p, sign = self._stored(enter)
            leave = -1
            for i, row in enumerate(self.rows):
                a = row[p] * sign
                # ratio row[rhs] / a below best_b / best_a, ties to the lower basic index
                if a > 0 and (
                    leave < 0
                    or (row[rhs] * best_a, self.basis[i]) < (best_b * a, self.basis[leave])
                ):
                    leave, best_a, best_b = i, a, row[rhs]
            if leave < 0:
                return enter
            self._pivot(leave, enter)

    def _multipliers(self, art_cost):
        """Oriented-row multipliers lam_i = y_i * sigma_i as (ints, obj_den).
        The objective entry of row i's starting column is its cost minus y_i:
        art_cost (-obj_den in phase 1, 0 in phase 2) for an artificial, 0 for
        a slack."""
        n, obj = self.n, self.obj
        return [
            (art_cost * (col >= self.first_art) - obj[col - n]) * s
            for col, s in zip(self.start, self.sigma)
        ], self.obj_den

    def phase1(self) -> Optional[tuple]:
        if all(c < 0 for c in self.art_col):
            return None
        n = self.n
        self.obj, self.obj_den = [0] * (self.rhs_idx + 1), 1
        for c in self.art_col:
            if c >= 0:
                self.obj[c - n] = -1
        self._price_out()
        if self._iterate(self.ncols) is not None:  # pragma: no cover - bounded above by 0
            raise InternalInconsistencyError("phase 1 cannot be unbounded")
        if self.obj[self.rhs_idx] != 0:
            # Optimal phase-1 value y'b is negative; the multipliers,
            # re-signed for the oriented rows, are the Farkas vector.
            return self._multipliers(-self.obj_den)
        # Drive degenerate artificials out of the basis; drop dependent rows.
        # The lowest logical column with a nonzero entry is stored first:
        # v_j is zero where u_j is.
        drop = []
        for i in range(len(self.rows)):
            if self.basis[i] >= self.first_art:
                row = self.rows[i]
                piv = next((p for p in range(self.first_art - n) if row[p] != 0), -1)
                if piv >= 0:
                    self._pivot(i, piv if piv < n else piv + n)
                else:
                    drop.append(i)
        for i in reversed(drop):
            del self.rows[i]
            del self.dens[i]
            del self.basis[i]
        return None

    def phase2(self):
        n = self.n
        c, self.obj_den = self.objective
        self.obj = c + [0] * (self.rhs_idx + 1 - n)
        self._price_out()
        enter = self._iterate(self.first_art)  # artificials stay out
        if enter is not None:
            p, sign = self._stored(enter)
            ray = {enter: (1, 1)}
            for i, row in enumerate(self.rows):
                if row[p] != 0:
                    ray[self.basis[i]] = (-row[p] * sign, self.dens[i])
            return Unbounded(ray=self._free(ray), feasible_point=self.primal())
        # The priced-out objective row holds c - y'A with rhs entry -y'b, and
        # the optimal value is y'b.
        return Optimal(
            value=(-self.obj[self.rhs_idx], self.obj_den),
            primal=self.primal(),
            dual=self._multipliers(0),
        )

    def primal(self):
        """The basic solution as (ints, d)."""
        rhs = self.rhs_idx
        return self._free(
            {col: (self.rows[i][rhs], self.dens[i]) for i, col in enumerate(self.basis)}
        )

    def _free(self, z):
        """(xs, d) with xs_j / d = z[u_j] - z[v_j], for z a dict from logical
        columns to (num, den) pairs (absent entries 0, other columns
        ignored); d is the lcm of the u and v denominators."""
        n = self.n
        z = {col: q for col, q in z.items() if col < 2 * n}
        d = math.lcm(*[den for _, den in z.values()])
        xs = [0] * n
        for col, (num, den) in z.items():
            if col < n:
                xs[col] += num * (d // den)
            else:
                xs[col - n] -= num * (d // den)
        return xs, d
