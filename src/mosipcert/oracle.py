"""Floating-point grid-search oracle.

Everything certified lives elsewhere; this module hunts for counterexamples
by brute force over a box grid intersected with the feasible region.  Its
job is search, not proof: any refutation it wants to report is first
re-established in exact rational arithmetic (grid coordinates are exact
affine combinations of the box corners, so the promotion is lossless), and
``nu_hat`` is published as evidence only — the certified isolation radius
comes from the perturbed multiplier test, never from here.

Determinism contract: the scan visits grid points in index order (first axis
slowest), and each refutation slot keeps the first point that survives the
exact recheck.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import ModelError
from .funcs import NegSqrtParabola1D, affine_pieces, evaluate
from .problem import MosipProblem, constraint_values
from .rationals import Q, as_q, jsonify, vec_q

FLOAT_SLACK = 1e-9
_NEAR_ZERO = 1e-12

#: most grid points one scan may hold in memory (float arrays of this many
#: rows); 101 points per axis in three dimensions is 1,030,301
MAX_GRID_POINTS = 2_000_000


@dataclass(frozen=True)
class OracleReport:
    """Grid-scan verdicts: exact refutation points (or None) plus the sampled
    isolation quotient min over feasible grid x != x_hat of
    max_i (f_i(x) - f_i(x_hat)) / |x - x_hat|."""

    weak_refuted: Optional[tuple]  # exact point with f(x) < f(x_hat) componentwise
    eff_refuted: Optional[tuple]  # exact point with f(x) <= f(x_hat), != f(x_hat)
    nu_hat: float  # math.inf when no other feasible grid point exists
    grid: dict  # {"box", "resolution", "points", "feasible_points"}
    notes: tuple = field(default=())


def _farray(vec) -> np.ndarray:
    return np.array([float(c) for c in vec], dtype=float)


def _vector_eval(f, pts: np.ndarray) -> np.ndarray:
    """Vectorized float values over the (N, n) point array; +inf off-domain."""
    pieces = affine_pieces(f)
    if pieces is not None:
        vals = np.max(
            np.stack([pts @ _farray(a) + float(b) for a, b in pieces]), axis=0
        )
    elif isinstance(f, NegSqrtParabola1D):
        t = float(f.t)
        v = pts[:, 0]
        u = np.clip(v * (2.0 * t - v), 0.0, None)
        vals = np.where((v < -_NEAR_ZERO) | (v > 2.0 * t + _NEAR_ZERO), np.inf, -np.sqrt(u))
    else:
        raise TypeError(f"unknown function kind {type(f).__name__}")
    if f.domain is not None:
        for a, b in f.domain.rows:
            vals = np.where(pts @ _farray(a) > float(b) + _NEAR_ZERO, np.inf, vals)
    return vals


def _exact_grid_point(flat: int, shape: tuple, box, resolution: int) -> tuple:
    multi = np.unravel_index(flat, shape)
    return tuple(
        lo + (hi - lo) * Q(int(i), resolution - 1)
        for (lo, hi), i in zip(box, multi)
    )


def _exactly_feasible(p: MosipProblem, x) -> bool:
    try:
        constraint_values(p, x)
    except ModelError:
        return False
    return True


def _exactly_dominates(p: MosipProblem, x, x_hat, strict: bool) -> bool:
    fx = [evaluate(f, x) for f in p.objectives]
    fh = [evaluate(f, x_hat) for f in p.objectives]
    if strict:
        return all(a < b for a, b in zip(fx, fh))
    return all(a <= b for a, b in zip(fx, fh)) and any(a < b for a, b in zip(fx, fh))


def classify_grid(p: MosipProblem, x_hat, box, resolution: int) -> OracleReport:
    """Exhaustive scan of the grid over ``box`` restricted to the feasible
    region.  ``box`` is one (lo, hi) pair per coordinate and must contain the
    candidate; ``resolution`` is the point count per axis (at least 2, and
    at most MAX_GRID_POINTS points in all)."""
    x_hat = vec_q(x_hat)
    constraint_values(p, x_hat)
    box_q = [(as_q(lo), as_q(hi)) for lo, hi in box]
    if len(box_q) != p.dimension:
        raise ModelError("box needs one (lo, hi) pair per coordinate")
    if any(lo > hi for lo, hi in box_q):
        raise ModelError("box has an empty axis interval")
    if any(not (lo <= c <= hi) for (lo, hi), c in zip(box_q, x_hat)):
        raise ModelError("the box must contain the candidate point")
    resolution = int(resolution)
    if resolution < 2:
        raise ModelError("resolution needs at least two points per axis")
    points = 1
    for _ in range(p.dimension):
        points *= resolution
        if points > MAX_GRID_POINTS:
            raise ModelError(
                f"resolution {resolution} in dimension {p.dimension} gives more "
                f"than {MAX_GRID_POINTS} grid points"
            )

    n = p.dimension
    shape = (resolution,) * n
    mesh = np.meshgrid(
        *[np.linspace(float(lo), float(hi), resolution) for lo, hi in box_q],
        indexing="ij",
    )
    pts = np.stack([g.reshape(-1) for g in mesh], axis=1)

    feasible = np.ones(len(pts), dtype=bool)
    for k in p.indices():
        feasible &= _vector_eval(p.constraint(k), pts) <= FLOAT_SLACK
    if p.feasible_set is not None:
        for a, b in p.feasible_set.rows:
            feasible &= pts @ _farray(a) <= float(b) + FLOAT_SLACK

    f_hat = []
    for f in p.objectives:
        value = evaluate(f, x_hat)
        value = float(value)
        if not math.isfinite(value):
            raise ModelError("objective value at the candidate is not finite")
        f_hat.append(value)
    delta = np.stack([_vector_eval(f, pts) for f in p.objectives], axis=1) - np.array(
        f_hat
    )
    dist = np.linalg.norm(pts - _farray(x_hat), axis=1)
    off_candidate = dist > _NEAR_ZERO
    scanned = feasible & off_candidate

    if scanned.any():
        with np.errstate(invalid="ignore"):
            ratios = np.max(delta[scanned], axis=1) / dist[scanned]
        nu_hat = float(np.min(ratios))
    else:
        nu_hat = math.inf

    def first_verified(mask: np.ndarray, strict: bool) -> Optional[tuple]:
        for flat in np.flatnonzero(mask):
            point = _exact_grid_point(int(flat), shape, box_q, resolution)
            if _exactly_feasible(p, point) and _exactly_dominates(
                p, point, x_hat, strict
            ):
                return point
        return None

    weak_mask = scanned & np.all(delta < -_NEAR_ZERO, axis=1)
    eff_mask = scanned & np.all(delta <= _NEAR_ZERO, axis=1) & np.any(
        delta < -_NEAR_ZERO, axis=1
    )
    weak_refuted = first_verified(weak_mask, strict=True)
    eff_refuted = first_verified(eff_mask, strict=False)

    notes = []
    iso = p.annotations.get("isolation", {})
    if iso.get("discrepancy"):
        notes.append(f"documented isolation account: {iso['discrepancy']}")
    if p.documented_nu is not None:
        documented = float(p.documented_nu)
        if nu_hat < documented - 1e-6:
            notes.append(
                f"grid minimum {nu_hat:.6g} falls below the documented "
                f"isolation constant {documented:.6g}; only the computed "
                "value is reported"
            )

    return OracleReport(
        weak_refuted=weak_refuted,
        eff_refuted=eff_refuted,
        nu_hat=nu_hat,
        grid={
            "box": [(lo, hi) for lo, hi in box_q],
            "resolution": resolution,
            "points": int(len(pts)),
            "feasible_points": int(np.count_nonzero(feasible)),
        },
        notes=tuple(notes),
    )


def report_to_json(report: OracleReport) -> dict:
    return {
        "weak_refuted": None
        if report.weak_refuted is None
        else jsonify(list(report.weak_refuted)),
        "eff_refuted": None
        if report.eff_refuted is None
        else jsonify(list(report.eff_refuted)),
        "nu_hat": None if math.isinf(report.nu_hat) else report.nu_hat,
        "grid": {
            "box": jsonify([list(pair) for pair in report.grid["box"]]),
            "resolution": report.grid["resolution"],
            "points": report.grid["points"],
            "feasible_points": report.grid["feasible_points"],
        },
        "notes": list(report.notes),
    }
