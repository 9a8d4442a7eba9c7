"""The three workloads: their inputs, one operation each, and output checks.

Every check compares the program's output with data the program did not
compute: the fixtures' own reference verdicts, or the coefficients the
instance generator drew.  Arithmetic in the checks is `fractions.Fraction`,
whatever backend `mosipcert.rationals.Q` resolved to.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import time
from dataclasses import dataclass
from fractions import Fraction

# Documented candidate of each bundled fixture, and the box `classify` and
# `report` search (resolution stays at the CLI default of 101 per axis).
FIXTURES = {
    "alternating-affine": ("0", "-3:0"),
    "octagon-support": ("0,0", "-2:0,-2:0"),
    "neg-semicircle": ("0", "0:2"),
}


def fixture_argvs(name: str) -> list:
    point, box = FIXTURES[name]
    common = [name, f"--point={point}", "--format", "json"]
    return [
        ["quals", *common],
        ["certify", *common, "--verify"],
        ["gap", *common, "--nu", "2"],
        ["classify", *common, f"--box={box}"],
        ["report", *common, f"--box={box}", "--verify"],
    ]


# Make-up of the pipeline workloads: one instance per slot (dimension,
# objectives, constraints, constraint pieces and objective pieces active at
# the origin), drawn from tests/helpers_instances.py with the slot's shape as
# its caps and rejected until the shape matches, so the coefficients keep the
# generator's own distribution.  The active-piece counts decide most of an
# instance's cost; fixing them (at the generator's typical counts: three
# active pieces per four constraints, and only the normalising piece of each
# objective) keeps the seed-to-seed spread of a pass small.
def _slot(n: int, objectives: int, constraints: int) -> tuple:
    return (n, objectives, constraints, round(0.75 * constraints), objectives)


RANDOM_SLOTS = [_slot(n, m, k) for n in (1, 2, 3) for m in (1, 2, 3) for k in range(1, 7)] * 2
DIM5_SLOTS = [_slot(5, m, k) for m in (1, 2) for k in (1, 2, 3)] * 3


@dataclass
class Instance:
    label: str
    problem: object  # parsed from the JSON the generator's instance serialises to
    point: list
    slopes: tuple  # (objective slopes at the origin, {t: constraint slopes})


def _fr(q) -> Fraction:
    return Fraction(int(q.numerator), int(q.denominator))


def _vec(pairs) -> tuple:
    """A vector of JSON [numerator, denominator] pairs."""
    return tuple(Fraction(num, den) for num, den in pairs)


def _active_slopes(fn) -> list:
    top = max(b for _, b in fn.pieces)
    return [tuple(_fr(c) for c in a) for a, b in fn.pieces if b == top]


def _count_active(functions) -> int:
    return sum(1 for f in functions for _, b in f.pieces if b == 0)


def _shape(problem) -> tuple:
    return (problem.dimension, problem.num_objectives, problem.constraints.size,
            _count_active(problem.constraints.functions), _count_active(problem.objectives))


def _parsed(m, generated, label):
    """Round-trip a generated instance through the problem-file parser."""
    text = json.dumps(m.problem.problem_to_json(generated), sort_keys=True)
    parsed = m.problem.problem_from_json(json.loads(text))
    slopes = (
        [_active_slopes(f) for f in generated.objectives],
        {
            t: _active_slopes(f)
            for t, f in enumerate(generated.constraints.functions)
            if max(b for _, b in f.pieces) == 0
        },
    )
    return Instance(label, parsed, [0] * generated.dimension, slopes)


def select_draws(workload: str, seed: int, helpers, stream=None) -> list:
    """(caps, generator state, label) of every pipeline instance.

    For a slot this is the state just before the first draw whose shape
    matches.  The search is input selection, not set-up: it runs once and
    untimed, and set-up then makes exactly one draw per instance.  With
    `stream`, the instances are the first `stream` draws of the plain
    generator stream instead.
    """
    if workload == "fixtures-cli":
        return []
    if stream is not None:
        rng, draws = random.Random(seed), []
        for k in range(stream):
            draws.append(((3, 3, 6), rng.getstate(), f"stream-{k}"))
            helpers.random_polyhedral_problem(rng)
        return draws
    slots = RANDOM_SLOTS if workload == "random-pipeline" else DIM5_SLOTS
    draws = []
    for j, slot in enumerate(slots):
        rng = random.Random(f"{seed}:{j}")
        while True:
            state = rng.getstate()
            generated, _ = helpers.random_polyhedral_problem(rng, *slot[:3])
            if _shape(generated) == slot:
                break
        draws.append((slot[:3], state, "n{}-obj{}-con{}-act{}+{}".format(*slot)))
    return draws


def make_inputs(m, workload: str, draws: list) -> list:
    if workload == "fixtures-cli":
        # parsed here so that set-up pays for loading; the CLI loads again per call
        problems = {
            name: m.problem.load_problem(m.instances.resolve_problem_path(name))
            for name in FIXTURES
        }
        return [(name, argv, problems[name]) for name in FIXTURES
                for argv in fixture_argvs(name)]
    out = []
    for caps, state, label in draws:
        rng = random.Random()
        rng.setstate(state)
        generated, _ = m.helpers.random_polyhedral_problem(rng, *caps)
        out.append(_parsed(m, generated, label))
    return out


# ---------------------------------------------------------------------------
# operations (timed) and their checks (untimed)


def run_cli(m, item):
    _, argv, _ = item
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t0 = time.perf_counter()
        code = m.cli.main(list(argv))
        dt = time.perf_counter() - t0
    return dt, (code, out.getvalue(), err.getvalue())


def run_pipeline(m, inst: Instance):
    p = inst.problem
    t0 = time.perf_counter()
    cp = m.problem.CandidatePoint.build(p, inst.point)
    reports = m.quals.check_all(p, cp)
    violations = m.quals.diagram_validate(p, cp, reports)
    weak = m.kkt.weak_kkt(p, cp)
    strong = m.kkt.strong_kkt(p, cp)
    m.kkt.perturbed_kkt(p, cp)
    gap_weak = m.gap.gap_zero_search(p, cp, m.gap.WEAK_MODE)
    gap_strong = m.gap.gap_zero_search(p, cp, m.gap.STRONG_MODE)
    dt = time.perf_counter() - t0
    return dt, (violations, weak, strong, gap_weak, gap_strong)


def _dot(a, b) -> Fraction:
    return sum((x * y for x, y in zip(a, b)), Fraction(0))


def _combo(coeffs, points, n) -> tuple:
    return tuple(sum((c * v[k] for c, v in zip(coeffs, points)), Fraction(0))
                 for k in range(n))


def certificate_issues(cert: dict, strong: bool, obj_slopes=None, con_slopes=None) -> list:
    """Exact re-check of a KKT certificate in its JSON form.  With slopes
    given, every listed vertex must be the slope of a piece active at the
    candidate."""
    issues = []
    target = _vec(cert["target"])
    n = len(target)
    total = [Fraction(0)] * n
    alphas = []
    for t in cert["objectives"]:
        alpha, coeffs = Fraction(*t["alpha"]), _vec(t["coeffs"])
        verts = [_vec(v) for v in t["vertices"]]
        alphas.append(alpha)
        if alpha < 0 or (strong and alpha <= 0):
            issues.append(f"objective {t['index']}: alpha {alpha}")
        if any(c < 0 for c in coeffs) or sum(coeffs) != 1 or len(coeffs) != len(verts):
            issues.append(f"objective {t['index']}: coeffs are not a convex combination")
        if _combo(coeffs, verts, n) != _vec(t["xi"]):
            issues.append(f"objective {t['index']}: xi is not the listed combination")
        if obj_slopes is not None and not set(verts) <= set(obj_slopes[t["index"]]):
            issues.append(f"objective {t['index']}: vertex of an inactive piece")
        total = [s + alpha * x for s, x in zip(total, _vec(t["xi"]))]
    if sum(alphas) != 1:
        issues.append(f"objective weights sum to {sum(alphas)}")
    for t in cert["constraints"]:
        beta, verts = Fraction(*t["beta"]), [_vec(v) for v in t["vertices"]]
        rays = [_vec(r) for r in t["rays"]]
        ray_coeffs = _vec(t["ray_coeffs"])
        if beta < 0 or any(c < 0 for c in ray_coeffs):
            issues.append(f"constraint {t['index']}: negative multiplier")
        if t["zeta"] is None:
            contribution = _combo(ray_coeffs, rays, n)
        else:
            coeffs = _vec(t["coeffs"])
            if any(c < 0 for c in coeffs) or sum(coeffs) != 1:
                issues.append(f"constraint {t['index']}: coeffs are not a convex combination")
            zeta = _vec(t["zeta"])
            expected = [a + b for a, b in zip(_combo(coeffs, verts, n),
                                              _combo(ray_coeffs, rays, n))]
            if list(zeta) != expected:
                issues.append(f"constraint {t['index']}: zeta is not the listed combination")
            contribution = tuple(beta * z for z in zeta)
        if con_slopes is not None:
            if t["index"] not in con_slopes or rays:
                issues.append(f"constraint {t['index']} is not active or has rays")
            elif not set(verts) <= set(con_slopes[t["index"]]):
                issues.append(f"constraint {t['index']}: vertex of an inactive piece")
        total = [s + c for s, c in zip(total, contribution)]
    if tuple(total) != target:
        issues.append("residual differs from the target")
    return issues


def _separator_issues(sep, obj_slopes, con_slopes) -> list:
    h, gap = tuple(_fr(c) for c in sep.direction), _fr(sep.gap)
    issues = [] if gap > 0 else [f"separator gap {gap} is not positive"]
    if any(_dot(h, v) > -gap for slopes in obj_slopes for v in slopes):
        issues.append("separator: h.v > -gap on an active objective slope")
    if any(_dot(h, w) > 0 for slopes in con_slopes.values() for w in slopes):
        issues.append("separator: h.w > 0 on an active constraint slope")
    return issues


def check_pipeline(m, inst: Instance, result) -> list:
    violations, weak, strong, gap_weak, gap_strong = result
    obj_slopes, con_slopes = inst.slopes
    issues = [f"diagram violation: {v.arrow.label()}" for v in violations]
    weak_cert = isinstance(weak, m.kkt.KktCertificate)
    if weak_cert:
        doc = m.kkt.certificate_to_json(weak)
        issues += certificate_issues(doc, False, obj_slopes, con_slopes)
    else:
        issues += _separator_issues(weak, obj_slopes, con_slopes)
    if strong.certificate is not None:
        doc = m.kkt.certificate_to_json(strong.certificate)
        issues += certificate_issues(doc, True, obj_slopes, con_slopes)
    elif strong.separator is not None:
        issues += _separator_issues(strong.separator, obj_slopes, con_slopes)
    # KKT <=> gap zero: S's rows are exactly the constraint pieces here
    if weak_cert != isinstance(gap_weak, m.gap.GapWitness):
        issues.append("weak KKT certificate and weak gap witness disagree")
    if (strong.certificate is not None) != isinstance(gap_strong, m.gap.GapWitness):
        issues.append("strong KKT certificate and strong gap witness disagree")
    return [f"{inst.label}: {i}" for i in issues]


def _emitted_certificates(doc: dict) -> list:
    """(certificate JSON, needs positive alphas) for every KKT certificate."""
    kkt = doc.get("kkt", doc)
    out = []
    weak = kkt.get("weak")
    if isinstance(weak, dict) and weak.get("kind") != "separator":
        out.append((weak, False))
    strong = kkt.get("strong")
    if isinstance(strong, dict) and strong.get("certificate"):
        out.append((strong["certificate"], True))
    perturbed = kkt.get("perturbed")
    if isinstance(perturbed, dict):
        out.extend((c, False) for c in perturbed["axis_certificates"])
    return out


def check_cli(item, result) -> list:
    name, argv, problem = item
    code, out, err = result
    where = f"{' '.join(argv[:2])}"
    if code != 0 or "error:" in err:
        return [f"{where}: exit {code}: {err.strip()}"]
    doc = json.loads(out)
    issues = []
    if argv[0] in ("quals", "report"):
        reference = problem.annotations["reference_verdicts"]
        for row in doc["quals"]:
            want = reference[row["qual"]]
            want = want["status"] if isinstance(want, dict) else want
            if row["status"] != want:
                issues.append(f"{row['qual']} is {row['status']}, reference {want}")
        if doc["diagram_violations"]:
            issues.append(f"diagram violations {doc['diagram_violations']}")
    if argv[0] in ("certify", "report"):
        for cert, strong in _emitted_certificates(doc):
            issues += certificate_issues(cert, strong)
    return [f"{where}: {i}" for i in issues]
