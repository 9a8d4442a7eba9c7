"""Command-line front end.

Subcommands mirror the library layers: ``quals`` (qualification truth table
plus implication-diagram validation), ``certify`` (weak / strong / perturbed
multiplier certificates), ``gap`` (gap-function zero witnesses and the
perturbed sweep), ``classify`` (grid-search oracle) and ``report`` (all of
the above merged with the efficiency claims).

Exit codes: 0 success, 2 infeasible candidate, 3 parse or model error,
4 internal inconsistency (implication-diagram violation, certificate
re-verification failure, or an oracle refutation beside a certificate).
Every failure writes one machine-parseable line to stderr:
``error: <category>: <message>``.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from dataclasses import dataclass
from typing import Optional

from . import gap as gap_mod
from . import instances, kkt, oracle, quals
from .errors import (
    InfeasiblePointError,
    InternalInconsistencyError,
    ModelError,
    MosipError,
    ParseError,
    UnsupportedOperationError,
)
from .problem import CandidatePoint, IndexedFamily, MosipProblem, load_problem
from .rationals import Q, as_q, jsonify

SUBCOMMANDS = ("quals", "certify", "gap", "classify", "report")
FORMATS = ("json", "table")


@dataclass(frozen=True)
class RunConfig:
    subcommand: str
    problem: str
    point: tuple
    fmt: str = "table"
    eps_grid: Optional[tuple] = None
    truncation: Optional[int] = None
    box: Optional[tuple] = None  # ((lo, hi), ...) rationals, one per axis
    resolution: int = 101
    nu: Optional[Q] = None
    sample_count: int = 8
    verify: bool = False


# ---------------------------------------------------------------------------
# argument parsing


class _Parser(argparse.ArgumentParser):
    """argparse exits with status 2 on bad usage, which this tool reserves
    for infeasible candidates; remap usage problems to the parse-error code."""

    def error(self, message):
        self.exit(3, f"error: usage: {message}\n")


def _rational(text: str) -> Q:
    try:
        return as_q(text.strip())
    except (ValueError, ZeroDivisionError, TypeError) as exc:
        raise ParseError(f"not a rational: {text!r}") from exc


def _parse_point(text: str) -> tuple:
    tokens = [t for t in text.split(",") if t.strip()]
    if not tokens:
        raise ParseError("empty --point")
    return tuple(_rational(t) for t in tokens)


def _parse_box(text: str) -> tuple:
    axes = []
    for chunk in text.split(","):
        lo, sep, hi = chunk.partition(":")
        if not sep:
            raise ParseError(f"box axis {chunk!r} is not of the form lo:hi")
        axes.append((_rational(lo), _rational(hi)))
    return tuple(axes)


def build_parser() -> _Parser:
    parser = _Parser(prog="mosipcert", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="subcommand", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "problem", help="problem JSON path or bundled fixture name"
    )
    common.add_argument(
        "--point",
        required=True,
        help="candidate point, comma-separated rationals (e.g. 0,0 or 1/2,-1)",
    )
    common.add_argument("--format", choices=FORMATS, default="table")
    common.add_argument(
        "--truncation",
        type=int,
        default=None,
        help="override the indexed family's truncation level",
    )
    common.add_argument(
        "--eps-grid",
        default=None,
        help="comma-separated epsilon grid for the qualification checkers",
    )

    sub.add_parser("quals", parents=[common])

    certify = sub.add_parser("certify", parents=[common])
    certify.add_argument(
        "--verify",
        action="store_true",
        help="re-parse the emitted JSON and re-validate every certificate",
    )

    gap_cmd = sub.add_parser("gap", parents=[common])
    gap_cmd.add_argument("--nu", default=None, help="tilt radius for the perturbed sweep")
    gap_cmd.add_argument("--sample-count", type=int, default=8)

    classify = sub.add_parser("classify", parents=[common])
    classify.add_argument(
        "--box",
        required=True,
        help="grid box, comma-separated lo:hi per axis (e.g. -3:0 or -2:0,-2:0)",
    )
    classify.add_argument("--resolution", type=int, default=101)

    report = sub.add_parser("report", parents=[common])
    report.add_argument("--box", default=None)
    report.add_argument("--resolution", type=int, default=101)
    report.add_argument("--nu", default=None)
    report.add_argument("--sample-count", type=int, default=8)
    report.add_argument("--verify", action="store_true")
    return parser


def parse_config(argv) -> RunConfig:
    args = build_parser().parse_args(argv)
    eps = None
    if getattr(args, "eps_grid", None) is not None:
        eps = tuple(_rational(t) for t in args.eps_grid.split(","))
    return RunConfig(
        subcommand=args.subcommand,
        problem=args.problem,
        point=_parse_point(args.point),
        fmt=args.format,
        eps_grid=eps,
        truncation=args.truncation,
        box=None if getattr(args, "box", None) is None else _parse_box(args.box),
        resolution=getattr(args, "resolution", 101),
        nu=None if getattr(args, "nu", None) is None else _rational(args.nu),
        sample_count=getattr(args, "sample_count", 8),
        verify=getattr(args, "verify", False),
    )


# ---------------------------------------------------------------------------
# section builders (each returns a JSON document plus table lines)


def _load(config: RunConfig) -> tuple:
    path = instances.resolve_problem_path(config.problem)
    p = load_problem(path)
    if config.truncation is not None:
        if not isinstance(p.constraints, IndexedFamily):
            raise ModelError("--truncation applies only to indexed families")
        family = IndexedFamily(
            p.constraints.family, p.constraints.params, config.truncation
        )
        p = dataclasses.replace(p, constraints=family)
    cp = CandidatePoint.build(p, config.point)
    return p, cp


def _quals_section(p, cp, config) -> tuple:
    eps_grid = quals.DEFAULT_EPS_GRID if config.eps_grid is None else config.eps_grid
    reports = quals.check_all(p, cp, eps_grid)
    violations = quals.diagram_validate(p, cp, reports)
    doc = {
        "quals": quals.reports_to_json(reports),
        "diagram_violations": [
            {"arrow": v.arrow.label(), "detail": v.detail} for v in violations
        ],
    }
    lines = [quals.truth_table_text(reports).rstrip("\n")]
    if violations:
        lines.append("diagram: VIOLATED")
        lines.extend(f"  {v.arrow.label()}: {v.detail}" for v in violations)
    else:
        lines.append(f"diagram: all {len(quals.ARROWS)} implication arrows consistent")
    return doc, lines, reports, violations


def _certify_section(p, cp) -> tuple:
    weak = kkt.weak_kkt(p, cp)
    strong = kkt.strong_kkt(p, cp)
    perturbed = kkt.perturbed_kkt(p, cp)
    isolation = (
        kkt.isolation_inclusion_report(p, cp, perturbed.nu_lb)
        if perturbed.holds
        else None
    )
    doc = {
        "weak": kkt.certificate_to_json(weak)
        if isinstance(weak, kkt.KktCertificate)
        else kkt.separator_to_json(weak),
        "strong": {
            "tau": jsonify(strong.tau),
            "ri_zero": strong.ri_zero,
            "refusal": strong.refusal,
            "certificate": None
            if strong.certificate is None
            else kkt.certificate_to_json(strong.certificate),
            "separator": None
            if strong.separator is None
            else kkt.separator_to_json(strong.separator),
        },
        "perturbed": kkt.perturbed_to_json(perturbed),
        "isolation_inclusion": jsonify(isolation),
    }
    lines = []
    if isinstance(weak, kkt.KktCertificate):
        alphas = ", ".join(str(a) for a in weak.alpha)
        lines.append(f"weak KKT:      certificate (alpha = {alphas})")
    else:
        d = ", ".join(str(c) for c in weak.direction)
        lines.append(f"weak KKT:      separator (direction = {d}; gap = {weak.gap})")
    if strong.certificate is not None:
        lines.append(f"strong KKT:    certificate (tau = {strong.tau})")
    else:
        lines.append(f"strong KKT:    refused ({strong.refusal})")
    if perturbed.holds:
        exactness = "exact" if perturbed.exact else "lower bound"
        lines.append(f"perturbed KKT: holds (nu_lb = {perturbed.nu_lb}, {exactness})")
    else:
        d = ", ".join(str(c) for c in perturbed.witness_direction or ())
        lines.append(f"perturbed KKT: fails (escape direction = {d})")
    certs = {"weak": weak, "strong": strong, "perturbed": perturbed}
    return doc, lines, certs


def _gap_section(p, cp, config) -> tuple:
    weak = gap_mod.gap_zero_search(p, cp, gap_mod.WEAK_MODE)
    strong = gap_mod.gap_zero_search(p, cp, gap_mod.STRONG_MODE)
    doc = {
        "weak": gap_mod.report_to_json(weak),
        "strong": gap_mod.report_to_json(strong),
    }
    lines = []
    for mode, out in (("weak", weak), ("strong", strong)):
        label = f"gap zero ({mode}):".ljust(19)
        if isinstance(out, gap_mod.GapWitness):
            lam = ", ".join(str(l) for l in out.lam)
            lines.append(f"{label}witness (lambda = {lam})")
        else:
            lines.append(f"{label}none ({out.reason})")
    sweep = None
    if config.nu is not None:
        sweep = gap_mod.perturbed_gap_check(
            p, cp, config.nu, sample_count=config.sample_count
        )
        doc["perturbed_sweep"] = gap_mod.report_to_json(sweep)
        good = sum(1 for t in sweep.per_w if t.success)
        verdict = "all tilts admit a zero" if sweep.all_sampled_succeed else (
            f"{good}/{len(sweep.per_w)} tilts admit a zero"
        )
        note = f" [{sweep.note}]" if sweep.note else ""
        lines.append(f"gap sweep nu={config.nu}: {verdict}{note}")
    return doc, lines, {"gap_weak": weak, "gap_strong": strong, "sweep": sweep}


def _classify_section(p, config) -> tuple:
    report = oracle.classify_grid(p, config.point, config.box, config.resolution)
    doc = oracle.report_to_json(report)
    lines = []
    if report.weak_refuted is not None:
        pt = ", ".join(str(c) for c in report.weak_refuted)
        lines.append(f"oracle: strictly dominating point found at ({pt})")
    if report.eff_refuted is not None:
        pt = ", ".join(str(c) for c in report.eff_refuted)
        lines.append(f"oracle: dominating point found at ({pt})")
    if report.weak_refuted is None and report.eff_refuted is None:
        lines.append("oracle: no dominating grid point")
    lines.append(
        f"oracle: nu_hat = {report.nu_hat:.9g} over "
        f"{report.grid['feasible_points']} feasible grid points"
    )
    lines.extend(f"oracle note: {n}" for n in report.notes)
    return doc, lines, report


def _claims_lines(claims) -> list:
    if not claims:
        return ["claims: none"]
    out = []
    for c in claims:
        stance = "is" if c.asserted else "is not"
        relies = f" given {', '.join(c.relies_on)}" if c.relies_on else ""
        out.append(
            f"claim: candidate {stance} {c.level} — {c.theorem}{relies} "
            f"[{c.provenance}]"
        )
    return out


def _render(doc: dict, lines: list, fmt: str) -> str:
    if fmt == "json":
        return json.dumps(doc, sort_keys=True, indent=2) + "\n"
    return "\n".join(lines) + "\n"


def _axis_issues(p, cp, report) -> list:
    return [i for cert in report.axis_certificates for i in kkt.certificate_issues(p, cp, cert)]


# (parse, verify, serialise) of each kind of emitted witness
_CERTIFICATE = (kkt.certificate_from_json, kkt.certificate_issues, kkt.certificate_to_json)
_SEPARATOR = (kkt.separator_from_json, kkt.separator_issues, kkt.separator_to_json)
_PERTURBED = (kkt.perturbed_from_json, _axis_issues, kkt.perturbed_to_json)
_GAP_WITNESS = (gap_mod.witness_from_json, gap_mod.witness_issues, gap_mod.witness_to_json)


def _verify_certificates(p, cp, doc: dict) -> None:
    """Re-parse the emitted JSON and re-run every verifier on each witness,
    which must also re-serialize bit-exactly; failures are internal
    inconsistencies, never user errors."""
    parsed = json.loads(json.dumps(doc, sort_keys=True))
    kkt_doc = parsed.get("kkt", parsed)
    strong, gap_doc = kkt_doc.get("strong", {}), parsed.get("gap", {})
    weak = kkt_doc.get("weak")
    weak_kind = "separator" if weak and weak["kind"] == "separator" else "certificate"
    # whenever weak KKT fails, strong prints the same separator: checked once
    strong_separator = strong.get("separator")
    entries = [
        (f"weak {weak_kind}", weak, _SEPARATOR if weak_kind == "separator" else _CERTIFICATE),
        ("strong certificate", strong.get("certificate"), _CERTIFICATE),
        ("strong separator", None if strong_separator == weak else strong_separator, _SEPARATOR),
        ("perturbed report", kkt_doc.get("perturbed"), _PERTURBED),
    ] + [
        (f"gap {mode} witness", (gap_doc.get(mode) or {}).get("witness"), _GAP_WITNESS)
        for mode in ("weak", "strong")
    ]
    issues = []
    for label, entry, (parse, verify, serialise) in entries:
        if entry:
            witness = parse(entry)
            issues += [f"{label}: {issue}" for issue in verify(p, cp, witness)]
            if serialise(witness) != entry:
                issues.append(f"{label} does not re-serialize bit-exactly")
    if issues:
        raise InternalInconsistencyError("re-verification failed: " + "; ".join(issues))


def run(config: RunConfig) -> tuple:
    """Execute one subcommand; returns (exit_code, output_text)."""
    gap_mod.check_sample_count(config.sample_count)  # with or without --nu
    if any(eps < 0 for eps in config.eps_grid or ()):  # whether or not PMFCQ reads it
        raise ModelError("epsilon must be nonnegative")
    p, cp = _load(config)
    header = [
        f"problem: {p.annotations.get('name', config.problem)} "
        f"(dimension {p.dimension})",
        f"candidate: ({', '.join(str(c) for c in cp.x)})",
        "",
    ]
    code = 0

    if config.subcommand == "quals":
        doc, lines, _, violations = _quals_section(p, cp, config)
        if violations:
            code = 4
        return code, _render(doc, header + lines, config.fmt)

    if config.subcommand == "certify":
        doc, lines, _ = _certify_section(p, cp)
        if config.verify:
            _verify_certificates(p, cp, doc)
        return 0, _render(doc, header + lines, config.fmt)

    if config.subcommand == "gap":
        doc, lines, _ = _gap_section(p, cp, config)
        return 0, _render(doc, header + lines, config.fmt)

    if config.subcommand == "classify":
        doc, lines, _ = _classify_section(p, config)
        return 0, _render(doc, header + lines, config.fmt)

    # report: everything merged, then the claims layer
    quals_doc, quals_lines, reports, violations = _quals_section(p, cp, config)
    kkt_doc, kkt_lines, certs = _certify_section(p, cp)
    gap_doc, gap_lines, gap_outs = _gap_section(p, cp, config)
    oracle_report = None
    oracle_doc = None
    oracle_lines = []
    if config.box is not None:
        oracle_doc, oracle_lines, oracle_report = _classify_section(p, config)
    cert_inputs = {
        "weak": certs["weak"],
        "strong": certs["strong"],
        "perturbed": certs["perturbed"],
        "gap_weak": gap_outs["gap_weak"],
        "gap_strong": gap_outs["gap_strong"],
    }
    qual_map = {r.qual: r for r in reports}
    claims = kkt.assemble_claims(
        p, cp, cert_inputs, qual_map, oracle_report=oracle_report
    )
    doc = {
        "problem": p.annotations.get("name", config.problem),
        "candidate": jsonify(list(cp.x)),
        **quals_doc,
        "kkt": kkt_doc,
        "gap": gap_doc,
        "oracle": oracle_doc,
        "claims": kkt.claims_to_json(claims),
    }
    if config.verify:
        _verify_certificates(p, cp, doc)
    if violations:
        code = 4
    lines = (
        header
        + quals_lines
        + [""]
        + kkt_lines
        + [""]
        + gap_lines
        + ([""] + oracle_lines if oracle_lines else [])
        + [""]
        + _claims_lines(claims)
    )
    return code, _render(doc, lines, config.fmt)


def main(argv=None) -> int:
    try:
        config = parse_config(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    except ParseError as exc:
        sys.stderr.write(f"error: parse: {exc}\n")
        return 3
    try:
        code, text = run(config)
    except InfeasiblePointError as exc:
        sys.stderr.write(f"error: infeasible-candidate: {exc}\n")
        return 2
    except ParseError as exc:
        sys.stderr.write(f"error: parse: {exc}\n")
        return 3
    except (ModelError, UnsupportedOperationError) as exc:
        sys.stderr.write(f"error: model: {exc}\n")
        return 3
    except InternalInconsistencyError as exc:
        sys.stderr.write(f"error: internal: {exc}\n")
        return 4
    except MosipError as exc:  # safety net: unmapped library error
        sys.stderr.write(f"error: internal: {exc}\n")
        return 4
    sys.stdout.write(text)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
