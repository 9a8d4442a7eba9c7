"""Spans around the public functions of each mosipcert layer, from outside.

Each traced name is wrapped once; the wrapper replaces the original in every
loaded mosipcert module that binds it (so names bound with
``from .x import y`` are traced too).  A name that no longer exists is
reported as absent rather than failing the run.
"""

from __future__ import annotations

import inspect
import sys
import time
from collections import defaultdict

# (module, attribute) of every traced function; a class entry traces its
# constructor, "Class.method" a static method.
TRACED = [
    ("lp", "solve"),
    ("cones", "Polytope"),
    ("cones", "FGCone"),
    ("cones", "HCone"),
    ("cones", "dd_convert"),
    ("cones", "zero_interior"),
    ("cones", "membership"),
    ("funcs", "subdiff_set"),
    ("problem", "CandidatePoint.build"),
    ("problem", "load_problem"),
    ("quals", "check_all"),
    ("quals", "check"),
    ("quals", "diagram_validate"),
    ("kkt", "weak_kkt"),
    ("kkt", "strong_kkt"),
    ("kkt", "perturbed_kkt"),
    ("kkt", "certificate_issues"),
    ("gap", "gap_zero_search"),
    ("gap", "perturbed_gap_check"),
    ("gap", "witness_issues"),
    ("oracle", "classify_grid"),
    ("cli", "main"),
]

QUALS_VIA_CHECK = ("MFCQ", "PMFCQ", "LFMCQ", "COCQ", "KTCQ", "PLVCQ", "CCCQ",
                   "ACQ", "WADQ", "EADQ", "MOQ")
SUBCOMMANDS = ("quals", "certify", "gap", "classify", "report")


def _span_name(base: str, args) -> str:
    """quals.check and cli.main are split by their first argument."""
    if base == "quals.check" and args:
        return f"{base}.{args[0]}"
    if base == "cli.main" and args and args[0]:
        return f"{base}.{args[0][0]}"
    return base


def _lp_key(prog) -> int:
    return hash((
        prog.num_vars,
        tuple(prog.objective),
        tuple((tuple(c), rel, rhs) for c, rel, rhs in prog.rows),
        None if prog.lower is None else tuple(prog.lower),
        None if prog.upper is None else tuple(prog.upper),
    ))


def rebind(original, replacement, undo: list) -> None:
    """Replace `original` by `replacement` wherever a loaded module binds it."""
    for name, mod in list(sys.modules.items()):
        if not (name == "mosipcert" or name.startswith("mosipcert.")
                or name == "helpers_instances"):
            continue
        for attr, value in list(vars(mod).items()):
            if value is original:
                undo.append((mod, attr, value))
                setattr(mod, attr, replacement)


class Tracer:
    def __init__(self, modules) -> None:
        self.modules = modules
        self.calls = defaultdict(int)
        self.incl = defaultdict(float)
        self.self_s = defaultdict(float)
        self.direct = defaultdict(float)  # (parent, child) -> child inclusive time
        self.extra = defaultdict(int)
        self.lp_keys: set = set()
        self.absent: list = []
        self._stack: list = []  # [name, start, children time]
        self._open = defaultdict(int)
        self._undo: list = []

    # -- spans ---------------------------------------------------------------

    def _wrap(self, base: str, fn, after=None):
        tracer = self

        def traced(*args, **kwargs):
            name = _span_name(base, args)
            frame = [name, time.perf_counter(), 0.0]
            tracer._stack.append(frame)
            tracer._open[name] += 1
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - frame[1]
                tracer._stack.pop()
                tracer._open[name] -= 1
                tracer.calls[name] += 1
                if not tracer._open[name]:  # outermost span of a recursion
                    tracer.incl[name] += dt
                tracer.self_s[name] += dt - frame[2]
                if tracer._stack:
                    parent = tracer._stack[-1]
                    parent[2] += dt
                    tracer.direct[(parent[0], name)] += dt
            if after is not None:
                after(args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _after_solve(self, args, result) -> None:
        prog = args[0]
        self.extra["lp.solve.cells"] += len(prog.rows) * prog.num_vars
        self.lp_keys.add(_lp_key(prog))
        if type(result).__name__ == "Infeasible":
            self.extra["lp.solve.infeasible"] += 1

    def _after_dd(self, args, result) -> None:
        self.extra["cones.dd_convert.out_generators"] += len(result.generators)

    def install(self) -> None:
        hooks = {"lp.solve": self._after_solve, "cones.dd_convert": self._after_dd}
        for module_name, attr in TRACED:
            base = f"{module_name}.{attr}"
            owner = getattr(self.modules, module_name)
            *path, leaf = attr.split(".")
            for part in path:
                owner = getattr(owner, part, None)
            original = None if owner is None else inspect.getattr_static(owner, leaf, None)
            if original is None:
                self.absent.append(base)
                continue
            if inspect.isclass(original):
                init = original.__init__
                self._undo.append((original, "__init__", original.__dict__.get("__init__")))
                original.__init__ = self._wrap(base, init)
            elif isinstance(original, staticmethod):
                self._undo.append((owner, leaf, original))
                setattr(owner, leaf, staticmethod(self._wrap(base, original.__func__)))
            else:
                rebind(original, self._wrap(base, original, hooks.get(base)), self._undo)

    def uninstall(self) -> None:
        for obj, attr, value in reversed(self._undo):
            if value is None:
                delattr(obj, attr)
            else:
                setattr(obj, attr, value)
        self._undo = []

    # -- metrics -------------------------------------------------------------

    def metrics(self) -> dict:
        """Per-layer metrics by name: (value, unit)."""
        out = {}
        solves = self.calls["lp.solve"]
        out["lp.solve.calls"] = (solves, "count")
        out["lp.solve.self_s"] = (self.self_s["lp.solve"], "s")
        out["lp.solve.cells"] = (self.extra["lp.solve.cells"], "count")
        out["lp.solve.distinct_ratio"] = (
            len(self.lp_keys) / solves if solves else 0.0, "ratio")
        out["lp.solve.infeasible"] = (self.extra["lp.solve.infeasible"], "count")
        for name in ("Polytope", "FGCone", "HCone", "dd_convert", "zero_interior",
                     "membership"):
            out[f"cones.{name}.calls"] = (self.calls[f"cones.{name}"], "count")
            out[f"cones.{name}.incl_s"] = (self.incl[f"cones.{name}"], "s")
        out["cones.dd_convert.out_generators"] = (
            self.extra["cones.dd_convert.out_generators"], "count")
        out["funcs.subdiff_set.calls"] = (self.calls["funcs.subdiff_set"], "count")
        incl_only = ["funcs.subdiff_set", "problem.CandidatePoint.build",
                     "problem.load_problem"]
        incl_only += [f"quals.check.{q}" for q in QUALS_VIA_CHECK]
        incl_only += ["quals.diagram_validate", "kkt.weak_kkt", "kkt.strong_kkt",
                      "kkt.perturbed_kkt", "kkt.certificate_issues",
                      "gap.gap_zero_search", "gap.perturbed_gap_check",
                      "gap.witness_issues", "oracle.classify_grid"]
        incl_only += [f"cli.main.{s}" for s in SUBCOMMANDS]
        for name in incl_only:
            out[f"{name}.incl_s"] = (self.incl[name], "s")
        checks = sum(dt for (parent, child), dt in self.direct.items()
                     if parent == "quals.check_all" and child.startswith("quals.check."))
        out["quals.slater_pair.incl_s"] = (self.incl["quals.check_all"] - checks, "s")
        return out

    def spans(self) -> dict:
        """Every span name seen, for the trace file."""
        return {
            name: {"calls": self.calls[name], "incl_s": self.incl[name],
                   "self_s": self.self_s[name]}
            for name in sorted(self.calls)
        }
