"""Guards on the library source itself."""

from __future__ import annotations

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "mosipcert"


def test_no_assert_statements_in_library():
    # `python -O` strips assert statements, so an internal check written as
    # one would silently vanish; they raise InternalInconsistencyError instead
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Assert)
    ]
    assert len(list(SRC.glob("*.py"))) > 10
    assert found == []


PIECEWISE_KINDS = {"Affine", "MaxAffine", "SupportPolygon"}


def _kind_names(node) -> set:
    """Class names a node refers to, as `Name` or `module.Name`."""
    return {
        n.id if isinstance(n, ast.Name) else n.attr
        for n in ast.walk(node)
        if isinstance(n, (ast.Name, ast.Attribute))
    }


def _piecewise_isinstance_sites(path: Path) -> list:
    """(module, enclosing function) of each isinstance test on a
    piecewise-linear function kind."""
    sites = []

    def visit(node, where):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            where = node.name
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "isinstance"
            and len(node.args) == 2
            and _kind_names(node.args[1]) & PIECEWISE_KINDS
        ):
            sites.append((path.stem, where))
        for child in ast.iter_child_nodes(node):
            visit(child, where)

    visit(ast.parse(path.read_text(encoding="utf-8")), None)
    return sites


def test_piecewise_kinds_are_told_apart_in_one_place():
    # every other dispatch reads a piecewise-linear function through
    # funcs.affine_pieces, so a new kind needs one branch there (plus its
    # serialiser), not one per calculus rule
    sites = {site for path in sorted(SRC.glob("*.py")) for site in _piecewise_isinstance_sites(path)}
    assert sites == {("funcs", "affine_pieces"), ("funcs", "func_to_json")}


def _module_names(path: Path) -> set:
    """Every name a module refers to or imports."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = {
        alias.asname or alias.name
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom))
        for alias in node.names
    }
    return _kind_names(tree) | imported


CANONICALISING = {"Polytope", "FGCone", "membership"}


def _store_references(path: Path) -> set:
    """`.kept`, `_kept` and `derived` wherever a module names them."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Attribute) and node.attr in ("kept", "_kept", "derived"):
            found.add("." + node.attr)
        elif isinstance(node, ast.Name) and node.id in ("_kept", "derived"):
            found.add(node.id)
        elif isinstance(node, ast.ImportFrom):
            found |= {alias.name for alias in node.names} & {"_kept", "derived"}
    return found


def test_the_point_store_is_the_only_memo():
    # every derived quantity at a candidate point is kept in one store that
    # only `problem` reads and writes; a module keeping entries of its own
    # would split it again.  MFCQ and COCQ refute with one decomposition
    # over the raw input, so `quals` canonicalises nothing.
    found = {
        path.stem: _store_references(path)
        for path in sorted(SRC.glob("*.py"))
        if path.stem != "problem"
    }
    assert found == {stem: set() for stem in found}
    assert _module_names(SRC / "quals.py") & CANONICALISING == set()


def _calls(path: Path, names) -> set:
    """The names among `names` that a module calls, as `Name(...)` or
    `module.Name(...)`."""
    return {
        node.func.id if isinstance(node.func, ast.Name) else node.func.attr
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Call)
        and isinstance(node.func, (ast.Name, ast.Attribute))
        and (node.func.id if isinstance(node.func, ast.Name) else node.func.attr) in names
    }


def test_a_subdifferential_is_its_active_pieces():
    # a subdifferential is a (points, rays) pair read off the active pieces;
    # every consumer reads the pair as columns or rows, so canonicalising it
    # would only add pruning LPs, and the wrapper class that held it is gone
    named = {path.stem for path in sorted(SRC.glob("*.py")) if "GenConvexSet" in _module_names(path)}
    assert named == set()
    assert _calls(SRC / "funcs.py", {"Polytope", "FGCone", "HCone"}) == set()


def _imports_of(path: Path, module: str) -> set:
    """The names a module imports from `module` (relative or as
    `mosipcert.<module>`), and `module` itself when it is imported whole."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom):
            if node.module in (module, f"mosipcert.{module}"):
                found |= {alias.name for alias in node.names}
            elif node.module in (None, "mosipcert"):
                found |= {module for alias in node.names if alias.name == module}
        elif isinstance(node, ast.Import):
            found |= {module for alias in node.names if alias.name == f"mosipcert.{module}"}
    return found


def test_the_calculus_takes_only_hpoly_from_cones():
    # a subdifferential lists active pieces and active domain normals, so
    # `funcs` runs no LP; a pruning constructor or `polar` imported from
    # `cones` would bring canonicalisation back into the calculus
    assert _imports_of(SRC / "funcs.py", "cones") == {"HPoly"}


LP_FREE = (
    "dd_convert", "_eliminate", "_lineality", "_extreme_rays", "_affine_escape",
    "_forced_weights", "_rref", "_projected",
)
LP_NAMES = {"lp", "decompose", "_pruned_rays", "_canonical_rays"}
PRUNING_CONSTRUCTORS = {"Polytope", "FGCone", "HCone"}


def test_double_description_makes_no_lp():
    # the double description builds its canonical generators combinatorially;
    # an LP, a pruning loop or a pruning constructor inside it would bring the
    # cost of the deleted +-axis slices back.  The eliminations that settle
    # forced answers in place of an LP must not run one either
    tree = ast.parse((SRC / "cones.py").read_text(encoding="utf-8"))
    funcs = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
    found = {
        name: (_kind_names(funcs[name]) & LP_NAMES) | {
            node.func.id
            for node in ast.walk(funcs[name])
            if isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id in PRUNING_CONSTRUCTORS
        }
        for name in LP_FREE
    }
    assert found == {name: set() for name in LP_FREE}


def test_the_checkers_and_the_point_run_no_double_description():
    # WADQ and EADQ ask one containment of F0 n G0 in C, with no generators;
    # a double description in the checkers or the candidate point would
    # bring back the generator loop and a dimension limit with it
    found = {
        f"{module}.{name}"
        for module in ("quals", "problem")
        for name, node in _functions(SRC / f"{module}.py").items()
        if "dd_convert" in _kind_names(node)
    }
    assert found == set()
    assert all("dd_convert" not in _imports_of(SRC / f"{m}.py", "cones") for m in ("quals", "problem"))


def test_the_gap_row_proof_makes_no_lp():
    # the zero of the gap is proved by substitution of active-row
    # multipliers, a check much simpler than the LPs that found them; an LP,
    # a decomposition or the sup LP inside it would make it a second solver
    funcs = _functions(SRC / "gap.py")
    assert _kind_names(funcs["_row_multipliers"]) & {"lp", "decompose", "_sup_lp"} == set()


INTEGER_KERNELS = {
    "cones": ("_row_reduce", "_eliminate", "_lineality", "_extreme_rays"),
    "lp": ("_eliminate", "_reduced", "_Tableau._pivot", "_Tableau._iterate",
           "_Tableau._entering", "_Tableau._price_out"),
}
RATIONAL_NAMES = {"Q", "as_q", "ONE", "ZERO", "Fraction"}


def _functions(path: Path) -> dict:
    """Top-level functions and class methods by name, a method as
    `Class.method`."""
    found = {}
    for node in ast.parse(path.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.FunctionDef):
            found[node.name] = node
        elif isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef):
                    found[f"{node.name}.{item.name}"] = item
    return found


def test_exact_kernels_compute_in_integers():
    # the elimination of the double description and the pivoting of the
    # simplex work on Python ints; a rational creeping back into them would
    # bring back one Fraction operation per entry
    found = {}
    for module, names in INTEGER_KERNELS.items():
        funcs = _functions(SRC / f"{module}.py")
        for name in names:
            found[f"{module}.{name}"] = _kind_names(funcs[name]) & RATIONAL_NAMES
    assert found == {f"{m}.{n}": set() for m, names in INTEGER_KERNELS.items() for n in names}


def test_only_rationals_reads_numerators_and_denominators():
    # every conversion from Q to integers goes through `rationals`, whose
    # `scaled_ints` hands the kernels Python ints on either backend (gmpy2's
    # numerators and denominators are mpz); a read elsewhere would bypass it
    readers = {
        path.stem
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Attribute) and node.attr in ("numerator", "denominator")
    }
    assert readers == {"rationals"}


def _lp_builders(path: Path) -> set:
    """(module, function) of each function that calls `LinearProgram` or
    `lp.LinearProgram`."""
    return {
        (path.stem, node.name)
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.FunctionDef)
        and any(
            isinstance(call, ast.Call) and "LinearProgram" in _kind_names(call.func)
            for call in ast.walk(node)
        )
    }


def test_every_lp_builder_is_listed():
    # one LP per question: `decompose` writes a target over points and
    # generators, and so also prunes, and its Farkas vector separates the
    # target from them (`cones.strict_direction`); each other builder asks a
    # question of its own, and a second decomposition or separation LP must
    # not come back unnoticed
    builders = {site for path in sorted(SRC.glob("*.py")) for site in _lp_builders(path)}
    assert builders == {
        ("cones", "decompose"),  # with a margin; without one via lp.feasible_point
        ("gap", "_sup_lp"),  # sup of a linear function over S
        ("lp", "feasible_point"),  # a point of the rows, for decompose
        ("quals", "_slater_lp"),  # min of the envelope over its domains
    }


def test_no_module_reads_the_environment():
    # the library's behaviour is fixed by its arguments and constants: no
    # module imports `os`, so no environment variable can steer it
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if (isinstance(node, ast.Import) and any(a.name.split(".")[0] == "os" for a in node.names))
        or (isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "os")
        or (isinstance(node, ast.Attribute) and node.attr in ("environ", "getenv"))
    ]
    assert found == []


def _definitions(path: Path) -> set:
    """The top-level functions, classes and assigned names of a module."""
    found = set()
    for node in ast.parse(path.read_text(encoding="utf-8")).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            found.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            found |= {t.id for t in targets if isinstance(t, ast.Name)}
    return found


def _uses(path: Path) -> set:
    """Every name a file reads, as a name, an attribute or an import."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            found |= {alias.name for alias in node.names}
    return found


def test_every_source_definition_is_reached():
    # a definition that nothing in the package, the benchmark or the scripts
    # reaches, and that the package does not export, is dead code; one that
    # only tests call belongs in the test helpers
    import mosipcert

    files = [*sorted(SRC.glob("*.py")), *sorted(ROOT.glob("bench/*.py")), *sorted(ROOT.glob("scripts/*.py"))]
    used = set().union(*map(_uses, files)) | set(mosipcert.__all__)
    unreached = {
        f"{path.stem}.{name}"
        for path in sorted(SRC.glob("*.py"))
        if path.stem != "__init__"
        for name in _definitions(path) - used
    }
    assert unreached == set()
