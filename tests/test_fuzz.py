"""Schema fuzz of the input boundary: `problem_from_json` and `cli.main`.

Documents are the bundled fixtures with up to three random edits (a node
replaced by a random JSON value, deleted, or a list entry duplicated).
`problem_from_json` must return a problem or raise `ParseError` or
`ModelError`.  `cli.main` must exit 0, 2 or 3; a nonzero exit writes exactly
one stderr line, `error: ...`, and nothing escapes as a traceback.
"""

from __future__ import annotations

import contextlib
import copy
import io
import json
import tempfile
from pathlib import Path

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from mosipcert import cli, instances
from mosipcert.errors import ModelError, ParseError
from mosipcert.problem import MosipProblem, problem_from_json

FIXTURES = {
    name: json.loads(Path(instances.fixture_path(name)).read_text())
    for name in instances.available_fixtures()
}
KEYS = ["a", "b", "kind", "rows", "pieces", "vertices", "center", "weight", "t",
        "family", "truncation", "params", "finite", "indexed", "flags", "name"]
FUZZ = settings(
    derandomize=True,
    deadline=None,
    database=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)

json_values = st.recursive(
    st.one_of(
        st.none(),
        st.booleans(),
        st.integers(-3, 8),
        st.floats(allow_nan=True, allow_infinity=True),
        st.text(alphabet="0123456789-/.e xa_", max_size=4),
    ),
    lambda inner: st.one_of(
        st.lists(inner, max_size=3),
        st.dictionaries(st.sampled_from(KEYS), inner, max_size=3),
    ),
    max_leaves=6,
)


@st.composite
def documents(draw):
    doc = copy.deepcopy(FIXTURES[draw(st.sampled_from(sorted(FIXTURES)))])
    for _ in range(draw(st.integers(0, 3))):
        node, parent, key = doc, None, None
        for _ in range(draw(st.integers(0, 6))):
            if isinstance(node, dict) and node:
                k = draw(st.sampled_from(sorted(node)))
            elif isinstance(node, list) and node:
                k = draw(st.integers(0, len(node) - 1))
            else:
                break
            parent, key, node = node, k, node[k]
        if parent is None:
            doc = draw(json_values)
            continue
        action = draw(st.sampled_from(["replace", "delete", "duplicate"]))
        if action == "delete":
            del parent[key]
        elif action == "duplicate" and isinstance(parent, list):
            parent.append(copy.deepcopy(node))
        else:
            parent[key] = draw(json_values)
    return doc


@settings(FUZZ, max_examples=300)
@given(documents())
def test_problem_from_json_raises_only_input_errors(doc) -> None:
    try:
        assert isinstance(problem_from_json(doc), MosipProblem)
    except (ParseError, ModelError):
        pass


POINTS = st.one_of(
    st.sampled_from(["0", "0,0", "-1", "1/2", "-1/2,-1/2", "2", "-2,-2"]),
    st.text(alphabet="0123456789,-/ ", max_size=6),
)
OPTION_TEXT = st.text(alphabet="0123456789,-/: ", max_size=6)
INT_OPTIONS = ("--truncation", "--resolution", "--sample-count")
SUBCOMMAND_OPTIONS = {
    "quals": ["--truncation", "--eps-grid"],
    "certify": ["--truncation", "--eps-grid", "--verify"],
    "gap": ["--truncation", "--nu", "--sample-count"],
    "classify": ["--truncation", "--resolution"],
    "report": ["--truncation", "--box", "--resolution", "--nu", "--verify"],
}


@settings(FUZZ, max_examples=200)
@given(documents(), st.sampled_from(sorted(SUBCOMMAND_OPTIONS)), POINTS, st.data())
def test_cli_exit_codes_and_one_error_line(doc, subcommand, point, data) -> None:
    options = data.draw(
        st.lists(st.sampled_from(SUBCOMMAND_OPTIONS[subcommand]), max_size=2, unique=True)
    )
    if subcommand == "classify":
        options.append("--box")  # required
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "problem.json"
        path.write_text(json.dumps(doc))
        argv = [subcommand, str(path), "--point", point,
                "--format", data.draw(st.sampled_from(["json", "table"]))]
        for option in options:
            if option == "--verify":
                argv.append(option)
            elif option in INT_OPTIONS:
                argv += [option, str(data.draw(st.integers(-2, 6)))]
            else:
                argv += [option, data.draw(OPTION_TEXT)]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    assert code in (0, 2, 3), (argv, err.getvalue())
    assert "Traceback" not in err.getvalue()
    if code:
        lines = err.getvalue().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: "), (argv, lines)
