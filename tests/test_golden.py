"""Byte equality of the exact CLI paths against committed outputs.

`tests/golden/<fixture>.<subcommand>.json` holds the stdout of `quals`,
`certify --verify`, `gap --nu 2`, `classify --box=B` and
`report --box=B --verify` on each bundled fixture at its documented candidate,
with B the fixture's search box.  `tests/golden/lineality-plane.quals.json`
holds the stdout of `quals` on `tests/problems/lineality-plane.json` at the
origin, where F0 n G0 has a lineality line.  WADQ and EADQ decide it by one
containment and print no generators of it; the canonical form of a cone with
lineality is pinned by the `dd_convert` reference tests of `test_cones.py`.
A change that is meant to
keep every verdict, certificate and witness must leave these bytes alone; one
that is meant to change them regenerates the files and says why.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from mosipcert import cli

GOLDEN = Path(__file__).parent / "golden"
POINTS = {"alternating-affine": "0", "octagon-support": "0,0", "neg-semicircle": "0"}
BOXES = {"alternating-affine": "-3:0", "octagon-support": "-2:0,-2:0", "neg-semicircle": "0:2"}
EXTRA = {
    "quals": [],
    "certify": ["--verify"],
    "gap": ["--nu", "2"],
    "classify": ["--box={box}"],
    "report": ["--box={box}", "--verify"],
}


@pytest.mark.parametrize("subcommand", sorted(EXTRA))
@pytest.mark.parametrize("fixture", sorted(POINTS))
def test_stdout_matches_golden(capsys, fixture, subcommand):
    argv = [subcommand, fixture, f"--point={POINTS[fixture]}", "--format", "json"]
    extra = [arg.format(box=BOXES[fixture]) for arg in EXTRA[subcommand]]
    assert cli.main(argv + extra) == 0
    out = capsys.readouterr().out
    expected = (GOLDEN / f"{fixture}.{subcommand}.json").read_text(encoding="utf-8")
    assert out == expected


def test_lineality_generators_match_golden(capsys):
    problem = Path(__file__).parent / "problems" / "lineality-plane.json"
    assert cli.main(["quals", str(problem), "--point=0,0,0", "--format", "json"]) == 0
    expected = (GOLDEN / "lineality-plane.quals.json").read_text(encoding="utf-8")
    assert capsys.readouterr().out == expected
