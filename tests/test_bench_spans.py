"""The benchmark's layer map: every name `bench/spans.py` traces still exists
with the kind the tracer expects, so no per-layer metric silently reads 0."""

from __future__ import annotations

import importlib
from pathlib import Path
from types import SimpleNamespace

BENCH = Path(__file__).resolve().parent.parent / "bench"


def test_tracer_finds_every_traced_name_and_counts_its_calls(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    spans = importlib.import_module("spans")
    from mosipcert.instances import load_fixture

    layers = {module for module, _ in spans.TRACED}
    mods = SimpleNamespace(
        **{name: importlib.import_module(f"mosipcert.{name}") for name in layers}
    )
    tracer = spans.Tracer(mods)
    tracer.install()
    try:
        assert tracer.absent == []
        p = load_fixture("alternating-affine")
        cp = mods.problem.CandidatePoint.build(p, [0])
        mods.quals.check_all(p, cp)
    finally:
        tracer.uninstall()
    for name in ("problem.CandidatePoint.build", "funcs.subdiff_set", "lp.solve"):
        assert tracer.calls[name] > 0, name
