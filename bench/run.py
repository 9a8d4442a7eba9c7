"""mosipcert benchmark: one workload, one process, one thread.

    python3 bench/run.py --workload {fixtures-cli,random-pipeline,dim5-pipeline}
                         --seed N --seconds S --trace {0,1} [--instances K]

Run from the repository root.  Set-up (importing mosipcert afresh and
building or loading every input) is repeated SETUP_REPEATS times; `setup_s`
is the median.  Then whole passes over the inputs run while the next one
fits in --seconds (at least one, two for the CLI workload, whose output
bytes are compared between passes); `pass_s` is the median pass.  Both
times are scaled to a reference machine speed measured next to the work
(see speed.py); the raw wall times go to the record file.  `lp_solves`
counts the calls into `lp.solve` in one pass.  With --trace 1, one more pass
runs with every layer's public functions wrapped, and the per-layer metrics
(raw times) replace the end-to-end ones.  Every operation's output is
checked; the last line of stdout is the result object, and the record with
the arithmetic backend, the environment and every timing goes to bench/out/.

--instances K replaces the random pipeline's stratified make-up with the
first K instances of the generator's plain stream, to reproduce reference LP
counts (seed 20260819, K = 100 gives 12,984).
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPEATS = 15
WORKLOADS = ("fixtures-cli", "random-pipeline", "dim5-pipeline")
LAYERS = ("rationals", "lp", "cones", "funcs", "problem", "quals", "kkt", "gap",
          "oracle", "instances", "cli")


def fresh_modules() -> SimpleNamespace:
    """Import mosipcert (and the instance generator) afresh."""
    for name in list(sys.modules):
        if name in ("mosipcert", "helpers_instances") or name.startswith("mosipcert."):
            del sys.modules[name]
    mods = {layer: importlib.import_module(f"mosipcert.{layer}") for layer in LAYERS}
    importlib.import_module("mosipcert")
    mods["helpers"] = importlib.import_module("helpers_instances")
    return SimpleNamespace(**mods)


def setup(workload, seed, stream, meter):
    """Returns (modules, inputs, raw and scaled set-up times)."""
    import workloads

    draws = workloads.select_draws(workload, seed, fresh_modules().helpers, stream)
    raw, scaled = [], []
    for _ in range(SETUP_REPEATS):
        meter.sample()
        first = len(meter.samples) - 1
        t0 = time.perf_counter()
        mods = fresh_modules()
        inputs = workloads.make_inputs(mods, workload, draws)
        raw.append(time.perf_counter() - t0)
        meter.sample()
        scaled.append(raw[-1] * meter.scale(first))
    return mods, inputs, raw, scaled


def one_pass(mods, workload, inputs, meter):
    """Run and check every input once.

    Returns (per operation: its raw and scaled time, None if it failed;
    issues; CLI outputs).
    """
    import workloads

    cli = workload == "fixtures-cli"
    samples, issues, outputs = [], [], []
    for item in inputs:
        meter.sample()
        first, spent = len(meter.samples) - 1, meter.spent
        try:
            if cli:
                dt, result = workloads.run_cli(mods, item)
            else:
                dt, result = workloads.run_pipeline(mods, item)
        except Exception:  # one failed operation must not end the run
            sys.stderr.write(traceback.format_exc())
            samples.append(None)
            outputs.append(None)
            continue
        dt -= meter.spent - spent
        meter.sample()
        samples.append((dt, dt * meter.scale(first)))
        if cli:
            issues += workloads.check_cli(item, result)
            outputs.append(result[1])
        else:
            issues += workloads.check_pipeline(mods, item, result)
    return samples, issues, outputs


def pass_time(samples, which: int) -> float:
    """Total raw (which=0) or scaled (which=1) time of a pass."""
    return sum(s[which] for s in samples if s is not None)


def environment(mods) -> dict:
    q = mods.rationals.Q
    return {
        "backend": f"{q.__module__}.{q.__qualname__}",
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--instances", type=int, default=None)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "mosipcert").is_dir() or not (ROOT / "tests").is_dir():
        sys.stderr.write(f"error: {ROOT} has no src/mosipcert or tests to benchmark\n")
        return 2
    if args.instances is not None and args.workload != "random-pipeline":
        parser.error("--instances applies only to random-pipeline")
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests"), str(HERE)]
    import spans
    import speed

    start = time.perf_counter()
    meter = speed.Meter()
    mods, inputs, setup_raw, setup_scaled = setup(args.workload, args.seed,
                                                  args.instances, meter)
    if not Path(mods.lp.__file__).resolve().is_relative_to(ROOT / "src"):
        sys.stderr.write(f"error: imported mosipcert from {mods.lp.__file__}\n")
        return 2

    spans.rebind(mods.lp.solve, meter.wrap_solve(mods.lp.solve), [])
    budget = args.seconds / 2 if args.trace else args.seconds
    # the CLI workload makes at least two passes to compare their output bytes
    min_passes = 2 if args.workload == "fixtures-cli" else 1
    passes, solves, issues, outputs, longest = [], [], [], None, 0.0
    while len(passes) < min_passes or time.perf_counter() - start + longest <= budget:
        t0, before = time.perf_counter(), meter.solves
        samples, found, outs = one_pass(mods, args.workload, inputs, meter)
        passes.append(samples)
        solves.append(meter.solves - before)
        issues += found
        if outputs is None:
            outputs = outs
        elif outs != outputs:
            issues.append("stdout differs between passes")
        longest = max(longest, time.perf_counter() - t0)
    if len(set(solves)) != 1:
        issues.append(f"lp_solves differs between passes: {solves}")

    env = environment(mods)
    record = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "environment": env, "lp_solves": solves[0],
        "setup_raw_s": setup_raw, "setup_scaled_s": setup_scaled,
        "pass_raw_s": [pass_time(p, 0) for p in passes],
        "pass_scaled_s": [pass_time(p, 1) for p in passes],
        "calibration_s": {"reference": speed.REFERENCE_S, "samples": len(meter.samples),
                          "median": statistics.median(meter.samples)},
        "operation_times_s": [list(p) for p in passes],
        "issues": issues,
    }
    if args.trace:
        meter.inner = False
        tracer = spans.Tracer(mods)
        tracer.install()
        try:
            samples, found, outs = one_pass(mods, args.workload, inputs, meter)
        finally:
            tracer.uninstall()
        passes.append(samples)
        issues += found
        if outs != outputs:
            issues.append("stdout differs between the traced and untraced passes")
        metrics = tracer.metrics()
        if metrics["lp.solve.calls"][0] != solves[0]:
            issues.append("traced lp.solve.calls differs from untraced lp_solves")
        traced_s = pass_time(samples, 0)
        metrics["trace.pass_s"] = (traced_s, "s")
        metrics["trace.overhead_s"] = (traced_s - statistics.median(record["pass_raw_s"]), "s")
        record.update(absent=tracer.absent, spans=tracer.spans())
    else:
        metrics = {
            "setup_s": (statistics.median(setup_scaled), "s"),
            "pass_s": (statistics.median(record["pass_scaled_s"]), "s"),
            "lp_solves": (solves[0], "count"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
    record["metrics"] = {k: v for k, (v, _) in metrics.items()}
    attempted = sum(len(p) for p in passes)
    failed = sum(s is None for p in passes for s in p)

    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (out_dir / name).write_text(json.dumps(record, indent=1) + "\n")
    for line in issues:
        sys.stderr.write(f"check failed: {line}\n")
    print(json.dumps({"environment": env, "passes": len(passes),
                      "pass_raw_s": record["pass_raw_s"],
                      "absent": record.get("absent", [])}))
    print(json.dumps({
        "correct": not issues,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
