#!/usr/bin/env python3
"""edgekit benchmark: one workload per invocation, one JSON result line.

    python3 bench/run.py --workload train-64 --seed 1 --seconds 15 --trace 0

Run it from the root of a source checkout; it imports edgekit from ``src/``
of that checkout and exits with code 2 when those sources are missing.

With ``--trace 0`` the run sets the workload up several times, runs whole
rounds until ``--seconds`` have passed, checks the outputs and prints the
end-to-end metrics. With ``--trace 1`` it makes the same untraced run, then
sets up again and repeats the same number of rounds with every traced layer
wrapped in spans, and prints the per-layer metrics. The spans go to
``.bench_out/trace-<workload>-seed<seed>.tsv.gz``.

The last line of standard output is the result:
``{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}``.
"""

from __future__ import annotations

import os

# One BLAS thread keeps the single closed-loop caller on one core (nproc >= 1)
# and steadies timings; set before numpy is first imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from collections import defaultdict  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter as clock  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_REPEATS = 3        # at least this many set-ups, and at least
SETUP_MIN_SECONDS = 1.0  # this long in all, so a quick set-up is timed often

E2E_UNITS = {"op_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


class NullHooks:
    """Hooks for an untraced run: the workloads' callbacks do nothing."""

    op = -1

    def model_built(self, detector) -> None:
        pass

    def set_stage(self, stage: str) -> None:
        pass


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def run_rounds(wl, state, hooks, seconds=None, rounds=None):
    """Closed loop: whole rounds until ``seconds`` pass (at least one round),
    or exactly ``rounds`` rounds."""
    from edgekit.errors import EdgekitError

    res = {"op_s": [], "parts": defaultdict(list), "attempted": 0, "failed": 0,
           "errors": []}
    start = clock()
    k = 0
    while (k < rounds) if rounds is not None else (k == 0 or clock() - start < seconds):
        hooks.op = k
        k += 1
        res["attempted"] += wl.ops_per_round
        try:
            parts = wl.round(state, hooks)
        except EdgekitError as exc:
            res["failed"] += wl.ops_per_round
            res["errors"].append(f"{type(exc).__name__}: {exc}")
            continue
        for name, values in parts.items():
            res["parts"][name] += values
        res["op_s"].append(sum(sum(v) for v in parts.values()) / wl.ops_per_round)
    res["rounds"] = k
    hooks.op = -1
    if not res["op_s"]:
        raise SystemExit("no round completed: " + "; ".join(res["errors"][:3]))
    return res


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6


def run_plain(wl, seed, seconds, workdir):
    hooks = NullHooks()
    setups = []
    while len(setups) < SETUP_REPEATS or sum(setups) < SETUP_MIN_SECONDS:
        state = None
        gc.collect()
        t0 = clock()
        state = wl.setup(seed, hooks, workdir)
        setups.append(clock() - t0)
    res = run_rounds(wl, state, hooks, seconds=seconds)
    rss = peak_rss_mb()  # before the checks, whose own passes are not the workload
    fails = res["errors"] + wl.check(state)
    metrics = {"op_s": statistics.median(res["op_s"]),
               "setup_s": statistics.median(setups),
               "peak_rss_mb": rss}
    return res, fails, {k: (v, E2E_UNITS[k]) for k, v in metrics.items()}


def run_traced(wl, seed, seconds, workdir):
    from tracing import Tracer
    from layers import per_layer_metrics

    hooks = NullHooks()
    state = wl.setup(seed, hooks, workdir)
    plain = run_rounds(wl, state, hooks, seconds=seconds)
    fails = plain["errors"] + wl.check(state)
    figures = wl.figures(plain["parts"], state)
    del state
    gc.collect()

    tracer = Tracer()
    tracer.install()
    try:
        t0 = clock()
        tstate = wl.setup(seed, tracer, workdir)
        traced = run_rounds(wl, tstate, tracer, rounds=plain["rounds"])
        wall = clock() - t0
    finally:
        tracer.uninstall()
    fails += traced["errors"]
    metrics = per_layer_metrics(tracer, wall, plain, traced, figures)
    tracer.write(OUT / f"trace-{wl.name}-seed{seed}.tsv.gz")
    return traced, fails, metrics


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "edgekit" / "__init__.py").is_file():
        print(f"edgekit sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import edgekit
    if Path(edgekit.__file__).resolve().parent != SRC / "edgekit":
        print(f"imported edgekit from {edgekit.__file__}, not {SRC}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    wl = WORKLOADS.get(args.workload)
    if wl is None:
        print(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    workdir = OUT / f"tmp-{wl.name}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        run = run_traced if args.trace else run_plain
        res, fails, metrics = run(wl, args.seed, args.seconds, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for msg in fails:
        print(f"check failed: {msg}", file=sys.stderr)
    for name, (value, unit) in metrics.items():
        print(f"# {wl.name} {name} = {value:.6g} {unit}")
    print(json.dumps({
        "correct": not fails,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
