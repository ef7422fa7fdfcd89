#!/usr/bin/env python3
"""Fast self-test of the benchmark, at a one-second run length.

    python3 bench/selftest.py [workload ...]

It validates the form of BENCHMARK.json, runs every workload (or the ones
named) untraced and traced, so that every workload's output checks run, and
validates each printed report. Last, it runs the benchmark in a directory
that holds only BENCHMARK.json and the benchmark's files, where it must fail
without printing a result. Exits 0 when everything holds, 1 otherwise.
"""

from __future__ import annotations

import json
import math
import re
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = Path(__file__).resolve().parent
RUN_TIMEOUT = 300

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
PATH = re.compile(r"^[A-Za-z0-9_./-]{1,200}$")


def spec_errors(spec: dict) -> list[str]:
    errs = []
    keys = {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    if set(spec) != keys:
        return [f"top-level keys {sorted(spec)} != {sorted(keys)}"]
    cmd = spec["command"]
    if not (isinstance(cmd, list) and 1 <= len(cmd) <= 32
            and all(isinstance(a, str) and len(a) <= 200 for a in cmd)):
        errs.append("command must be a list of 1-32 strings of at most 200 characters")
    paths = spec["paths"]
    if not (isinstance(paths, list) and 1 <= len(paths) <= 16):
        errs.append("paths must list 1-16 directories")
        paths = []
    for p in paths:
        if not PATH.match(p) or p.startswith("/") or ".." in p.split("/"):
            errs.append(f"bad path {p!r}")
        elif not (ROOT / p).is_dir():
            errs.append(f"path {p!r} is not a directory")
    rs = spec["run_seconds"]
    if not (isinstance(rs, int) and not isinstance(rs, bool) and 1 <= rs <= 60):
        errs.append("run_seconds must be a whole number from 1 to 60")
    seen = set()

    def check_names(entries, keys, lo, hi, what):
        if not (isinstance(entries, list) and lo <= len(entries) <= hi):
            errs.append(f"{what}: need {lo} to {hi} entries")
            return
        for e in entries:
            if set(e) != keys:
                errs.append(f"{what}: keys {sorted(e)} != {sorted(keys)}")
                continue
            if not NAME.match(e["name"]) or e["name"] in seen:
                errs.append(f"{what}: bad or repeated name {e['name']!r}")
            seen.add(e["name"])
            if "unit" in keys and not UNIT.match(e["unit"]):
                errs.append(f"{what}: bad unit {e['unit']!r}")
            if "better" in keys and e["better"] not in ("higher", "lower"):
                errs.append(f"{what}: better must be higher or lower")

    check_names(spec["workloads"], {"name", "why"}, 2, 8, "workloads")
    for w in spec["workloads"]:
        if not (isinstance(w.get("why"), str) and 0 < len(w["why"]) <= 200
                and "\n" not in w["why"]):
            errs.append(f"workload {w.get('name')}: why must be one line of at most 200 characters")
    check_names(spec["end_to_end"], {"name", "unit", "better", "bound"}, 1, 16, "end_to_end")
    check_names(spec["per_layer"], {"name", "unit", "better"}, 1, 128, "per_layer")
    bounds = {e["name"]: e.get("bound") for e in spec["end_to_end"]}
    for name, b in bounds.items():
        if not (isinstance(b, (int, float)) and 0 < b <= 0.25):
            errs.append(f"bound of {name} must lie in (0, 0.25]")
    setup = [e for e in spec["end_to_end"] if e["name"] == "setup_s"]
    if not setup or setup[0]["unit"] != "s" or setup[0]["better"] != "lower":
        errs.append("end_to_end must hold setup_s in s, lower is better")
    elif setup[0]["bound"] < max(bounds.values()):
        errs.append("setup_s must have the largest bound")
    if len((ROOT / "BENCHMARK.json").read_bytes()) > 64 * 1024:
        errs.append("BENCHMARK.json is larger than 64 KiB")
    return errs


def report_errors(line: str, expected: dict[str, str], e2e: bool) -> list[str]:
    try:
        rep = json.loads(line)
    except json.JSONDecodeError:
        return [f"last line is not JSON: {line[:120]!r}"]
    errs = []
    if set(rep) != {"correct", "attempted", "failed", "metrics"}:
        return [f"report keys {sorted(rep)}"]
    if rep["correct"] is not True:
        errs.append("correct is not true")
    if not (type(rep["attempted"]) is int and rep["attempted"] >= 1):
        errs.append(f"attempted {rep['attempted']!r}")
    if rep["failed"] != 0 or type(rep["failed"]) is not int:
        errs.append(f"failed {rep['failed']!r}")
    metrics = rep["metrics"]
    if set(metrics) != set(expected):
        errs.append(f"metric names differ: missing {sorted(set(expected) - set(metrics))}, "
                    f"extra {sorted(set(metrics) - set(expected))}")
    for name, m in metrics.items():
        v = m.get("value")
        if set(m) != {"value", "unit"} or m.get("unit") != expected.get(name):
            errs.append(f"{name}: {m}")
        elif not (isinstance(v, (int, float)) and math.isfinite(v)):
            errs.append(f"{name}: value {v!r} is not a finite number")
        elif e2e and v <= 0:
            errs.append(f"{name}: end-to-end value {v} is not positive")
    return errs


def run(cmd: list[str], cwd: Path) -> subprocess.CompletedProcess:
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                          timeout=RUN_TIMEOUT)


def main(argv: list[str]) -> int:
    sys.path.insert(0, str(ROOT / "src"))
    from layers import metric_specs
    from workloads import WORKLOADS

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    errs = spec_errors(spec)
    if [w["name"] for w in spec["workloads"]] != list(WORKLOADS):
        errs.append("BENCHMARK.json workloads differ from bench/workloads.py")
    if [(e["name"], e["unit"], e["better"]) for e in spec["per_layer"]] != metric_specs():
        errs.append("BENCHMARK.json per_layer differs from bench/layers.py")
    for msg in errs:
        print(f"FAIL spec: {msg}")

    e2e = {e["name"]: e["unit"] for e in spec["end_to_end"]}
    layer = {e["name"]: e["unit"] for e in spec["per_layer"]}
    for name in argv or list(WORKLOADS):
        for trace in (0, 1):
            cmd = spec["command"] + ["--workload", name, "--seed", "3",
                                     "--seconds", "1", "--trace", str(trace)]
            proc = run(cmd, ROOT)
            lines = proc.stdout.strip().splitlines()
            found = ([f"exit code {proc.returncode}: {proc.stderr.strip()[-400:]}"]
                     if proc.returncode or not lines else
                     report_errors(lines[-1], layer if trace else e2e, not trace))
            for msg in found:
                print(f"FAIL {name} trace={trace}: {msg}")
            if not found:
                print(f"ok   {name} trace={trace}")
            errs += found

    bare = ROOT / ".bench_out" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for p in spec["paths"]:
        shutil.copytree(ROOT / p, bare / p, ignore=shutil.ignore_patterns("__pycache__"))
    name = next(iter(WORKLOADS))
    proc = run(spec["command"] + ["--workload", name, "--seed", "3",
                                  "--seconds", "1", "--trace", "0"], bare)
    shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or '"metrics"' in proc.stdout:
        errs.append("a directory without the sources did not fail")
        print("FAIL bare directory: the benchmark did not fail without src/")
    else:
        print(f"ok   bare directory exits {proc.returncode}")
    return 1 if errs else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
