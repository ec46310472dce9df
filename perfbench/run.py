#!/usr/bin/env python3
"""Repository benchmark entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --smoke

Builds perfbench/ (the Themis library from src/ plus the measuring program)
into $CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench), runs one
workload, echoes the program's report, and prints as its last line one JSON
object with the metrics BENCHMARK.json declares: the end_to_end ones with
--trace 0, the per_layer ones with --trace 1. Exits nonzero when the build
fails, an output check fails, or a declared metric is missing.

--smoke runs every workload at a tiny population in both trace modes, checks
that every declared metric prints by name with its unit, and checks that a
tampered expected fingerprint or digest makes the program fail.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = Path(__file__).resolve().parent
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build_dir():
    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = ROOT / target
    return target / "perfbench"


def build():
    """Configure and (re)build; all tool output goes to stderr."""
    out = build_dir()
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [["cmake", "-S", str(BENCH_DIR), "-B", str(out),
              "-DCMAKE_BUILD_TYPE=Release"],
             ["cmake", "--build", str(out), "-j", jobs]]
    for cmd in steps:
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=BUILD_TIMEOUT_S, check=False)
        if done.returncode != 0:
            log(f"build step failed: {' '.join(cmd)}")
            return None
    binary = out / "themis_perfbench"
    return binary if binary.exists() else None


def run_program(binary, args):
    """Run the measuring program; return (exit code, stdout lines, result)."""
    work = build_dir() / "work"
    work.mkdir(parents=True, exist_ok=True)
    cmd = [str(binary), *args, "--work-dir", str(work)]
    done = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                          text=True, timeout=RUN_TIMEOUT_S, check=False)
    lines = done.stdout.splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except json.JSONDecodeError:
            result = None
    return done.returncode, lines, result


def declared(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return spec["per_layer" if trace else "end_to_end"]


def select(result, trace):
    """The declared metrics, with their declared units; raises if absent."""
    metrics = {}
    for m in declared(trace):
        got = result["metrics"].get(m["name"])
        if got is None:
            raise KeyError(f"metric {m['name']} was not measured")
        if got["unit"] != m["unit"]:
            raise KeyError(f"metric {m['name']} has unit {got['unit']}, "
                           f"declared {m['unit']}")
        metrics[m["name"]] = {"value": got["value"], "unit": m["unit"]}
    return metrics


def run_one(ns):
    binary = build()
    if binary is None:
        return 1
    code, lines, result = run_program(binary, [
        "--workload", ns.workload, "--seed", str(ns.seed),
        "--seconds", str(ns.seconds), "--trace", str(ns.trace)])
    if result is None:
        for line in lines:
            print(line, file=sys.stderr)
        log(f"program exited {code} without a result")
        return code or 1
    for line in lines[:-1]:
        print(line)
    try:
        metrics = select(result, ns.trace)
    except KeyError as err:
        log(str(err))
        return 1
    print(json.dumps({"correct": result["correct"],
                      "attempted": result["attempted"],
                      "failed": result["failed"],
                      "metrics": metrics}))
    return 0 if code == 0 and result["correct"] else 1


def smoke():
    binary = build()
    if binary is None:
        return 1
    problems = []
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for w in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            code, lines, result = run_program(binary, [
                "--workload", w, "--seed", "7", "--seconds", "1",
                "--trace", str(trace), "--smoke"])
            label = f"{w} --trace {trace}"
            if code != 0 or result is None or not result["correct"]:
                problems.append(f"{label}: exit {code}, checks failed")
                print("\n".join(lines), file=sys.stderr)
                continue
            try:
                select(result, trace)
            except KeyError as err:
                problems.append(f"{label}: {err}")
            printed = {tuple(l.split()[::2]) for l in lines[:-1]
                       if len(l.split()) == 3}
            for m in declared(trace):
                if (m["name"], m["unit"]) not in printed:
                    problems.append(f"{label}: no '{m['name']} <value> "
                                    f"{m['unit']}' line")
        # A traced run checks its grant fingerprint against the untraced
        # run's (and the daemon its digest against the in-process replay's).
        code, _, result = run_program(binary, [
            "--workload", w, "--seed", "7", "--seconds", "1",
            "--trace", "1", "--smoke", "--tamper"])
        if code == 0 or result is None or result["correct"]:
            problems.append(f"{w} --tamper: tampered fingerprint was not "
                            "caught")
    for p in problems:
        log(p)
    print("smoke: " + ("FAIL" if problems else "PASS"))
    return 1 if problems else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    ns = parser.parse_args()
    try:
        if ns.smoke:
            return smoke()
        if not ns.workload:
            parser.error("--workload is required")
        return run_one(ns)
    except (OSError, subprocess.TimeoutExpired, ValueError) as err:
        log(str(err))
        return 1


if __name__ == "__main__":
    sys.exit(main())
