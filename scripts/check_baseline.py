#!/usr/bin/env python3
"""Check bench reports against a committed baseline.

Usage: scripts/check_baseline.py REPORT [REPORT ...] BASELINE

Each REPORT is read as one of:
  - a BenchReport JSON (bench/bench_common.h): its "config" object and its
    "metrics" list of {"name", "value"};
  - a google-benchmark JSON (--benchmark_out): each median aggregate's
    real_time, in microseconds, under its run_name ("BM_Foo/8");
  - any other text, such as `/usr/bin/time -v` output: each "key: number"
    line, under its key.
The metrics of all reports are merged; a name given twice is an error.

BASELINE (bench/baselines/<bench>.json) declares the checks, all optional:
  config       the report's config object must equal this one
  exact        metric == value
  at_least     metric >= value
  below        metric <  value
  less_than    [[a, b], ...]: metric a < metric b
  median       metric <= median_band x value (median_band is required with it)
  min_cores    on a host with fewer CPUs, at_least, below, less_than and
               median are skipped with a notice; config and exact still run
It may also hold "bench", "about", "measured_on", "setup" (what the bench
measures, unchecked) and "record" (figures kept for reference, unchecked).
Any other key is an error, so a misspelt check cannot pass silently.

Exits 0 when every check passes, 1 when one fails (each failure names its
metric), 2 on a malformed baseline or an unreadable report.
"""
import json
import os
import sys

DOC_KEYS = {"bench", "about", "measured_on", "setup", "record"}
CHECK_KEYS = {"config", "exact", "at_least", "below", "less_than", "median",
              "median_band", "min_cores"}
TIME_SCALE_US = {"ns": 1e-3, "us": 1.0, "ms": 1e3, "s": 1e6}


class Malformed(Exception):
    pass


def read_report(path):
    """(config or None, {metric: value}) of one report file."""
    with open(path) as f:
        text = f.read()
    try:
        report = json.loads(text)
    except ValueError:
        report = None
    if isinstance(report, dict) and "metrics" in report:
        return (report.get("config"),
                [(m["name"], m["value"]) for m in report["metrics"]])
    if isinstance(report, dict) and "benchmarks" in report:
        return None, [(b["run_name"],
                       b["real_time"] * TIME_SCALE_US[b["time_unit"]])
                      for b in report["benchmarks"]
                      if b.get("aggregate_name") == "median"]
    metrics = []
    for line in text.splitlines():
        key, _, value = line.strip().rpartition(": ")
        try:
            metrics.append((key, float(value)))
        except ValueError:
            pass
    return None, metrics


def load(report_paths):
    configs, metrics = [], {}
    for path in report_paths:
        config, pairs = read_report(path)
        if config is not None:
            configs.append(config)
        for name, value in pairs:
            if name in metrics:
                raise Malformed(f"{path}: metric {name} given twice")
            metrics[name] = value
    return configs, metrics


def check(baseline, configs, metrics):
    """Returns the failure messages; prints one line per check."""
    unknown = set(baseline) - DOC_KEYS - CHECK_KEYS
    if unknown:
        raise Malformed(f"unknown baseline keys {sorted(unknown)}")
    if ("median" in baseline) != ("median_band" in baseline):
        raise Malformed("median and median_band go together")
    failures = []

    def value(name):
        if name not in metrics:
            failures.append(f"{name}: missing from the report")
            return None
        return metrics[name]

    def expect(name, ok, text):
        print(f"{'ok  ' if ok else 'FAIL'} {name}: {text}")
        if not ok:
            failures.append(f"{name}: {text}")

    if "config" in baseline:
        want = baseline["config"]
        if len(configs) != 1:
            failures.append(f"config: {len(configs)} of the reports carry "
                            "a config, expected exactly 1")
        else:
            got = configs[0]
            for key in sorted(set(want) | set(got)):
                expect(f"config.{key}", got.get(key) == want.get(key),
                       f"{got.get(key)!r}, baseline {want.get(key)!r}")

    for name, want in baseline.get("exact", {}).items():
        got = value(name)
        if got is not None:
            expect(name, got == want, f"{got!r}, exactly {want!r}")

    cores = os.cpu_count() or 1
    if cores < baseline.get("min_cores", 0):
        print(f"NOTICE: {cores} CPU(s) < min_cores "
              f"{baseline['min_cores']}: at_least, below, less_than and "
              "median checks skipped")
        return failures

    for name, floor in baseline.get("at_least", {}).items():
        got = value(name)
        if got is not None:
            expect(name, got >= floor, f"{got:.6g}, at least {floor:.6g}")
    for name, ceiling in baseline.get("below", {}).items():
        got = value(name)
        if got is not None:
            expect(name, got < ceiling, f"{got:.6g}, below {ceiling:.6g}")
    for pair in baseline.get("less_than", []):
        if len(pair) != 2:
            raise Malformed(f"less_than entry {pair!r} is not a pair")
        a, b = value(pair[0]), value(pair[1])
        if a is not None and b is not None:
            expect(pair[0], a < b, f"{a:.6g}, below {pair[1]} = {b:.6g}")
    band = baseline.get("median_band")
    for name, median in baseline.get("median", {}).items():
        got = value(name)
        if got is not None:
            expect(name, got <= band * median,
                   f"{got:.6g}, at most {band:g} x median {median:.6g} "
                   f"= {band * median:.6g}")
    return failures


def main(argv):
    if len(argv) < 3:
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        return 2
    *report_paths, baseline_path = argv[1:]
    try:
        with open(baseline_path) as f:
            baseline = json.load(f)
        configs, metrics = load(report_paths)
        failures = check(baseline, configs, metrics)
    except (OSError, ValueError, KeyError, TypeError, Malformed) as err:
        print(f"check_baseline: {err!r}", file=sys.stderr)
        return 2
    name = baseline.get("bench", baseline_path)
    for failure in failures:
        print(f"check_baseline: {name}: {failure}", file=sys.stderr)
    print(f"{name}: {'FAIL' if failures else 'PASS'}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
