#!/usr/bin/env python3
"""Self-test of scripts/check_baseline.py: a passing fixture passes, and a
report broken for each check kind fails with a message naming the broken
metric, so every CI bench gate is shown to bite.

Usage: tests/check_baseline_selftest.py [path/to/check_baseline.py]
"""
import copy
import json
import pathlib
import subprocess
import sys
import tempfile

CHECKER = pathlib.Path(sys.argv[1] if len(sys.argv) > 1 else
                       pathlib.Path(__file__).parent.parent / "scripts" /
                       "check_baseline.py")

BENCH = {"bench": "demo", "seed": 42,
         "config": {"gpus": 4096, "policy": "themis"},
         "metrics": [{"name": "hash", "value": 3133751958},
                     {"name": "rate", "value": 2500.0},
                     {"name": "rss_mb", "value": 11.5},
                     {"name": "act@mixed", "value": 40.0},
                     {"name": "act@K80", "value": 90.0},
                     {"name": "wall_sec", "value": 3.9}]}
GBENCH = {"benchmarks": [
    {"run_name": "BM_Solve/8", "aggregate_name": "mean",
     "real_time": 90.0, "time_unit": "us"},
    {"run_name": "BM_Solve/8", "aggregate_name": "median",
     "real_time": 25000.0, "time_unit": "ns"}]}
TIME_V = ("\tCommand being timed: \"./bench\"\n"
          "\tElapsed (wall clock) time (h:mm:ss or m:ss): 0:01.20\n"
          "\tMaximum resident set size (kbytes): 11776\n")
BASELINE = {"bench": "demo", "about": "self-test fixture",
            "config": {"gpus": 4096, "policy": "themis"},
            "exact": {"hash": 3133751958},
            "at_least": {"rate": 2000},
            "below": {"rss_mb": 256,
                      "Maximum resident set size (kbytes)": 262144},
            "less_than": [["act@mixed", "act@K80"]],
            "median_band": 2.0,
            "median": {"wall_sec": 3.52, "BM_Solve/8": 19.4},
            "record": {"note": "unchecked"}}


def metric(report, name, value):
    for m in report["metrics"]:
        if m["name"] == name:
            m["value"] = value


def run(tmp, bench=BENCH, gbench=GBENCH, time_v=TIME_V, baseline=BASELINE):
    files = []
    for name, body in (("bench.json", json.dumps(bench)),
                       ("gbench.json", json.dumps(gbench)),
                       ("time_v.txt", time_v),
                       ("baseline.json", json.dumps(baseline))):
        path = tmp / name
        path.write_text(body)
        files.append(str(path))
    done = subprocess.run([sys.executable, str(CHECKER), *files],
                          capture_output=True, text=True)
    return done.returncode, done.stdout + done.stderr


def main():
    failures = []

    def expect(label, got_rc, out, want_rc, named=None):
        if got_rc != want_rc or (named and f"check_baseline: demo: {named}"
                                 not in out):
            failures.append(f"{label}: exit {got_rc} (want {want_rc}), "
                            f"{named or 'no metric'} expected in:\n{out}")

    with tempfile.TemporaryDirectory() as d:
        tmp = pathlib.Path(d)
        rc, out = run(tmp)
        expect("passing fixture", rc, out, 0)

        broken = []
        bench = copy.deepcopy(BENCH)
        bench["config"]["gpus"] = 512
        broken.append(("config", dict(bench=bench), "config.gpus"))
        bench = copy.deepcopy(BENCH)
        metric(bench, "hash", 3133751959)
        broken.append(("exact", dict(bench=bench), "hash"))
        bench = copy.deepcopy(BENCH)
        metric(bench, "rate", 1999.0)
        broken.append(("at_least", dict(bench=bench), "rate"))
        bench = copy.deepcopy(BENCH)
        metric(bench, "rss_mb", 256.0)
        broken.append(("below", dict(bench=bench), "rss_mb"))
        broken.append(("below, time -v",
                       dict(time_v=TIME_V.replace("11776", "262144")),
                       "Maximum resident set size (kbytes)"))
        bench = copy.deepcopy(BENCH)
        metric(bench, "act@mixed", 90.0)
        broken.append(("less_than", dict(bench=bench), "act@mixed"))
        bench = copy.deepcopy(BENCH)
        metric(bench, "wall_sec", 7.05)
        broken.append(("median", dict(bench=bench), "wall_sec"))
        gbench = copy.deepcopy(GBENCH)
        gbench["benchmarks"][1]["real_time"] = 38.9
        gbench["benchmarks"][1]["time_unit"] = "us"
        broken.append(("median, google-benchmark", dict(gbench=gbench),
                       "BM_Solve/8"))
        bench = copy.deepcopy(BENCH)
        bench["metrics"] = [m for m in bench["metrics"]
                            if m["name"] != "rate"]
        broken.append(("missing metric", dict(bench=bench), "rate"))
        for label, fixture, named in broken:
            rc, out = run(tmp, **fixture)
            expect(label, rc, out, 1, named)

        # min_cores skips the wall-clock checks but never exact or config.
        bench = copy.deepcopy(BENCH)
        metric(bench, "rate", 1.0)
        rc, out = run(tmp, bench=bench,
                      baseline=dict(BASELINE, min_cores=1 << 20))
        expect("min_cores skip", rc, out, 0)
        metric(bench, "hash", 0)
        rc, out = run(tmp, bench=bench,
                      baseline=dict(BASELINE, min_cores=1 << 20))
        expect("min_cores keeps exact", rc, out, 1, "hash")

        rc, out = run(tmp, baseline=dict(BASELINE, at_lest={"rate": 1}))
        expect("misspelt check key", rc, out, 2)

    for failure in failures:
        print(failure, file=sys.stderr)
    print("check_baseline selftest: " + ("FAIL" if failures else "PASS"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
