// themis_perfbench — the repository benchmark's measuring program.
//
//   themis_perfbench --workload sim-steady|sim-burst|daemon-loopback
//                    --seed N --seconds S --trace 0|1
//                    [--work-dir DIR] [--smoke] [--tamper]
//
// --trace 0 repeats (set-up + untraced run) until S seconds have passed and
// the pooled round-latency sample is large enough for a p99, then reports
// the end-to-end metrics: set-up and throughput as medians over reps, round
// percentiles over the pooled sample. --trace 1 alternates untraced and
// traced reps for S seconds and reports the per-layer metrics (medians over
// traced reps) plus trace_overhead. Every rep's exact counters and grant
// fingerprint must equal the first untraced rep's; every output check
// (no unfinished app, no round granting more than it offered, replay agrees
// with the real round, daemon digest == in-process digest) must pass.
//
// Prints one "name value unit" line per metric, then one JSON line with
// every metric. Exits 1 when any check failed, 2 on bad arguments.
// --smoke shrinks every population to a few dozen apps; --tamper corrupts
// the expected fingerprint and digest so the checks must fail.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "perfbench.h"
#include "sim/experiment.h"

namespace {

using namespace perfbench;

const std::map<std::string, std::string>& Units() {
  static const std::map<std::string, std::string> units = {
      {"setup_s", "s"},
      {"jobs_per_s", "1/s"},
      {"agents_served_per_s", "1/s"},
      {"round_p50_ms", "ms"},
      {"round_p99_ms", "ms"},
      {"round_samples", "count"},
      {"peak_rss_mb", "MB"},
      {"fail_frac", "ratio"},
      {"max_rho", "ratio"},
      {"jain", "ratio"},
      {"avg_act_min", "min"},
      {"reps", "count"},
      {"trace_overhead", "ratio"},
      {"workload.gen_s", "s"},
      {"workload.write_s", "s"},
      {"workload.read_busy_s", "s"},
      {"workload.read_calls", "count"},
      {"sim.self_s", "s"},
      {"sim.events", "count"},
      {"sim.time_advances", "count"},
      {"core.rounds", "count"},
      {"core.round_busy_s", "s"},
      {"core.probe_busy_s", "s"},
      {"core.rest_busy_s", "s"},
      {"core.participants_per_round", "count"},
      {"core.grant_ratio", "ratio"},
      {"core.leftover_ratio", "ratio"},
      {"agent.bid_calls", "count"},
      {"agent.bid_busy_s", "s"},
      {"agent.bid_p50_us", "us"},
      {"auction.pa_busy_s", "s"},
      {"auction.pa_p99_ms", "ms"},
      {"auction.pa_exact_frac", "ratio"},
      {"server.begin_round_ms", "ms"},
      {"server.finish_round_ms", "ms"},
      {"net.transport_ms", "ms"},
      {"net.encode_offer_us", "us"},
      {"net.encode_grant_us", "us"},
      {"net.parse_bid_us", "us"},
      {"net.bytes_per_round", "bytes"},
      {"net.frames_in", "count"},
      {"net.frames_out", "count"},
  };
  return units;
}

double Median(std::vector<double> xs) { return Pct(std::move(xs), 50.0); }

[[noreturn]] void Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload sim-steady|sim-burst|daemon-loopback "
               "--seed N --seconds S --trace 0|1 [--work-dir DIR] [--smoke] "
               "[--tamper]\n",
               argv0);
  std::exit(2);
}

Options Parse(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) Usage(argv[0]);
      return argv[++i];
    };
    if (arg == "--workload") opt.workload = value();
    else if (arg == "--seed") opt.seed = std::strtoull(value().c_str(), nullptr, 10);
    else if (arg == "--seconds") opt.seconds = std::atof(value().c_str());
    else if (arg == "--trace") opt.trace = value() == "1";
    else if (arg == "--work-dir") opt.work_dir = value();
    else if (arg == "--smoke") opt.smoke = true;
    else if (arg == "--tamper") opt.tamper = true;
    else Usage(argv[0]);
  }
  if (opt.workload != "sim-steady" && opt.workload != "sim-burst" &&
      opt.workload != "daemon-loopback")
    Usage(argv[0]);
  return opt;
}

/// Sub-traces per untraced cycle. One sub-trace's inputs vary with its seed
/// more than its timing varies, so a run aggregates several; the counts are
/// fixed (not time-driven) so a run's inputs never depend on machine speed.
/// Each cycle takes 16-20 s on a 4-core x86 box; the daemon's also pools
/// over 1000 round latencies.
std::size_t CycleLength(const Options& opt) {
  if (opt.smoke) return 2;
  if (opt.workload == "sim-steady") return 6;
  if (opt.workload == "sim-burst") return 5;
  return 7;
}

RepResult RunRep(const Options& opt, bool traced, std::size_t index) {
  const std::uint64_t seed = themis::DeriveScenarioSeed(opt.seed, index);
  RepResult r = opt.workload == "daemon-loopback"
                    ? RunDaemonRep(opt, traced, seed)
                    : RunSimRep(opt, opt.workload == "sim-steady", traced, seed);
  std::fprintf(stderr, "perfbench: sub-trace %zu%s: setup %.4f s, run %.4f s\n",
               index, traced ? " (traced)" : "", r.setup_s, r.wall_s);
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  const Options opt = Parse(argc, argv);
  // A p99 needs at least ten samples beyond it.
  const std::size_t min_round_samples = opt.smoke ? 0 : 1000;
  // Keeps the whole invocation well under its 180-s budget.
  const double max_loop_s = 120.0;

  // Untraced: whole cycles over the sub-traces, while another cycle fits in
  // --seconds (and until a p99 is possible). Traced: (untraced, traced)
  // pairs over successive sub-traces for --seconds.
  const std::size_t cycle = CycleLength(opt);
  std::vector<RepResult> untraced, traced;
  std::vector<double> pooled_ms;
  const auto start = Clock::now();
  try {
    if (!opt.trace) {
      for (;;) {
        const auto c0 = Clock::now();
        for (std::size_t i = 0; i < cycle; ++i) {
          untraced.push_back(RunRep(opt, false, i));
          pooled_ms.insert(pooled_ms.end(), untraced.back().round_ms.begin(),
                           untraced.back().round_ms.end());
        }
        const double next_end = SecondsSince(start) + SecondsSince(c0);
        if (opt.smoke || next_end > max_loop_s ||
            (next_end > opt.seconds && pooled_ms.size() >= min_round_samples))
          break;
      }
    } else {
      for (std::size_t i = 0;; ++i) {
        untraced.push_back(RunRep(opt, false, i));
        traced.push_back(RunRep(opt, true, i));
        const double elapsed = SecondsSince(start);
        if (opt.smoke || elapsed >= opt.seconds || elapsed > max_loop_s) break;
      }
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }

  // Output checks: every rep's own checks, then exact repetition of the
  // counters and grant fingerprint — a traced rep against the untraced rep
  // of its sub-trace, a later cycle against the first.
  std::uint64_t attempted = 0, failed = 0;
  std::vector<std::string> errors;
  auto check = [&](const RepResult& r, const RepResult& reference,
                   const std::string& label) {
    attempted += r.attempted;
    failed += r.failed;
    for (const std::string& e : r.errors) errors.push_back(label + ": " + e);
    if (&r == &reference) return;
    std::map<std::string, std::uint64_t> expected = reference.exact;
    if (opt.tamper) expected["grant_fingerprint"] ^= 1;
    bool same = r.exact.size() == expected.size();
    for (const auto& [name, value] : r.exact) {
      const auto it = expected.find(name);
      if (it == expected.end() || it->second != value) {
        same = false;
        errors.push_back(label + ": " + name + " differs from the untraced rep");
      }
    }
    if (!same) ++failed;
  };
  for (std::size_t i = 0; i < untraced.size(); ++i)
    check(untraced[i], opt.trace ? untraced[i] : untraced[i % cycle],
          "untraced rep " + std::to_string(i));
  for (std::size_t i = 0; i < traced.size(); ++i)
    check(traced[i], untraced[i], "traced rep " + std::to_string(i));
  const bool correct = failed == 0;

  std::map<std::string, double> out;
  auto median_of = [](const std::vector<RepResult>& reps, auto get) {
    std::vector<double> xs;
    for (const RepResult& r : reps) xs.push_back(get(r));
    return Median(xs);
  };
  auto sum_of = [](const std::vector<RepResult>& reps, auto get) {
    double s = 0.0;
    for (const RepResult& r : reps) s += get(r);
    return s;
  };
  if (!opt.trace) {
    // Throughput over every rep's timed phase; set-up as the median rep.
    const double wall = sum_of(untraced, [](const RepResult& r) { return r.wall_s; });
    out["setup_s"] = median_of(untraced, [](const RepResult& r) { return r.setup_s; });
    out["jobs_per_s"] = sum_of(untraced, [](const RepResult& r) { return r.jobs; }) / wall;
    out["agents_served_per_s"] =
        sum_of(untraced, [](const RepResult& r) { return r.agent_serves; }) / wall;
    out["round_p50_ms"] = Pct(pooled_ms, 50.0);
    out["round_p99_ms"] = Pct(pooled_ms, 99.0);
    out["round_samples"] = static_cast<double>(pooled_ms.size());
    out["peak_rss_mb"] = PeakRssMb();
  }
  const std::vector<RepResult>& measured = opt.trace ? traced : untraced;
  for (const auto& entry : measured.front().metrics) {
    const std::string& name = entry.first;
    out[name] = median_of(measured, [&](const RepResult& r) {
      return r.metrics.at(name);
    });
  }
  if (opt.trace)
    out["trace_overhead"] =
        sum_of(traced, [](const RepResult& r) { return r.total_s; }) /
        sum_of(untraced, [](const RepResult& r) { return r.total_s; });
  out["reps"] = static_cast<double>(untraced.size() + traced.size());
  out["fail_frac"] =
      static_cast<double>(failed) / static_cast<double>(std::max<std::uint64_t>(1, attempted));

  std::printf("workload %s  seed %llu  trace %d  reps %zu  wall %.2f s\n",
              opt.workload.c_str(), static_cast<unsigned long long>(opt.seed),
              opt.trace ? 1 : 0, untraced.size() + traced.size(),
              SecondsSince(start));
  for (const auto& [name, value] : out) {
    const auto unit = Units().find(name);
    std::printf("  %-28s %18.6f %s\n", name.c_str(), value,
                unit == Units().end() ? "?" : unit->second.c_str());
  }
  if (!opt.trace && pooled_ms.size() < 1000)
    std::printf("  (round_p99_ms: fewer than 10 samples lie beyond it)\n");
  std::printf("exact counters of sub-trace 0 (repeat in every rep of it):\n");
  for (const auto& [name, value] : untraced.front().exact)
    std::printf("  %-28s %llu\n", name.c_str(),
                static_cast<unsigned long long>(value));
  std::printf("checks: %s (%llu failed of %llu attempted)\n",
              correct ? "PASS" : "FAIL", static_cast<unsigned long long>(failed),
              static_cast<unsigned long long>(attempted));
  for (const std::string& e : errors) std::printf("  check failed: %s\n", e.c_str());

  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {",
              correct ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed));
  const char* sep = "";
  for (const auto& [name, value] : out) {
    const auto unit = Units().find(name);
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", sep, name.c_str(),
                value, unit == Units().end() ? "?" : unit->second.c_str());
    sep = ", ";
  }
  std::printf("}}\n");
  return correct ? 0 : 1;
}
