// trace_gen — generate synthetic workload traces straight to CSV. The flags
// come from the knob tables; `trace_gen --help` lists them.
//
// Emits the same CSV format `themis_cli --trace-out` archives, but through
// StreamingTraceWriter: one row at a time, never the whole trace in memory,
// so million-job fixtures (for bench_trace_scale or `themis_cli
// --stream-trace`) generate in constant memory. With --jobs N, generation
// stops once N jobs have been emitted even if fewer than --apps apps were
// produced — the knob that pins fixture size for the scale bench.
// Deterministic in --seed: same flags, same bytes.
#include <algorithm>
#include <cstdio>
#include <string>

#include "sim/scenario.h"
#include "workload/trace_gen.h"
#include "workload/trace_io.h"

using namespace themis;

int main(int argc, char** argv) {
  TraceConfig config;
  std::string out_path;
  long long max_jobs = 0;

  FlagSet flags;
  flags.Add(TraceKnobs(config),
            {"num_apps", "seed", "contention_factor", "mean_interarrival",
             "frac_network_intensive"});
  flags.Add(KnobTable{"trace_gen", {
      Knob::Field("", "--stream-out", &out_path, "CSV to write (required)"),
      Knob::Field("", "--jobs", &max_jobs, "stop after N jobs (0: no cap)"),
      Knob::Setter<std::string>(
          "", "--bursty", "N:GAP: bursts of N apps, GAP minutes apart",
          [&config](const std::string& spec) {
            const std::size_t colon = spec.find(':');
            const auto size = ParseNumber<int>(spec.substr(0, colon));
            const auto gap = colon == std::string::npos
                                 ? std::nullopt
                                 : ParseNumber<double>(spec.substr(colon + 1));
            if (!size || !gap || *size <= 0 || *gap < 0.0)
              throw std::runtime_error("expected N:GAP with N > 0 and GAP >= "
                                       "0, got \"" + spec + "\"");
            config.burst_size = *size;
            config.burst_gap_minutes = *gap;
          })}});
  flags.ParseOrExit(argc, argv, [&] {
    if (out_path.empty())
      throw std::invalid_argument("--stream-out FILE is required");
    // A --jobs cap bounds the trace; without it --apps must, and the
    // default TraceConfig::num_apps (50) silently producing a tiny
    // "million-job" fixture is the kind of surprise worth refusing.
    if (max_jobs <= 0 && config.num_apps <= 0)
      throw std::invalid_argument("need --apps N > 0 or --jobs N > 0");
  });
  if (max_jobs > 0 && config.num_apps > 0) {
    // Let the job cap drive: give the generator effectively unbounded apps
    // unless the caller pinned --apps explicitly alongside.
    const auto& given = flags.given();
    if (std::find(given.begin(), given.end(), "--apps") == given.end())
      config.num_apps = 1 << 30;
  }

  StreamedTraceStats stats;
  try {
    StreamingTraceWriter writer(out_path);
    stats = WriteGeneratedTrace(config, writer, max_jobs);
    writer.Close();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "%s\n", e.what());
    return 1;
  }
  std::printf("wrote %lld apps / %lld jobs to %s (last arrival %.1f min)\n",
              stats.apps, stats.jobs, out_path.c_str(), stats.last_arrival);
  return 0;
}
