// bench_event_core — the simulator's event-driven main loop at 4096 GPUs.
//
// The perf claim behind the discrete-event core: on a bursty, heavily
// oversubscribed trace (thousands of apps queued behind the cluster, only a
// few hundred holding GPUs at a time) each pass walks only what changed —
// holder apps for progress, dirty tuners, touched apps for timeline samples
// and finish projections — so per-pass cost tracks churn, not the active
// set. The bench runs the stream twice: exact (epsilon 0) and
// epsilon-batched, and reports wall seconds, the event-core counters and a
// hash of the exact run's headline results (rhos, Jain, ACT, GPU time).
//
// CI compares the report with bench/baselines/event_core.json: the counters
// and the hash must match exactly (the loop is deterministic), batching
// must coalesce passes, and the batched wall time must stay within 2x of
// the committed median. When the loop still had a pass-stepped reference
// that re-walked every active app each pass, the same stream measured
// ~4.8x (exact) and ~6.7x (batched) slower on that reference.
//
// The workload runs under Tiresias by default, deliberately: the point is
// to measure the simulator core, so the per-round policy work must be
// cheap (a priority sort). Themis' branch-and-bound auction dominates
// wall-clock at this scale (~95% of every pass, see bench_overheads) and
// would mask the loop's cost entirely.
//
// Env knobs: $THEMIS_BENCH_EVENT_JOBS caps the trace size (default 20000
// jobs), $THEMIS_BENCH_EVENT_EPSILON sets the batched run's window
// (default 3 min), $THEMIS_BENCH_EVENT_POLICY picks the policy. The
// committed baseline holds for the defaults only. Results go to
// BENCH_event_core.json.
#include <chrono>
#include <cstdio>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <memory>

#include "bench_common.h"
#include "workload/trace_gen.h"
#include "workload/trace_io.h"

namespace {

using namespace themis;

/// Stops the stream once `max_jobs` jobs have been injected (same shape as
/// bench_trace_scale's reader, local copy to keep the benches standalone).
class JobCappedReader : public TraceReader {
 public:
  JobCappedReader(std::unique_ptr<TraceReader> inner, long long max_jobs,
                  long long* jobs_out)
      : inner_(std::move(inner)), max_jobs_(max_jobs), jobs_out_(jobs_out) {}

  bool Next(AppSpec& out) override {
    if (max_jobs_ > 0 && *jobs_out_ >= max_jobs_) return false;
    if (!inner_->Next(out)) return false;
    *jobs_out_ += static_cast<long long>(out.jobs.size());
    return true;
  }

 private:
  std::unique_ptr<TraceReader> inner_;
  long long max_jobs_;
  long long* jobs_out_;
};

double EnvDouble(const char* name, double fallback) {
  const char* v = std::getenv(name);
  return (v && *v) ? std::atof(v) : fallback;
}

struct LoopRun {
  ExperimentResult result;
  double wall_sec = 0.0;
  long long jobs = 0;
};

LoopRun RunOnce(const ExperimentConfig& base, const TraceConfig& trace,
                long long max_jobs, Time epsilon) {
  ExperimentConfig config = base;
  config.sim.auction_epsilon_minutes = epsilon;
  LoopRun run;
  auto reader = std::make_unique<JobCappedReader>(
      std::make_unique<GeneratorTraceReader>(trace), max_jobs, &run.jobs);
  const auto t0 = std::chrono::steady_clock::now();
  run.result = RunStreamingExperiment(config, std::move(reader));
  run.wall_sec =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  return run;
}

/// 32-bit FNV-1a over the bit patterns of the headline results, so the
/// value is exact as a JSON number and any changed float changes it.
std::uint32_t HeadlineHash(const ExperimentResult& r) {
  std::uint32_t h = 2166136261u;
  const auto add = [&h](std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= static_cast<std::uint32_t>((v >> (8 * i)) & 0xFFu);
      h *= 16777619u;
    }
  };
  const auto add_double = [&add](double v) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof bits);
    add(bits);
  };
  add(r.rhos.size());
  for (double rho : r.rhos) add_double(rho);
  add_double(r.jains_index);
  add_double(r.avg_completion_time);
  add_double(r.gpu_time);
  return h;
}

}  // namespace

int main() {
  const long long max_jobs =
      static_cast<long long>(EnvDouble("THEMIS_BENCH_EVENT_JOBS", 20000));
  const Time epsilon = EnvDouble("THEMIS_BENCH_EVENT_EPSILON", 3.0);

  const char* policy_name = std::getenv("THEMIS_BENCH_EVENT_POLICY");
  ExperimentConfig config;
  // 8 racks x 64 machines x 8 GPUs = 4096 GPUs.
  config.cluster = ClusterSpec::Uniform(8, 64, 8, 4);
  config.policy = PolicyKindFromString(
      (policy_name && *policy_name) ? policy_name : "tiresias");
  config.sim.seed = 42;
  config.sim.metrics.bounded_memory = true;

  // Bursty oversubscription: whole waves of many-job apps land at once
  // (trace_gen --bursty 600:4000), so hundreds of apps are active while
  // the 4096 GPUs can hold only a fraction of them — the regime where a
  // walk over the whole active set each pass would be almost all waste.
  TraceConfig trace;
  trace.seed = 42;
  trace.num_apps = 1 << 30;  // the job cap ends the run
  trace.burst_size = 5000;
  trace.burst_gap_minutes = 4000.0;
  // Small apps (few exploration jobs each) so the 20k-job budget yields
  // thousands of simultaneously-active apps — far more than the ~1.3k
  // gangs the cluster can hold.
  trace.jobs_per_app_median = 3.0;
  trace.jobs_per_app_max = 8;

  const LoopRun event = RunOnce(config, trace, max_jobs, 0.0);
  const LoopRun batched = RunOnce(config, trace, max_jobs, epsilon);
  const std::uint32_t hash = HeadlineHash(event.result);

  std::printf("event core: 4096 GPUs, bursty stream (%lld jobs, %zu apps)\n",
              event.jobs, event.result.total_apps);
  std::printf("%-22s %12.2f\n", "event-driven wall s", event.wall_sec);
  std::printf("%-22s %12.2f\n", "event eps-batched s", batched.wall_sec);
  std::printf("%-22s %12d\n", "passes", event.result.scheduling_passes);
  std::printf("%-22s %12d\n", "passes (eps batch)",
              batched.result.scheduling_passes);
  std::printf("%-22s %12lld\n", "events", event.result.events_processed);
  std::printf("%-22s %12lld\n", "rounds", event.result.rounds_executed);
  std::printf("%-22s %12lld\n", "time advances",
              event.result.sim_time_advances);
  std::printf("%-22s %12d\n", "unfinished", event.result.unfinished_apps);
  std::printf("%-22s   0x%08x\n", "headline hash", hash);

  themis::bench::BenchReport report("event_core");
  report.Config("gpus", 4096.0);
  report.Config("jobs", static_cast<double>(max_jobs));
  report.Config("burst_size", static_cast<double>(trace.burst_size));
  report.Config("burst_gap_minutes", trace.burst_gap_minutes);
  report.Config("epsilon_minutes", epsilon);
  report.Config("policy", ToString(config.policy));
  report.Metric("jobs", static_cast<double>(event.jobs));
  report.Metric("apps", static_cast<double>(event.result.total_apps));
  report.Metric("wall_sec_event", event.wall_sec);
  report.Metric("wall_sec_event_batched", batched.wall_sec);
  report.Metric("passes", event.result.scheduling_passes);
  report.Metric("passes_batched", batched.result.scheduling_passes);
  report.Metric("events_processed", event.result.events_processed);
  report.Metric("rounds_executed", event.result.rounds_executed);
  report.Metric("sim_time_advances", event.result.sim_time_advances);
  report.Metric("unfinished", event.result.unfinished_apps);
  report.Metric("headline_hash", hash);
  report.Metric("peak_live_apps",
                static_cast<double>(event.result.peak_live_apps));
  report.Write();

  return event.result.unfinished_apps == 0 ? 0 : 1;
}
