// Synthetic enterprise-trace generator. The trace of Sec. 8.1 is proprietary,
// so we generate one from the marginals the paper publishes:
//   - hyper-parameter exploration jobs per app: 1..98, median 23
//   - most tasks need 4 GPUs, a few need 2
//   - task durations: mostly short (median 59 min) with a long tail
//     (median 123 min)
//   - Poisson app arrivals, mean inter-arrival 20 minutes
//   - workload mix 60:40 placement-insensitive : placement-sensitive
// Contention is adjusted by scaling the inter-arrival time (Sec. 8.4.2), and
// testbed-scale runs divide durations by 5 (Sec. 8.3 footnote).
#pragma once

#include <vector>

#include "common/rng.h"
#include "workload/job_spec.h"
#include "workload/trace_io.h"

namespace themis {

struct TraceConfig {
  std::uint64_t seed = 42;
  int num_apps = 50;

  // Arrivals.
  Time mean_interarrival = 20.0;
  /// >1 compresses arrivals (Sec. 8.4.2's "factor of contention").
  double contention_factor = 1.0;
  /// Bursty arrivals: when burst_size > 0, apps arrive in same-instant
  /// bursts of this many, with consecutive bursts burst_gap_minutes apart
  /// (burst k arrives at k * gap). Only the arrival instants change: the
  /// per-app draws (jobs, models, durations) are bit-identical to the
  /// Poisson trace with the same seed. This is the sparse arrival shape
  /// the event-driven simulator core is built for.
  int burst_size = 0;
  Time burst_gap_minutes = 0.0;

  // Jobs per app: lognormal(median, sigma) clamped to [min, max].
  double jobs_per_app_median = 23.0;
  double jobs_per_app_sigma = 1.0;
  int jobs_per_app_min = 1;
  int jobs_per_app_max = 98;

  // Task durations (minutes) at maximum parallelism and ideal placement:
  // mixture of a short and a long lognormal.
  double short_duration_median = 59.0;
  double long_duration_median = 123.0;
  double duration_sigma = 0.5;
  double frac_long = 0.2;
  /// Multiplied into every duration; the paper's testbed runs use 1/5.
  double duration_scale = 1.0;

  // Resource shape.
  double frac_four_gpu_tasks = 0.7;  // remainder are 2-GPU tasks
  int tasks_per_job = 1;

  // Placement mix: fraction of apps that are network-intensive (VGG-like).
  double frac_network_intensive = 0.4;

  // Convergence model.
  double target_loss = 0.1;
  double min_decay = 0.35;
  double max_decay = 1.2;
  /// Iterations per minute of ideal runtime; sets rung granularity.
  double iters_per_minute = 10.0;
};

class TraceGenerator {
 public:
  explicit TraceGenerator(TraceConfig config);

  /// Generate the full app sequence (arrival-sorted). Deterministic in the
  /// config seed. Implemented as GenerateNext in a loop, so the streamed and
  /// materialized forms draw identical RNG streams — same seed, same trace,
  /// bit for bit.
  std::vector<AppSpec> Generate();

  /// Generate the next app in the sequence without materializing the rest;
  /// returns false once config.num_apps apps have been produced. Interleaves
  /// the same RNG draws as Generate(), so `while (GenerateNext(a))` yields
  /// exactly Generate()'s output one app at a time.
  bool GenerateNext(AppSpec& out);

  /// Apps produced so far via Generate()/GenerateNext().
  int apps_generated() const { return next_index_; }

  /// Generate a single app arriving at `arrival`; exposed for tests and the
  /// Fig. 8 hand-built scenario.
  AppSpec GenerateApp(Time arrival, int index);

  const TraceConfig& config() const { return config_; }

 private:
  JobSpec GenerateJob(const ModelProfile& model, Rng& app_rng);

  TraceConfig config_;
  Rng rng_;
  int next_index_ = 0;
  Time next_arrival_ = 0.0;
};

/// TraceReader adapter over TraceGenerator: the simulator can replay a
/// synthetic trace of any size without it ever existing as a vector.
class GeneratorTraceReader : public TraceReader {
 public:
  explicit GeneratorTraceReader(TraceConfig config) : gen_(config) {}

  bool Next(AppSpec& out) override { return gen_.GenerateNext(out); }

  const TraceGenerator& generator() const { return gen_; }

 private:
  TraceGenerator gen_;
};

/// Result of a streamed generation run.
struct StreamedTraceStats {
  long long apps = 0;
  long long jobs = 0;
  Time last_arrival = 0.0;
};

/// Generate config.num_apps apps (stopping early once `max_jobs` jobs have
/// been emitted, if max_jobs > 0) straight into a streaming writer — the
/// million-job path: no app vector, constant memory. Deterministic in the
/// config seed. The caller closes the writer.
StreamedTraceStats WriteGeneratedTrace(const TraceConfig& config,
                                       StreamingTraceWriter& out,
                                       long long max_jobs = 0);

}  // namespace themis
