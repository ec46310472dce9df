// bench_trace_scale — streamed million-job replay at 4096 GPUs.
//
// The scale claim behind the streaming pipeline: a trace far larger than
// memory replays end to end with RSS tracking peak *concurrency*, not trace
// length. Apps are injected as the stream advances, retired as they finish,
// and the metric side runs in bounded mode (reservoir + streaming
// quantiles), so the only O(trace) artifact anywhere is the CSV on disk.
//
// Workload source, in order of preference:
//   - $THEMIS_BENCH_TRACE_FILE: stream that CSV (generate one with
//     `trace_gen --stream-out FILE --jobs N --seed 42`);
//   - otherwise: stream straight from the generator (same distribution,
//     no file needed).
// $THEMIS_BENCH_TRACE_JOBS caps the replay size (default 100000 jobs —
// the local tier; CI's smoke tier sets it lower and asserts peak RSS).
//
// Reports jobs/sec, wall seconds, peak RSS (getrusage), peak live apps,
// scheduling passes. Exits nonzero if any app failed to finish.
#include <sys/resource.h>

#include <chrono>
#include <cstdio>
#include <memory>

#include "bench_common.h"
#include "workload/trace_gen.h"
#include "workload/trace_io.h"

namespace {

using namespace themis;

/// Stops the stream once `max_jobs` jobs have been injected, counting jobs
/// into a caller-owned slot (the reader itself is consumed by the sim).
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

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // Linux: KiB
}

}  // namespace

int main() {
  const long long max_jobs =
      bench::EnvKnob<long long>("THEMIS_BENCH_TRACE_JOBS", 100000);
  const std::string trace_file =
      bench::EnvKnob<std::string>("THEMIS_BENCH_TRACE_FILE", "");

  ExperimentConfig config;
  // 8 racks x 64 machines x 8 GPUs = 4096 GPUs.
  config.cluster = ClusterSpec::Uniform(8, 64, 8, 4);
  config.sim.seed = 42;
  config.sim.metrics.bounded_memory = true;

  // Generator fallback: arrivals every ~2 min keep a 4096-GPU cluster busy
  // without drowning it; trace_gen's fixture should use the same knobs so
  // the two sources exercise the same regime.
  TraceConfig trace;
  trace.seed = 42;
  trace.num_apps = 1 << 30;  // the job cap, not the app count, ends the run
  trace.mean_interarrival = 2.0;

  long long jobs = 0;
  std::unique_ptr<TraceReader> source;
  if (!trace_file.empty())
    source = std::make_unique<StreamingCsvTraceReader>(trace_file);
  else
    source = std::make_unique<GeneratorTraceReader>(trace);
  auto reader =
      std::make_unique<JobCappedReader>(std::move(source), max_jobs, &jobs);

  const double rss_before_mb = PeakRssMb();
  const auto t0 = std::chrono::steady_clock::now();
  ExperimentResult r;
  try {
    r = RunStreamingExperiment(config, std::move(reader));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "bench: %s\n", e.what());
    return 1;
  }
  const double wall_sec =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  const double peak_rss_mb = PeakRssMb();
  const double jobs_per_sec =
      wall_sec > 0.0 ? static_cast<double>(jobs) / wall_sec : 0.0;

  std::printf("trace scale replay: 4096 GPUs, streamed %s\n",
              trace_file.empty() ? "(generator)" : trace_file.c_str());
  std::printf("%-18s %12lld\n", "jobs", jobs);
  std::printf("%-18s %12zu\n", "apps", r.total_apps);
  std::printf("%-18s %12zu\n", "peak live apps", r.peak_live_apps);
  std::printf("%-18s %12d\n", "unfinished", r.unfinished_apps);
  std::printf("%-18s %12d\n", "passes", r.scheduling_passes);
  std::printf("%-18s %12.2f\n", "wall sec", wall_sec);
  std::printf("%-18s %12.0f\n", "jobs/sec", jobs_per_sec);
  std::printf("%-18s %12.1f\n", "peak RSS MB", peak_rss_mb);
  std::printf("%-18s %12.3f\n", "Jain's index", r.jains_index);
  std::printf("%-18s %12.1f\n", "avg ACT min", r.avg_completion_time);

  themis::bench::BenchReport report("trace_scale");
  report.Config("gpus", 4096.0);
  report.Config("jobs", static_cast<double>(max_jobs));
  report.Config("source", trace_file.empty() ? "generator" : "file");
  report.Metric("jobs", static_cast<double>(jobs));
  report.Metric("apps", static_cast<double>(r.total_apps));
  report.Metric("peak_live_apps", static_cast<double>(r.peak_live_apps));
  report.Metric("unfinished", r.unfinished_apps);
  report.Metric("passes", r.scheduling_passes);
  report.Metric("wall_sec", wall_sec);
  report.Metric("jobs_per_sec", jobs_per_sec);
  report.Metric("peak_rss_mb", peak_rss_mb);
  report.Metric("rss_before_mb", rss_before_mb);
  report.Metric("jain", r.jains_index);
  report.Metric("avg_act_min", r.avg_completion_time);
  report.Write();

  return r.unfinished_apps == 0 ? 0 : 1;
}
