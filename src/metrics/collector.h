// Evaluation metrics (Sec. 8.1 "Metrics"):
//   - Max Fairness: worst finish-time fairness rho across apps (lower = fairer)
//   - Jain's Fairness: variance of rho across apps (closer to 1 = better)
//   - Placement Score: 4-level locality score of job allocations
//   - GPU Time: total GPU-minutes consumed; lower = more efficient cluster use
//   - App Completion Time (ACT): finish - arrival per app
// The simulator feeds the collector; benches and tests read the summaries.
//
// Max/min/mean/Jain come from O(1) running aggregates in both memory modes;
// they are *exact* (the same additions in the same order as a pass over
// every record). The modes differ in what they keep per app:
//   - exact (default): every AppRecord is kept, and the median is the exact
//     percentile of the full vector.
//   - bounded: per-app records go into a fixed-capacity reservoir sample and
//     the median is a P² streaming estimate. Memory no longer grows with
//     the number of finished apps, which is what lets a million-job trace
//     replay in constant metric memory.
// In both modes the Fig. 8-style allocation timeline is capped at
// `timeline_capacity` samples by deterministic stride decimation (keep every
// 2^k-th sample); the default cap is large enough that existing benches never
// reach it, so their output is unchanged.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/stats.h"
#include "common/types.h"

namespace themis {

struct AppRecord {
  AppId app = kNoApp;
  Time arrival = 0.0;
  Time finish = -1.0;
  Time ideal_time = 1.0;
  double mean_placement_score = 1.0;
  Work attained_service = 0.0;

  double Rho() const { return (finish - arrival) / ideal_time; }
  Time CompletionTime() const { return finish - arrival; }
};

/// Timeline sample for Fig. 8-style allocation traces.
struct AllocationSample {
  Time time = 0.0;
  AppId app = kNoApp;
  int gpus = 0;
};

struct MetricsConfig {
  /// Keep only constant-memory aggregates + a reservoir sample of apps.
  bool bounded_memory = false;
  /// Reservoir size for per-app distributions in bounded mode.
  std::size_t reservoir_capacity = 4096;
  /// Max retained allocation-timeline samples (both modes); 0 = unbounded.
  std::size_t timeline_capacity = std::size_t{1} << 20;
  /// Seed for the reservoir's eviction RNG.
  std::uint64_t seed = 0x5EEDULL;
};

class MetricsCollector {
 public:
  MetricsCollector() : MetricsCollector(MetricsConfig{}) {}
  explicit MetricsCollector(const MetricsConfig& config);

  void RecordAppFinish(const AppRecord& record);
  void RecordGpuTime(Work gpu_minutes) { gpu_time_ += gpu_minutes; }
  void RecordAllocation(Time time, AppId app, int gpus);

  /// All finished apps in exact mode; the reservoir sample in bounded mode.
  const std::vector<AppRecord>& apps() const;
  /// Number of apps recorded (exceeds apps().size() once a bounded-mode
  /// reservoir overflows).
  std::size_t finished_apps() const { return finished_apps_; }

  const std::vector<AllocationSample>& timeline() const { return timeline_; }
  /// Current decimation stride: sample i was retained iff i % stride == 0.
  std::size_t timeline_stride() const { return timeline_stride_; }
  /// Allocation samples offered to RecordAllocation (pre-decimation).
  std::size_t allocation_samples_seen() const { return allocation_seen_; }

  double MaxFairness() const;
  double MedianFairness() const;
  double MinFairness() const;
  double JainsFairnessIndex() const;
  double AverageCompletionTime() const;
  std::vector<double> Rhos() const;
  Work TotalGpuTime() const { return gpu_time_; }

  const MetricsConfig& config() const { return config_; }

 private:
  MetricsConfig config_;

  std::vector<AppRecord> apps_;       // exact mode only
  Reservoir<AppRecord> sample_;       // bounded mode only
  std::size_t finished_apps_ = 0;

  // Running aggregates, updated in both modes (O(1) each); the median
  // estimate is read in bounded mode only.
  Summary rho_range_;
  MomentAccumulator rho_moments_;
  P2Quantile rho_median_{0.5};
  Summary act_;

  std::vector<AllocationSample> timeline_;
  std::size_t timeline_stride_ = 1;
  std::size_t allocation_seen_ = 0;

  Work gpu_time_ = 0.0;
};

}  // namespace themis
