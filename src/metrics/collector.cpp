#include "metrics/collector.h"


namespace themis {

MetricsCollector::MetricsCollector(const MetricsConfig& config)
    : config_(config),
      sample_(config.bounded_memory ? config.reservoir_capacity : 0,
              config.seed) {}

void MetricsCollector::RecordAppFinish(const AppRecord& record) {
  ++finished_apps_;
  const double rho = record.Rho();
  rho_range_.Add(rho);
  rho_moments_.Add(rho);
  rho_median_.Add(rho);
  act_.Add(record.CompletionTime());
  if (config_.bounded_memory) {
    sample_.Add(record);
  } else {
    apps_.push_back(record);
  }
}

void MetricsCollector::RecordAllocation(Time time, AppId app, int gpus) {
  const std::size_t idx = allocation_seen_++;
  if (idx % timeline_stride_ != 0) return;
  timeline_.push_back({time, app, gpus});
  if (config_.timeline_capacity > 0 &&
      timeline_.size() >= config_.timeline_capacity &&
      config_.timeline_capacity > 1) {
    // At capacity: drop every other retained sample and double the stride so
    // coverage stays uniform over the whole run in fixed memory.
    std::vector<AllocationSample> kept;
    kept.reserve(timeline_.size() / 2 + 1);
    for (std::size_t i = 0; i < timeline_.size(); i += 2) {
      kept.push_back(timeline_[i]);
    }
    timeline_ = std::move(kept);
    timeline_stride_ *= 2;
  }
}

const std::vector<AppRecord>& MetricsCollector::apps() const {
  return config_.bounded_memory ? sample_.items() : apps_;
}

std::vector<double> MetricsCollector::Rhos() const {
  const auto& records = apps();
  std::vector<double> out;
  out.reserve(records.size());
  for (const AppRecord& a : records) out.push_back(a.Rho());
  return out;
}

double MetricsCollector::MaxFairness() const { return rho_range_.max(); }

double MetricsCollector::MinFairness() const { return rho_range_.min(); }

double MetricsCollector::MedianFairness() const {
  if (config_.bounded_memory) return rho_median_.Value();
  if (apps_.empty()) return 0.0;
  return Percentile(Rhos(), 50.0);
}

double MetricsCollector::JainsFairnessIndex() const {
  return rho_moments_.JainsIndex();
}

double MetricsCollector::AverageCompletionTime() const { return act_.mean(); }

}  // namespace themis
