#include "sim/state.h"

#include <algorithm>

namespace themis {

double JobState::Rate(const Topology& topo) const {
  if (!Running()) return 0.0;
  // Gang scheduling: only whole task-gangs contribute useful work; stray
  // GPUs beyond the last full gang are held but idle.
  const int usable =
      static_cast<int>(gpus.size()) -
      static_cast<int>(gpus.size()) % spec.gpus_per_task;
  if (usable <= 0) return 0.0;
  std::vector<GpuId> used(gpus.begin(), gpus.begin() + usable);
  return EffectiveJobRate(spec, used, topo);
}

void JobState::RefreshRateCache(const Topology& topo) {
  rate_cache_version = alloc_version;
  cached_rate = Rate(topo);
  cached_speed_sum = topo.SpeedSum(gpus);
}

int JobState::UnmetGangs() const {
  if (!alive || finished) return 0;
  const int cap = std::min(parallelism_cap, spec.MaxParallelism());
  const int unmet = cap - static_cast<int>(gpus.size());
  return std::max(0, unmet / spec.gpus_per_task);
}

double AppState::FinalRho() const {
  if (!finished || ideal_time <= 0.0) return kUnboundedRho;
  return (finish_time - arrival()) / ideal_time;
}

std::vector<int> AppState::ActiveJobs() const {
  std::vector<int> out;
  for (std::size_t j = 0; j < jobs.size(); ++j)
    if (jobs[j].alive && !jobs[j].finished) out.push_back(static_cast<int>(j));
  return out;
}

int AppState::GpusHeld() const {
  int total = 0;
  for (const JobState& j : jobs) total += static_cast<int>(j.gpus.size());
  return total;
}

double AppState::EffectiveGpusHeld(const Topology& topo) const {
  double total = 0.0;
  for (const JobState& j : jobs) total += topo.SpeedSum(j.gpus);
  return total;
}

int AppState::CapDemand() const {
  int total = 0;
  for (const JobState& j : jobs)
    if (j.alive && !j.finished)
      total += std::min(j.parallelism_cap, j.spec.MaxParallelism());
  return total;
}

int AppState::UnmetDemand() const {
  int total = 0;
  for (const JobState& j : jobs) total += j.UnmetGangs() * j.spec.gpus_per_task;
  return total;
}

void AppState::Views(std::vector<JobView>& out) const {
  out.clear();
  out.reserve(jobs.size());
  for (const JobState& j : jobs)
    out.push_back(JobView{&j.spec, j.DoneIterations(), j.alive, j.finished});
}

}  // namespace themis
