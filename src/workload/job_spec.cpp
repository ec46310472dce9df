#include "workload/job_spec.h"

#include <algorithm>

#include "placement/placement_model.h"

namespace themis {

double EffectiveJobRate(const JobSpec& job, const std::vector<GpuId>& gpus,
                        const Topology& topo) {
  if (gpus.empty()) return 0.0;
  if (static_cast<int>(topo.SpanLevel(gpus)) > static_cast<int>(job.max_span))
    return 0.0;  // constraint violated: S = 0
  return EffectiveRate(job.model, gpus, topo);
}

Time AppSpec::IdealRunningTime() const {
  Time best = kInfiniteTime;
  for (const JobSpec& j : jobs) {
    const int g = std::max(1, j.MaxParallelism());
    best = std::min(best, j.total_work / static_cast<double>(g));
  }
  return best;
}

int AppSpec::MaxJobParallelism() const {
  int g = 0;
  for (const JobSpec& j : jobs) g = std::max(g, j.MaxParallelism());
  return g;
}

}  // namespace themis
