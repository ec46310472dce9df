#include "baselines/gandiva.h"

#include <algorithm>

#include "placement/placement_model.h"

namespace themis {

GrantSet GandivaPolicy::RunRound(const ResourceOffer& /*offer*/,
                                 SchedulerContext& ctx) {
  // The context's pool serves the whole round: each grant shrinks it.
  const GpuPool& pool = ctx.free_pool();
  bool progress = true;
  while (progress && !pool.empty()) {
    progress = false;

    AppState* best_app = nullptr;
    int best_job = -1;
    std::vector<GpuId> best_pick;
    double best_score = -1.0;

    for (AppState* app : ctx.apps()) {
      for (int j : app->ActiveJobs()) {
        JobState& job = app->jobs[j];
        if (job.UnmetGangs() <= 0) continue;
        const int gang = job.spec.gpus_per_task;
        if (pool.size() < gang) continue;
        // Speed-aware through the placement picker: at equal locality it
        // prefers machines of the fastest generation (no-op on uniform
        // clusters).
        std::vector<GpuId> pick =
            PickBestPlacedNear(gang, pool, job.gpus, ctx.topology());
        if (static_cast<int>(pick.size()) < gang) continue;
        // Score the job's whole prospective gang, not just the increment:
        // Gandiva's introspection cares about the resulting locality.
        std::vector<GpuId> whole = job.gpus;
        whole.insert(whole.end(), pick.begin(), pick.end());
        const double score = PlacementScore(whole, ctx.topology());
        if (score > best_score) {
          best_score = score;
          best_app = app;
          best_job = j;
          best_pick = std::move(pick);
        }
      }
    }
    if (best_app == nullptr) break;

    ctx.Grant(*best_app, best_app->jobs[best_job], best_pick);
    progress = true;
  }
  return ctx.TakeGrants();
}

}  // namespace themis
