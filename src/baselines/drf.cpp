#include "baselines/drf.h"

#include <algorithm>

#include "placement/placement_model.h"

namespace themis {

GrantSet DrfPolicy::RunRound(const ResourceOffer& /*offer*/,
                             SchedulerContext& ctx) {
  // Max-min on instantaneous GPU share: one gang at a time to the app with
  // the smallest current holding (dominant share == GPU share in a
  // single-resource cluster). Shares are *effective* — speed-weighted GPU
  // counts — so an app holding two A100s is richer than one holding two
  // K80s; on uniform-speed clusters the weighted share equals the raw count
  // and the decisions are unchanged.
  const GpuPool& pool = ctx.free_pool();
  const Topology& topo = ctx.topology();
  while (!pool.empty()) {
    AppState* poorest = nullptr;
    double poorest_share = 0.0;
    int poorest_job = -1;
    for (AppState* app : ctx.apps()) {
      for (int j : app->ActiveJobs()) {
        JobState& job = app->jobs[j];
        if (job.UnmetGangs() <= 0) continue;
        if (job.spec.gpus_per_task > pool.size()) continue;
        const double share = app->EffectiveGpusHeld(topo);
        if (poorest == nullptr || share < poorest_share ||
            (share == poorest_share && app->id < poorest->id)) {
          poorest = app;
          poorest_share = share;
          poorest_job = j;
        }
        break;  // evaluating one eligible job per app suffices for the share
      }
    }
    if (poorest == nullptr) break;

    JobState& job = poorest->jobs[poorest_job];
    // Placement-unaware, speed-aware: fastest pooled GPUs first (the first
    // pooled ids on uniform-speed clusters).
    ctx.Grant(*poorest, job, PickFastest(job.spec.gpus_per_task, pool));
  }
  return ctx.TakeGrants();
}

}  // namespace themis
