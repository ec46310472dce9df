#include "baselines/slaq.h"

#include <algorithm>

#include "placement/placement_model.h"

namespace themis {
namespace {

/// Loss decrease of `job` over the next lease window if it ran with `gpus`
/// GPUs (machine-local placement assumed — SLAQ does not model placement, so
/// its bids use the ideal rate; actual progress in the simulator still pays
/// the real slowdown).
double MarginalLossDecrease(const JobState& job, int gpus, Time lease,
                            double /*target_loss*/) {
  if (gpus <= 0) return 0.0;
  const int usable = gpus - gpus % job.spec.gpus_per_task;
  if (usable <= 0) return 0.0;
  const double from = job.DoneIterations();
  const Work work = lease * static_cast<double>(usable);
  const double to = from + work / job.spec.WorkPerIteration();
  return job.spec.loss.LossDecrease(from, to);
}

}  // namespace

GrantSet SlaqPolicy::RunRound(const ResourceOffer& /*offer*/,
                              SchedulerContext& ctx) {
  const GpuPool& pool = ctx.free_pool();
  bool progress = true;
  while (progress && !pool.empty()) {
    progress = false;

    // best_gain starts below zero so that even fully converged jobs (zero
    // marginal loss decrease) still receive GPUs: SLAQ is work conserving.
    AppState* best_app = nullptr;
    int best_job = -1;
    double best_gain = -1.0;

    for (AppState* app : ctx.apps()) {
      for (int j : app->ActiveJobs()) {
        JobState& job = app->jobs[j];
        if (job.UnmetGangs() <= 0) continue;
        const int gang = job.spec.gpus_per_task;
        if (pool.size() < gang) continue;
        const int held = static_cast<int>(job.gpus.size());
        const double gain =
            MarginalLossDecrease(job, held + gang, ctx.lease_duration(),
                                 app->spec.target_loss) -
            MarginalLossDecrease(job, held, ctx.lease_duration(),
                                 app->spec.target_loss);
        if (gain > best_gain) {
          best_gain = gain;
          best_app = app;
          best_job = j;
        }
      }
    }
    if (best_app == nullptr) break;

    JobState& job = best_app->jobs[best_job];
    // Placement-unaware, speed-aware: fastest pooled GPUs first (identical
    // to the first-by-id pick on uniform-speed clusters). SLAQ's bids still
    // assume the ideal rate; actual progress pays the real speed.
    ctx.Grant(*best_app, job, PickFastest(job.spec.gpus_per_task, pool));
    progress = true;
  }
  return ctx.TakeGrants();
}

}  // namespace themis
