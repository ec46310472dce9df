// Reference leftover stage: the loop ThemisPolicy's step 6 ran before
// each grant cost only the work of its gang, kept as a test oracle.
//
// Before each gang it lists the candidates and their anchors afresh, and
// after every grant it rebuilds the winner's machine list from every GPU
// the app holds and re-sorts it. It orders an app's jobs with a
// stable_sort of job indices by remaining work, once per stage, the first
// time the app wins a gang (the key cannot move within a round, so only a
// stateful estimator's draws tell how often). themis_policy_test runs it and
// AllocateLeftovers on two identically seeded worlds and requires the
// same grants in the same order, and the same next draws from the round's
// RNG and from the estimator afterwards, so the production stage must keep
// every pick and every random draw, not just a grant of the same size.
#pragma once

#include <algorithm>
#include <vector>

#include "core/agent.h"
#include "sim/policy.h"

namespace themis {
namespace oracle {

/// Active jobs by estimated remaining work ascending, equal work in job
/// order: one RemainingWork call per active job, ascending, then a
/// stable_sort of the indices.
inline std::vector<int> JobPriorityOrder(const AppState& app,
                                         WorkEstimator& estimator) {
  std::vector<int> order = app.ActiveJobs();
  std::vector<double> remaining(app.jobs.size(), 0.0);
  for (int j : order)
    remaining[j] = estimator.RemainingWork(
        app.jobs[j].spec, app.jobs[j].DoneIterations(), app.spec.target_loss);
  std::stable_sort(order.begin(), order.end(),
                   [&](int a, int b) { return remaining[a] < remaining[b]; });
  return order;
}

inline void AllocateLeftovers(SchedulerContext& ctx,
                              const std::vector<AppState*>& participants) {
  // An auction that took the whole pool leaves nothing to list apps for.
  if (ctx.free_pool().empty()) return;

  // Participant lookups are O(log P) against a sorted id vector.
  std::vector<AppId> participant_ids;
  participant_ids.reserve(participants.size());
  for (const AppState* app : participants) participant_ids.push_back(app->id);
  std::sort(participant_ids.begin(), participant_ids.end());

  // The context's pool serves the whole stage: each grant shrinks it.
  const GpuPool& pool = ctx.free_pool();

  // The hungry apps in context order, listed once for both passes: during
  // the stage only a winner's gangs change (its demand shrinks, its
  // machines grow), so only the winner's entry is refreshed, and an app
  // that starts sated stays sated.
  struct Hungry {
    AppState* app;
    bool participant;
    int gang;  // smallest gang among jobs that can grow; 0 once sated
    std::vector<MachineId> machines;  // where it holds GPUs, ascending
    bool machines_known;
    std::vector<int> order;  // its job order, made at its first win
    bool ordered;
  };
  auto smallest_gang = [](const AppState& app) {
    int smallest = 0;
    for (const JobState& job : app.jobs)
      if (job.UnmetGangs() > 0 &&
          (smallest == 0 || job.spec.gpus_per_task < smallest))
        smallest = job.spec.gpus_per_task;
    return smallest;
  };
  std::vector<Hungry> hungry;
  for (AppState* app : ctx.apps()) {
    const int gang = smallest_gang(*app);
    if (gang > 0)
      hungry.push_back({app,
                        std::binary_search(participant_ids.begin(),
                                           participant_ids.end(), app->id),
                        gang, {}, false, {}, false});
  }
  // Does the app hold a GPU on a machine that still has pooled GPUs? A
  // merge of two ascending machine lists.
  auto anchored_in_pool = [&](Hungry& h) {
    if (!h.machines_known) {
      h.machines.clear();
      for (const JobState& job : h.app->jobs)
        for (GpuId g : job.gpus)
          h.machines.push_back(ctx.topology().gpu(g).machine);
      std::sort(h.machines.begin(), h.machines.end());
      h.machines_known = true;
    }
    auto m = h.machines.begin();
    for (const GpuPool::Bucket& b : pool.buckets()) {
      while (m != h.machines.end() && *m < b.machine) ++m;
      if (m == h.machines.end()) return false;
      if (*m == b.machine) return true;
    }
    return false;
  };

  // Two passes: first apps that did not participate in the auction (the
  // paper's rule — they cannot game leftovers), then, purely for work
  // conservation, anyone with unmet demand.
  std::vector<Hungry*> candidates;
  std::vector<Hungry*> anchored;
  for (const bool outsiders_only : {true, false}) {
    bool progress = true;
    while (progress) {
      progress = false;
      if (pool.empty()) return;
      // Candidates that can absorb at least one whole gang.
      candidates.clear();
      for (Hungry& h : hungry)
        if (h.gang > 0 && h.gang <= pool.size() &&
            !(outsiders_only && h.participant))
          candidates.push_back(&h);
      if (candidates.empty()) break;

      // Paper: "when many such candidate apps exist for a GPU, one of the
      // apps is picked at random"; prefer apps already placed on machines
      // with free GPUs.
      anchored.clear();
      for (Hungry* h : candidates)
        if (anchored_in_pool(*h)) anchored.push_back(h);
      auto& pick_from = anchored.empty() ? candidates : anchored;
      Hungry& winner = *pick_from[ctx.rng().UniformInt(
          0, static_cast<int>(pick_from.size()) - 1)];
      AppState* app = winner.app;

      // Give its highest-priority job one gang, placed near its gang.
      if (!winner.ordered) {
        winner.order = JobPriorityOrder(*app, ctx.estimator());
        winner.ordered = true;
      }
      for (int j : winner.order) {
        JobState& job = app->jobs[j];
        if (job.UnmetGangs() <= 0) continue;
        const int gang = job.spec.gpus_per_task;
        std::vector<GpuId> picked =
            PickBestPlacedNear(gang, pool, job.gpus, ctx.topology());
        if (static_cast<int>(picked.size()) < gang) continue;
        // Respect placement constraints: a gang the job cannot run on
        // (S = 0) would hold the lease without making progress.
        std::vector<GpuId> combined = job.gpus;
        combined.insert(combined.end(), picked.begin(), picked.end());
        combined.resize(combined.size() - combined.size() % gang);
        if (combined.empty() ||
            EffectiveJobRate(job.spec, combined, ctx.topology()) <= 0.0)
          continue;
        ctx.Grant(*app, job, picked);
        winner.gang = smallest_gang(*app);
        winner.machines_known = false;  // its gang just grew
        progress = true;
        break;
      }
    }
  }
}

}  // namespace oracle
}  // namespace themis
