// Test-only invariant audit of the shared round state machine, through its
// read accessors only. Call it between rounds (after FinishRound settles):
//
//   - every GPU in a job's gang is leased by the cluster to that (app, job),
//     and every leased GPU sits in exactly one gang — leases and
//     JobState::gpus agree, and no GPU is held twice;
//   - the holder set is exactly the active apps with a non-empty gang (so
//     no finished or retired app keeps a GPU);
//   - RhoIndex::holders() is the holder set.
//
// Failures are reported through gtest with the offending ids.
#pragma once

#include <gtest/gtest.h>

#include <vector>

#include "core/round_core.h"

namespace themis {

inline std::vector<AppId> AppIds(const std::vector<AppState*>& apps) {
  std::vector<AppId> ids;
  ids.reserve(apps.size());
  for (const AppState* app : apps) ids.push_back(app->id);
  return ids;
}

inline void AuditRoundCore(const RoundCore& core) {
  const Cluster& cluster = core.cluster();
  std::vector<int> gangs_holding(static_cast<std::size_t>(cluster.num_gpus()), 0);
  std::vector<AppId> gang_owners;
  for (const auto& slot : core.apps()) {
    if (slot == nullptr) continue;
    const AppState& app = *slot;
    bool holds = false;
    for (const JobState& job : app.jobs) {
      for (GpuId g : job.gpus) {
        ASSERT_LT(g, static_cast<GpuId>(cluster.num_gpus()));
        EXPECT_EQ(++gangs_holding[g], 1) << "GPU " << g << " is in two gangs";
        const auto& lease = cluster.lease(g);
        EXPECT_TRUE(lease.has_value() && lease->app == app.id &&
                    lease->job == job.id)
            << "GPU " << g << " in the gang of app " << app.id << " job "
            << job.id << " is not leased to it";
      }
      holds = holds || !job.gpus.empty();
    }
    if (holds) gang_owners.push_back(app.id);
  }
  for (GpuId g = 0; g < static_cast<GpuId>(cluster.num_gpus()); ++g) {
    if (cluster.IsFree(g)) continue;
    EXPECT_EQ(gangs_holding[g], 1) << "leased GPU " << g << " (app "
                                   << cluster.lease(g)->app
                                   << ") is in no gang";
  }

  std::vector<AppId> active_with_gang;
  for (const AppState* app : core.active_apps())
    if (app->GpusHeld() > 0) active_with_gang.push_back(app->id);
  const std::vector<AppId> holders = AppIds(core.holding_apps());
  EXPECT_EQ(holders, active_with_gang);
  EXPECT_EQ(gang_owners, active_with_gang) << "an inactive app holds GPUs";
  EXPECT_EQ(AppIds(core.rho_index().holders()), holders);
}

}  // namespace themis
