// Test-only invariant audits of the shared round state machine, through its
// read accessors only.
//
// AuditRoundCore checks the round state between rounds (after FinishRound
// settles). The cluster's lease table and the jobs' gangs (JobState::gpus)
// are the only two records of who holds what, so it checks that they agree:
//
//   - every GPU in a job's gang is leased by the cluster to that (app, job),
//     and every leased GPU sits in exactly one gang — no GPU is held twice;
//   - the apps with a non-empty gang are exactly the active apps holding
//     GPUs (so no finished or retired app keeps a GPU);
//   - RhoIndex::holders() is that holder set, and its unbounded class is
//     exactly the gangless hungry apps in comparator order, each with
//     last_rho pinned to kUnboundedRho (ExpectIndexMatchesBruteForce).
//
// AuditRoundGrants checks one settled round against the offer it answered:
//
//   - no GPU is granted twice;
//   - the GPUs granted on each machine are at most the offer's
//     free_per_machine entry (the auction never oversubscribes a machine);
//   - the cluster's free pool is the offer's pool minus the granted GPUs.
//
// AuditSimulatorWalks checks that the simulator's incremental walks miss
// nothing a walk over every active app would catch. Call it from a round
// observer, where FinishRound has settled but the simulator has not yet
// sampled or projected the round's touched apps:
//
//   - every job whose rate cache is current for its allocation epoch holds
//     exactly Rate() and SpeedSum() of its gang, bitwise;
//   - every active app the round did not touch has its held-GPU count
//     recorded in the allocation timeline already;
//   - every running job with a positive rate in an untouched active app has
//     its finish projected for its current allocation epoch.
//
// Failures are reported through gtest with the offending ids.
#pragma once

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "core/rho_index.h"
#include "core/round_core.h"

namespace themis {

inline std::vector<AppId> AppIds(const std::vector<AppState*>& apps) {
  std::vector<AppId> ids;
  ids.reserve(apps.size());
  for (const AppState* app : apps) ids.push_back(app->id);
  return ids;
}

// From-scratch reference for the RhoIndex: classify every resident app and
// order each class exactly as the index contract promises. `apps` holds
// owning pointers; null slots (retired apps) are skipped.
template <typename OwnedApps>
void ExpectIndexMatchesBruteForce(const RhoIndex& index, const OwnedApps& apps,
                                  bool short_tiebreak) {
  std::vector<const AppState*> want_holders;
  std::vector<const AppState*> want_unbounded;
  for (const auto& app : apps) {
    if (app == nullptr || !app->arrived || app->finished) continue;
    bool holds = false;
    for (const JobState& job : app->jobs)
      if (!job.gpus.empty()) holds = true;
    if (holds)
      want_holders.push_back(app.get());
    else if (app->UnmetDemand() > 0)
      want_unbounded.push_back(app.get());
  }
  std::sort(want_holders.begin(), want_holders.end(),
            [](const AppState* a, const AppState* b) { return a->id < b->id; });
  std::sort(want_unbounded.begin(), want_unbounded.end(),
            [short_tiebreak](const AppState* a, const AppState* b) {
              if (short_tiebreak && a->ideal_time != b->ideal_time)
                return a->ideal_time < b->ideal_time;
              return a->id < b->id;
            });

  ASSERT_EQ(index.holders().size(), want_holders.size());
  for (std::size_t i = 0; i < want_holders.size(); ++i)
    EXPECT_EQ(index.holders()[i], want_holders[i]) << "holder " << i;
  ASSERT_EQ(index.num_unbounded(), want_unbounded.size());
  std::size_t i = 0;
  for (const AppState* app : index.unbounded_candidates()) {
    EXPECT_EQ(app, want_unbounded[i]) << "unbounded " << i;
    // Contract: the index pins the class's last_rho to the probe constant.
    EXPECT_EQ(app->last_rho, kUnboundedRho) << "unbounded app " << app->id;
    ++i;
  }
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
  EXPECT_EQ(gang_owners, active_with_gang) << "an inactive app holds GPUs";
  EXPECT_EQ(AppIds(core.rho_index().holders()), active_with_gang);
  ExpectIndexMatchesBruteForce(core.rho_index(), core.apps(),
                               core.rho_index().short_app_tiebreak());
}

inline void AuditRoundGrants(const RoundCore& core, const ResourceOffer& offer,
                             const GrantSet& grants) {
  const Cluster& cluster = core.cluster();
  const Topology& topo = cluster.topology();
  std::vector<int> times_granted(static_cast<std::size_t>(cluster.num_gpus()),
                                 0);
  std::vector<int> granted_on_machine(offer.free_per_machine.size(), 0);
  for (const Grant& grant : grants.grants) {
    for (GpuId g : grant.gpus) {
      ASSERT_LT(g, static_cast<GpuId>(cluster.num_gpus()));
      EXPECT_EQ(++times_granted[g], 1)
          << "round " << offer.round_id << " grants GPU " << g << " twice";
      const MachineId m = topo.gpu(g).machine;
      ASSERT_LT(m, granted_on_machine.size());
      ++granted_on_machine[m];
    }
  }
  for (MachineId m = 0; m < granted_on_machine.size(); ++m)
    EXPECT_LE(granted_on_machine[m], offer.free_per_machine[m])
        << "round " << offer.round_id << " oversubscribes machine " << m;

  std::vector<GpuId> want_free;
  for (GpuId g : offer.gpus)
    if (times_granted[g] == 0) want_free.push_back(g);
  EXPECT_EQ(cluster.FreeGpus(), want_free)
      << "round " << offer.round_id
      << ": free pool is not the offer minus the grants";
}

inline void AuditSimulatorWalks(const RoundCore& core) {
  const Topology& topo = core.cluster().topology();
  for (const auto& slot : core.apps()) {
    if (slot == nullptr) continue;
    for (const JobState& job : slot->jobs) {
      if (job.rate_cache_version != job.alloc_version) continue;
      EXPECT_EQ(job.cached_rate, job.Rate(topo))
          << "stale cached rate, app " << slot->id << " job " << job.id;
      EXPECT_EQ(job.cached_speed_sum, topo.SpeedSum(job.gpus))
          << "stale cached speed sum, app " << slot->id << " job " << job.id;
    }
  }

  const std::vector<AppId>& touched = core.round_touched_apps();
  for (const AppState* app : core.active_apps()) {
    if (std::binary_search(touched.begin(), touched.end(), app->id)) continue;
    EXPECT_EQ(app->last_recorded_held, app->GpusHeld())
        << "untouched app " << app->id << " has an unrecorded holding";
    for (const JobState& job : app->jobs) {
      if (!job.Running() || !(job.Rate(topo) > 0.0)) continue;
      EXPECT_EQ(job.finish_projected_version, job.alloc_version)
          << "untouched app " << app->id << " job " << job.id
          << " has no finish projected for its allocation";
    }
  }
}

}  // namespace themis
