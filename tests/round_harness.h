// One standalone ARBITER round over caller-owned state, for tests and
// benches that drive a policy by hand instead of through RoundCore.
//
// The harness keeps a RhoIndex over the caller's apps, builds the offer
// from the cluster's free pool with MakeOffer, runs the scheduler's
// RunRound, then applies the grants with ApplyGrants — the same steps
// RoundCore::FinishRound takes — and re-syncs every granted app's index
// class. Fixtures that mutate gangs or demand directly between rounds use
// SyncAndRun, which re-derives every app's class first; a caller that keeps
// the index in sync itself (Sync after each mutation) calls Run.
#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>
#include <vector>

#include "cluster/cluster.h"
#include "core/rho_index.h"
#include "core/round.h"
#include "sim/policy.h"

namespace themis {

class RoundHarness {
 public:
  RoundHarness(Cluster& cluster, WorkEstimator& estimator, Rng& rng)
      : cluster_(cluster), estimator_(estimator), rng_(rng) {}

  RhoIndex& rho_index() { return index_; }

  void Sync(AppState& app) { index_.Update(&app); }

  /// One round at `now` over `apps` (arrived, unfinished, ascending id,
  /// every one in sync with the index): offer the free pool, run
  /// `scheduler`, lease the grants. Returns the applied GrantSet.
  GrantSet Run(IRoundScheduler& scheduler, AppList& apps, Time now = 0.0,
               Time lease = 20.0) {
    const ResourceOffer offer = MakeOffer(round_id_++, now, lease, cluster_);
    SchedulerContext ctx(offer, &cluster_, &estimator_, &apps, index_, &rng_);
    GrantSet grants = scheduler.RunRound(offer, ctx);
    ApplyGrants(grants, cluster_);
    for (const Grant& grant : grants.grants) {
      const auto it = std::lower_bound(
          apps.begin(), apps.end(), grant.app,
          [](const AppState* a, AppId id) { return a->id < id; });
      if (it != apps.end() && (*it)->id == grant.app) index_.Update(*it);
    }
    return grants;
  }

  /// Sync every app in `owned` (ascending id), then Run over all of them.
  GrantSet SyncAndRun(IRoundScheduler& scheduler,
                      const std::vector<std::unique_ptr<AppState>>& owned,
                      Time now = 0.0, Time lease = 20.0) {
    AppList apps;
    for (const auto& app : owned) {
      index_.Update(app.get());
      apps.push_back(app.get());
    }
    return Run(scheduler, apps, now, lease);
  }

 private:
  Cluster& cluster_;
  WorkEstimator& estimator_;
  Rng& rng_;
  RhoIndex index_;
  std::uint64_t round_id_ = 0;
};

}  // namespace themis
