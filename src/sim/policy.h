// The inter-app scheduling context — the state a round scheduler works
// against (Sec. 2.3). ThemisPolicy and the four baseline emulations
// (Gandiva / Tiresias / SLAQ / DRF, Sec. 8 intro) all implement
// IRoundScheduler (core/round.h): whenever GPUs are reclaimed or apps
// arrive/finish, the round core (core/round_core.h) publishes a
// ResourceOffer, the scheduler stages grants through this context and
// returns a GrantSet, and the core applies the leases through ApplyGrants,
// then charges restart overheads. A context is built only from an offer and
// always carries the maintained RhoIndex, so a scheduler never sees a round
// without one; tests that drive a single round go through the same
// constructor.
#pragma once

#include <vector>

#include "common/rng.h"
#include "core/round.h"
#include "estimator/work_estimator.h"
#include "placement/placement_model.h"
#include "sim/state.h"

namespace themis {

class RhoIndex;

/// Staging area for one round. Construction buckets the offer's GPUs into a
/// GpuPool; every Grant() moves GPUs from the pool onto the job's gang and
/// into the pending GrantSet, so mid-round reads (the pool's membership and
/// buckets, JobState::gpus) see every grant staged so far without any
/// cluster mutation. One context runs exactly one round.
class SchedulerContext {
 public:
  /// The context adopts the offer's pool and lease terms. `offer` must
  /// snapshot `cluster`'s current free pool, and `rho_index` must be in sync
  /// with every app in `apps`.
  SchedulerContext(const ResourceOffer& offer, const Cluster* cluster,
                   WorkEstimator* estimator, AppList* apps, RhoIndex& rho_index,
                   Rng* rng);

  Time now() const { return now_; }
  /// Read-only topology queries. Free-pool state must be read through
  /// free_pool(): the cluster does not see this round's grants until
  /// ApplyGrants runs.
  const Topology& topology() const { return cluster_->topology(); }
  WorkEstimator& estimator() { return *estimator_; }
  Time lease_duration() const { return lease_duration_; }
  /// Active apps (arrived, unfinished), ascending AppId order.
  const AppList& apps() const { return *apps_; }
  Rng& rng() { return *rng_; }

  /// The maintained rho index (core/rho_index.h) over apps(); never null.
  /// It reflects state as of round start: once grants are staged it misses
  /// their holdings, so a policy reading it then must add grants() (as the
  /// THEMIS leftover stage does for its holders).
  RhoIndex* rho_index() const { return rho_index_; }

  /// The offer's pool, shrunk by every grant staged so far. Policies pick
  /// from it directly (PickFastest, PickBestPlacedNear) instead of copying
  /// it or recounting the cluster's free state.
  const GpuPool& free_pool() const { return pool_; }

  /// Stage a grant: lease `gpus` to (app, job) until now + lease_duration.
  /// The GPUs must be in the pool; they leave it, the job records them
  /// immediately (the AGENT side of the protocol), and the pending GrantSet
  /// gains one Grant. The cluster is not touched.
  void Grant(AppState& app, JobState& job, const std::vector<GpuId>& gpus);

  /// The pending grant set (e.g. for a policy stamping auction diagnostics).
  GrantSet& grants() { return grants_; }

  /// Finish the round: stamp the pool-level diagnostics (offered / granted /
  /// leftover) and move the GrantSet out. The context is spent afterwards.
  GrantSet TakeGrants();

 private:
  Time now_;
  const Cluster* cluster_;
  WorkEstimator* estimator_;
  Time lease_duration_;
  AppList* apps_;
  RhoIndex* rho_index_;
  Rng* rng_;
  GpuPool pool_;
  GrantSet grants_;
  int offered_gpus_ = 0;
  int granted_gpus_ = 0;
};

}  // namespace themis
