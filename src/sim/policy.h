// The inter-app scheduling context — the state a round scheduler works
// against (Sec. 2.3). ThemisPolicy and the four baseline emulations
// (Gandiva / Tiresias / SLAQ / DRF, Sec. 8 intro) all implement
// IRoundScheduler (core/round.h): whenever GPUs are reclaimed or apps
// arrive/finish, the round core (core/round_core.h) publishes a
// ResourceOffer, the scheduler stages grants through this context and
// returns a GrantSet, and the core applies the leases through ApplyGrants,
// then charges restart overheads.
#pragma once

#include <utility>
#include <vector>

#include "common/rng.h"
#include "core/round.h"
#include "estimator/work_estimator.h"
#include "sim/state.h"

namespace themis {

class RhoIndex;

/// Staging area for one round. Construction snapshots the offer into a
/// FreePool; every Grant() moves GPUs from the pool onto the job's gang and
/// into the pending GrantSet, so mid-round reads (pool membership,
/// per-machine counts, JobState::gpus) see every grant staged so far without
/// any cluster mutation. One context runs exactly one round.
class SchedulerContext {
 public:
  /// Round-protocol construction: the context adopts the offer's pool and
  /// lease terms. `offer` must snapshot `cluster`'s current free pool.
  SchedulerContext(const ResourceOffer& offer, Cluster* cluster,
                   WorkEstimator* estimator, AppList* apps, Rng* rng);

  /// Legacy construction: snapshots the cluster's free pool itself (an
  /// anonymous round 0 offer). Kept for tests and embedders that drive
  /// ISchedulerPolicy::Schedule directly.
  SchedulerContext(Time now, Cluster* cluster, WorkEstimator* estimator,
                   Time lease_duration, AppList* apps, Rng* rng);

  Time now() const { return now_; }
  /// Read-only cluster topology/lease queries. Free-pool state must be read
  /// through free_pool(): the cluster does not see this round's grants until
  /// ApplyGrants runs.
  Cluster& cluster() { return *cluster_; }
  const Topology& topology() const { return cluster_->topology(); }
  WorkEstimator& estimator() { return *estimator_; }
  Time lease_duration() const { return lease_duration_; }
  /// Active apps (arrived, unfinished), ascending AppId order.
  const AppList& apps() const { return *apps_; }
  Rng& rng() { return *rng_; }

  /// The maintained rho index (core/rho_index.h) when the embedder keeps
  /// one in sync with every app mutation — the simulator does; legacy
  /// contexts leave it null and policies fall back to full scans. The index
  /// reflects state as of round start; policies must not read it after
  /// staging grants (grants change holdings the index has not seen yet).
  RhoIndex* rho_index() const { return rho_index_; }
  void set_rho_index(RhoIndex* index) { rho_index_ = index; }

  /// The offer's pool, shrunk by every grant staged so far. Policies read
  /// this instead of recounting the cluster's free state.
  const FreePool& free_pool() const { return pool_; }

  /// Free GPU count per machine for the GPUs still in the pool. At round
  /// start this equals the offer's resource vector R->.
  const std::vector<int>& free_per_machine() const {
    return pool_.per_machine();
  }

  /// Stage a grant: lease `gpus` to (app, job) until now + lease_duration.
  /// The GPUs must be in the pool; they leave it, the job records them
  /// immediately (the AGENT side of the protocol), and the pending GrantSet
  /// gains one Grant. The cluster is not touched.
  void Grant(AppState& app, JobState& job, const std::vector<GpuId>& gpus);

  /// The pending grant set (e.g. for a policy stamping auction diagnostics).
  GrantSet& grants() { return grants_; }

  /// Every (app, job) that received a grant this round, in staging order
  /// (may repeat). Unlike grants(), this record survives TakeGrants(), so
  /// the simulator's change detection can enumerate grown gangs even when a
  /// legacy Schedule() wrapper consumed the GrantSet inside the round.
  const std::vector<std::pair<AppId, JobId>>& granted_jobs() const {
    return granted_jobs_;
  }

  /// Finish the round: stamp the pool-level diagnostics (offered / granted /
  /// leftover) and move the GrantSet out. The context is spent afterwards.
  GrantSet TakeGrants();

 private:
  Time now_;
  Cluster* cluster_;
  WorkEstimator* estimator_;
  Time lease_duration_;
  AppList* apps_;
  Rng* rng_;
  RhoIndex* rho_index_ = nullptr;
  FreePool pool_;
  GrantSet grants_;
  std::vector<std::pair<AppId, JobId>> granted_jobs_;
  int offered_gpus_ = 0;
  int granted_gpus_ = 0;
};

/// Legacy single-call policy API, now a thin adapter over IRoundScheduler:
/// Schedule() wraps the context's pool into a ResourceOffer, runs one round,
/// and immediately applies the grants to the context's cluster. The
/// simulator does not use it — it drives RunRound/ApplyGrants itself — but
/// tests and embedders keep a one-line entry point.
class ISchedulerPolicy : public IRoundScheduler {
 public:
  /// Run one round and apply it. Precondition: `free_gpus` is the cluster's
  /// complete current free pool (`ctx.cluster().FreeGpus()` with no mutation
  /// since the context was built), so it agrees with ctx.free_pool() — the
  /// auction uses the matching per-machine counts as its offered resources.
  /// Passing a filtered subset would let the auction award GPUs the
  /// materialization step cannot take. Returns the applied GrantSet.
  GrantSet Schedule(const std::vector<GpuId>& free_gpus,
                    SchedulerContext& ctx);
};

}  // namespace themis
