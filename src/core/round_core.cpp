#include "core/round_core.h"

#include <algorithm>

#include "placement/placement_model.h"
#include "sim/policy.h"

namespace themis {
namespace {

constexpr double kFinishEps = 1e-6;

/// Position of `id` in an AppList sorted by AppId.
AppList::iterator FindSlot(AppList& list, AppId id) {
  return std::lower_bound(list.begin(), list.end(), id,
                          [](const AppState* a, AppId b) { return a->id < b; });
}

}  // namespace

RoundCore::RoundCore(ClusterSpec cluster_spec,
                     std::unique_ptr<IRoundScheduler> scheduler,
                     Time lease_minutes, Time restart_overhead_minutes,
                     const EstimatorConfig& estimator, std::uint64_t seed)
    : cluster_(std::move(cluster_spec)),
      scheduler_(std::move(scheduler)),
      estimator_(estimator),
      rng_(seed),
      lease_minutes_(lease_minutes),
      restart_overhead_minutes_(restart_overhead_minutes) {}

AppState& RoundCore::AddApp(AppSpec spec) {
  auto app = std::make_unique<AppState>();
  app->id = next_app_id_++;
  app->spec = std::move(spec);
  // T_ID assumes the app ran alone with ideal placement — on a
  // heterogeneous cluster that means the fastest generation, so rho
  // compares effective GPU-hours, not raw counts. Division by 1.0 on
  // uniform-speed clusters leaves the classic T_ID bit-identical.
  app->ideal_time = std::max(
      1e-9, app->spec.IdealRunningTime() / cluster_.topology().max_speed());
  app->tuner = MakeAppScheduler(app->spec);
  JobId next_job = 0;
  for (const JobSpec& js : app->spec.jobs) {
    JobState job;
    job.id = next_job++;
    job.spec = js;
    job.parallelism_cap = js.MaxParallelism();
    app->jobs.push_back(std::move(job));
  }
  apps_.push_back(std::move(app));
  return *apps_.back();
}

void RoundCore::Admit(AppState& app) {
  app.arrived = true;
  app.tuner->Init(app.spec);
  ActivateApp(app);
  MarkTunerDirty(app);
  Touch(app.id);
}

void RoundCore::RetireApp(AppId id) {
  apps_[id - apps_base_].reset();
  while (!apps_.empty() && apps_.front() == nullptr) {
    apps_.pop_front();
    ++apps_base_;
  }
}

AppState* RoundCore::Lookup(AppId id) const {
  if (id < apps_base_) return nullptr;
  const std::size_t idx = id - apps_base_;
  return idx < apps_.size() ? apps_[idx].get() : nullptr;
}

void RoundCore::ActivateApp(AppState& app) {
  const auto it = FindSlot(active_apps_, app.id);
  if (it == active_apps_.end() || (*it)->id != app.id) {
    active_apps_.insert(it, &app);
    // The app enters the contention sum at its pre-step capped demand; its
    // first tuner Step folds in any cap change as a delta.
    app.cached_cap_demand = app.CapDemand();
    total_cap_demand_ += app.cached_cap_demand;
  }
  rho_index_.Update(&app);
}

void RoundCore::DeactivateApp(AppId id) {
  const auto it = FindSlot(active_apps_, id);
  if (it != active_apps_.end() && (*it)->id == id) active_apps_.erase(it);
}

bool RoundCore::AdvanceTo(Time t) {
  if (t <= last_advance_) return false;
  const Topology& topo = cluster_.topology();
  // Only holders can accrue anything: an empty gang consumes no GPU-time
  // and makes no progress. The RhoIndex holder class is exactly the active
  // apps with a gang, in ascending id order.
  for (AppState* app : rho_index_.holders()) {
    for (JobState& job : app->jobs) {
      if (job.gpus.empty()) continue;
      // Held GPUs consume GPU-time for the whole interval (they are leased),
      // even while the job restarts from a checkpoint. Attained service is
      // *effective* (speed-weighted) GPU-minutes so Tiresias' LAS ordering
      // prices an A100-minute above a K80-minute; the GPU-time total stays
      // raw occupancy. The gang is fixed within an allocation epoch, so its
      // speed sum and rate come from the per-epoch cache.
      const double held_dt = t - last_advance_;
      gpu_minutes_ += held_dt * static_cast<double>(job.gpus.size());
      const Work effective_minutes = held_dt * job.CachedSpeedSum(topo);
      job.attained_service += effective_minutes;
      app->attained_service += effective_minutes;
      if (!job.Running()) continue;
      const Time seg_start = std::max(last_advance_, job.resume_at);
      if (t > seg_start) {
        job.done += (t - seg_start) * job.CachedRate(topo);
        job.done = std::min(job.done, job.spec.total_work);
      }
    }
    // Progress (or plain attained service) moved: the tuner's views may
    // have changed, so the next round must re-step this app.
    MarkTunerDirty(*app);
  }
  last_advance_ = t;
  return true;
}

bool RoundCore::Converged(const JobState& job) {
  return job.RemainingWork() <= kFinishEps + 1e-9 * job.spec.total_work;
}

void RoundCore::KillJob(JobState& job) {
  job.alive = false;
  ++job.alloc_version;
  for (GpuId g : job.gpus) cluster_.Release(g);
  job.gpus.clear();
}

void RoundCore::FinishJob(Time t, AppState& app, JobState& job) {
  job.finished = true;
  job.finish_time = t;
  ++job.alloc_version;
  for (GpuId g : job.gpus) cluster_.Release(g);
  job.gpus.clear();
  FinishApp(t, app);
}

void RoundCore::FinishApp(Time t, AppState& app) {
  if (app.finished) return;
  ++finished_apps_;
  CloseApp(t, app);
}

void RoundCore::EvictApp(Time t, AppState& app) {
  if (app.finished) return;
  CloseApp(t, app);
}

void RoundCore::CloseApp(Time t, AppState& app) {
  app.finished = true;
  app.finish_time = t;
  DeactivateApp(app.id);
  total_cap_demand_ -= app.cached_cap_demand;
  app.cached_cap_demand = 0;
  for (JobState& job : app.jobs)
    if (job.alive && !job.finished) KillJob(job);
  rho_index_.Update(&app);
}

void RoundCore::ChargeRestart(Time t, JobState& job) {
  ++job.alloc_version;
  if (!job.gpus.empty()) job.resume_at = t + restart_overhead_minutes_;
}

int RoundCore::FailMachine(Time t, MachineId machine) {
  cluster_.SetMachineDown(machine, true);
  int revoked = 0;
  for (GpuId g : cluster_.topology().machine_gpus(machine)) {
    if (cluster_.IsFree(g)) continue;
    const Lease lease = *cluster_.lease(g);
    cluster_.Release(g);
    ++revoked;
    AppState* app = FindApp(lease.app);
    if (app != nullptr && lease.job < app->jobs.size()) {
      JobState& job = app->jobs[lease.job];
      job.gpus.erase(std::remove(job.gpus.begin(), job.gpus.end(), g),
                     job.gpus.end());
      ChargeRestart(t, job);
      rho_index_.Update(app);
      Touch(lease.app);
    }
  }
  return revoked;
}

void RoundCore::RepairMachine(MachineId machine) {
  cluster_.SetMachineDown(machine, false);
}

void RoundCore::MarkTunerDirty(AppState& app) {
  if (app.tuner_dirty) return;
  app.tuner_dirty = true;
  tuner_dirty_apps_.push_back(app.id);
}

void RoundCore::StepTuner(Time t, AppState& app) {
  app.Views(views_scratch_);
  const TunerDecision& decision = app.tuner->Step(views_scratch_, t);
  bool killed = false;
  for (int idx : decision.kill) {
    JobState& job = app.jobs[idx];
    if (job.alive && !job.finished) {
      KillJob(job);
      killed = true;
    }
  }
  for (std::size_t j = 0; j < app.jobs.size(); ++j)
    app.jobs[j].parallelism_cap = decision.parallelism_cap[j];
  app.tuner_dirty = false;
  // A job whose cap shrank below its current gang keeps the lease until
  // expiry (allocations are binding, Sec. 4's strawman discussion). Caps
  // only change in tuner steps, so the integer delta against the cached
  // value keeps the maintained contention sum exact.
  const long long demand = app.CapDemand();
  total_cap_demand_ += demand - app.cached_cap_demand;
  app.cached_cap_demand = demand;
  // Kills change the gangs; cap changes alone can flip UnmetDemand() and
  // with it candidate membership.
  rho_index_.Update(&app);
  if (killed) Touch(app.id);
}

std::optional<ResourceOffer> RoundCore::BeginRound(Time now) {
  ++passes_;
  round_time_ = now;

  // 1. Reclaim expired leases (O(expired log n) via the expiry index),
  // snapshotting each touched job's gang before its first removal. Change
  // detection in FinishRound examines only these jobs and the granted
  // ones, so its cost scales with the churn of the round.
  for (GpuId g : cluster_.ExpiredGpus(now)) {
    const Lease lease = *cluster_.lease(g);
    cluster_.Release(g);
    AppState* app = FindApp(lease.app);
    if (app != nullptr && lease.job < app->jobs.size()) {
      auto& gpus = app->jobs[lease.job].gpus;
      reclaimed_before_.try_emplace({lease.app, lease.job}, gpus);
      gpus.erase(std::remove(gpus.begin(), gpus.end(), g), gpus.end());
    }
  }
  for (const auto& [key, gang] : reclaimed_before_) {
    (void)gang;
    if (AppState* app = FindApp(key.first)) rho_index_.Update(app);
  }

  // 2. Per-app tuner step (kills and parallelism caps) for the apps whose
  // views could have changed since their last step — arrivals and apps
  // that held GPUs across a time advance. A Step on unchanged views is a
  // no-op by construction of every tuner, so the skipped calls cannot
  // matter.
  std::sort(tuner_dirty_apps_.begin(), tuner_dirty_apps_.end());
  tuner_dirty_apps_.erase(
      std::unique(tuner_dirty_apps_.begin(), tuner_dirty_apps_.end()),
      tuner_dirty_apps_.end());
  for (AppId id : tuner_dirty_apps_) {
    AppState* app = FindApp(id);
    if (app == nullptr || !app->arrived || app->finished) continue;
    StepTuner(now, *app);
  }
  tuner_dirty_apps_.clear();

  // 3. Publish the offer: the free pool with its per-machine shape.
  if (active_apps_.empty()) return std::nullopt;
  ResourceOffer offer = MakeOffer(passes_, now, lease_minutes_, cluster_);
  if (offer.gpus.empty()) return std::nullopt;
  return offer;
}

GrantSet RoundCore::FinishRound(const ResourceOffer* offer) {
  // 1. One ARBITER round: the scheduler stages its grants against the
  // offer's pool, then the leases are applied — the single
  // grant-application path; policies never touch the cluster.
  GrantSet grants;
  if (offer != nullptr) {
    SchedulerContext ctx(*offer, &cluster_, &estimator_, &active_apps_,
                         rho_index_, &rng_);
    grants = scheduler_->RunRound(*offer, ctx);
    ApplyGrants(grants, cluster_);
    for (const Grant& grant : grants.grants)
      if (AppState* app = FindApp(grant.app)) {
        rho_index_.Update(app);
        Touch(grant.app);
      }
  }

  // 2. Charge restarts to the changed gangs. Reclaimed jobs carry their
  // pre-round gang; granted jobs strictly grew, so a grant with no snapshot
  // is changed by construction. A reclaimed gang re-won intact by a lease
  // renewal compares equal and incurs no restart; one a partial reclaim
  // shrank does. std::map order fixes the (app, job) ascending walk — and
  // so the placement-score accumulation order.
  std::map<std::pair<AppId, JobId>, const std::vector<GpuId>*> touched;
  for (const auto& [key, gang] : reclaimed_before_) {
    touched[key] = &gang;
    Touch(key.first);
  }
  for (const Grant& grant : grants.grants)
    touched.try_emplace({grant.app, grant.job}, nullptr);
  for (const auto& [key, before] : touched) {
    AppState* app = FindApp(key.first);
    if (app == nullptr || app->finished || key.second >= app->jobs.size())
      continue;
    JobState& job = app->jobs[key.second];
    if (before != nullptr && *before == job.gpus) continue;
    ChargeRestart(round_time_, job);
    if (!job.gpus.empty())
      app->placement_scores.Add(PlacementScore(job.gpus, cluster_.topology()));
  }
  reclaimed_before_.clear();

  round_touched_apps_.swap(touched_apps_);
  touched_apps_.clear();
  std::sort(round_touched_apps_.begin(), round_touched_apps_.end());
  round_touched_apps_.erase(
      std::unique(round_touched_apps_.begin(), round_touched_apps_.end()),
      round_touched_apps_.end());
  return grants;
}

}  // namespace themis
