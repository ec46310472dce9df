#include "sim/simulator.h"

#include <algorithm>
#include <cmath>
#include <optional>
#include <stdexcept>
#include <utility>

namespace themis {

void SimConfig::Validate() const {
  if (!(lease_minutes > 0.0))
    throw std::invalid_argument(
        "SimConfig: lease_minutes must be > 0 (got " +
        std::to_string(lease_minutes) + ")");
  if (restart_overhead_minutes < 0.0)
    throw std::invalid_argument(
        "SimConfig: restart_overhead_minutes must be >= 0 (got " +
        std::to_string(restart_overhead_minutes) + ")");
  if (!(max_time > 0.0))
    throw std::invalid_argument("SimConfig: max_time must be > 0 (got " +
                                std::to_string(max_time) + ")");
  if (machine_mtbf_minutes < 0.0)
    throw std::invalid_argument(
        "SimConfig: machine_mtbf_minutes must be >= 0 (got " +
        std::to_string(machine_mtbf_minutes) + ")");
  if (machine_mtbf_minutes > 0.0 && !(machine_repair_minutes > 0.0))
    throw std::invalid_argument(
        "SimConfig: machine_repair_minutes must be > 0 when failure "
        "injection is on (got " +
        std::to_string(machine_repair_minutes) + ")");
  if (arrival_lookahead_minutes < 0.0)
    throw std::invalid_argument(
        "SimConfig: arrival_lookahead_minutes must be >= 0 (got " +
        std::to_string(arrival_lookahead_minutes) + ")");
  if (auction_epsilon_minutes < 0.0)
    throw std::invalid_argument(
        "SimConfig: auction_epsilon_minutes must be >= 0 (got " +
        std::to_string(auction_epsilon_minutes) + ")");
  if (metrics_tick_minutes < 0.0)
    throw std::invalid_argument(
        "SimConfig: metrics_tick_minutes must be >= 0 (got " +
        std::to_string(metrics_tick_minutes) + ")");
}

Simulator::Simulator(ClusterSpec cluster_spec, std::vector<AppSpec> specs,
                     std::unique_ptr<IRoundScheduler> scheduler,
                     SimConfig config)
    : core_(std::move(cluster_spec), std::move(scheduler), config.lease_minutes,
            config.restart_overhead_minutes, config.estimator, config.seed),
      config_(config),
      metrics_(config.metrics) {
  config_.Validate();
  for (AppSpec& spec : specs) InjectApp(std::move(spec));
  ScheduleFailures();
}

Simulator::Simulator(ClusterSpec cluster_spec,
                     std::unique_ptr<TraceReader> trace,
                     std::unique_ptr<IRoundScheduler> scheduler,
                     SimConfig config)
    : core_(std::move(cluster_spec), std::move(scheduler), config.lease_minutes,
            config.restart_overhead_minutes, config.estimator, config.seed),
      config_(config),
      metrics_(config.metrics),
      reader_(std::move(trace)) {
  config_.Validate();
  have_pending_ = reader_->Next(pending_spec_);
  ScheduleFailures();
}

void Simulator::ScheduleFailures() {
  // Failure injection: seed per-machine failure clocks (Sec. 6). Both
  // workload forms seed the same derived RNG, so streamed and preloaded
  // runs of one trace see identical failure schedules.
  failure_rng_ = Rng(config_.seed ^ 0xFA11DEADULL);
  if (config_.machine_mtbf_minutes <= 0.0) return;
  for (MachineId m = 0; m < static_cast<MachineId>(cluster().num_machines());
       ++m) {
    Event e;
    e.time = failure_rng_.Exponential(config_.machine_mtbf_minutes);
    e.type = EventType::kMachineFail;
    e.machine = m;
    queue_.Push(e);
  }
}

void Simulator::InjectApp(AppSpec&& spec) {
  const AppState& app = core_.AddApp(std::move(spec));
  queue_.Push(Event{app.spec.arrival, 0, EventType::kAppArrival, app.id,
                    kNoJob, 0});
  ++live_apps_;
  peak_live_apps_ = std::max(peak_live_apps_, live_apps_);
}

void Simulator::RefillArrivals() {
  while (have_pending_) {
    // Past the horizon, apps stay in the reader; they are accounted (as
    // unfinished) when the run ends.
    if (pending_spec_.arrival > config_.max_time) break;
    if (!queue_.Empty() && AppsOutstanding() &&
        pending_spec_.arrival >
            queue_.Top().time + 1e-12 + config_.arrival_lookahead_minutes)
      break;
    if (pending_spec_.arrival < last_injected_arrival_)
      throw std::runtime_error(
          "Simulator: streamed trace is not arrival-sorted (app arriving at " +
          std::to_string(pending_spec_.arrival) + " follows one at " +
          std::to_string(last_injected_arrival_) +
          "); sort the trace or preload it");
    last_injected_arrival_ = pending_spec_.arrival;
    InjectApp(std::move(pending_spec_));
    have_pending_ = reader_->Next(pending_spec_);
  }
}

void Simulator::RetireApp(AppId id) {
  if (!config_.retire_finished_apps) return;
  core_.RetireApp(id);
  --live_apps_;
}

void Simulator::FinishJob(Time t, AppState& app, JobState& job) {
  core_.FinishJob(t, app, job);
  // Close out the change-only allocation timeline at 0: the app leaves the
  // sampling walks on finish, so without this a consumer forward-filling
  // holdings would ghost its last grant forever.
  if (app.last_recorded_held > 0) {
    metrics_.RecordAllocation(t, app.id, 0);
    app.last_recorded_held = 0;
  }

  AppRecord record;
  record.app = app.id;
  record.arrival = app.arrival();
  record.finish = t;
  record.ideal_time = app.ideal_time;
  record.mean_placement_score =
      app.placement_scores.count() > 0 ? app.placement_scores.mean() : 1.0;
  record.attained_service = app.attained_service;
  metrics_.RecordAppFinish(record);
}

void Simulator::PushLeaseTick(Time t) {
  if (t > config_.max_time) return;
  if (pushed_ticks_.insert(t).second)
    queue_.Push(Event{t, 0, EventType::kLeaseTick, kNoApp, kNoJob, 0});
}

void Simulator::ArmMetricsTick(Time t) {
  if (config_.metrics_tick_minutes <= 0.0 || metrics_tick_armed_) return;
  metrics_tick_armed_ = true;
  Event e;
  e.time = t + config_.metrics_tick_minutes;
  e.type = EventType::kMetricsTick;
  queue_.Push(e);
}

void Simulator::MaybeScheduleFinish(Time t, AppState& app, JobState& job) {
  if (!job.Running()) return;
  // One projection per allocation epoch. The finish instant is analytic in
  // the granted rate; recomputing it at later passes would yield the same
  // instant only up to ulps, and pushing those near-duplicates would let
  // whichever drifted earliest win the heap. The *first* projection is
  // pinned and invalidated only on re-grant.
  if (job.finish_projected_version == job.alloc_version) return;
  job.finish_projected_version = job.alloc_version;
  // Refreshes the per-epoch cache as a side effect, so the advances that
  // follow reuse this epoch's rate instead of re-deriving it.
  const double rate = job.CachedRate(cluster().topology());
  if (rate > 0.0) PushFinish(t, app.id, job, rate);
}

void Simulator::PushFinish(Time t, AppId app, const JobState& job,
                           double rate) {
  const Time finish = std::max(t, job.resume_at) + job.RemainingWork() / rate;
  if (finish <= config_.max_time)
    queue_.Push(Event{finish, 0, EventType::kJobFinish, app, job.id,
                      job.alloc_version});
}

void Simulator::SchedulingPass(Time t) {
  // 1. The round's first half in the core: reclaim expired leases, step the
  // dirty tuners, publish the offer.
  const std::optional<ResourceOffer> offer = core_.BeginRound(t);

  // Track contention: total live demand (held + unmet) over capacity. The
  // sum is maintained incrementally in integers, so it equals a per-pass
  // resum exactly.
  peak_contention_ = std::max(peak_contention_,
                              static_cast<double>(core_.total_cap_demand()) /
                                  static_cast<double>(cluster().num_gpus()));

  // 2. The second half: RunRound over the offer (round id = pass number),
  // ApplyGrants, restart charging. Without an offer the core still settles
  // the reclaimed gangs.
  const GrantSet grants = core_.FinishRound(offer ? &*offer : nullptr);
  if (offer) {
    ++rounds_executed_;
    if (grants.diagnostics.auction_ran)
      metrics_.RecordAuction(grants.diagnostics.auction_participants,
                             grants.diagnostics.offered_gpus,
                             grants.diagnostics.granted_gpus,
                             grants.diagnostics.leftover_gpus);
    if (round_observer_) round_observer_(*offer, grants);
  }

  // 3. Sample the allocation timeline (Fig. 8) — on change. An app whose
  // held count is untouched since its last sample would record nothing, so
  // walking only the apps the core reports touched (ascending) appends the
  // same samples as a walk over every active app.
  for (AppId id : core_.round_touched_apps()) {
    AppState* app = core_.FindApp(id);
    if (app == nullptr || !app->arrived || app->finished) continue;
    const int held = app->GpusHeld();
    if (held != app->last_recorded_held) {
      metrics_.RecordAllocation(t, app->id, held);
      app->last_recorded_held = held;
    }
  }

  // 4. Schedule lease ticks + projected finish events. The expiry index
  // answers the next-expiry query directly instead of a full GPU scan. Push
  // order (tick first, then finish projections ascending (app, job)) is
  // part of the contract: seq breaks ties at equal times.
  const Time next_expiry = cluster().NextExpiryAfter(t);
  if (std::isfinite(next_expiry)) PushLeaseTick(next_expiry);
  for (AppId id : core_.round_touched_apps()) {
    AppState* app = core_.FindApp(id);
    if (app == nullptr || app->finished) continue;
    for (JobState& job : app->jobs) MaybeScheduleFinish(t, *app, job);
  }
}

SimResult Simulator::Run() {
  while (true) {
    RefillArrivals();
    if (queue_.Empty()) break;
    if (!AppsOutstanding() && ReaderExhausted()) break;
    Time t = queue_.Top().time;
    if (t > config_.max_time) break;

    bool saw_tick = false;
    // Epsilon-batched auction rounds: when a lease tick fires, every lease
    // expiring within the epsilon window is reclaimed by this one pass —
    // the pass runs at the *latest* such expiry instant, so it publishes one
    // larger ResourceOffer instead of several slivers (each merged lease
    // effectively runs up to epsilon longer). The jump never passes a queued
    // event or the next streamed arrival, so nothing is ever handled late.
    if (config_.auction_epsilon_minutes > 0.0 &&
        queue_.Top().type == EventType::kLeaseTick) {
      const Event tick = queue_.Pop();
      ++events_processed_;
      pushed_ticks_.erase(tick.time);
      saw_tick = true;
      Time bound = tick.time + config_.auction_epsilon_minutes;
      if (!queue_.Empty()) bound = std::min(bound, queue_.Top().time);
      if (have_pending_) bound = std::min(bound, pending_spec_.arrival);
      bound = std::min(bound, config_.max_time);
      // Stale ticks (nothing expiring in the window) stay at their own
      // instant; expiries already past are reclaimed wherever t lands.
      t = std::max(tick.time, cluster().LatestExpiryAtOrBefore(bound));
    }

    if (core_.AdvanceTo(t)) ++time_advances_;

    bool need_schedule = false;
    while (!queue_.Empty() && queue_.Top().time <= t + 1e-12) {
      const Event e = queue_.Pop();
      ++events_processed_;
      switch (e.type) {
        case EventType::kAppArrival:
          core_.Admit(*core_.FindApp(e.app));
          ArmMetricsTick(t);
          need_schedule = true;
          break;
        case EventType::kLeaseTick:
          pushed_ticks_.erase(e.time);
          saw_tick = true;
          break;
        case EventType::kJobFinish: {
          AppState* app = core_.FindApp(e.app);
          if (app == nullptr || app->finished) break;
          JobState& job = app->jobs[e.job];
          if (job.alloc_version != e.version || !job.Running()) break;
          if (RoundCore::Converged(job)) {
            FinishJob(t, *app, job);
            need_schedule = true;
            // The app's metrics are flushed; its JobState/tuner/placement
            // state can go. `app` and `job` dangle past this point.
            RetireApp(e.app);
          } else {
            // The projection drifted past the tolerance: progress between
            // events accumulates in segments, and a sum of segment products
            // is not bitwise the single product the projection used. Re-push
            // from current progress (strictly later than t, so this
            // terminates) — the finish is never silently lost.
            const double rate = job.Rate(cluster().topology());
            if (rate > 0.0) PushFinish(t, e.app, job, rate);
          }
          break;
        }
        case EventType::kMachineFail: {
          ++machine_failures_;
          // Every lease on the failed machine is revoked; affected jobs
          // lose part (or all) of their gang and restart from checkpoints
          // once rescheduled.
          leases_revoked_by_failures_ += core_.FailMachine(t, e.machine);
          Event repair;
          repair.time = t + config_.machine_repair_minutes;
          repair.type = EventType::kMachineRepair;
          repair.machine = e.machine;
          queue_.Push(repair);
          need_schedule = true;
          break;
        }
        case EventType::kMachineRepair: {
          core_.RepairMachine(e.machine);
          if (config_.machine_mtbf_minutes > 0.0 &&
              (AppsOutstanding() || !ReaderExhausted())) {
            Event next;
            next.time = t + failure_rng_.Exponential(config_.machine_mtbf_minutes);
            next.type = EventType::kMachineFail;
            next.machine = e.machine;
            queue_.Push(next);
          }
          need_schedule = true;
          break;
        }
        case EventType::kMetricsTick: {
          metrics_tick_armed_ = false;
          if (!core_.active_apps().empty()) {
            for (AppState* app : core_.active_apps()) {
              app->last_recorded_held = app->GpusHeld();
              metrics_.RecordAllocation(t, app->id, app->last_recorded_held);
            }
            ArmMetricsTick(t);
          }
          // Re-armed by the next arrival otherwise: ticks never span an
          // idle cluster, so sparse traces still jump the gaps.
          break;
        }
      }
    }
    // A lease tick demands a pass only when a lease actually expired by
    // now. Stale ticks (their lease renewed or released since the tick was
    // pushed, or the last holder finished) advance virtual time and
    // nothing else, so an exhausted stream does not run passes out to its
    // last stale tick. The tick chain survives the skip: ticks are
    // (re)pushed by passes, and only passes move expiries.
    if (saw_tick && cluster().HasExpiredLease(t)) need_schedule = true;
    if (need_schedule) SchedulingPass(t);
  }

  SimResult result;
  result.end_time = core_.now();
  result.scheduling_passes = static_cast<int>(core_.passes());
  result.peak_contention = peak_contention_;
  result.machine_failures = machine_failures_;
  result.gpu_leases_revoked_by_failures = leases_revoked_by_failures_;
  result.events_processed = events_processed_;
  result.rounds_executed = rounds_executed_;
  result.sim_time_advances = time_advances_;
  for (const auto& app : core_.apps())
    if (app != nullptr && !app->finished) result.unfinished.push_back(app->id);
  // Apps still in the reader never arrived (the run hit max_time first);
  // they are unfinished by definition. Assign their would-be ids one at a
  // time — the trace itself is never materialized.
  AppId next_id = core_.next_app_id();
  if (have_pending_) {
    do {
      result.unfinished.push_back(next_id++);
    } while (reader_->Next(pending_spec_));
    have_pending_ = false;
  }
  result.total_apps = static_cast<std::size_t>(next_id);
  result.peak_live_apps = peak_live_apps_;
  // Every held GPU-minute was accrued by the core, in the same order the
  // per-interval records would have summed them.
  metrics_.RecordGpuTime(core_.gpu_minutes());
  result.metrics = std::move(metrics_);
  return result;
}

}  // namespace themis
