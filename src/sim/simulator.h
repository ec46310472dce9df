// Event-driven GPU-cluster simulator (Sec. 8.1 "Simulator").
//
// The simulator is an event clock over the shared ARBITER round state
// machine (core/round_core.h). The core does the bookkeeping — progress
// accrual, lease reclaim, tuner steps, the offer -> RunRound -> ApplyGrants
// round, and checkpoint/restart charging whenever a job's gang changes —
// and the simulator decides *when* it happens: arrivals, lease ticks,
// projected job finishes, machine failures and epsilon-batched rounds all
// come off one typed event queue. An app finishes when its first job
// reaches the target accuracy — that job is the "best model" that defines
// the app's finish time (Sec. 2.1) — at which point the remaining jobs are
// terminated and their GPUs reclaimed.
//
// A pass walks only what the event stream implicates: the core steps the
// dirty tuners, and the simulator samples the allocation timeline and
// projects finishes for the apps the round touched. A job's rate is cached
// and its finish projected once per allocation epoch, so no pass re-walks
// the whole active set. AuditSimulatorWalks (tests/round_audit.h) checks
// after every audited round that these walks missed nothing.
//
// Workloads arrive either as a preloaded vector (every AppState built up
// front — the classic path, bit-identical to before) or through a
// TraceReader: arrivals are injected as the stream advances, so the event
// queue and AppState store hold only apps near the simulation frontier.
// With `retire_finished_apps` set, an app's JobState/tuner/placement state
// is destroyed as soon as its final metrics are flushed — live memory then
// tracks *concurrent* apps, not total apps, which is what lets a
// million-job trace replay in bounded memory.
#pragma once

#include <deque>
#include <functional>
#include <memory>
#include <set>
#include <vector>

#include "cluster/cluster.h"
#include "common/rng.h"
#include "core/round_core.h"
#include "estimator/work_estimator.h"
#include "metrics/collector.h"
#include "sim/events.h"
#include "sim/policy.h"
#include "sim/state.h"
#include "workload/trace_gen.h"

namespace themis {

struct SimConfig {
  /// GPU lease duration (Sec. 8.2's sensitivity knob; default 20 min).
  Time lease_minutes = 20.0;
  /// Progress stall applied when a job's gang changes: checkpoint to HDFS
  /// (5-10 s) plus container churn (35-50 s), Sec. 8.3.2.
  Time restart_overhead_minutes = 0.75;
  /// Hard ceiling on simulated time; apps unfinished past this point are
  /// reported as such (tests assert none are).
  Time max_time = 1.0e7;
  EstimatorConfig estimator;
  std::uint64_t seed = 1234;

  /// Failure injection (Sec. 6 "Scheduling after failures" — the study the
  /// paper leaves to future work). Mean time between failures per machine in
  /// minutes; 0 disables injection. When a machine fails every GPU lease on
  /// it is revoked (the affected jobs restart from checkpoints elsewhere)
  /// and the machine rejoins after `machine_repair_minutes`.
  Time machine_mtbf_minutes = 0.0;
  Time machine_repair_minutes = 60.0;

  /// Destroy an app's state once it finishes and its metrics are recorded.
  /// Requires nothing of the workload source but only pays off with a
  /// TraceReader, where live memory then tracks concurrent apps.
  bool retire_finished_apps = false;
  /// How far past the event-queue frontier to inject streamed arrivals.
  /// 0 keeps the queue minimal; larger values trade memory for fewer reader
  /// touches. Ignored for preloaded workloads.
  Time arrival_lookahead_minutes = 0.0;
  /// Metrics memory mode (exact by default; see MetricsConfig).
  MetricsConfig metrics;

  /// Epsilon-batched auction rounds: when a lease tick fires, every lease
  /// expiring within this window is reclaimed by that one scheduling pass,
  /// run at the latest such expiry instant — one larger ResourceOffer
  /// instead of several slivers. Merged leases effectively run up to
  /// epsilon longer; the batch never reaches past a queued event or a
  /// pending streamed arrival. 0 disables coalescing (the exact schedule);
  /// > 0 trades that exactness for fewer rounds.
  Time auction_epsilon_minutes = 0.0;
  /// When > 0, kMetricsTick events sample every active app's held-GPU
  /// count into the allocation timeline at this period (the timeline
  /// otherwise records changes only). Ticks are armed while apps are live
  /// and never span idle stretches, so sparse traces still jump gaps.
  Time metrics_tick_minutes = 0.0;

  /// Reject configurations that would silently produce nonsense runs
  /// (non-positive lease, negative overhead, ...). Throws
  /// std::invalid_argument naming the offending knob; called by the
  /// Simulator constructor before any state is built.
  void Validate() const;
};

struct SimResult {
  MetricsCollector metrics;
  /// Apps that never finished before max_time (should be empty).
  std::vector<AppId> unfinished;
  Time end_time = 0.0;
  int scheduling_passes = 0;
  /// Peak over time of (sum of active apps' GPU demand) / cluster GPUs —
  /// the paper's contention yardstick (Sec. 8.3 reports 4.76x and calls it
  /// the ideal max finish-time fairness).
  double peak_contention = 0.0;
  /// Failure-injection accounting.
  int machine_failures = 0;
  int gpu_leases_revoked_by_failures = 0;
  /// Event-core efficiency counters: typed events popped off the queue,
  /// ARBITER rounds actually run (RunRound invocations; a pass skips its
  /// round when the free pool or active set is empty), and distinct
  /// virtual-time advances. They are deterministic for a given workload
  /// and config, so bench/baselines/event_core.json pins them exactly.
  long long events_processed = 0;
  long long rounds_executed = 0;
  long long sim_time_advances = 0;
  /// Apps seen end to end (streamed or preloaded; includes unfinished).
  std::size_t total_apps = 0;
  /// Peak simultaneously-resident AppStates. Equals total_apps unless
  /// retire_finished_apps; with retirement it tracks peak concurrency.
  std::size_t peak_live_apps = 0;
};

class Simulator {
 public:
  /// Preloaded workload: every AppState is built up front.
  Simulator(ClusterSpec cluster_spec, std::vector<AppSpec> apps,
            std::unique_ptr<IRoundScheduler> scheduler, SimConfig config = {});

  /// Streamed workload: apps are pulled from the reader (which must yield
  /// them in nondecreasing arrival order) as simulated time approaches
  /// their arrival.
  Simulator(ClusterSpec cluster_spec, std::unique_ptr<TraceReader> trace,
            std::unique_ptr<IRoundScheduler> scheduler, SimConfig config = {});

  /// Run to completion (all apps finished) or to config.max_time.
  SimResult Run();

  const Cluster& cluster() const { return core_.cluster(); }
  /// Resident apps, indexed by AppId minus the retirement offset; retired
  /// slots are null until the front of the window is popped.
  const std::deque<std::unique_ptr<AppState>>& apps() const {
    return core_.apps();
  }
  /// The round state machine this simulator clocks (read-only).
  const RoundCore& round_core() const { return core_; }

  /// Observe every (offer, grants) round as it is applied — the federation
  /// layer uses this to check cross-shard invariants; tests use it to audit
  /// grant streams. Called once the round has settled (grants applied,
  /// restart overheads charged).
  using RoundObserver =
      std::function<void(const ResourceOffer&, const GrantSet&)>;
  void set_round_observer(RoundObserver observer) {
    round_observer_ = std::move(observer);
  }

 private:
  /// Seed the per-machine failure clocks (no-op when injection is off).
  void ScheduleFailures();
  void SchedulingPass(Time t);
  /// `job` converged at `t`: finish it (and so its app) in the core, then
  /// record the app's final metrics.
  void FinishJob(Time t, AppState& app, JobState& job);
  /// Project `job`'s analytic finish time from its granted rate and push
  /// the kJobFinish event — at most once per allocation epoch (see
  /// JobState::finish_projected_version). The only projection path: a pass
  /// projects the jobs of the apps it touched, and an untouched job's
  /// projection is still current (tests/round_audit.h checks this).
  void MaybeScheduleFinish(Time t, AppState& app, JobState& job);
  /// Push `job`'s kJobFinish event at its analytic finish under `rate`
  /// (dropped past max_time).
  void PushFinish(Time t, AppId app, const JobState& job, double rate);
  void PushLeaseTick(Time t);
  /// Arm / re-arm the periodic metrics tick (no-op when disabled).
  void ArmMetricsTick(Time t);
  /// True while some injected app is unfinished.
  bool AppsOutstanding() const {
    return core_.finished_apps() != core_.next_app_id();
  }

  /// Add `spec` to the core under the next AppId and enqueue its arrival
  /// event. Shared by the preloading constructor and the streaming refill.
  void InjectApp(AppSpec&& spec);
  /// Pull streamed arrivals up to the lookahead horizon (and always at
  /// least one when the queue is empty or everything injected finished).
  void RefillArrivals();
  /// True once the trace source has no further apps (trivially true for
  /// preloaded workloads).
  bool ReaderExhausted() const { return !have_pending_; }
  /// Destroy a finished app's state (no-op unless retire_finished_apps).
  void RetireApp(AppId id);

  RoundCore core_;
  RoundObserver round_observer_;
  SimConfig config_;
  EventQueue queue_;
  MetricsCollector metrics_;
  std::set<Time> pushed_ticks_;
  double peak_contention_ = 0.0;
  long long events_processed_ = 0;
  long long rounds_executed_ = 0;
  long long time_advances_ = 0;
  bool metrics_tick_armed_ = false;
  Rng failure_rng_{0xFA11};
  int machine_failures_ = 0;
  int leases_revoked_by_failures_ = 0;

  // Streaming source (null for preloaded workloads).
  std::unique_ptr<TraceReader> reader_;
  AppSpec pending_spec_;
  bool have_pending_ = false;
  Time last_injected_arrival_ = -kInfiniteTime;
  std::size_t live_apps_ = 0;
  std::size_t peak_live_apps_ = 0;
};

}  // namespace themis
