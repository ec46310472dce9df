// The THEMIS AGENT (Sec. 5.2).
//
// An AGENT is co-located with each app's scheduler and mediates between it
// and the ARBITER: it answers rho probes, and when the app is offered
// resources it prepares a bid — a valuation table mapping candidate GPU
// subsets to the app's estimated new finish-time fairness metric. Valuations
// follow the paper's recipe:
//   T_SH = min over alive jobs of (elapsed + W'_j / (G_j * S_j))
//   T_ID = min over jobs of (W_j / G_ideal_j)      (ideal placement, S = 1)
//   rho  = T_SH / T_ID
// where work-left W' comes from the app scheduler's estimator (clairvoyant,
// noisy, or curve-fit — Sec. 8.1 / Fig. 11) and S captures placement
// sensitivity. Apps holding no usable gang report the unbounded-rho cap.
//
// T_SH is computed from per-job rates (G_j * S_j * min gang speed), not from
// gangs: a bid fills them once from the app's current gangs for the zero
// row, and each cumulative increment updates only the grown job's rate. The
// estimator is still asked for W'_j on every evaluation, for every active
// job with a positive rate in ascending job order, so the noisy estimator's
// draw sequence does not depend on how rates are kept.
#pragma once

#include <utility>
#include <vector>

#include "auction/bid.h"
#include "estimator/work_estimator.h"
#include "sim/state.h"

namespace themis {

/// A bid plus the concrete GPUs backing each row, so the ARBITER can
/// materialize the (scaled) winning allocation on the same machines the app
/// valued.
struct AgentBid {
  BidTable table;
  /// row_gpus[r] = concrete GPU ids the agent picked for row r.
  std::vector<std::vector<GpuId>> row_gpus;
};

/// One job's share of an app-level grant.
struct JobAssignment {
  int job_index = -1;
  std::vector<GpuId> gpus;
};

class Agent {
 public:
  Agent(const Topology* topo, WorkEstimator* estimator, Time now)
      : topo_(topo), estimator_(estimator), now_(now) {}

  /// rho with the app's current allocation (ARBITER probe, step 1 of Fig. 3).
  double CurrentRho(const AppState& app) const;

  /// rho if `extra` GPUs were added and greedily spread over the app's jobs.
  double HypotheticalRho(const AppState& app,
                         const std::vector<GpuId>& extra) const;

  /// Build the valuation table for an offer (step 3 of Fig. 3). Rows are
  /// cumulative task-gang bundles in the app's own greedy priority order,
  /// placed as well as the offered pool allows; row 0 is the zero allocation
  /// at the current rho. At most `max_rows` non-zero rows.
  AgentBid PrepareBid(const AppState& app, const std::vector<GpuId>& offered,
                      int max_rows = 6) const;

  /// Greedy app-internal distribution of granted GPUs to jobs in whole gangs
  /// (Sec. 5.2 step 4: "GPUs are assigned to jobs in a placement sensitive
  /// manner"). GPUs that do not fill a gang are left unassigned.
  std::vector<JobAssignment> DistributeToJobs(
      const AppState& app, const std::vector<GpuId>& granted) const;

  /// Active jobs by estimated remaining work ascending, equal work in job
  /// order — the job driving the min() in T_SH first. Fills `order` with
  /// sorted (remaining work, job index) pairs, asking the estimator once
  /// per active job in ascending job order; the caller owns the buffer, so
  /// a loop reuses its capacity.
  void JobPriorityOrder(const AppState& app,
                        std::vector<std::pair<Work, int>>& order) const;

 private:
  /// Per-job progress rates on the current gangs (indexed like app.jobs;
  /// 0 for inactive jobs and gangs without a whole usable task).
  std::vector<double> CurrentRates(const AppState& app) const;
  /// T_SH given per-job progress rates (indexed like app.jobs).
  double SharedRunningTime(const AppState& app,
                           const std::vector<double>& rates) const;
  double RhoFromSharedTime(const AppState& app, double t_sh) const;

  const Topology* topo_;
  WorkEstimator* estimator_;
  Time now_;
};

}  // namespace themis
