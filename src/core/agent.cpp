#include "core/agent.h"

#include <algorithm>
#include <cmath>
#include <limits>

namespace themis {
namespace {

/// Usable prefix of a gang: whole task-multiples only.
int UsableGpus(const JobSpec& spec, int held) {
  return held - held % spec.gpus_per_task;
}

/// Progress rate of a job on the usable prefix of `gpus`; 0 when no whole
/// task fits. Copies only when a partial task must be cut off.
double UsableRate(const JobSpec& spec, const std::vector<GpuId>& gpus,
                  const Topology& topo) {
  const int usable = UsableGpus(spec, static_cast<int>(gpus.size()));
  if (usable <= 0) return 0.0;
  if (usable == static_cast<int>(gpus.size()))
    return EffectiveJobRate(spec, gpus, topo);
  return EffectiveJobRate(
      spec, std::vector<GpuId>(gpus.begin(), gpus.begin() + usable), topo);
}

/// The job's rate on (held + extra), or 0 when it would make no progress:
/// the combined usable set violates the job's placement constraint (Sec. 6:
/// such allocations have S = 0, i.e. infinite rho — never worth assigning).
double RateWith(const JobSpec& spec, const std::vector<GpuId>& held,
                const std::vector<GpuId>& extra, const Topology& topo) {
  std::vector<GpuId> combined = held;
  combined.insert(combined.end(), extra.begin(), extra.end());
  return UsableRate(spec, combined, topo);
}

}  // namespace

void Agent::JobPriorityOrder(const AppState& app,
                             std::vector<std::pair<Work, int>>& order) const {
  order.clear();
  for (std::size_t j = 0; j < app.jobs.size(); ++j) {
    const JobState& job = app.jobs[j];
    if (!job.alive || job.finished) continue;
    order.emplace_back(estimator_->RemainingWork(job.spec, job.DoneIterations(),
                                                 app.spec.target_loss),
                       static_cast<int>(j));
  }
  // Job indices are distinct, so the pairs sort into the one permutation a
  // stable sort of the indices by remaining work gives.
  std::sort(order.begin(), order.end());
}

std::vector<double> Agent::CurrentRates(const AppState& app) const {
  std::vector<double> rates(app.jobs.size(), 0.0);
  for (std::size_t j = 0; j < app.jobs.size(); ++j) {
    const JobState& job = app.jobs[j];
    if (job.alive && !job.finished)
      rates[j] = UsableRate(job.spec, job.gpus, *topo_);
  }
  return rates;
}

double Agent::SharedRunningTime(const AppState& app,
                                const std::vector<double>& rates) const {
  // Work-left is asked for every rated active job, ascending, on every
  // evaluation: the noisy estimator draws once per call, so this sequence
  // is part of the bid's contract.
  const Time elapsed = std::max(0.0, now_ - app.arrival());
  double best = std::numeric_limits<double>::infinity();
  for (std::size_t j = 0; j < app.jobs.size(); ++j) {
    const JobState& job = app.jobs[j];
    if (!job.alive || job.finished || rates[j] <= 0.0) continue;
    const Work left = estimator_->RemainingWork(job.spec, job.DoneIterations(),
                                                app.spec.target_loss);
    best = std::min(best, elapsed + left / rates[j]);
  }
  return best;
}

double Agent::RhoFromSharedTime(const AppState& app, double t_sh) const {
  if (!std::isfinite(t_sh)) return kUnboundedRho;
  const double rho = t_sh / app.ideal_time;
  return std::clamp(rho, 1e-9, kUnboundedRho);
}

double Agent::CurrentRho(const AppState& app) const {
  return RhoFromSharedTime(app, SharedRunningTime(app, CurrentRates(app)));
}

double Agent::HypotheticalRho(const AppState& app,
                              const std::vector<GpuId>& extra) const {
  std::vector<double> rates = CurrentRates(app);
  for (const JobAssignment& a : DistributeToJobs(app, extra)) {
    const JobState& job = app.jobs[a.job_index];
    rates[a.job_index] = RateWith(job.spec, job.gpus, a.gpus, *topo_);
  }
  return RhoFromSharedTime(app, SharedRunningTime(app, rates));
}

std::vector<JobAssignment> Agent::DistributeToJobs(
    const AppState& app, const std::vector<GpuId>& granted) const {
  std::vector<JobAssignment> out;
  GpuPool pool(granted, *topo_);
  std::vector<std::pair<Work, int>> order;
  JobPriorityOrder(app, order);
  for (const auto& [left, j] : order) {
    if (pool.empty()) break;
    const JobState& job = app.jobs[j];
    const int gang = job.spec.gpus_per_task;
    int gangs = std::min(job.UnmetGangs(), pool.size() / gang);
    if (gangs <= 0) continue;
    std::vector<GpuId> picked =
        PickBestPlacedNear(gangs * gang, pool, job.gpus, *topo_);
    // Trim to whole gangs (PickBestPlacedNear returns what exists).
    const int usable = UsableGpus(job.spec, static_cast<int>(picked.size()));
    picked.resize(usable);
    // Shrink until the combined set satisfies the job's placement
    // constraint; an assignment the job cannot run on is worthless.
    while (!picked.empty() &&
           RateWith(job.spec, job.gpus, picked, *topo_) <= 0.0)
      picked.resize(picked.size() - gang);
    if (picked.empty()) continue;
    for (GpuId g : picked) pool.Remove(g);
    out.push_back({j, std::move(picked)});
  }
  return out;
}

AgentBid Agent::PrepareBid(const AppState& app,
                           const std::vector<GpuId>& offered,
                           int max_rows) const {
  AgentBid bid;
  bid.table.app = app.id;
  const int machines = topo_->num_machines();

  auto row_vector = [&](const std::vector<GpuId>& gpus) {
    std::vector<int> v(machines, 0);
    for (GpuId g : gpus) ++v[topo_->gpu(g).machine];
    return v;
  };

  // The zero row's rates seed every cut: an increment changes only the
  // grown job's rate.
  std::vector<double> rates = CurrentRates(app);
  const double current_rho =
      RhoFromSharedTime(app, SharedRunningTime(app, rates));
  BidRow zero;
  zero.gpus_per_machine.assign(machines, 0);
  zero.rho = current_rho;
  bid.table.rows.push_back(zero);
  bid.row_gpus.push_back({});

  // Build the cumulative gang increments: walk jobs in priority order, each
  // taking one gang at a time from the offered pool, placed near the GPUs
  // already chosen for that job. Cut i bundles the first `size` GPUs of
  // picked_all.
  struct Cut {
    std::size_t size;
    double t_sh;
  };
  std::vector<Cut> cuts;
  GpuPool pool(offered, *topo_);
  std::vector<GpuId> picked_all;
  std::vector<std::vector<GpuId>> hypothetical(app.jobs.size());
  for (std::size_t j = 0; j < app.jobs.size(); ++j)
    hypothetical[j] = app.jobs[j].gpus;

  std::vector<std::pair<Work, int>> order;
  JobPriorityOrder(app, order);
  bool progress = true;
  while (progress) {
    progress = false;
    for (const auto& [left, j] : order) {
      const JobState& job = app.jobs[j];
      const int gang = job.spec.gpus_per_task;
      const int cap = std::min(job.parallelism_cap, job.spec.MaxParallelism());
      const int held = static_cast<int>(hypothetical[j].size());
      if (held + gang > cap) continue;
      if (pool.size() < gang) continue;
      std::vector<GpuId> inc =
          PickBestPlacedNear(gang, pool, hypothetical[j], *topo_);
      if (static_cast<int>(inc.size()) < gang) continue;
      // Never bid on bundles the job's placement constraint forbids
      // (Sec. 6: their rho would be infinite).
      const double rate = RateWith(job.spec, hypothetical[j], inc, *topo_);
      if (rate <= 0.0) continue;
      for (GpuId g : inc) pool.Remove(g);
      hypothetical[j].insert(hypothetical[j].end(), inc.begin(), inc.end());
      picked_all.insert(picked_all.end(), inc.begin(), inc.end());
      rates[j] = rate;
      cuts.push_back({picked_all.size(), SharedRunningTime(app, rates)});
      progress = true;
    }
  }

  if (cuts.empty()) return bid;

  // Keep at most max_rows cuts, evenly spaced and always including the last
  // (largest) bundle.
  std::vector<std::size_t> keep;
  if (static_cast<int>(cuts.size()) <= max_rows) {
    for (std::size_t i = 0; i < cuts.size(); ++i) keep.push_back(i);
  } else {
    for (int r = 0; r < max_rows; ++r)
      keep.push_back((r + 1) * cuts.size() / max_rows - 1);
  }

  for (std::size_t i : keep) {
    std::vector<GpuId> gpus(picked_all.begin(),
                            picked_all.begin() + cuts[i].size);
    BidRow row;
    row.gpus_per_machine = row_vector(gpus);
    row.rho = RhoFromSharedTime(app, cuts[i].t_sh);
    // Monotonicity guard: extra GPUs never value worse than the current rho.
    row.rho = std::min(row.rho, current_rho);
    bid.table.rows.push_back(std::move(row));
    bid.row_gpus.push_back(std::move(gpus));
  }
  return bid;
}

}  // namespace themis
